"""Field-normalized journal impact indicators.

Classified publications are partitioned into cells, one per (topic,
document-type) pair, and every indicator is assembled from per-cell
statistics:

* ``fncsi`` — probability that a random paper of the journal outcites a
  random same-cell paper from the other journals, ties credited one half,
  aggregated over the journal's cells by publication-count weights.
* ``fnif`` — mean of per-paper citations, each divided by its cell's average
  citation.
* ``expected_jif`` — publication-weighted average of topic mean citations
  (document types pooled): the citation level a journal's topic mix alone
  would predict.
* ``jif`` — plain citations-per-item over all of the journal's publications,
  classified or not.

All four come from one columnar kernel, :class:`RankKernel`.  It reads the
corpus's columns in place, in corpus row order, derives a cell code per paper
from its topic code and review flag, and sorts the classified papers twice,
by (cell, citations) and by (journal, cell).  Per cell, ``fncsi`` is a
normalized Mann-Whitney U statistic in rank-sum form: a journal's paper
scores 2 per paper of its cell cited less and 1 per paper cited equally,
itself and its own journal's papers included.  Those score exactly ``n_own**2`` among
themselves, so the sum less that is twice U: twice the wins plus the ties
against other journals.  Scores are differences of cumulative weights along
the (cell, citations) order, so an integer reweighting of the papers (a
bootstrap resample) needs no new sort.  Twice U is summed per occupied
(journal, cell) pair in int64 and divided once, so pure-tie cells score
exactly 0.5 and the two-journal complement identity holds exactly.

Aggregation order is fixed everywhere (topics sorted by id, articles before
reviews, journals sorted by id) and floating-point sums accumulate left to
right, so results are bit-reproducible regardless of input order.  Journals
for which an indicator is undefined hold NaN, never a fabricated zero.
Citation sums are exact int64: a corpus or weighting under which a citation
sum, or a product of citations and paper counts, would pass 2**63 - 1 is
rejected, not wrapped, and so are weights that total more than 2**31 - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, _in_table

INDICATOR_KEYS = ("fncsi", "fnif", "expected_jif", "jif")


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal consecutive key tuples."""
    first = np.zeros(len(keys[0]), dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(first)


def _group_of(starts: np.ndarray, n: int) -> np.ndarray:
    """Group index of each of ``n`` items, given each group's start index."""
    return np.repeat(np.arange(len(starts), dtype=np.int32), np.diff(starts, append=n))


def _divide(num: np.ndarray, den: np.ndarray, where: np.ndarray, fill: float = math.nan) -> np.ndarray:
    return np.divide(num, den, out=np.full(len(num), fill), where=where)


_INT64_MAX = 2**63 - 1
_OVERFLOW = f"citation counts too large: a weighted citation sum or product would pass 2**63 - 1 ({_INT64_MAX})"
_MAX_WEIGHT = 2**31 - 1  # bounds the paper counts, so rank_sum <= 2 * W**2 and 2 * n_own * n_other fit int64


def _check_products(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ValueError unless every product of the non-negative integers ``a`` and ``b`` fits int64."""
    if (a > _INT64_MAX // np.maximum(b, 1)).any():
        raise ValueError(_OVERFLOW)


def _check_sums(terms: np.ndarray, starts: np.ndarray) -> None:
    """Raise ValueError unless every segment sum of the non-negative int64 ``terms`` fits int64.

    The high and low 32 bits are summed apart, so neither sum can wrap while a
    segment holds fewer than 2**31 terms; the total is below 2**63 exactly when
    its part above the low 32 bits is below 2**31.
    """
    high = np.add.reduceat(terms >> 32, starts) + (np.add.reduceat(terms & 0xFFFFFFFF, starts) >> 32)
    if (high >= 2**31).any():
        raise ValueError(_OVERFLOW)


@dataclass(eq=False)
class RankKernel:
    """The scoring kernel of a corpus, whose codes it reads in place: paper ``i`` is corpus row ``i``.

    A paper's cell code is ``2 * topic code + review flag``, articles before
    reviews, or -1 for an unclassified paper; it is derived while the kernel
    is built and not kept.  ``journal``, ``citations`` and the code tables are
    the corpus's own.  ``by_cell`` orders the classified papers by (cell,
    citations), ``by_pair`` by (journal, cell).  Journal codes cover the
    journal table and every journal that publishes; only table journals
    (``in_table``) are scored.

    The build keeps only the arrays that ``evaluate`` reads: ``in_table``;
    per classified paper, ``by_cell``, ``by_pair`` and ``_run_of_paired``
    (int32); per run of equal (cell, citations), ``_runs``,
    ``_run_citations`` and ``_cell_of_run``; per occupied cell,
    ``_cell_starts`` and ``_cells``; per occupied (journal, cell) pair,
    ``_pair_starts``, ``pair_journal``, ``pair_cell`` and ``_group_of_pair``;
    per (journal, topic) group, ``_topic_starts``, ``_group_journal`` and
    ``_group_topic``.  The cell codes, the sort keys and the sorted gathers
    are freed after their last read.
    """

    corpus: Corpus

    def __post_init__(self) -> None:
        corpus = self.corpus
        self.journal_ids, self.topic_ids = corpus.journal_ids, corpus.topics
        self.journal, self.citations = corpus.journal, corpus.citations
        self.in_table = _in_table(corpus)
        codes = np.where(corpus.topic < 0, -1, 2 * corpus.topic + corpus.review)
        classified = np.flatnonzero(codes >= 0).astype(np.int32)
        cell = codes[classified]
        self.by_cell = classified[np.lexsort((self.citations[classified], cell))]
        # journal and cell codes are int32, so the int64 key cannot pass 2**63 - 1
        key = self.journal[classified].astype(np.int64) * (2 * len(self.topic_ids)) + cell
        del cell
        self.by_pair = classified[np.argsort(key, kind="stable")]
        del key, classified

        # runs of equal (cell, citations) along by_cell, grouped by cell
        cell = codes[self.by_cell]
        self._runs = _run_starts(cell, self.citations[self.by_cell])
        run_cell = cell[self._runs]
        del cell
        self._run_citations = self.citations[self.by_cell[self._runs]]
        self._cell_starts = _run_starts(run_cell)
        self._cells = run_cell[self._cell_starts]
        self._cell_of_run = _group_of(self._cell_starts, len(self._runs))
        run_of_paper = np.empty(len(codes), dtype=np.int32)
        run_of_paper[self.by_cell] = _group_of(self._runs, len(self.by_cell))

        # occupied (journal, cell) pairs along by_pair, each paper matched to
        # its run above; pairs grouped by (journal, topic)
        self._run_of_paired = run_of_paper[self.by_pair]
        del run_of_paper
        journal, cell = self.journal[self.by_pair], codes[self.by_pair]
        del codes
        self._pair_starts = _run_starts(journal, cell)
        self.pair_journal = journal[self._pair_starts]
        self.pair_cell = cell[self._pair_starts]
        del journal, cell
        self._topic_starts = _run_starts(self.pair_journal, self.pair_cell >> 1)
        self._group_of_pair = _group_of(self._topic_starts, len(self._pair_starts))
        self._group_journal = self.pair_journal[self._topic_starts]
        self._group_topic = self.pair_cell[self._topic_starts] >> 1

    def _counts(self, weights: np.ndarray) -> tuple[np.ndarray, ...]:
        """Integer totals per cell code, and integer counts per occupied (journal, cell) pair."""
        n_cells = 2 * len(self.topic_ids)
        # a run's weight is every member's equal_in_cell
        run_weight = np.add.reduceat(weights[self.by_cell], self._runs)
        before = np.cumsum(run_weight) - run_weight
        below_in_cell = before - before[self._cell_starts][self._cell_of_run]
        cell_total = np.zeros(n_cells, dtype=np.int64)
        cell_total[self._cells] = np.add.reduceat(run_weight, self._cell_starts)
        # every weighted citation term, and every partial sum below, is at most its cell's sum
        _check_products(self._run_citations, run_weight)
        run_citations = run_weight * self._run_citations
        _check_sums(run_citations, self._cell_starts)
        cell_citations = np.zeros(n_cells, dtype=np.int64)
        cell_citations[self._cells] = np.add.reduceat(run_citations, self._cell_starts)

        # twice U: 2 per same-cell paper cited less, 1 per paper cited equally,
        # less the n_own**2 that the pair's papers score against each other
        paired_weight = weights[self.by_pair]
        run = self._run_of_paired
        n_own = np.add.reduceat(paired_weight, self._pair_starts)
        # one per-paper buffer serves both pair terms
        terms = (2 * below_in_cell + run_weight)[run]
        terms *= paired_weight
        rank_sum = np.add.reduceat(terms, self._pair_starts)
        np.take(self._run_citations, run, out=terms)
        terms *= paired_weight
        del paired_weight
        own_citations = np.add.reduceat(terms, self._pair_starts)
        del terms
        rank_sum -= n_own * n_own
        return cell_total, cell_citations, n_own, rank_sum, own_citations

    def evaluate(self, weights: np.ndarray | None = None) -> Scores:
        """Score every journal, each paper counted ``weights[i]`` times (default once).

        Raises ValueError for weights that are not one non-negative integer per
        paper or that total more than 2**31 - 1, and for citation sums or
        products that would pass 2**63 - 1.

        Every per-paper array, ``weights`` included once the caller holds no
        other reference, is freed before the per-pair stage, and each per-pair
        temporary once it is reduced.
        """
        weights = np.ones(len(self.journal), dtype=np.int64) if weights is None else np.asarray(weights)
        if weights.dtype.kind not in "iu" or weights.shape != self.journal.shape or (weights < 0).any():
            raise ValueError(f"weights must be one non-negative integer per paper, not {weights.dtype} {weights.shape}")
        # the largest weight is bounded first, so that the total cannot wrap
        if weights.max(initial=0) > _MAX_WEIGHT or weights.sum() > _MAX_WEIGHT:
            raise ValueError(f"weights must total at most 2**31 - 1 ({_MAX_WEIGHT})")
        weights = weights.astype(np.int64, copy=False)
        n_journals = len(self.journal_ids)
        # jif: every paper, classified or not
        _check_products(self.citations, weights)
        jif_citations = np.bincount(self.journal, weights=weights * self.citations, minlength=n_journals)
        jif_papers = np.bincount(self.journal, weights=weights, minlength=n_journals)
        cell_total, cell_citations, n_own, numerator, own_citations = self._counts(weights)
        del weights

        # fncsi: cells without comparison papers drop out, weights renormalize
        pair_total = cell_total[self.pair_cell]
        n_other = pair_total - n_own
        compared = (n_own > 0) & (n_other > 0)
        # integer numerator, one division by 2 * n_own * n_other: exact for pure ties and complements
        n_other *= n_own
        n_other *= 2
        probability = _divide(numerator, n_other, compared)
        del numerator, n_other
        n_groups = len(self._topic_starts)
        pair_terms = n_own * probability
        pair_terms[~compared] = 0.0
        topic_sum = np.bincount(self._group_of_pair, weights=pair_terms, minlength=n_groups)
        del pair_terms
        topic_n = np.add.reduceat(np.where(compared, n_own, 0), self._topic_starts)
        topic_score = _divide(topic_sum, topic_n, topic_n > 0)
        del topic_sum
        weighted = np.bincount(
            self._group_journal, weights=np.where(topic_n > 0, topic_n * topic_score, 0.0), minlength=n_journals
        )
        weight = np.bincount(self._group_journal, weights=topic_n, minlength=n_journals)

        # fnif: an all-uncited cell's normalized citations are defined as 0
        divisor = cell_citations[self.pair_cell]
        _check_products(own_citations, pair_total)
        own_citations *= pair_total
        del pair_total
        fnif_terms = _divide(own_citations, divisor, divisor > 0, fill=0.0)
        del own_citations, divisor
        fnif_sum = np.bincount(self.pair_journal, weights=fnif_terms, minlength=n_journals)
        del fnif_terms
        n_classified = np.bincount(self.pair_journal, weights=n_own, minlength=n_journals)

        # expected_jif: topic means pool articles and reviews
        topic_citations = cell_citations.reshape(-1, 2).sum(axis=1)
        topic_total = cell_total.reshape(-1, 2).sum(axis=1)
        topic_mean = _divide(topic_citations, topic_total, topic_total > 0)
        topic_count = np.add.reduceat(n_own, self._topic_starts)
        expected_terms = np.where(topic_count > 0, topic_mean[self._group_topic] * topic_count, 0.0)

        classified = n_classified > 0
        return Scores(
            kernel=self,
            fncsi=_divide(weighted, weight, weight > 0),
            fnif=_divide(fnif_sum, n_classified, classified),
            expected_jif=_divide(
                np.bincount(self._group_journal, weights=expected_terms, minlength=n_journals), n_classified, classified
            ),
            jif=_divide(jif_citations, jif_papers, jif_papers > 0),
            n_classified=n_classified.astype(np.int64),
            cell_total=cell_total,
            cell_citations=cell_citations,
            pair_score=probability,
            pair_papers=n_own,
            topic_score=topic_score,
            topic_n=topic_n,
        )


@dataclass(frozen=True, eq=False)
class Scores:
    """One kernel evaluation.

    Indicator arrays and ``n_classified`` are indexed by journal code, NaN
    where the indicator is undefined; ``cell_total`` and ``cell_citations``
    by cell code; ``pair_score`` (NaN without comparison papers) and
    ``pair_papers`` by the kernel's occupied (journal, cell) pairs;
    ``topic_score`` and ``topic_n`` by its (journal, topic) groups, which
    ``kernel._group_journal`` and ``kernel._group_topic`` name in journal,
    then topic code order.
    """

    kernel: RankKernel
    fncsi: np.ndarray
    fnif: np.ndarray
    expected_jif: np.ndarray
    jif: np.ndarray
    n_classified: np.ndarray
    cell_total: np.ndarray
    cell_citations: np.ndarray
    pair_score: np.ndarray
    pair_papers: np.ndarray
    topic_score: np.ndarray
    topic_n: np.ndarray

    def column(self, key: str) -> np.ndarray:
        """One indicator per journal code, NaN where undefined or outside the journal table."""
        if key not in INDICATOR_KEYS:
            raise ValueError(f"unknown indicator key {key!r}; expected one of {INDICATOR_KEYS}")
        return np.where(self.kernel.in_table, getattr(self, key), math.nan)


def compute_all(corpus: Corpus) -> Scores:
    """All four indicators for every journal: the ``Scores`` of one encoding and one unweighted evaluation."""
    return RankKernel(corpus).evaluate()
