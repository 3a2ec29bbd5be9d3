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

All four come from one columnar kernel, :class:`RankKernel`.  It encodes the
corpus once as integer arrays (a journal code and a cell code per paper, and
the citation counts) and sorts the classified papers twice, by (cell,
citations) and by (journal, cell).  Per cell, ``fncsi`` is a normalized
Mann-Whitney U statistic in rank-sum form: a journal's paper scores 2 per
paper of its cell cited less and 1 per paper cited equally, itself and its
own journal's papers included.  Those score exactly ``n_own**2`` among
themselves, so the sum less that is twice U: twice the wins plus the ties
against other journals.  Scores are differences of cumulative weights along
the (cell, citations) order, so an integer reweighting of the papers (a
bootstrap resample) needs no new sort.  Twice U is summed per occupied
(journal, cell) pair in int64 and divided once, so pure-tie cells score
exactly 0.5 and the two-journal complement identity holds exactly.

Aggregation order is fixed everywhere (topics sorted by id, articles before
reviews, journals sorted by id) and floating-point sums accumulate left to
right, so results are bit-reproducible regardless of input order.  Journals
for which an indicator is undefined are marked with None, never a fabricated
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, DocumentType

INDICATOR_KEYS = ("fncsi", "fnif", "expected_jif", "jif")

# fixed document-type aggregation order; the rank is the low bit of a cell code
_DOC_RANK = {DocumentType.ARTICLE: 0, DocumentType.REVIEW: 1}


@dataclass(frozen=True)
class JournalIndicator:
    """All four indicator values for one journal.

    None marks an indicator as undefined for the journal (no publications, no
    classified publications, or no non-empty comparison sets, depending on
    the indicator).  ``n_pubs`` counts classified publications only.
    ``topic_breakdown`` maps topic id to (per-topic score, number of the
    journal's papers that entered comparisons in that topic); topics whose
    comparison sets were all empty are omitted.
    """

    journal_id: str
    fncsi: float | None
    fnif: float | None
    expected_jif: float | None
    jif: float | None
    n_pubs: int
    topic_breakdown: dict[str, tuple[float, int]] = field(default_factory=dict)


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


@dataclass(eq=False)
class RankKernel:
    """Columnar encoding of a corpus and the scoring kernel over it.

    Papers are grouped by journal code, journals in id order, and keep corpus
    order within a journal, so ``journal_sizes`` also lays out a bootstrap
    resample; paper ``i`` is corpus row ``rows[i]``.  ``cell`` is
    ``2 * topic rank + document-type rank``, or -1 for an unclassified paper.
    ``by_cell`` orders the classified papers by (cell, citations), ``by_pair``
    by (journal, cell).  Journal codes cover the journal table and every
    journal that publishes; only table journals (``in_table``) are scored.
    """

    journal_ids: tuple[str, ...]
    topic_ids: tuple[str, ...]
    in_table: np.ndarray
    journal: np.ndarray
    cell: np.ndarray
    citations: np.ndarray
    rows: np.ndarray

    def __post_init__(self) -> None:
        self.journal_sizes = np.bincount(self.journal, minlength=len(self.journal_ids))
        classified = np.flatnonzero(self.cell >= 0)
        journal, cell, citations = self.journal[classified], self.cell[classified], self.citations[classified]
        self.by_cell = classified[np.lexsort((citations, cell))].astype(np.int32)
        self.by_pair = classified[np.lexsort((cell, journal))].astype(np.int32)

        # runs of equal (cell, citations) along by_cell, grouped by cell
        cell = self.cell[self.by_cell]
        citations = self.citations[self.by_cell]
        self._runs = _run_starts(cell, citations)
        run_cell = cell[self._runs]
        self._run_citations = citations[self._runs]
        self._cell_starts = _run_starts(run_cell)
        self._cells = run_cell[self._cell_starts]
        self._cell_of_run = _group_of(self._cell_starts, len(self._runs))
        run_of_paper = np.empty(len(self.cell), dtype=np.int32)
        run_of_paper[self.by_cell] = _group_of(self._runs, len(self.by_cell))

        # occupied (journal, cell) pairs along by_pair, each paper matched to
        # its run above; pairs grouped by (journal, topic)
        self._run_of_paired = run_of_paper[self.by_pair]
        journal = self.journal[self.by_pair]
        cell = self.cell[self.by_pair]
        self._pair_starts = _run_starts(journal, cell)
        self.pair_journal = journal[self._pair_starts]
        self.pair_cell = cell[self._pair_starts]
        self._topic_starts = _run_starts(self.pair_journal, self.pair_cell >> 1)
        self._group_of_pair = _group_of(self._topic_starts, len(self._pair_starts))
        self._group_journal = self.pair_journal[self._topic_starts]
        self._group_topic = self.pair_cell[self._topic_starts] >> 1

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> RankKernel:
        """Encode a corpus; topics are those its classified publications use."""
        journal_ids = tuple(sorted(corpus.journals.keys() | set(corpus.journal_ids)))
        topic_ids = tuple(sorted(set(corpus.topic_ids) - {None}))
        journal_code = {journal_id: code for code, journal_id in enumerate(journal_ids)}
        journal = np.fromiter(map(journal_code.__getitem__, corpus.journal_ids), dtype=np.int32)
        topic_code = {None: -1} | {topic_id: code for code, topic_id in enumerate(topic_ids)}
        topic = np.fromiter(map(topic_code.__getitem__, corpus.topic_ids), dtype=np.int32)
        doc = np.fromiter(map(_DOC_RANK.__getitem__, corpus.doc_types), dtype=np.int32)
        rows = np.argsort(journal, kind="stable")
        return cls(
            journal_ids=journal_ids,
            topic_ids=topic_ids,
            in_table=np.array([j in corpus.journals for j in journal_ids], dtype=bool),
            journal=journal[rows],
            cell=np.where(topic < 0, -1, 2 * topic + doc)[rows],
            citations=np.array(corpus.citations, dtype=np.int64)[rows],
            rows=rows,
        )

    def _counts(self, weights: np.ndarray) -> tuple[np.ndarray, ...]:
        """Integer totals per cell code, and integer counts per occupied (journal, cell) pair."""
        n_cells = 2 * len(self.topic_ids)
        # a run's weight is every member's equal_in_cell
        run_weight = np.add.reduceat(weights[self.by_cell], self._runs)
        before = np.cumsum(run_weight) - run_weight
        below_in_cell = before - before[self._cell_starts][self._cell_of_run]
        cell_total = np.zeros(n_cells, dtype=np.int64)
        cell_total[self._cells] = np.add.reduceat(run_weight, self._cell_starts)
        cell_citations = np.zeros(n_cells, dtype=np.int64)
        cell_citations[self._cells] = np.add.reduceat(run_weight * self._run_citations, self._cell_starts)

        # twice U: 2 per same-cell paper cited less, 1 per paper cited equally,
        # less the n_own**2 that the pair's papers score against each other
        paired_weight = weights[self.by_pair]
        run = self._run_of_paired
        n_own = np.add.reduceat(paired_weight, self._pair_starts)
        rank_sum = np.add.reduceat(paired_weight * (2 * below_in_cell + run_weight)[run], self._pair_starts)
        own_citations = np.add.reduceat(paired_weight * self._run_citations[run], self._pair_starts)
        return cell_total, cell_citations, n_own, rank_sum - n_own * n_own, own_citations

    def evaluate(self, weights: np.ndarray | None = None) -> Scores:
        """Score every journal, each paper counted ``weights[i]`` times (default once)."""
        weights = np.ones(len(self.journal), dtype=np.int64) if weights is None else np.asarray(weights)
        if weights.dtype.kind not in "iu" or weights.shape != self.journal.shape or (weights < 0).any():
            raise ValueError(f"weights must be one non-negative integer per paper, not {weights.dtype} {weights.shape}")
        weights = weights.astype(np.int64, copy=False)
        n_journals = len(self.journal_ids)
        cell_total, cell_citations, n_own, numerator, own_citations = self._counts(weights)

        # fncsi: cells without comparison papers drop out, weights renormalize
        n_other = cell_total[self.pair_cell] - n_own
        compared = (n_own > 0) & (n_other > 0)
        # integer numerator, one division: exact for pure ties and complements
        probability = _divide(numerator, 2 * n_own * n_other, compared)
        n_groups = len(self._topic_starts)
        topic_sum = np.bincount(
            self._group_of_pair, weights=np.where(compared, n_own * probability, 0.0), minlength=n_groups
        )
        topic_n = np.add.reduceat(np.where(compared, n_own, 0), self._topic_starts)
        topic_score = _divide(topic_sum, topic_n, topic_n > 0)
        weighted = np.bincount(
            self._group_journal, weights=np.where(topic_n > 0, topic_n * topic_score, 0.0), minlength=n_journals
        )
        weight = np.bincount(self._group_journal, weights=topic_n, minlength=n_journals)

        # fnif: an all-uncited cell's normalized citations are defined as 0
        divisor = cell_citations[self.pair_cell]
        fnif_terms = _divide(own_citations * cell_total[self.pair_cell], divisor, divisor > 0, fill=0.0)
        n_classified = np.bincount(self.pair_journal, weights=n_own, minlength=n_journals)

        # expected_jif: topic means pool articles and reviews
        topic_citations = cell_citations.reshape(-1, 2).sum(axis=1)
        topic_total = cell_total.reshape(-1, 2).sum(axis=1)
        topic_mean = _divide(topic_citations, topic_total, topic_total > 0)
        topic_count = np.add.reduceat(n_own, self._topic_starts)
        expected_terms = np.where(topic_count > 0, topic_mean[self._group_topic] * topic_count, 0.0)

        # jif: every paper, classified or not
        jif_citations = np.bincount(self.journal, weights=weights * self.citations, minlength=n_journals)
        jif_papers = np.bincount(self.journal, weights=weights, minlength=n_journals)

        classified = n_classified > 0
        return Scores(
            kernel=self,
            fncsi=_divide(weighted, weight, weight > 0),
            fnif=_divide(np.bincount(self.pair_journal, weights=fnif_terms, minlength=n_journals), n_classified, classified),
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


def _optional(value: float) -> float | None:
    return None if math.isnan(value) else value


@dataclass(frozen=True, eq=False)
class Scores:
    """One kernel evaluation.

    Indicator arrays and ``n_classified`` are indexed by journal code, NaN
    where the indicator is undefined; ``cell_total`` and ``cell_citations``
    by cell code; ``pair_score`` (NaN without comparison papers) and
    ``pair_papers`` by the kernel's occupied (journal, cell) pairs;
    ``topic_score`` and ``topic_n`` by its (journal, topic) groups.
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

    def records(self) -> list[JournalIndicator]:
        """All four indicators for every journal of the journal table, in id order."""
        kernel = self.kernel
        breakdowns: list[dict[str, tuple[float, int]]] = [{} for _ in kernel.journal_ids]
        for code, topic, score, n in zip(
            kernel._group_journal.tolist(),
            kernel._group_topic.tolist(),
            self.topic_score.tolist(),
            self.topic_n.tolist(),
        ):
            if n:
                breakdowns[code][kernel.topic_ids[topic]] = (score, n)
        columns = [getattr(self, key).tolist() for key in INDICATOR_KEYS]
        n_classified = self.n_classified.tolist()
        return [
            JournalIndicator(
                journal_id,
                *(_optional(column[code]) for column in columns),
                n_pubs=n_classified[code],
                topic_breakdown=breakdowns[code],
            )
            for code, journal_id in enumerate(kernel.journal_ids)
            if kernel.in_table[code]
        ]


def compute_all(corpus: Corpus) -> list[JournalIndicator]:
    """Compute all four indicators for every journal, sorted by journal id."""
    return RankKernel.from_corpus(corpus).evaluate().records()
