"""Ranking-stability analysis: bootstrap resampling and the document-type flip.

Each evaluation of a :class:`~jrank.indicators.RankKernel` scores all four
indicators, so every requested key is read off the same evaluations.  The
bootstrap encodes the corpus once.  A bootstrap resample redraws every
journal's publication list with replacement to its original size; it keeps
the corpus's papers and changes only how often each one counts.
:func:`bootstrap_rankings` lays the draw out by journal, journals in id order
and each journal's papers in corpus order, and maps every drawn position back
to its corpus row, the kernel's paper order.  A simulation is therefore one
draw for all journals, one ``bincount`` into weights, one kernel evaluation
and one :func:`~jrank.ranking.ranks` per key into one column of that key's
journals x simulations matrix, whose rows the report's quartiles and
``delta`` reduce.  One ``Scores`` is alive at a time: the unweighted one is
freed once it has chosen the tracked journals, and each simulation's once its
ranks are stored.  The flip test scores two corpora with
:func:`~jrank.indicators.compute_all`: the one given, and a copy whose only
change is that each journal's most cited paper has the other document type.
It ranks each side into one array per key before it scores the next, so one
kernel is alive at a time, and joins the two sides by journal code.
Per-simulation seeds are spawned deterministically from the master seed, so a
report is reproducible bit for bit.

Journals covered by a report are those rankable on the *original* corpus
under the indicator.  A journal that loses its comparison sets in a
particular simulation receives the sentinel rank (tracked journal count + 1)
for that simulation; the sentinel is recorded in the output files' meta and
JSON.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .indicators import RankKernel, Scores, compute_all
from .ranking import ranks


def bootstrap_rankings(
    corpus: Corpus, keys: Sequence[str], sims: int = 100, seed: int = 42
) -> dict[str, tuple[list[str], np.ndarray]]:
    """Resample the corpus ``sims`` times and collect each tracked journal's rank under every key.

    Returns ``{key: (journal_ids, ranks)}``, keys in ``keys`` order: the
    tracked journals in id order, and their ranks as a journals x simulations
    int64 matrix, ``ranks[i, sim]`` being ``journal_ids[i]``'s in ``sim``.
    Raises ValueError when no journal is rankable on one of the keys or ``sims`` < 1.
    """
    if sims < 1:
        raise ValueError(f"sims must be >= 1, got {sims}")
    kernel = RankKernel(corpus)
    scores = kernel.evaluate()
    tracked = {key: np.flatnonzero(~np.isnan(scores.column(key))) for key in keys}
    del scores
    for key, codes in tracked.items():
        if not codes.size:
            raise ValueError(f"corpus has no journals rankable on {key!r}")

    # journals in id order, each drawing its size from its own papers, which
    # keep corpus order; by_journal maps a draw back to its corpus row.  The
    # three per-paper arrays are int32, as the kernel's paper indices are;
    # int32 bounds give the same int64 draws
    by_journal = np.argsort(corpus.journal, kind="stable").astype(np.int32)
    sizes = np.bincount(corpus.journal)
    sizes = sizes[sizes > 0].astype(np.int32)
    highs = np.repeat(sizes, sizes)
    offsets = np.repeat((np.cumsum(sizes) - sizes).astype(np.int32), sizes)
    sampled = {key: np.empty((len(codes), sims), dtype=np.int64) for key, codes in tracked.items()}
    for sim, seq in enumerate(np.random.SeedSequence(seed).spawn(sims)):
        rng = np.random.default_rng(seq)
        # the weights go in unnamed, so that evaluate() frees them before its per-pair stage
        scores = kernel.evaluate(np.bincount(by_journal[rng.integers(0, highs) + offsets], minlength=len(highs)))
        for key, codes in tracked.items():
            sampled[key][:, sim] = ranks(scores.column(key), len(codes) + 1)[codes]
        del scores
    return {
        key: ([kernel.journal_ids[code] for code in codes.tolist()], sampled[key])
        for key, codes in tracked.items()
    }


def relative_change(ranks: np.ndarray) -> float:
    """Mean over journals (rows) of (max - min) / average of their sampled ranks (columns).

    Zero iff every journal's rank is constant; always non-negative.  Terms are
    added left to right, as a plain loop would.  Raises ValueError on an empty matrix.
    """
    if not ranks.size:
        raise ValueError(f"no ranking samples to summarize: shape {ranks.shape}")
    terms = (ranks.max(axis=1) - ranks.min(axis=1)) / (np.add.reduce(ranks, axis=1) / ranks.shape[1])
    return float(np.add.accumulate(terms)[-1] / len(terms))


def bootstrap_report(
    corpus: Corpus, keys: Sequence[str], sims: int = 100, seed: int = 42
) -> dict[str, tuple[list[tuple[str, int, float, float, float, int]], float]]:
    """Run the bootstrap once and summarize each journal's rank distribution under every key.

    Returns ``{key: (rows, delta)}``: one ``(journal_id, min, q1, median, q3,
    max)`` row per tracked journal, in id order, and the key's
    :func:`relative_change`.
    """
    reports = {}
    for key, (journal_ids, samples) in bootstrap_rankings(corpus, keys, sims=sims, seed=seed).items():
        ranks = np.sort(samples, axis=1)
        # inclusive quartiles: interpolation between order statistics, exact in integers until the last division
        low, step = np.divmod(np.arange(1, 4) * (sims - 1), 4)
        q1, median, q3 = ((ranks[:, low] * (4 - step) + ranks[:, np.minimum(low + 1, sims - 1)] * step) / 4).T.tolist()
        rows = list(zip(journal_ids, ranks[:, 0].tolist(), q1, median, q3, ranks[:, -1].tolist()))
        reports[key] = (rows, relative_change(ranks))
    return reports


def _top_papers(corpus: Corpus) -> np.ndarray:
    """Corpus row of every journal's most cited paper, ties to the smallest pub_id in Python str order."""
    most = np.zeros(len(corpus.journal_ids), dtype=np.int64)
    np.maximum.at(most, corpus.journal, corpus.citations)
    candidates = np.flatnonzero(corpus.citations == most[corpus.journal])
    pub_ids = map(corpus.pub_ids.__getitem__, candidates.tolist())
    ties = sorted(zip(corpus.journal[candidates].tolist(), pub_ids, candidates.tolist()))
    return np.array([next(tied)[2] for _, tied in groupby(ties, key=itemgetter(0))], dtype=np.int64)


def perturbation_comparison(
    corpus: Corpus, keys: Sequence[str]
) -> dict[str, list[tuple[str, int | None, int | None]]]:
    """Ranks before and after the document-type flip, joined per journal; ``{key: rows}`` in ``keys`` order.

    Rows cover every journal rankable in either ranking, ordered by original
    rank (journals unrankable in the original corpus last), with None where a
    journal is unrankable on that side.
    """
    review = corpus.review.copy()
    review[_top_papers(corpus)] ^= True

    def ranked(scores: Scores) -> dict[str, np.ndarray]:
        # each side is ranked as soon as it is scored, so its Scores and kernel are freed before the next is built
        return {key: ranks(scores.column(key), 0) for key in keys}

    sides = [ranked(compute_all(side)) for side in (corpus, replace(corpus, review=review))]
    comparisons = {}
    for key in keys:
        original, perturbed = (side[key] for side in sides)
        codes = np.flatnonzero((original > 0) | (perturbed > 0))
        # by original rank; journals unrankable there come after every rank, in id order
        codes = codes[np.argsort(np.where(original > 0, original, len(original) + 1)[codes], kind="stable")]
        rows = zip(codes.tolist(), original[codes].tolist(), perturbed[codes].tolist())
        comparisons[key] = [(corpus.journal_ids[code], before or None, after or None) for code, before, after in rows]
    return comparisons
