"""Ranking-stability analysis: bootstrap resampling and the document-type flip.

A bootstrap resample redraws every journal's publication list with
replacement to its original size.  It keeps the corpus's papers and changes
only how often each one counts, so the corpus is encoded once as a
:class:`~jrank.indicators.RankKernel` and every simulation scores the same
kernel under new per-paper weights: one draw for all journals, one
``bincount`` into weights, one kernel evaluation and one ``lexsort`` for the
ranks.  Per-simulation seeds are spawned deterministically from the master
seed, so a report is reproducible bit for bit and simulations could run in
parallel without changing the result.

Journals covered by a report are those rankable on the *original* corpus
under the chosen indicator.  A journal that loses its comparison sets in a
particular simulation receives the sentinel rank (tracked journal count + 1)
for that simulation; the sentinel is recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .corpus import Corpus
from .indicators import RankKernel
from .ranking import order_journals


@dataclass
class RankingSamples:
    """Ranks one journal obtained across all simulations, in simulation order."""

    journal_id: str
    rankings: list[int] = field(default_factory=list)


class RankSummary(NamedTuple):
    min_rank: int
    q1: float
    median: float
    q3: float
    max_rank: int


@dataclass
class RobustnessReport:
    """Bootstrap ranking-stability summary for one indicator."""

    indicator_name: str
    per_journal: dict[str, RankSummary]
    delta: float
    seed: int
    simulations: int
    sentinel_rank: int


def _ranks(values: np.ndarray, sentinel: int) -> np.ndarray:
    """Rank of every journal code by descending value, ties by journal id; NaN gets the sentinel."""
    ranks = np.lexsort((np.arange(len(values)), -values)).argsort() + 1
    ranks[np.isnan(values)] = sentinel
    return ranks


def bootstrap_rankings(
    corpus: Corpus, key: str, sims: int = 100, seed: int = 42
) -> dict[str, RankingSamples]:
    """Resample the corpus ``sims`` times and collect each journal's ranks.

    Raises ValueError when no journal is rankable on the chosen indicator or
    ``sims`` < 1.
    """
    if sims < 1:
        raise ValueError(f"sims must be >= 1, got {sims}")
    kernel = RankKernel.from_corpus(corpus)
    tracked = np.flatnonzero(~np.isnan(kernel.evaluate().column(key)))
    if not tracked.size:
        raise ValueError(f"corpus has no journals rankable on {key!r}")
    sentinel = len(tracked) + 1

    # journals in id order, each drawing its size from its own papers
    sizes = kernel.journal_sizes[kernel.journal_sizes > 0]
    highs = np.repeat(sizes, sizes)
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    ranks = np.empty((sims, len(tracked)), dtype=np.int64)
    for sim, seq in enumerate(np.random.SeedSequence(seed).spawn(sims)):
        draw = np.random.default_rng(seq).integers(0, highs)
        weights = np.bincount(draw + offsets, minlength=len(highs))
        ranks[sim] = _ranks(kernel.evaluate(weights).column(key), sentinel)[tracked]
    return {
        kernel.journal_ids[code]: RankingSamples(kernel.journal_ids[code], ranks[:, i].tolist())
        for i, code in enumerate(tracked.tolist())
    }


def relative_change(samples: Mapping[str, RankingSamples]) -> float:
    """Mean over journals of (max - min) / average of the sampled ranks.

    Zero iff every journal's rank is constant across simulations; always
    non-negative.  Raises ValueError on an empty input or empty sample list.
    """
    if not samples:
        raise ValueError("no ranking samples to summarize")
    acc = 0.0
    for journal_id in sorted(samples):
        ranks = samples[journal_id].rankings
        if not ranks:
            raise ValueError(f"journal {journal_id!r} has an empty sample list")
        acc += (max(ranks) - min(ranks)) / (sum(ranks) / len(ranks))
    return acc / len(samples)


def bootstrap_report(corpus: Corpus, key: str, sims: int = 100, seed: int = 42) -> RobustnessReport:
    """Run the bootstrap and summarize each journal's rank distribution."""
    samples = bootstrap_rankings(corpus, key, sims=sims, seed=seed)
    journal_ids = sorted(samples)
    ranks = np.array([samples[journal_id].rankings for journal_id in journal_ids])  # journals x sims
    # linear interpolation between order statistics; exact for these integer ranks
    q1, median, q3 = np.quantile(ranks, (0.25, 0.5, 0.75), axis=1).tolist()
    summaries = map(RankSummary, ranks.min(axis=1).tolist(), q1, median, q3, ranks.max(axis=1).tolist())
    return RobustnessReport(
        indicator_name=key,
        per_journal=dict(zip(journal_ids, summaries)),
        delta=relative_change(samples),
        seed=seed,
        simulations=sims,
        sentinel_rank=len(samples) + 1,
    )


def _top_papers(corpus: Corpus) -> Iterator[int]:
    """Position of every journal's most highly cited paper, ties broken by ascending publication id.

    Positions follow the kernel's paper order: journals in id order, corpus
    order within a journal.
    """
    start = 0
    for journal_id in sorted(corpus.by_journal):
        pubs = corpus.by_journal[journal_id]
        yield start + min(range(len(pubs)), key=lambda i: (-pubs[i].citations, pubs[i].pub_id))
        start += len(pubs)


def perturbation_comparison(corpus: Corpus, key: str) -> list[tuple[str, int | None, int | None]]:
    """Ranks before and after the document-type flip, joined per journal.

    Rows cover every journal rankable in either ranking, ordered by original
    rank (journals unrankable in the original corpus last), with None where a
    journal is unrankable on that side.
    """
    kernel = RankKernel.from_corpus(corpus)
    cell = kernel.cell.copy()
    top = np.fromiter(_top_papers(corpus), dtype=np.int64)
    top = top[cell[top] >= 0]  # an unclassified paper sits in no cell either way
    cell[top] ^= 1  # the document type is the low bit of a cell code
    sides = []
    for scored in (kernel, replace(kernel, cell=cell)):
        ordered = order_journals(scored.evaluate().values(key))
        sides.append({j: r for r, j in enumerate(ordered, start=1)})
    original, perturbed = sides
    journal_ids = sorted(
        set(original) | set(perturbed),
        key=lambda j: (original.get(j, math.inf), j),
    )
    return [(j, original.get(j), perturbed.get(j)) for j in journal_ids]
