"""Deterministic rankings.

Rankings depend only on the ordering of indicator values: journals are sorted
by descending value, equal values broken by ascending journal id, so the same
inputs always produce the same table.  :func:`ranks` is that rule, and every
ranking in the package (tables, bootstrap, flip test) goes through it.
:func:`rank` builds a table straight from one ``Scores`` column, whose NaN
marks a journal unrankable.
Percentile ranks rescale positions to (0, 100], higher is better: rank r of N
maps to 100 * (N - r + 1) / N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .indicators import Scores


class RankingRow(NamedTuple):
    journal_id: str
    value: float
    rank: int
    percentile: float


@dataclass(frozen=True)
class RankingTable:
    """An ordered ranking under one indicator, globally or within a category."""

    indicator_name: str
    scope: str | None
    rows: tuple[RankingRow, ...]


def ranks(values: np.ndarray, sentinel: int) -> np.ndarray:
    """Rank of every position by descending value, ties by ascending position; NaN gets the sentinel.

    Positions are journals in id order, so ties go to the smaller journal id.
    """
    ranked = np.lexsort((np.arange(len(values)), -values)).argsort() + 1
    ranked[np.isnan(values)] = sentinel
    return ranked


def rank(scores: Scores, key: str, scope: str | None = None) -> RankingTable:
    """Rank the journals of the journal table on one indicator, optionally within one category.

    Journals unrankable on the chosen indicator are excluded.  With a scope,
    only journals whose category list, in the scored corpus's journal table,
    contains the label participate (a multi-category journal appears in each
    of its categories' tables).
    """
    column = scores.column(key)
    journal_ids = scores.kernel.journal_ids
    if scope is not None:
        journals = scores.kernel.corpus.journals
        outside = (journal is None or scope not in journal.categories for journal in map(journals.get, journal_ids))
        column[np.fromiter(outside, dtype=bool, count=len(journal_ids))] = math.nan
    n = int(np.count_nonzero(~np.isnan(column)))
    order = ranks(column, n + 1).argsort()[:n]
    rows = tuple(
        RankingRow(journal_ids[code], value, r, 100.0 * (n - r + 1) / n)
        for r, (code, value) in enumerate(zip(order.tolist(), column[order].tolist()), start=1)
    )
    return RankingTable(indicator_name=key, scope=scope, rows=rows)
