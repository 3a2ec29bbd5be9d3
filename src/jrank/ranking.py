"""Deterministic rankings.

Rankings depend only on the ordering of indicator values: journals are sorted
by descending value, equal values broken by ascending journal id, so the same
inputs always produce the same order.  :func:`ranks` is that rule, and every
ranking in the package (:func:`rank`, bootstrap, flip test) goes through it.
:func:`rank` returns the rows of one ranking, ``(journal_id, value, rank,
percentile)``, straight from one ``Scores`` column, whose NaN marks a journal
unrankable.
Percentile ranks rescale positions to (0, 100], higher is better: rank r of N
maps to 100 * (N - r + 1) / N.
"""

from __future__ import annotations

import math

import numpy as np

from .indicators import Scores


def ranks(values: np.ndarray, sentinel: int) -> np.ndarray:
    """Rank of every position by descending value, ties by ascending position; NaN gets the sentinel.

    Positions are journals in id order, so ties go to the smaller journal id.
    """
    ranked = np.lexsort((np.arange(len(values)), -values)).argsort() + 1
    ranked[np.isnan(values)] = sentinel
    return ranked


def rank(scores: Scores, key: str, scope: str | None = None) -> list[tuple[str, float, int, float]]:
    """Rank the journals of the journal table on one indicator, optionally within one category.

    Returns one ``(journal_id, value, rank, percentile)`` row per ranked
    journal, best first.  Journals unrankable on the chosen indicator are
    excluded.  With a scope, only journals whose category list, in the scored
    corpus's journal table, contains the label participate (a multi-category
    journal appears in each of its categories' rankings).
    """
    column = scores.column(key)
    journal_ids = scores.kernel.journal_ids
    if scope is not None:
        journals = scores.kernel.corpus.journals
        outside = (journal is None or scope not in journal.categories for journal in map(journals.get, journal_ids))
        column[np.fromiter(outside, dtype=bool, count=len(journal_ids))] = math.nan
    n = int(np.count_nonzero(~np.isnan(column)))
    order = ranks(column, n + 1).argsort()[:n]
    return [
        (journal_ids[code], value, r, 100.0 * (n - r + 1) / n)
        for r, (code, value) in enumerate(zip(order.tolist(), column[order].tolist()), start=1)
    ]
