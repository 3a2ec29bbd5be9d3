"""Shared corpus-building helpers for the test suite."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from oracles import corpus_from_rows, values  # values is re-exported: the test modules import it from here

from jrank.classifier import RelatedRecords, read_related
from jrank.corpus import (
    Corpus,
    CorpusFragment,
    DocumentType,
    Journal,
    Publication,
    RowError,
    corpus_from_fragments,
    load_journals,
    load_publications,
)
from jrank.indicators import INDICATOR_KEYS, RankKernel, Scores, compute_all


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One visible pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        print(f"\n[acceptance] {item.name}: {report.outcome.upper()}")

A = DocumentType.ARTICLE
R = DocumentType.REVIEW


def pub(pid: str, jid: str, citations: int, topic: str | None = None, doc=A, year: int = 2018) -> Publication:
    return Publication(pid, jid, year, doc, citations, topic)


def corpus_of(pubs, journals=None) -> Corpus:
    """Corpus from a publication list; journals default to those the pubs use."""
    if journals is None:
        journals = sorted({p.journal_id for p in pubs})
    if not isinstance(journals, dict):
        journals = {j: Journal(j, f"Journal {j}") for j in journals}
    return corpus_from_rows(pubs, journals)


def same_corpus(got: Corpus | CorpusFragment, want: Corpus | CorpusFragment) -> bool:
    """Whether two corpora hold the same rows and journal table, or two fragments the same rows and row errors.

    A corpus's codes and tables follow from its rows and journal table, so for
    corpora this is equality.
    """
    if isinstance(got, CorpusFragment):
        return same_corpus(got.corpus, want.corpus) and got.errors == want.errors
    return got.publications == want.publications and got.journals == want.journals


def load_corpus(pubs_path: Path | str, journals_path: Path | str) -> tuple[Corpus, list[RowError]]:
    """The corpus of a publications file and a journals file, plus the row errors of both."""
    pubs = load_publications(pubs_path)
    journals = load_journals(journals_path)
    return corpus_from_fragments(pubs, journals), pubs.errors + journals.errors


def load_related(path: Path | str) -> tuple[list[RelatedRecords], list[RowError]]:
    """Every record of ``read_related`` in a list, and the rows that failed to parse."""
    errors: list[RowError] = []
    return list(read_related(path, errors)), errors


class Record(NamedTuple):
    """One journal's indicators as the output tables hold them, None where ``Scores`` holds NaN.

    ``topic_breakdown`` maps topic id to (per-topic score, the journal's papers
    compared in that topic); topics with no compared paper are left out.
    """

    journal_id: str
    fncsi: float | None
    fnif: float | None
    expected_jif: float | None
    jif: float | None
    n_pubs: int
    topic_breakdown: dict[str, tuple[float, int]]


def records(scores: Scores) -> list[Record]:
    """Every journal of the journal table, in id order, read off ``scores`` one group at a time."""
    kernel = scores.kernel
    breakdowns: list[dict[str, tuple[float, int]]] = [{} for _ in kernel.journal_ids]
    for code, topic, score, n in zip(kernel._group_journal.tolist(), kernel._group_topic.tolist(),
                                     scores.topic_score.tolist(), scores.topic_n.tolist()):
        if n:
            breakdowns[code][kernel.topic_ids[topic]] = (score, n)
    columns = [getattr(scores, key).tolist() for key in INDICATOR_KEYS]
    n_classified = scores.n_classified.tolist()
    return [
        Record(journal_id, *(None if math.isnan(column[code]) else column[code] for column in columns),
               n_pubs=n_classified[code], topic_breakdown=breakdowns[code])
        for code, journal_id in enumerate(kernel.journal_ids)
        if kernel.in_table[code]
    ]


def record(journal_id: str, corpus: Corpus) -> Record:
    """One journal's record in ``compute_all(corpus)``."""
    return next(r for r in records(compute_all(corpus)) if r.journal_id == journal_id)


def scores_of(journals, breakdowns=None, **arrays) -> Scores:
    """``Scores`` over the journal table ``journals`` with chosen values, for ranking and writer tests.

    Each (journal, topic) of ``breakdowns`` ({journal id: {topic id: (score,
    n)}}) gets one paper, so that the kernel has the group, and ``topic_score``
    and ``topic_n`` hold the breakdowns in group order.  ``arrays`` replace
    other ``Scores`` fields, one value per journal in id order.
    """
    breakdowns = breakdowns or {}
    pubs = [pub(f"p{i}", j, 0, t) for i, (j, t) in enumerate((j, t) for j in breakdowns for t in breakdowns[j])]
    scores = RankKernel(corpus_of(pubs, journals=journals)).evaluate()
    groups = [breakdowns[j][t] for j in scores.kernel.journal_ids for t in sorted(breakdowns.get(j, ()))]
    return replace(
        scores,
        topic_score=np.array([score for score, _ in groups], dtype=float),
        topic_n=np.array([n for _, n in groups], dtype=np.int64),
        **{name: np.array(values) for name, values in arrays.items()},
    )


def cell_scores(corpus: Corpus) -> dict[tuple[str, str, DocumentType], tuple[float | None, int]]:
    """(journal, topic, doc type) -> (comparison score, papers) for every occupied pair.

    The score is None where the journal is its cell's sole publisher.
    """
    scores = RankKernel(corpus).evaluate()
    kernel = scores.kernel
    return {
        (kernel.journal_ids[j], kernel.topic_ids[c >> 1], (A, R)[c & 1]): (None if math.isnan(p) else p, n)
        for j, c, p, n in zip(kernel.pair_journal.tolist(), kernel.pair_cell.tolist(),
                              scores.pair_score.tolist(), scores.pair_papers.tolist())
    }


def coverage_9998_corpus() -> Corpus:
    """100 journals x 10 publications; 2 journals half-unclassified.

    Publication coverage is exactly 990/1000 = 0.99 and exactly 98 journals
    have more than 90% of their publications assigned.
    """
    pubs = []
    for j in range(100):
        jid = f"j{j:03d}"
        for k in range(10):
            unassigned = j < 2 and k < 5
            pubs.append(pub(f"p{j:03d}_{k}", jid, citations=k, topic=None if unassigned else "t1"))
    return corpus_of(pubs)
