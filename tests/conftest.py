"""Shared corpus-building helpers for the test suite."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from oracles import values  # re-exported: the test modules import it from here

from jrank.classifier import RelatedFragment, read_related
from jrank.corpus import (
    Corpus,
    DocumentType,
    Journal,
    Publication,
    RowError,
    corpus_from_fragments,
    load_journals,
    load_publications,
)
from jrank.indicators import JournalIndicator, RankKernel, compute_all


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


def corpus_of(pubs, journals=None, topics=None) -> Corpus:
    """Corpus from a publication list; journals/topics default to what the pubs use."""
    if journals is None:
        journals = sorted({p.journal_id for p in pubs})
    if not isinstance(journals, dict):
        journals = {j: Journal(j, f"Journal {j}") for j in journals}
    if topics is None:
        topics = {p.topic_id for p in pubs if p.topic_id is not None}
    return Corpus.of(pubs, journals, frozenset(topics))


def load_corpus(pubs_path: Path | str, journals_path: Path | str) -> tuple[Corpus, list[RowError]]:
    """The corpus of a publications file and a journals file, plus the row errors of both."""
    pubs = load_publications(pubs_path)
    journals = load_journals(journals_path)
    return corpus_from_fragments(pubs, journals), pubs.errors + journals.errors


def load_related(path: Path | str) -> RelatedFragment:
    """Every record of ``read_related`` in a list, plus the rows that failed to parse."""
    fragment = RelatedFragment()
    fragment.records.extend(read_related(path, fragment.errors))
    return fragment


def record(journal_id: str, corpus: Corpus) -> JournalIndicator:
    """One journal's ``compute_all`` record."""
    return next(r for r in compute_all(corpus) if r.journal_id == journal_id)


def cell_scores(corpus: Corpus) -> dict[tuple[str, str, DocumentType], tuple[float | None, int]]:
    """(journal, topic, doc type) -> (comparison score, papers) for every occupied pair.

    The score is None where the journal is its cell's sole publisher.
    """
    scores = RankKernel.from_corpus(corpus).evaluate()
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
