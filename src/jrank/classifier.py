"""Majority-rule topic assignment for unclassified publications.

Unclassified publications inherit the topic that occurs most often among
their related records' topics.  Assignment is a single pass: every majority
is taken over the topic labels present in the *input* corpus, so freshly
assigned topics never feed later decisions and the result is independent of
processing order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .corpus import Corpus, RowError, _read_table

RELATED_COLUMNS = ("pub_id", "related_ids")
RELATED_SEPARATOR = "|"


@dataclass(frozen=True, slots=True)
class RelatedRecords:
    """Related-publication ids for one publication, in retrieval order."""

    pub_id: str
    related_ids: tuple[str, ...]


@dataclass
class RelatedFragment:
    """Parsed related records plus the rows that failed to parse."""

    records: list[RelatedRecords] = field(default_factory=list)
    errors: list[RowError] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class AssignmentReport:
    """Counts from one assignment pass.

    ``external_ignored`` counts related ids that reference publications
    outside the corpus; ``still_unclassified`` is the number of publications
    left without a topic after the pass.
    """

    assigned: int
    still_unclassified: int
    external_ignored: int
    already_classified: int


def load_related(path: Path | str) -> RelatedFragment:
    """Load related records; related_ids are ``|``-separated.

    Rows with an empty related list, a self-reference, or a duplicate subject
    id are collected as errors.
    """
    fragment = RelatedFragment()
    seen: set[str] = set()
    for lineno, (pub_id, related_ids) in _read_table(path, RELATED_COLUMNS):
        related = tuple(filter(None, map(str.strip, related_ids.split(RELATED_SEPARATOR))))
        if not pub_id:
            fragment.errors.append(RowError(lineno, "empty pub_id"))
            continue
        if not related:
            fragment.errors.append(RowError(lineno, f"no related ids for {pub_id!r}"))
            continue
        if pub_id in related:
            fragment.errors.append(RowError(lineno, f"{pub_id!r} lists itself as a related record"))
            continue
        if pub_id in seen:
            fragment.errors.append(RowError(lineno, f"duplicate related-record row for {pub_id!r}"))
            continue
        seen.add(pub_id)
        fragment.records.append(RelatedRecords(pub_id, related))
    return fragment


def assign_majority(corpus: Corpus, related: Iterable[RelatedRecords]) -> tuple[Corpus, AssignmentReport]:
    """Assign topics to unclassified publications by majority over related records.

    For each unclassified publication with a related record, the candidate
    topics are the topics of its related publications as labeled in the input
    corpus; the most frequent wins, ties broken by the lexicographically
    smallest topic id.  Related ids not present in the corpus are ignored and
    counted.  Publications that already carry a topic are never modified.
    """
    topic_of = {pub_id: topic_id for pub_id, topic_id in zip(corpus.pub_ids, corpus.topic_ids) if topic_id is not None}
    corpus_ids = set(corpus.pub_ids)

    assignments: dict[str, str] = {}
    external = 0
    already = 0
    for record in related:
        if record.pub_id not in corpus_ids:
            continue
        in_corpus = [rid for rid in record.related_ids if rid in corpus_ids]
        external += len(record.related_ids) - len(in_corpus)
        if record.pub_id in topic_of:
            already += 1
            continue
        votes = Counter(topic_of[rid] for rid in in_corpus if rid in topic_of)
        if not votes:
            continue
        top = max(votes.values())
        assignments[record.pub_id] = min(t for t, n in votes.items() if n == top)

    # only unclassified papers have an assignment; every other keeps its topic
    topic_ids = tuple(map(assignments.get, corpus.pub_ids, corpus.topic_ids))
    report = AssignmentReport(
        assigned=len(assignments),
        still_unclassified=topic_ids.count(None),
        external_ignored=external,
        already_classified=already,
    )
    return replace(corpus, topic_ids=topic_ids), report
