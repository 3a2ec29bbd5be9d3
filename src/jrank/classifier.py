"""Majority-rule topic assignment for unclassified publications.

Unclassified publications inherit the topic that occurs most often among
their related records' topics.  Assignment is a single pass: every majority
is taken over the topic labels present in the *input* corpus, so freshly
assigned topics never feed later decisions and the result is independent of
processing order.  Related records are read and voted on with NumPy a block
of the file at a time, as two columns: subject ids and their related-id
tuples.  A pass over a streamed file holds one block, not the file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, RowError, _decode, _read_table

RELATED_COLUMNS = ("pub_id", "related_ids")
RELATED_SEPARATOR = "|"


@dataclass(frozen=True, slots=True)
class AssignmentReport:
    """Counts from one assignment pass.

    ``already_classified`` counts records whose subject already had a topic;
    ``external_ignored`` counts related ids that reference publications
    outside the corpus; ``still_unclassified`` is the number of publications
    left without a topic after the pass.
    """

    assigned: int
    still_unclassified: int
    external_ignored: int
    already_classified: int


def read_related(path: Path | str, errors: list[RowError]) -> Iterator[tuple[list[str], list[tuple[str, ...]]]]:
    """Yield the accepted records of each block of the file as two columns: subject ids, and related-id tuples.

    A tuple holds the subject's ``|``-separated ``related_ids`` in retrieval order.  Rows with an empty related
    list, a self-reference, or a duplicate subject id are appended to ``errors`` as they are read, and left out
    of their block, which may then be empty.
    """
    seen: set[str] = set()
    for lines, block in _read_table(path, RELATED_COLUMNS):
        subjects: list[str] = []
        lists: list[tuple[str, ...]] = []
        for lineno, pub_id, related_ids in zip(lines, *block):
            related = tuple(filter(None, map(str.strip, related_ids.split(RELATED_SEPARATOR))))
            if not pub_id:
                errors.append(RowError(lineno, "empty pub_id"))
                continue
            if not related:
                errors.append(RowError(lineno, f"no related ids for {pub_id!r}"))
                continue
            if pub_id in related:
                errors.append(RowError(lineno, f"{pub_id!r} lists itself as a related record"))
                continue
            if pub_id in seen:
                errors.append(RowError(lineno, f"duplicate related-record row for {pub_id!r}"))
                continue
            seen.add(pub_id)
            subjects.append(pub_id)
            lists.append(related)
        yield subjects, lists


def assign_majority(
    corpus: Corpus, related: Iterable[tuple[Sequence[str], Sequence[tuple[str, ...]]]]
) -> tuple[Corpus, AssignmentReport]:
    """Assign topics to unclassified publications by majority over related records.

    For each unclassified publication with a related record, the candidate
    topics are the topics of its related publications as labeled in the input
    corpus; the most frequent wins, ties broken by the smallest topic id, the
    first in :attr:`Corpus.topics`.  Related ids not present in the corpus
    are ignored and counted.  Publications that already carry a topic are
    never modified, and the result keeps the corpus's (distinct) ``pub_ids``.
    ``related`` holds blocks of records as ``(subject ids, related-id
    tuples)`` columns, voted on one block at a time, so it may be a stream
    such as :func:`read_related`; a subject with more than one record takes
    the vote of its last record that has one.
    """
    # topic codes index corpus.topics, which is sorted, so the smallest code is the smallest id;
    # past the codes, one for unclassified papers and one for ids outside the corpus
    unclassified, outside = len(corpus.topics), len(corpus.topics) + 1
    # one int object per code; -1 decodes to the last, unclassified
    code_of = dict(zip(corpus.pub_ids, _decode(range(unclassified + 1), corpus.topic)))

    assignments: dict[str, int] = {}
    external = 0
    already = 0
    for subjects, lists in related:
        n = len(subjects)
        row = np.repeat(np.arange(n), np.fromiter(map(len, lists), np.intp, n))  # each id's record
        ids = chain(subjects, chain.from_iterable(lists))
        codes = np.array(list(map(code_of.get, ids, repeat(outside))), np.intp)
        subject_codes, id_codes = codes[:n], codes[n:]
        subject_of_id = subject_codes[row]
        external += int(np.count_nonzero((id_codes == outside) & (subject_of_id != outside)))
        already += int(np.count_nonzero(subject_codes < unclassified))
        voting = (subject_of_id == unclassified) & (id_codes < unclassified)
        if not voting.any():
            continue
        votes, counts = np.unique(row[voting] * unclassified + id_codes[voting], return_counts=True)
        rows, votes = np.divmod(votes, unclassified)
        order = np.lexsort((votes, -counts, rows))  # by record, then most votes, then smallest code
        _, first = np.unique(rows[order], return_index=True)
        winners = order[first]
        assignments.update(zip(map(subjects.__getitem__, rows[winners].tolist()), votes[winners].tolist()))

    # only unclassified papers have an assignment; every other keeps its topic
    topic = np.fromiter(map(assignments.get, corpus.pub_ids, corpus.topic.tolist()), np.int32, len(corpus.pub_ids))
    report = AssignmentReport(
        assigned=len(assignments),
        still_unclassified=int(np.count_nonzero(topic < 0)),
        external_ignored=external,
        already_classified=already,
    )
    return replace(corpus, topic=topic), report
