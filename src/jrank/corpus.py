"""Publication corpus: data model, delimited-text ingestion, validation.

A corpus bundles everything the indicator pipeline consumes: publications
with precomputed citation counts, the journals that published them, and the
set of topic clusters used for field normalization.  Corpora are immutable
once built: topic assignment returns a new instance, and the bootstrap and
the document-type flip reweight or recode the corpus's kernel encoding
instead of copying it, so a validated corpus can be shared freely.
"""

from __future__ import annotations

import csv
import enum
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

PUBLICATION_COLUMNS = ("pub_id", "journal_id", "pub_year", "doc_type", "citations", "topic_id")
JOURNAL_COLUMNS = ("journal_id", "title", "categories")

CATEGORY_SEPARATOR = "|"


class SchemaError(Exception):
    """The file cannot be interpreted at all: no header, or required columns missing."""


class DocumentType(enum.Enum):
    """Document type of a scored publication.

    Only articles and reviews enter the census; any other tag is rejected at
    ingest rather than coerced, because a silently remapped type would land
    the publication in the wrong normalization cell.
    """

    ARTICLE = "Article"
    REVIEW = "Review"

    @classmethod
    def parse(cls, text: str) -> DocumentType:
        """Parse a document-type tag, case-insensitively."""
        member = _DOCUMENT_TYPES.get(text.strip().lower())
        if member is None:
            raise ValueError(f"unknown document type {text!r} (expected Article or Review)")
        return member

    @property
    def opposite(self) -> DocumentType:
        return DocumentType.REVIEW if self is DocumentType.ARTICLE else DocumentType.ARTICLE


_DOCUMENT_TYPES = {member.value.lower(): member for member in DocumentType}


@dataclass(frozen=True, slots=True)
class Publication:
    """One scored item: a journal's article or review with its citation count.

    ``topic_id`` of None marks the publication as unclassified; it is retained
    in the corpus (and counts toward the plain impact factor) but is excluded
    from field-normalized indicators until a topic is assigned.
    """

    pub_id: str
    journal_id: str
    pub_year: int
    doc_type: DocumentType
    citations: int
    topic_id: str | None = None

    def __post_init__(self) -> None:
        if self.citations < 0:
            raise ValueError(f"publication {self.pub_id!r}: citations must be >= 0")

    @property
    def classified(self) -> bool:
        return self.topic_id is not None


@dataclass(frozen=True, slots=True)
class Journal:
    """A journal and the subject-category labels used for scoped rankings."""

    journal_id: str
    title: str = ""
    categories: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    """An immutable snapshot of publications, journals, and the topic universe.

    ``topics`` is the set of known topic identifiers.  When a corpus is loaded
    from files it defaults to the topics observed in the publications; callers
    constructing corpora programmatically may pass a wider or narrower set,
    and :func:`validate_corpus` reports publications referencing topics
    outside it.
    """

    publications: tuple[Publication, ...]
    journals: dict[str, Journal]
    topics: frozenset[str]

    @cached_property
    def by_journal(self) -> dict[str, tuple[Publication, ...]]:
        """Publications grouped by journal (journals without publications absent)."""
        grouped: dict[str, list[Publication]] = {}
        for pub in self.publications:
            grouped.setdefault(pub.journal_id, []).append(pub)
        return {jid: tuple(pubs) for jid, pubs in grouped.items()}

    def with_publications(self, publications: Iterable[Publication]) -> Corpus:
        """Copy of this corpus with a different publication list."""
        return replace(self, publications=tuple(publications))


@dataclass(frozen=True, slots=True)
class RowError:
    """A rejected input row; the line number refers to the physical file line."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class CorpusFragment:
    """Parsed publications plus the rows that failed to parse."""

    publications: list[Publication] = field(default_factory=list)
    errors: list[RowError] = field(default_factory=list)


@dataclass
class JournalsFragment:
    """Parsed journal table plus the rows that failed to parse."""

    journals: dict[str, Journal] = field(default_factory=dict)
    errors: list[RowError] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class Finding:
    """One referential-integrity problem found by :func:`validate_corpus`."""

    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.detail}"


@dataclass
class ValidationReport:
    """Findings from corpus validation; the corpus is acceptable iff empty."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """Topic-classification coverage of a corpus.

    ``publication_coverage`` is the fraction of publications with an assigned
    topic; ``journal_coverage`` is the fraction of journals (among those with
    at least one publication) whose assigned share exceeds 90%.  Both default
    to 1.0 on vacuously empty denominators.
    """

    publication_coverage: float
    journal_coverage: float
    n_publications: int
    n_classified: int
    n_journals: int
    n_journals_over_90: int


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _read_table(
    path: Path | str, columns: tuple[str, ...], delimiter: str | None = None
) -> Iterator[tuple[int, Iterator[str]]]:
    """Yield ``(last physical line, fields)`` for each data record of a delimited file.

    One ``csv.reader`` streams the whole file, so a quoted field may hold
    delimiters, quotes and line breaks.  Blank and ``#`` comment lines are
    skipped only where a record starts; the continuation lines of a quoted
    field are kept as they are.  ``fields`` yields the values of ``columns``
    (at least two), in that order and stripped; rows shorter than the header
    read as empty strings, extra columns are ignored.  With ``delimiter=None``
    the separator is auto-detected from the header line (tab wins if present).

    Raises :class:`SchemaError` when the header is missing or lacks one of
    ``columns``, or when a quoted field is never closed.
    """
    line = 0  # physical lines read so far
    start = 0  # the line that opened the current record
    at_start = True  # the next line opens a record; set by the loop below
    at_eof = False

    def physical_lines(fh: TextIO) -> Iterator[str]:
        # csv.reader pulls one line at a time and none past a record's end,
        # so at_start is True exactly when it asks for a record's first line
        nonlocal line, start, at_start, at_eof
        for text in fh:
            line += 1
            if at_start:
                head = text.lstrip()
                if not head or head[0] == "#":
                    continue
                start, at_start = line, False
            yield text
        at_eof = True

    with open(path, encoding="utf-8-sig", newline="") as fh:
        lines = physical_lines(fh)
        first = next(lines, None)
        if first is None:
            raise SchemaError(f"{path}: empty file, expected a header row")
        if delimiter is None:
            delimiter = "\t" if "\t" in first else ","
        reader = csv.reader(chain([first], lines), delimiter=delimiter)
        pick = None
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise SchemaError(f"{path}: line {line}: {exc}") from None
            if at_eof:
                # only an open quoted field makes the reader run out of lines mid-record
                raise SchemaError(f"{path}: line {start}: quoted field is never closed")
            at_start = True
            if pick is None:
                header = [h.strip() for h in row]
                missing = [col for col in columns if col not in header]
                if missing:
                    raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
                index = {col: i for i, col in enumerate(header)}  # a repeated column: the last wins
                positions = [index[col] for col in columns]
                width = max(positions) + 1
                pick = itemgetter(*positions)
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            yield line, map(str.strip, pick(row))


def load_publications(path: Path | str, delimiter: str | None = None) -> CorpusFragment:
    """Load publications from delimited text (separator auto-detected by default).

    Unparseable rows are collected in ``errors`` rather than dropped: bad
    integers, unknown document types, negative citation counts, and duplicate
    publication ids each produce a :class:`RowError` naming the line.
    """
    fragment = CorpusFragment()
    publications, errors = fragment.publications, fragment.errors
    seen: set[str] = set()
    for line, fields in _read_table(path, PUBLICATION_COLUMNS, delimiter):
        try:
            pub = _parse_publication(*fields)
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
            continue
        if pub.pub_id in seen:
            errors.append(RowError(line, f"duplicate pub_id {pub.pub_id!r}"))
            continue
        seen.add(pub.pub_id)
        publications.append(pub)
    return fragment


def _parse_publication(
    pub_id: str, journal_id: str, pub_year: str, doc_type: str, citations: str, topic_id: str
) -> Publication:
    if not pub_id:
        raise ValueError("empty pub_id")
    if not journal_id:
        raise ValueError("empty journal_id")
    try:
        year = int(pub_year)
    except ValueError:
        raise ValueError(f"pub_year {pub_year!r} is not an integer") from None
    try:
        count = int(citations)
    except ValueError:
        raise ValueError(f"citations {citations!r} is not an integer") from None
    if count < 0:
        raise ValueError(f"citations must be >= 0, got {count}")
    # DocumentType.parse raises the error for an unknown tag
    kind = _DOCUMENT_TYPES.get(doc_type.lower()) or DocumentType.parse(doc_type)
    return Publication(pub_id, journal_id, year, kind, count, topic_id or None)


def load_journals(path: Path | str, delimiter: str | None = None) -> JournalsFragment:
    """Load the journal table; categories are ``|``-separated in one column."""
    fragment = JournalsFragment()
    for line, (journal_id, title, categories) in _read_table(path, JOURNAL_COLUMNS, delimiter):
        if not journal_id:
            fragment.errors.append(RowError(line, "empty journal_id"))
            continue
        if journal_id in fragment.journals:
            fragment.errors.append(RowError(line, f"duplicate journal_id {journal_id!r}"))
            continue
        labels = tuple(c.strip() for c in categories.split(CATEGORY_SEPARATOR) if c.strip())
        fragment.journals[journal_id] = Journal(journal_id, title, labels)
    return fragment


def corpus_from_fragments(pubs: CorpusFragment, journals: JournalsFragment) -> Corpus:
    """The corpus of loaded fragments; its topics are those observed in the publications."""
    topics = frozenset(p.topic_id for p in pubs.publications if p.topic_id is not None)
    return Corpus(tuple(pubs.publications), journals.journals, topics)


def load_corpus(pubs_path: Path | str, journals_path: Path | str) -> tuple[Corpus, list[RowError]]:
    """Assemble a corpus from a publications file and a journals file.

    The topic universe is the set of topic ids observed in the publications.
    Row-level problems are returned alongside the corpus; header-level
    problems raise :class:`SchemaError`.
    """
    pubs = load_publications(pubs_path)
    journals = load_journals(journals_path)
    return corpus_from_fragments(pubs, journals), pubs.errors + journals.errors


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path: Path | str) -> Iterator[TextIO]:
    """Open ``path`` for text output that appears under its name only once complete.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` when the block ends and is removed if the block raises.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_table(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of strings as comma-separated text (LF line endings).

    A row is written with every field quoted when its first field starts
    with ``#`` (after whitespace), so that a reader does not take it for a
    comment, or when a field holds a carriage return, which the csv module
    quotes only if it is part of the line terminator.
    """
    plain = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    for row in rows:
        needs_quotes = row[0].lstrip().startswith("#") or "\r" in "".join(row)
        (quoted if needs_quotes else plain).writerow(row)


def write_publications(publications: Iterable[Publication], path: Path | str) -> None:
    """Write publications as canonical comma-separated text (LF line endings)."""
    with atomic_write(path) as fh:
        write_table(
            fh,
            PUBLICATION_COLUMNS,
            (
                (p.pub_id, p.journal_id, str(p.pub_year), p.doc_type.value, str(p.citations), p.topic_id or "")
                for p in publications
            ),
        )


def write_journals(journals: Mapping[str, Journal], path: Path | str) -> None:
    """Write the journal table as canonical comma-separated text."""
    with atomic_write(path) as fh:
        write_table(
            fh,
            JOURNAL_COLUMNS,
            ((j.journal_id, j.title, CATEGORY_SEPARATOR.join(j.categories)) for j in journals.values()),
        )


# ---------------------------------------------------------------------------
# Validation and coverage
# ---------------------------------------------------------------------------


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check referential integrity; pure, and side-effect free.

    Findings cover dangling journal references, topic ids outside the corpus
    topic set, and duplicate publication ids.  An empty report means the
    corpus is acceptable for indicator computation.
    """
    report = ValidationReport()
    seen: set[str] = set()
    for pub in corpus.publications:
        if pub.pub_id in seen:
            report.findings.append(
                Finding("duplicate-pub-id", pub.pub_id, "publication id appears more than once")
            )
        seen.add(pub.pub_id)
        if pub.journal_id not in corpus.journals:
            report.findings.append(
                Finding("dangling-journal", pub.pub_id, f"journal {pub.journal_id!r} not in journal table")
            )
        if pub.topic_id is not None and pub.topic_id not in corpus.topics:
            report.findings.append(
                Finding("unknown-topic", pub.pub_id, f"topic {pub.topic_id!r} not in corpus topic set")
            )
    return report


def coverage_stats(corpus: Corpus) -> CoverageReport:
    """Classification coverage: per-publication and per-journal fractions."""
    n_pubs = len(corpus.publications)
    n_classified = sum(1 for p in corpus.publications if p.classified)
    by_journal = corpus.by_journal
    n_journals = len(by_journal)
    n_over_90 = 0
    for pubs in by_journal.values():
        assigned = sum(1 for p in pubs if p.classified)
        # integer form of "assigned / len(pubs) > 0.9", immune to float rounding
        if 10 * assigned > 9 * len(pubs):
            n_over_90 += 1
    return CoverageReport(
        publication_coverage=n_classified / n_pubs if n_pubs else 1.0,
        journal_coverage=n_over_90 / n_journals if n_journals else 1.0,
        n_publications=n_pubs,
        n_classified=n_classified,
        n_journals=n_journals,
        n_journals_over_90=n_over_90,
    )
