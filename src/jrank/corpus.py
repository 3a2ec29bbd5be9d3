"""Publication corpus: data model, delimited-text ingestion, validation.

A corpus bundles everything the indicator pipeline consumes: publications
with precomputed citation counts, the journals that published them, and the
set of topic clusters used for field normalization.  Publications are stored
as one tuple per field (:class:`Publication` is the row type for code that
works row by row).  Corpora are immutable once built: topic assignment
returns a new instance, and the bootstrap and the document-type flip reweight
or recode the corpus's kernel encoding instead of copying it.
"""

from __future__ import annotations

import csv
import enum
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter, is_not, itemgetter
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


@dataclass(frozen=True, slots=True)
class Journal:
    """A journal and the subject-category labels used for scoped rankings."""

    journal_id: str
    title: str = ""
    categories: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    """An immutable snapshot of publications, journals, and the topic universe.

    Publications are columns in input order, None marking an unclassified
    paper's topic.  ``topics`` is the set of known topic identifiers; loaded
    from files, it defaults to the topics observed in the publications.
    Callers constructing corpora programmatically may pass a wider or narrower
    set, and :func:`validate_corpus` reports publications referencing topics
    outside it.
    """

    pub_ids: tuple[str, ...]
    journal_ids: tuple[str, ...]
    pub_years: tuple[int, ...]
    doc_types: tuple[DocumentType, ...]
    citations: tuple[int, ...]
    topic_ids: tuple[str | None, ...]
    journals: dict[str, Journal]
    topics: frozenset[str]

    @classmethod
    def of(cls, publications: Iterable[Publication], journals: dict[str, Journal], topics: frozenset[str]) -> Corpus:
        """The corpus of these rows, which it keeps as its :attr:`publications`."""
        rows = tuple(publications)
        corpus = cls(*(tuple(map(attrgetter(name), rows)) for name in PUBLICATION_COLUMNS), journals, topics)
        corpus.__dict__["publications"] = rows
        return corpus

    @cached_property
    def publications(self) -> tuple[Publication, ...]:
        """The rows as :class:`Publication` objects, built on first use; no command reads them."""
        columns = self.pub_ids, self.journal_ids, self.pub_years, self.doc_types, self.citations, self.topic_ids
        return tuple(map(Publication, *columns))


@dataclass(frozen=True, slots=True)
class RowError:
    """A rejected input row; the line number refers to the physical file line."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class CorpusFragment:
    """Parsed publications, one list per :class:`Corpus` column, plus the rows that failed to parse."""

    columns: tuple[list, ...]
    errors: list[RowError]

    @property
    def publications(self) -> list[Publication]:
        """The parsed rows as :class:`Publication` objects, built on each call; no command reads them."""
        return list(map(Publication, *self.columns))


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


def _read_table(path: Path | str, columns: tuple[str, ...]) -> Iterator[tuple[int, Iterator[str]]]:
    """Yield ``(last physical line, fields)`` for each data record of a delimited file.

    One ``csv.reader`` streams the whole file, so a quoted field may hold
    delimiters, quotes and line breaks.  Blank and ``#`` comment lines are
    skipped only where a record starts; the continuation lines of a quoted
    field are kept as they are.  ``fields`` yields the values of ``columns``
    (at least two), in that order and stripped; rows shorter than the header
    read as empty strings, extra columns are ignored.  The separator comes
    from the header line: tab if it holds one, else comma.

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
        reader = csv.reader(chain([first], lines), delimiter="\t" if "\t" in first else ",")
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


def load_publications(path: Path | str) -> CorpusFragment:
    """Load publications from delimited text (separator auto-detected).

    Unparseable rows are collected in ``errors`` rather than dropped: bad
    integers, unknown document types, negative citation counts, and duplicate
    publication ids each produce a :class:`RowError` naming the line.  A
    rejected row adds nothing to any column.
    """
    fragment = CorpusFragment(tuple([] for _ in PUBLICATION_COLUMNS), [])
    pub_ids, journal_ids, pub_years, doc_types, citations, topic_ids = fragment.columns
    seen: set[str] = set()
    shared: dict[str | int | None, str | int | None] = {}  # one object per distinct journal id, year and topic id
    for line, fields in _read_table(path, PUBLICATION_COLUMNS):
        try:
            pub_id, journal_id, year, kind, count, topic_id = _parse_publication(*fields)
        except ValueError as exc:
            fragment.errors.append(RowError(line, str(exc)))
            continue
        if pub_id in seen:
            fragment.errors.append(RowError(line, f"duplicate pub_id {pub_id!r}"))
            continue
        seen.add(pub_id)
        pub_ids.append(pub_id)
        journal_ids.append(shared.setdefault(journal_id, journal_id))
        pub_years.append(shared.setdefault(year, year))
        doc_types.append(kind)
        citations.append(count)
        topic_ids.append(shared.setdefault(topic_id, topic_id))
    return fragment


def _parse_publication(
    pub_id: str, journal_id: str, pub_year: str, doc_type: str, citations: str, topic_id: str
) -> tuple[str, str, int, DocumentType, int, str | None]:
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
    return pub_id, journal_id, year, kind, count, topic_id or None


def load_journals(path: Path | str) -> JournalsFragment:
    """Load the journal table; categories are ``|``-separated in one column."""
    fragment = JournalsFragment()
    for line, (journal_id, title, categories) in _read_table(path, JOURNAL_COLUMNS):
        if not journal_id:
            fragment.errors.append(RowError(line, "empty journal_id"))
            continue
        if journal_id in fragment.journals:
            fragment.errors.append(RowError(line, f"duplicate journal_id {journal_id!r}"))
            continue
        labels = tuple(filter(None, map(str.strip, categories.split(CATEGORY_SEPARATOR))))
        fragment.journals[journal_id] = Journal(journal_id, title, labels)
    return fragment


def corpus_from_fragments(pubs: CorpusFragment, journals: JournalsFragment) -> Corpus:
    """The corpus of loaded fragments; its topics are those observed in the publications."""
    *_, topic_ids = pubs.columns
    return Corpus(*map(tuple, pubs.columns), journals.journals, frozenset(topic_ids) - {None})


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


def write_publications(corpus: Corpus, path: Path | str) -> None:
    """Write a corpus's publications as canonical comma-separated text (LF line endings)."""
    columns = corpus.pub_ids, corpus.journal_ids, corpus.pub_years, corpus.doc_types, corpus.citations, corpus.topic_ids
    with atomic_write(path) as fh:
        write_table(
            fh,
            PUBLICATION_COLUMNS,
            (
                (pub_id, journal_id, str(year), kind.value, str(count), topic_id or "")
                for pub_id, journal_id, year, kind, count, topic_id in zip(*columns)
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
    for pub_id, journal_id, topic_id in zip(corpus.pub_ids, corpus.journal_ids, corpus.topic_ids):
        if pub_id in seen:
            report.findings.append(Finding("duplicate-pub-id", pub_id, "publication id appears more than once"))
        seen.add(pub_id)
        if journal_id not in corpus.journals:
            report.findings.append(Finding("dangling-journal", pub_id, f"journal {journal_id!r} not in journal table"))
        if topic_id is not None and topic_id not in corpus.topics:
            report.findings.append(Finding("unknown-topic", pub_id, f"topic {topic_id!r} not in corpus topic set"))
    return report


def coverage_stats(corpus: Corpus) -> CoverageReport:
    """Classification coverage: per-publication and per-journal fractions."""
    n_pubs = len(corpus.pub_ids)
    papers = Counter(corpus.journal_ids)
    assigned = Counter(compress(corpus.journal_ids, map(is_not, corpus.topic_ids, repeat(None))))
    n_classified = assigned.total()
    # integer form of "assigned / papers > 0.9", immune to float rounding
    n_over_90 = sum(1 for journal_id, n in papers.items() if 10 * assigned[journal_id] > 9 * n)
    return CoverageReport(
        publication_coverage=n_classified / n_pubs if n_pubs else 1.0,
        journal_coverage=n_over_90 / len(papers) if papers else 1.0,
        n_publications=n_pubs,
        n_classified=n_classified,
        n_journals=len(papers),
        n_journals_over_90=n_over_90,
    )
