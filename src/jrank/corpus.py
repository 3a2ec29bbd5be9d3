"""Publication corpus: data model, delimited-text ingestion, validation.

A corpus bundles everything the indicator pipeline consumes: publications
with precomputed citation counts and topic clusters, and the journals that
published them.  Publications are stored as one tuple per field
(:class:`Publication` is the row type for code that works row by row); the
topics are those the publications are assigned to.  Corpora are immutable
once built: topic assignment returns a new instance, and the bootstrap and
the document-type flip reweight or recode the corpus's kernel encoding
instead of copying it.

Every table is read by :func:`_read_table`, in blocks of whole lines.  A
clean block, one in which every line is a plain record with the header's
number of fields, is split on the separator in one call, and
:func:`load_publications` converts it column by column.  Any other block,
and the rest of the file after it, goes through ``csv.reader`` with quoted
fields, comments and blank lines; a block with a rejected row is parsed
again row by row, so row errors are the same as a row loop's.  Every
table is written by :func:`write_table`, which joins a batch of rows that
needs no quoting into one string; :func:`write_publications` converts the
corpus column by column.
"""

from __future__ import annotations

import csv
import enum
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, is_not, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

PUBLICATION_COLUMNS = ("pub_id", "journal_id", "pub_year", "doc_type", "citations", "topic_id")
JOURNAL_COLUMNS = ("journal_id", "title", "categories")

CATEGORY_SEPARATOR = "|"

_MAX_CITATIONS = 2**63 - 1  # the indicator kernel holds citation counts as int64


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
    """An immutable snapshot of publications and journals.

    Publications are columns in input order, None marking an unclassified
    paper's topic.  A topic exists because papers are assigned to it:
    :attr:`topics` is derived from ``topic_ids``, not declared.
    """

    pub_ids: tuple[str, ...]
    journal_ids: tuple[str, ...]
    pub_years: tuple[int, ...]
    doc_types: tuple[DocumentType, ...]
    citations: tuple[int, ...]
    topic_ids: tuple[str | None, ...]
    journals: dict[str, Journal]

    @cached_property
    def topics(self) -> tuple[str, ...]:
        """The topic ids the publications use, sorted: the order of the kernel's cells and the classifier's ties."""
        return tuple(sorted(set(self.topic_ids) - {None}))

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


_BLOCK_HINT = 16 * 1024  # characters of whole lines read per block


def _read_table(path: Path | str, columns: tuple[str, ...]) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Yield ``(lines, fields)`` for each block of data records of a delimited file.

    ``fields`` holds one list per name in ``columns`` (at least two), in that
    order, with the stripped values of the block's records; ``lines`` holds
    the last physical line of each record.  Rows shorter than the header read
    as empty strings, extra columns are ignored.  The separator comes from
    the header line: tab if it holds one, else comma.

    After the header, lines are read in blocks of about ``_BLOCK_HINT``
    characters.  A block is clean when it holds no quote, ``#``, carriage
    return or NUL, no line longer than the csv field limit and no line of
    whitespace only, and every line has as many separators as the header:
    then each line is one record, and the block is split on the separator in
    one call.  Its records are those ``csv.reader`` would give.
    From the first block that is not clean on, one ``csv.reader`` streams the
    rest of the file, so a quoted field may hold delimiters, quotes and line
    breaks.  There blank and ``#`` comment lines are skipped only where a
    record starts; the continuation lines of a quoted field are kept as they
    are.

    Raises :class:`SchemaError` when the header is missing or lacks one of
    ``columns``, or when a quoted field is never closed.
    """
    line = 0  # physical lines read so far
    start = 0  # the line that opened the current record
    at_start = True  # the next line opens a record; set by parsed_rows() below
    at_eof = False

    def physical_lines(source: Iterable[str]) -> Iterator[str]:
        # csv.reader pulls one line at a time and none past a record's end,
        # so at_start is True exactly when it asks for a record's first line
        nonlocal line, start, at_start, at_eof
        for text in source:
            line += 1
            if at_start:
                head = text.lstrip()
                if not head or head[0] == "#":
                    continue
                start, at_start = line, False
            yield text
        at_eof = True

    def parsed_rows(lines: Iterator[str], delimiter: str) -> Iterator[tuple[int, list[str]]]:
        nonlocal at_start
        reader = csv.reader(lines, delimiter=delimiter)
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
            yield line, row

    with open(path, encoding="utf-8-sig", newline="") as fh:
        lines = physical_lines(fh)
        first = next(lines, None)
        if first is None:
            raise SchemaError(f"{path}: empty file, expected a header row")
        delimiter = "\t" if "\t" in first else ","
        _, header = next(parsed_rows(chain([first], lines), delimiter))
        header = [h.strip() for h in header]
        missing = [col for col in columns if col not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        index = {col: i for i, col in enumerate(header)}  # a repeated column: the last wins
        positions = [index[col] for col in columns]

        stride = len(header)
        limit = csv.field_size_limit()
        while block := fh.readlines(_BLOCK_HINT):
            text = "".join(block)
            if (
                '"' in text
                or "#" in text
                or "\r" in text
                or "\0" in text
                or (len(text) > limit and max(map(len, block)) > limit)
                or any(map(str.isspace, block))
                or list(map(str.count, block, repeat(delimiter))).count(stride - 1) < len(block)
            ):
                break
            fields = text.replace("\n", delimiter).split(delimiter)
            del fields[len(block) * stride :]  # the empty string after a final line break
            yield range(line + 1, line + len(block) + 1), [list(map(str.strip, fields[p::stride])) for p in positions]
            line += len(block)
        else:
            return

        width = max(positions) + 1
        pick = itemgetter(*positions)
        rest = parsed_rows(physical_lines(chain(block, fh)), delimiter)
        while batch := list(islice(rest, len(block))):  # as many records as a block has lines
            ends, rows = zip(*batch)
            padded = (row if len(row) >= width else row + [""] * (width - len(row)) for row in rows)
            yield ends, [list(map(str.strip, column)) for column in zip(*map(pick, padded))]


def load_publications(path: Path | str) -> CorpusFragment:
    """Load publications from delimited text (separator auto-detected).

    Unparseable rows are collected in ``errors`` rather than dropped: bad
    integers, unknown document types, citation counts below 0 or above
    2**63 - 1 (the kernel's int64 limit), and duplicate publication ids each
    produce a :class:`RowError` naming the line.  A rejected row adds nothing
    to any column.  Each block of :func:`_read_table` is converted column by
    column; a block in which any row fails a check is parsed again row by row.
    """
    fragment = CorpusFragment(tuple([] for _ in PUBLICATION_COLUMNS), [])
    pub_ids, journal_ids, pub_years, doc_types, citations, topic_ids = fragment.columns
    seen: set[str] = set()
    # one object per distinct journal id, year and topic id; an empty topic id reads as None
    shared: dict[str | int | None, str | int | None] = {"": None}
    for lines, block in _read_table(path, PUBLICATION_COLUMNS):
        parsed = _parse_block(block, seen)
        if parsed is not None:
            ids, journals, _, _, _, topics = block
            years, kinds, counts = parsed
            seen.update(ids)
            pub_ids += ids
            journal_ids += map(shared.setdefault, journals, journals)
            pub_years += map(shared.setdefault, years, years)
            doc_types += kinds
            citations += counts
            topic_ids += map(shared.setdefault, topics, topics)
            continue
        for line, *fields in zip(lines, *block):
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


def _parse_block(block: list[list[str]], seen: set[str]) -> tuple[list[int], list[DocumentType], list[int]] | None:
    """The years, document types and citation counts of a block, as :func:`_parse_publication` reads them.

    None when any row would be rejected: by :func:`_parse_publication`, or as
    a duplicate of an id in ``seen`` or earlier in the block.
    """
    pub_ids, journal_ids, pub_years, doc_types, citations, _ = block
    try:
        years = list(map(int, pub_years))
        counts = list(map(int, citations))
    except ValueError:
        return None
    kinds = list(map(_DOCUMENT_TYPES.get, map(str.lower, doc_types)))
    if (
        min(counts) < 0
        or max(counts) > _MAX_CITATIONS
        or None in kinds
        or "" in pub_ids
        or "" in journal_ids
        or len(set(pub_ids)) < len(pub_ids)
        or not seen.isdisjoint(pub_ids)
    ):
        return None
    return years, kinds, counts


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
    if count > _MAX_CITATIONS:
        raise ValueError(f"citations must be <= {_MAX_CITATIONS}, got {count}")
    # DocumentType.parse raises the error for an unknown tag
    kind = _DOCUMENT_TYPES.get(doc_type.lower()) or DocumentType.parse(doc_type)
    return pub_id, journal_id, year, kind, count, topic_id or None


def load_journals(path: Path | str) -> JournalsFragment:
    """Load the journal table; categories are ``|``-separated in one column."""
    fragment = JournalsFragment()
    for lines, block in _read_table(path, JOURNAL_COLUMNS):
        for line, journal_id, title, categories in zip(lines, *block):
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
    """The corpus of loaded fragments."""
    return Corpus(*map(tuple, pubs.columns), journals.journals)


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


_WRITE_BATCH = 4096  # rows checked for quoting at once


def write_table(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of strings as comma-separated text (LF line endings).

    A row is written with every field quoted when its first field starts
    with ``#`` (after whitespace), so that a reader does not take it for a
    comment, or when a field holds a carriage return, which the csv module
    quotes only if it is part of the line terminator.  Rows go out in
    batches of ``_WRITE_BATCH``.  A batch that the csv module would write
    with no quote at all is joined and written in one call: it holds no
    quote or carriage return, no ``#`` in a first field, no comma or line
    break inside a field, and no row that joins to an empty line.  Any other
    batch is written row by row.
    """
    plain = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    rows = iter(rows)
    while batch := list(islice(rows, _WRITE_BATCH)):
        lines = list(map(",".join, batch))
        text = "\n".join(lines)
        if (
            '"' not in text
            and "\r" not in text
            and "#" not in "".join(map(itemgetter(0), batch))
            and text.count(",") == sum(map(len, batch)) - len(batch)
            and text.count("\n") == len(batch) - 1
            and "" not in lines
        ):
            fh.write(text)
            fh.write("\n")
            continue
        for row in batch:
            needs_quotes = row[0].lstrip().startswith("#") or "\r" in "".join(row)
            (quoted if needs_quotes else plain).writerow(row)


def write_publications(corpus: Corpus, path: Path | str) -> None:
    """Write a corpus's publications as canonical comma-separated text (LF line endings).

    Each field is converted column by column; a row is only the tuple that
    joins them for :func:`write_table`.
    """
    with atomic_write(path) as fh:
        write_table(
            fh,
            PUBLICATION_COLUMNS,
            zip(
                corpus.pub_ids,
                corpus.journal_ids,
                map(str, corpus.pub_years),
                map(attrgetter("_value_"), corpus.doc_types),  # a plain attribute: ``value`` is a Python property
                map(str, corpus.citations),
                map({None: ""}.get, corpus.topic_ids, corpus.topic_ids),
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

    Findings cover dangling journal references and duplicate publication
    ids.  Topics need no check: a corpus's topics are those its publications
    use.  An empty report means the corpus is acceptable for indicator
    computation.
    """
    report = ValidationReport()
    # set checks clear the common, clean corpus; the row walk only runs to report findings
    if len(set(corpus.pub_ids)) == len(corpus.pub_ids) and corpus.journals.keys() >= set(corpus.journal_ids):
        return report
    seen: set[str] = set()
    for pub_id, journal_id in zip(corpus.pub_ids, corpus.journal_ids):
        if pub_id in seen:
            report.findings.append(Finding("duplicate-pub-id", pub_id, "publication id appears more than once"))
        seen.add(pub_id)
        if journal_id not in corpus.journals:
            report.findings.append(Finding("dangling-journal", pub_id, f"journal {journal_id!r} not in journal table"))
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
