"""Publication corpus: data model, delimited-text ingestion, validation.

A corpus bundles everything the indicator pipeline consumes: publications
with precomputed citation counts and topic clusters, and the journals that
published them.  It is encoded once, where it is built: publication ids
are strings, every other field is one NumPy column, and journal and topic
ids are integer codes into sorted tables (:class:`Publication` is the row
type that :attr:`Corpus.publications` decodes for code that works row by
row).  The topics are those the publications are assigned to.  Corpora are
immutable once built: topic assignment returns a new instance with a new
topic column, the bootstrap reweights the kernel's arrays instead of copying
the corpus, and the document-type flip scores a copy whose review column is
inverted.

Every table is read by :func:`_read_table`, in blocks of whole lines.  A
clean block, one in which every line is a plain record with the header's
number of fields, is split on the separator in one call, and
:func:`load_publications` converts it column by column.  Any other block,
and the rest of the file after it, goes through ``csv.reader`` with quoted
fields, comments and blank lines; a block with a rejected row is parsed
again row by row, so row errors are the same as a row loop's.  Every
table is written by :func:`write_table`, which joins a batch of rows that
needs no quoting into one string; :func:`write_publications` decodes the
corpus column by column.
"""

from __future__ import annotations

import csv
import enum
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

PUBLICATION_COLUMNS = ("pub_id", "journal_id", "pub_year", "doc_type", "citations", "topic_id")
JOURNAL_COLUMNS = ("journal_id", "title", "categories")

CATEGORY_SEPARATOR = "|"

_INT64_MAX = 2**63 - 1  # the indicator kernel holds citation counts, and their sums, as int64


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


# lowercased document-type tag -> review flag; ingest matches tags case-insensitively
_REVIEW_FLAGS = {member.value.lower(): member is DocumentType.REVIEW for member in DocumentType}


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


@dataclass(frozen=True, slots=True)
class Journal:
    """A journal and the subject-category labels used for scoped rankings."""

    journal_id: str
    title: str = ""
    categories: tuple[str, ...] = ()


_COLUMN_DTYPES = {"journal": np.int32, "topic": np.int32, "review": bool, "pub_years": np.int32, "citations": np.int64}


@dataclass(frozen=True, eq=False)
class Corpus:
    """An immutable snapshot of publications and journals; ValueError for columns that break its rules.

    Publications are columns in input order: ``pub_ids`` as strings, then one
    NumPy array per field.  ``journal`` (int32) indexes ``journal_ids``, the
    sorted ids of the journal table and of every journal that publishes;
    ``topic`` (int32) indexes ``topics``, the sorted ids of the topics papers
    are assigned to, with -1 for an unclassified paper.  ``review`` flags a
    review, ``pub_years`` is int32 and ``citations`` int64.  The tables
    follow from the rows and the journal table, so corpora with the same
    :attr:`publications` and ``journals`` hold the same arrays.

    ``pub_ids`` are distinct, and nothing checks it again: ingest rejects a
    repeated id as a row error, the generator numbers its ids, and the
    classifier and the flip test keep the ids they are given.
    """

    pub_ids: tuple[str, ...]
    journal: np.ndarray
    topic: np.ndarray
    review: np.ndarray
    pub_years: np.ndarray
    citations: np.ndarray
    journal_ids: tuple[str, ...]
    topics: tuple[str, ...]
    journals: dict[str, Journal]

    def __post_init__(self) -> None:
        for name, dtype in _COLUMN_DTYPES.items():
            column = getattr(self, name)
            if not isinstance(column, np.ndarray) or column.dtype != dtype or column.shape != (len(self.pub_ids),):
                raise ValueError(f"{name} must be a {np.dtype(dtype)} array with one entry per pub_id")
        tables = (("journal", self.journal, self.journal_ids, 0), ("topic", self.topic, self.topics, -1))
        for name, codes, table, lowest in tables:
            if len(codes) and not lowest <= codes.min() <= codes.max() < len(table):
                raise ValueError(f"{name} codes must index their table (-1 is an unclassified topic)")
        if (self.citations < 0).any():  # as int64, every count is at most 2**63 - 1
            raise ValueError("citations must be >= 0")
        used = np.bincount(self.topic + 1, minlength=len(self.topics) + 1)[1:] > 0
        if list(self.topics) != sorted(set(compress(self.topics, used))):
            raise ValueError("topics must be the distinct topic ids the papers use, sorted")
        publishes = np.bincount(self.journal, minlength=len(self.journal_ids)) > 0
        if list(self.journal_ids) != sorted(self.journals.keys() | set(compress(self.journal_ids, publishes))):
            raise ValueError("journal_ids must be the sorted ids of the journal table and of the papers' journals")

    @cached_property
    def publications(self) -> tuple[Publication, ...]:
        """The rows as :class:`Publication` objects, decoded on first use; no command reads them."""
        return tuple(map(Publication, *_decoded(self, tuple(DocumentType), None)))


def _decode(table: Sequence, codes: np.ndarray) -> list:
    """``table[code]`` for every code, as a list; code -1 is the table's last entry."""
    return np.array(table, dtype=object)[codes].tolist()


def _decoded(corpus: Corpus, doc_types: Sequence, unclassified: str | None) -> tuple[Sequence, ...]:
    """The publication columns as sequences; review flags index ``doc_types``, and -1 topics are ``unclassified``."""
    journal_ids = _decode(corpus.journal_ids, corpus.journal)
    kinds = _decode(doc_types, corpus.review.view(np.uint8))
    topic_ids = _decode((*corpus.topics, unclassified), corpus.topic)
    return corpus.pub_ids, journal_ids, corpus.pub_years.tolist(), kinds, corpus.citations.tolist(), topic_ids


def _in_table(corpus: Corpus) -> np.ndarray:
    """Whether each journal code's journal is in the journal table; index it by ``corpus.journal``."""
    return np.fromiter(map(corpus.journals.__contains__, corpus.journal_ids), bool, len(corpus.journal_ids))


def _sorted_table(
    table: Sequence[str], codes: np.ndarray, keep: Iterable[str] = ()
) -> tuple[tuple[str, ...], np.ndarray]:
    """The entries of ``table`` that ``codes`` use and those of ``keep``, sorted, and ``codes`` recoded to them.

    Code -1 stays -1.
    """
    used = np.flatnonzero(np.bincount(codes + 1, minlength=len(table) + 1)[1:]).tolist()
    ids = tuple(sorted({table[code] for code in used}.union(keep)))
    position = dict(zip(ids, range(len(ids))))
    recode = np.array([*map(position.get, table, repeat(-1)), -1], dtype=np.int32)
    return ids, recode[codes]


@dataclass(frozen=True, slots=True)
class RowError:
    """A rejected input row; the line number refers to the physical file line."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class CorpusFragment:
    """Parsed publications, as a :class:`Corpus` without a journal table, plus the rows that failed to parse."""

    corpus: Corpus
    errors: list[RowError]

    @property
    def publications(self) -> list[Publication]:
        """The parsed rows as :class:`Publication` objects, decoded on each call; no command reads them."""
        return list(map(Publication, *_decoded(self.corpus, tuple(DocumentType), None)))


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
_ASCII_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"  # what str.strip removes from ASCII text besides line breaks


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
    one call.  Its records are those ``csv.reader`` would give.  Its values
    are stripped only when it holds a non-ASCII character or ASCII padding
    (space, tab in a comma file, ``\x0b``, ``\x0c``, ``\x1c``-``\x1f``).
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
        padding = _ASCII_PADDING.replace(delimiter, "")
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
            values = [fields[p::stride] for p in positions]
            # an ASCII block without padding has nothing to strip
            if not text.isascii() or any(map(text.__contains__, padding)):
                values = [list(map(str.strip, column)) for column in values]
            yield range(line + 1, line + len(block) + 1), values
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
    integers, years outside int32, unknown document types, citation counts
    below 0 or above 2**63 - 1 (the kernel's int64 limit), and duplicate
    publication ids each produce a :class:`RowError` naming the line.  A
    rejected row adds nothing to any column or table.  Each block of
    :func:`_read_table` is converted column by column; a block in which any
    row fails a check is parsed again row by row.  Journal and topic ids are
    coded in the order first seen, then sorted once at the end.
    """
    pub_ids: list[str] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    journal_code: defaultdict[str, int] = defaultdict()
    journal_code.default_factory = journal_code.__len__  # a new id takes the next code
    topic_code: defaultdict[str, int] = defaultdict()
    topic_code.default_factory = topic_code.__len__
    topic_code[""]  # code 0, an unclassified paper; every code is lowered by one below
    journal, topic, review, years, citations = array("i"), array("i"), array("b"), array("i"), array("q")
    for lines, block in _read_table(path, PUBLICATION_COLUMNS):
        columns = _parse_block(block, seen)
        if columns is None:
            rows = []
            for line, *fields in zip(lines, *block):
                try:
                    rows.append(_parse_publication(seen, *fields))
                except ValueError as exc:
                    errors.append(RowError(line, str(exc)))
            columns = list(map(list, zip(*rows))) or [[]] * len(PUBLICATION_COLUMNS)
        ids, journals, pub_years, reviews, counts, topics = columns
        seen.update(ids)
        pub_ids += ids
        journal.extend(map(journal_code.__getitem__, journals))
        topic.extend(map(topic_code.__getitem__, topics))
        review.extend(reviews)
        years.extend(pub_years)
        citations.extend(counts)
    journal_ids, journal_codes = _sorted_table(list(journal_code), np.frombuffer(journal, np.int32))
    topic_ids, topic_codes = _sorted_table(list(topic_code)[1:], np.frombuffer(topic, np.int32) - 1)
    columns = np.frombuffer(review, np.bool_), np.frombuffer(years, np.int32), np.frombuffer(citations, np.int64)
    corpus = Corpus(tuple(pub_ids), journal_codes, topic_codes, *columns, journal_ids, topic_ids, {})
    return CorpusFragment(corpus, errors)


def _parse_block(block: list[list[str]], seen: set[str]) -> list[Sequence] | None:
    """The columns of a block, years, review flags and citation counts converted as :func:`_parse_publication` does.

    None when any row would be rejected: by :func:`_parse_publication`, or as
    a duplicate of an id in ``seen`` or earlier in the block.
    """
    pub_ids, journal_ids, pub_years, doc_types, citations, topic_ids = block
    try:  # the typed arrays reject a year outside int32 and a count outside int64; from lists, they build faster
        years = array("i", list(map(int, pub_years)))
        counts = array("q", list(map(int, citations)))
    except (ValueError, OverflowError):
        return None
    reviews = list(map(_REVIEW_FLAGS.get, map(str.lower, doc_types)))
    if (
        min(counts) < 0
        or None in reviews
        or "" in pub_ids
        or "" in journal_ids
        or len(set(pub_ids)) < len(pub_ids)
        or not seen.isdisjoint(pub_ids)
    ):
        return None
    return [pub_ids, journal_ids, years, reviews, counts, topic_ids]


def _parse_publication(
    seen: set[str], pub_id: str, journal_id: str, pub_year: str, doc_type: str, citations: str, topic_id: str
) -> tuple[str, str, int, bool, int, str]:
    """One row, converted as its block would be, its id added to ``seen``; ValueError for a row to reject."""
    if not pub_id:
        raise ValueError("empty pub_id")
    if not journal_id:
        raise ValueError("empty journal_id")
    try:
        year = int(pub_year)
    except ValueError:
        raise ValueError(f"pub_year {pub_year!r} is not an integer") from None
    if not -(2**31) <= year < 2**31:
        raise ValueError(f"pub_year must be within int32, got {year}")
    try:
        count = int(citations)
    except ValueError:
        raise ValueError(f"citations {citations!r} is not an integer") from None
    if count < 0:
        raise ValueError(f"citations must be >= 0, got {count}")
    if count > _INT64_MAX:
        raise ValueError(f"citations must be <= {_INT64_MAX}, got {count}")
    review = _REVIEW_FLAGS.get(doc_type.lower())
    if review is None:
        raise ValueError(f"unknown document type {doc_type!r} (expected Article or Review)")
    if pub_id in seen:
        raise ValueError(f"duplicate pub_id {pub_id!r}")
    seen.add(pub_id)
    return pub_id, journal_id, year, review, count, topic_id


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
    """The corpus of loaded fragments: the publications, their journal codes recoded to cover the journal table."""
    journal_ids, journal = _sorted_table(pubs.corpus.journal_ids, pubs.corpus.journal, keep=journals.journals)
    return replace(pubs.corpus, journal=journal, journal_ids=journal_ids, journals=journals.journals)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path: Path | str) -> Iterator[TextIO]:
    """Open ``path`` for text output that appears under its name only once complete.

    The directory is created, with its parents, if it does not exist.  The
    text goes to a temporary file in that directory, which replaces ``path``
    when the block ends and is removed if the block raises.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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

    Each field is decoded column by column; a row is only the tuple that
    joins them for :func:`write_table`.
    """
    ids, journal_ids, years, kinds, counts, topic_ids = _decoded(corpus, [kind.value for kind in DocumentType], "")
    rows = zip(ids, journal_ids, map(str, years), kinds, map(str, counts), topic_ids)
    with atomic_write(path) as fh:
        write_table(fh, PUBLICATION_COLUMNS, rows)


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


def validate_corpus(corpus: Corpus) -> list[Finding]:
    """Check that every publication's journal is in the journal table; pure, and side-effect free.

    Findings name each dangling journal reference, in row order.  Publication
    ids need no check, as they are distinct by the :class:`Corpus` rule, and
    topics need none, as a corpus's topics are those its publications use.
    No finding means the corpus is acceptable for indicator computation.
    """
    rows = np.flatnonzero((~_in_table(corpus))[corpus.journal]).tolist()
    dangling = zip(map(corpus.pub_ids.__getitem__, rows), _decode(corpus.journal_ids, corpus.journal[rows]))
    return [Finding("dangling-journal", p, f"journal {j!r} not in journal table") for p, j in dangling]


def coverage_stats(corpus: Corpus) -> CoverageReport:
    """Classification coverage: per-publication and per-journal fractions."""
    n_pubs = len(corpus.pub_ids)
    papers = np.bincount(corpus.journal, minlength=len(corpus.journal_ids))
    assigned = np.bincount(corpus.journal[corpus.topic >= 0], minlength=len(corpus.journal_ids))
    n_classified = int(assigned.sum())
    n_journals = int(np.count_nonzero(papers))
    # integer form of "assigned / papers > 0.9", immune to float rounding
    n_over_90 = int(np.count_nonzero(10 * assigned > 9 * papers))
    return CoverageReport(
        publication_coverage=n_classified / n_pubs if n_pubs else 1.0,
        journal_coverage=n_over_90 / n_journals if n_journals else 1.0,
        n_publications=n_pubs,
        n_classified=n_classified,
        n_journals=n_journals,
        n_journals_over_90=n_over_90,
    )
