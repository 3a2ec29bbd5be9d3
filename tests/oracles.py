"""Independent brute-force reference implementations.

Everything here recomputes indicator values the slow, obvious way: explicit
grouping into plain lists, all-pairs enumeration for the comparison
probability, per-paper loops for the normalized means.  None of it shares
code with the package kernels it checks.  The one exception is
:func:`rebuild_bootstrap_rankings`, the reference for the bootstrap's
reweighting: it scores every rebuilt resample with the package's own kernel
(through :func:`values`), so it checks the resampling, not the kernel.  It
ranks with :func:`order_journals`, a plain Python sort that checks the
package's ordering rule.  :func:`reference_relative_change` is the
bootstrap's ``delta`` as a plain left-to-right loop.  :func:`flip_doc_type`
is the reference for the kernel's document-type flip: it rewrites the corpus
itself.
:func:`reference_assign_majority` votes one related record at a time with a
``Counter``, the way the classifier did before it voted a block at a time;
its records, like :func:`reference_load_related`'s, are plain ``(pub_id,
related_ids)`` tuples.

The reference readers at the end (:func:`reference_load_publications`,
:func:`reference_load_journals`, :func:`reference_load_related`) parse every
table row by row through one ``csv.reader``, the way ingest did before it
read clean blocks column-wise; :func:`reference_write_table` applies the
writer's quoting rule one row at a time.  :func:`reference_generate_corpus`
is the synthetic generator as it was before it appended to columns: one
:class:`Publication` per paper, transposed by :func:`corpus_from_rows`, the
row builder every reference and test uses.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from jrank.classifier import AssignmentReport
from jrank.corpus import (
    Corpus,
    CorpusFragment,
    DocumentType,
    Journal,
    JournalsFragment,
    Publication,
    RowError,
    SchemaError,
)
from jrank.indicators import RankKernel
from jrank.synth import _BASE_YEAR, SKEWED_PREFIX, SyntheticProfile


def corpus_from_rows(publications: Iterable[Publication], journals: dict[str, Journal]) -> Corpus:
    """The corpus of these rows, which it keeps as its ``publications``; its tables are built with plain sorts."""
    rows = tuple(publications)
    journal_ids = tuple(sorted({p.journal_id for p in rows} | journals.keys()))
    topics = tuple(sorted({p.topic_id for p in rows} - {None}))
    journal_code = {journal_id: code for code, journal_id in enumerate(journal_ids)}
    topic_code = {topic_id: code for code, topic_id in enumerate(topics)} | {None: -1}
    corpus = Corpus(
        tuple(p.pub_id for p in rows),
        np.array([journal_code[p.journal_id] for p in rows], dtype=np.int32),
        np.array([topic_code[p.topic_id] for p in rows], dtype=np.int32),
        np.array([p.doc_type is DocumentType.REVIEW for p in rows], dtype=bool),
        np.array([p.pub_year for p in rows], dtype=np.int32),
        np.array([p.citations for p in rows], dtype=np.int64),
        journal_ids,
        topics,
        journals,
    )
    corpus.__dict__["publications"] = rows
    return corpus


def naive_cells(corpus: Corpus) -> dict[tuple[str, DocumentType], list[tuple[str, int]]]:
    """(topic, doc_type) -> [(journal_id, citations), ...]; plain grouping."""
    cells: dict[tuple[str, DocumentType], list[tuple[str, int]]] = {}
    for p in corpus.publications:
        if p.topic_id is not None:
            cells.setdefault((p.topic_id, p.doc_type), []).append((p.journal_id, p.citations))
    return cells


def pairwise_score(own: list[int], others: list[int]) -> float:
    """All-pairs win/half-tie probability, one term per publication pair."""
    credit = 0.0
    for a in own:
        for o in others:
            if a > o:
                credit += 1.0
            elif a == o:
                credit += 0.5
    return credit / (len(own) * len(others))


def brute_fncsi(corpus: Corpus, journal_id: str) -> float | None:
    cells = naive_cells(corpus)
    per_topic: dict[str, list[float]] = {}  # topic -> [weighted sum, weight]
    for (topic, _), papers in cells.items():
        own = [c for j, c in papers if j == journal_id]
        others = [c for j, c in papers if j != journal_id]
        if not own or not others:
            continue
        entry = per_topic.setdefault(topic, [0.0, 0])
        entry[0] += len(own) * pairwise_score(own, others)
        entry[1] += len(own)
    total = 0.0
    weight = 0
    for topic in sorted(per_topic):
        weighted_sum, n = per_topic[topic]
        topic_score = weighted_sum / n
        total += n * topic_score
        weight += n
    return total / weight if weight else None


def brute_fnif(corpus: Corpus, journal_id: str) -> float | None:
    cells = naive_cells(corpus)
    means = {key: sum(c for _, c in papers) / len(papers) for key, papers in cells.items()}
    total = 0.0
    n = 0
    for p in corpus.publications:
        if p.journal_id != journal_id or p.topic_id is None:
            continue
        n += 1
        mean = means[(p.topic_id, p.doc_type)]
        if mean > 0:
            total += p.citations / mean
    return total / n if n else None


def brute_expected_jif(corpus: Corpus, journal_id: str) -> float | None:
    by_topic: dict[str, list[int]] = {}
    for p in corpus.publications:
        if p.topic_id is not None:
            by_topic.setdefault(p.topic_id, []).append(p.citations)
    means = {t: sum(cs) / len(cs) for t, cs in by_topic.items()}
    own = [p for p in corpus.publications if p.journal_id == journal_id and p.topic_id is not None]
    if not own:
        return None
    return sum(means[p.topic_id] for p in own) / len(own)


def brute_jif(corpus: Corpus, journal_id: str) -> float | None:
    own = [p for p in corpus.publications if p.journal_id == journal_id]
    if not own:
        return None
    return sum(p.citations for p in own) / len(own)


def brute_spearman(ranks_a: dict[str, int], ranks_b: dict[str, int]) -> float:
    """Pearson correlation of re-ranked common items, computed longhand."""
    common = sorted(set(ranks_a) & set(ranks_b))

    def rerank(ranks):
        ordered = sorted(common, key=lambda j: ranks[j])
        return {j: i for i, j in enumerate(ordered, start=1)}

    ra, rb = rerank(ranks_a), rerank(ranks_b)
    xs = [float(ra[j]) for j in common]
    ys = [float(rb[j]) for j in common]
    n = len(common)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def values(corpus: Corpus, key: str) -> dict[str, float | None]:
    """One indicator for every journal of the journal table, in id order; None where undefined."""
    scores = RankKernel(corpus).evaluate()
    kernel = scores.kernel
    column = scores.column(key).tolist()
    return {
        journal_id: None if math.isnan(column[code]) else column[code]
        for code, journal_id in enumerate(kernel.journal_ids)
        if kernel.in_table[code]
    }


def order_journals(values: Mapping[str, float | None]) -> list[str]:
    """Journal ids ordered by descending value, ties by ascending id; journals valued None are left out."""
    rankable = [(journal_id, value) for journal_id, value in values.items() if value is not None]
    rankable.sort(key=lambda item: (-item[1], item[0]))
    return [journal_id for journal_id, _ in rankable]


def rebuild_bootstrap_rankings(corpus: Corpus, key: str, sims: int = 100, seed: int = 42) -> dict[str, list[int]]:
    """Bootstrap that rebuilds a resampled corpus per simulation and ranks it afresh.

    Same seeds, draws and sentinel as ``jrank.robustness.bootstrap_rankings``;
    each corpus is scored by a kernel encoded from it, through :func:`values`.
    Returns every tracked journal's ranks in simulation order, journals in id order.
    """
    base_values = values(corpus, key)
    tracked = sorted(j for j, v in base_values.items() if v is not None)
    sentinel = len(tracked) + 1
    by_journal: dict[str, list[Publication]] = {}
    for p in corpus.publications:
        by_journal.setdefault(p.journal_id, []).append(p)
    samples: dict[str, list[int]] = {journal_id: [] for journal_id in tracked}
    for seq in np.random.SeedSequence(seed).spawn(sims):
        rng = np.random.default_rng(seq)
        resampled = []
        for journal_id in sorted(by_journal):
            pubs = by_journal[journal_id]
            for i in rng.integers(0, len(pubs), size=len(pubs)):
                resampled.append(pubs[i])
        boot = corpus_from_rows(resampled, corpus.journals)
        rank_of = {j: r for r, j in enumerate(order_journals(values(boot, key)), start=1)}
        for journal_id in tracked:
            samples[journal_id].append(rank_of.get(journal_id, sentinel))
    return samples


def reference_relative_change(rows: Sequence[Sequence[int]]) -> float:
    """Mean over rows of (max - min) / average, accumulated one row at a time from 0.0."""
    acc = 0.0
    for ranks in rows:
        acc += (max(ranks) - min(ranks)) / (sum(ranks) / len(ranks))
    return acc / len(rows)


def opposite(doc_type: DocumentType) -> DocumentType:
    return DocumentType.REVIEW if doc_type is DocumentType.ARTICLE else DocumentType.ARTICLE


def flip_doc_type(corpus: Corpus) -> Corpus:
    """Toggle the document type of every journal's most highly cited paper, ties to the smallest pub_id.

    All flips land in one new corpus; the input corpus is untouched.
    """
    by_journal: dict[str, list[Publication]] = {}
    for p in corpus.publications:
        by_journal.setdefault(p.journal_id, []).append(p)
    flip = set()
    for journal_id, pubs in by_journal.items():
        most = max(p.citations for p in pubs)
        flip.add((journal_id, min(p.pub_id for p in pubs if p.citations == most)))
    flipped = tuple(
        replace(p, doc_type=opposite(p.doc_type)) if (p.journal_id, p.pub_id) in flip else p
        for p in corpus.publications
    )
    return corpus_from_rows(flipped, corpus.journals)


def random_corpus(
    rng: np.random.Generator,
    max_journals: int = 50,
    max_pubs: int = 2000,
    max_topics: int = 10,
    tie_heavy: bool = False,
    unclassified_p: float = 0.0,
) -> Corpus:
    """Messy random corpus: uneven journals, tied citations, spare journals.

    Deliberately unrelated to the package's synthetic generator so that
    oracle tests do not inherit its structure.
    """
    n_journals = int(rng.integers(2, max_journals + 1))
    n_topics = int(rng.integers(1, max_topics + 1))
    n_pubs = int(rng.integers(max(10, n_journals), max_pubs + 1))
    journal_ids = [f"J{i:02d}" for i in range(n_journals)]
    topics = [f"T{i:02d}" for i in range(n_topics)]

    pubs = []
    for i in range(n_pubs):
        jid = journal_ids[int(rng.integers(n_journals))]
        topic = topics[int(rng.integers(n_topics))]
        if unclassified_p and rng.random() < unclassified_p:
            topic = None
        doc = DocumentType.REVIEW if rng.random() < 0.3 else DocumentType.ARTICLE
        if tie_heavy:
            citations = int(rng.integers(0, 5))
        else:
            citations = int(rng.integers(0, 40)) if rng.random() < 0.8 else int(rng.integers(0, 400))
        pubs.append(Publication(f"P{i:05d}", jid, 2018, doc, citations, topic))

    # one spare journal with no publications keeps the "unrankable" paths hot
    journal_ids.append("J_EMPTY")
    journals = {j: Journal(j, f"Journal {j}") for j in journal_ids}
    return corpus_from_rows(pubs, journals)


def reference_assign_majority(
    corpus: Corpus, related: Iterable[tuple[str, tuple[str, ...]]]
) -> tuple[Corpus, AssignmentReport]:
    """Majority topic per unclassified subject, one record and one ``Counter`` at a time.

    Topics are those of the input corpus; ties go to the smallest topic id;
    a subject's later record with a vote replaces its earlier one.
    """
    topic_of = {p.pub_id: p.topic_id for p in corpus.publications}
    assignments: dict[str, str] = {}
    external = already = 0
    for pub_id, related_ids in related:
        if pub_id not in topic_of:
            continue
        in_corpus = [rid for rid in related_ids if rid in topic_of]
        external += len(related_ids) - len(in_corpus)
        if topic_of[pub_id] is not None:
            already += 1
            continue
        votes = Counter(topic_of[rid] for rid in in_corpus if topic_of[rid] is not None)
        if votes:
            top = max(votes.values())
            assignments[pub_id] = min(t for t, n in votes.items() if n == top)
    rows = [replace(p, topic_id=assignments.get(p.pub_id, p.topic_id)) for p in corpus.publications]
    report = AssignmentReport(
        assigned=len(assignments),
        still_unclassified=sum(p.topic_id is None for p in rows),
        external_ignored=external,
        already_classified=already,
    )
    return corpus_from_rows(rows, corpus.journals), report


def reference_rows(path: Path | str, columns: tuple[str, ...]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """``(last physical line, stripped values of columns)`` for each data record, one ``csv.reader`` throughout.

    Blank and ``#`` lines are skipped only where a record starts; short rows
    read as empty strings; the separator is tab if the header line holds one.
    """
    line = 0
    start = 0
    at_start = True
    at_eof = False

    def physical_lines(fh: TextIO) -> Iterator[str]:
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
                raise SchemaError(f"{path}: line {start}: quoted field is never closed")
            at_start = True
            if pick is None:
                header = [h.strip() for h in row]
                missing = [col for col in columns if col not in header]
                if missing:
                    raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
                index = {col: i for i, col in enumerate(header)}
                positions = [index[col] for col in columns]
                width = max(positions) + 1
                pick = itemgetter(*positions)
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            yield line, tuple(map(str.strip, pick(row)))


_REFERENCE_DOC_TYPES = {"article": DocumentType.ARTICLE, "review": DocumentType.REVIEW}


def reference_parse_publication(
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
    if not -(2**31) <= year < 2**31:
        raise ValueError(f"pub_year must be within int32, got {year}")
    try:
        count = int(citations)
    except ValueError:
        raise ValueError(f"citations {citations!r} is not an integer") from None
    if count < 0:
        raise ValueError(f"citations must be >= 0, got {count}")
    if count > 2**63 - 1:
        raise ValueError(f"citations must be <= {2**63 - 1}, got {count}")
    if doc_type.lower() not in _REFERENCE_DOC_TYPES:
        raise ValueError(f"unknown document type {doc_type!r} (expected Article or Review)")
    return pub_id, journal_id, year, _REFERENCE_DOC_TYPES[doc_type.lower()], count, topic_id or None


def reference_load_publications(path: Path | str) -> CorpusFragment:
    """Publications parsed one row at a time into :class:`Publication` rows; rejected rows become row errors."""
    rows: list[Publication] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    for line, fields in reference_rows(path, ("pub_id", "journal_id", "pub_year", "doc_type", "citations", "topic_id")):
        try:
            values = reference_parse_publication(*fields)
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
            continue
        if values[0] in seen:
            errors.append(RowError(line, f"duplicate pub_id {values[0]!r}"))
            continue
        seen.add(values[0])
        rows.append(Publication(*values))
    return CorpusFragment(corpus_from_rows(rows, {}), errors)


def reference_load_journals(path: Path | str) -> JournalsFragment:
    fragment = JournalsFragment()
    for line, (journal_id, title, categories) in reference_rows(path, ("journal_id", "title", "categories")):
        if not journal_id:
            fragment.errors.append(RowError(line, "empty journal_id"))
        elif journal_id in fragment.journals:
            fragment.errors.append(RowError(line, f"duplicate journal_id {journal_id!r}"))
        else:
            labels = tuple(label.strip() for label in categories.split("|") if label.strip())
            fragment.journals[journal_id] = Journal(journal_id, title, labels)
    return fragment


def reference_load_related(path: Path | str) -> tuple[list[tuple[str, tuple[str, ...]]], list[RowError]]:
    records: list[tuple[str, tuple[str, ...]]] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    for line, (pub_id, related_ids) in reference_rows(path, ("pub_id", "related_ids")):
        related = tuple(rid.strip() for rid in related_ids.split("|") if rid.strip())
        if not pub_id:
            errors.append(RowError(line, "empty pub_id"))
        elif not related:
            errors.append(RowError(line, f"no related ids for {pub_id!r}"))
        elif pub_id in related:
            errors.append(RowError(line, f"{pub_id!r} lists itself as a related record"))
        elif pub_id in seen:
            errors.append(RowError(line, f"duplicate related-record row for {pub_id!r}"))
        else:
            seen.add(pub_id)
            records.append((pub_id, related))
    return records, errors


def reference_write_table(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Comma-separated text, each row quoted in full when its first field starts with ``#`` or a field holds ``\\r``."""
    plain = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    for row in rows:
        needs_quotes = row[0].lstrip().startswith("#") or any("\r" in value for value in row)
        (quoted if needs_quotes else plain).writerow(row)


def reference_generate_corpus(profile: SyntheticProfile, seed: int) -> Corpus:
    """The synthetic generator one :class:`Publication` at a time, with a ``next_id`` call per paper.

    It makes the same random draws in the same order as ``generate_corpus``:
    per journal its size, then its citation counts; per paper its topic, the
    unclassified draw (only when ``unclassified_fraction`` is set), its
    document type and its year.
    """
    profile.validate()
    rng = np.random.default_rng(seed)
    topics = [f"t{i + 1:02d}" for i in range(profile.n_topics)]
    categories = [f"C{i + 1}" for i in range(profile.n_categories)]

    n_ordinary = profile.n_journals - profile.skewed_journals
    journal_ids = [f"j{i + 1:03d}" for i in range(n_ordinary)]
    journal_ids += [f"{SKEWED_PREFIX}{i + 1:02d}" for i in range(profile.skewed_journals)]

    journals: dict[str, Journal] = {}
    for journal_id in journal_ids:
        cats = [categories[rng.integers(len(categories))]]
        if len(categories) > 1 and rng.random() < 0.2:
            extra = categories[rng.integers(len(categories))]
            if extra not in cats:
                cats.append(extra)
        journals[journal_id] = Journal(journal_id, f"Journal {journal_id.upper()}", tuple(cats))

    publications: list[Publication] = []
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"p{counter:06d}"

    def draw_common(journal_id: str, citations: int) -> Publication:
        topic = topics[rng.integers(profile.n_topics)]
        if profile.unclassified_fraction and rng.random() < profile.unclassified_fraction:
            topic = None
        doc = DocumentType.REVIEW if rng.random() < profile.review_fraction else DocumentType.ARTICLE
        year = _BASE_YEAR - int(rng.integers(2))
        return Publication(next_id(), journal_id, year, doc, citations, topic)

    for position, journal_id in enumerate(journal_ids):
        n_pubs = int(rng.integers(profile.pubs_min, profile.pubs_max + 1))
        if journal_id.startswith(SKEWED_PREFIX):
            n_zero = min(round(profile.outlier_zero_fraction * n_pubs), n_pubs - 1)  # the outlier is a paper too
            n_tail = n_pubs - n_zero - 1
            counts = [profile.outlier_citations]
            counts += [0] * n_zero
            counts += [int(rng.lognormal(0.5, 1.0)) for _ in range(n_tail)]
        else:
            if n_ordinary > 1:
                quality = profile.quality_spread * (position / (n_ordinary - 1) - 0.5)
            else:
                quality = 0.0
            if profile.citation_dist == "lognormal":
                counts = [int(c) for c in rng.lognormal(1.0 + quality, profile.lognormal_sigma, n_pubs)]
            else:
                high = max(2, round(12.0 * float(np.exp(quality))))
                counts = [int(c) for c in rng.integers(0, high, size=n_pubs)]
        publications.extend(draw_common(journal_id, c) for c in counts)

    return corpus_from_rows(publications, journals)
