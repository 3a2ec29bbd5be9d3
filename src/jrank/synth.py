"""Seed-deterministic synthetic corpora for desk-scale verification.

Ordinary journals draw citation counts from a common distribution family with
a per-journal quality level spread across the corpus, so rankings have real
signal for the robustness machinery to work against.  A profile may also
inject skewed journals: one paper with an extreme citation count on top of a
mostly zero-cited tail, the shape that separates rank-stable indicators from
rank-fragile ones.

The corpus is a function of the profile and the seed through one random
stream, numpy's ``default_rng`` (PCG64), drawn in a fixed order.  The
per-paper draws are made a journal at a time from raw generator outputs,
reproducing the values and the state that numpy's scalar ``integers`` and
``random`` calls would give, so the files are those the row-by-row reference
in the tests writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import _MAX_CITATIONS, Corpus, Journal, _sorted_table, write_journals, write_publications

CITATION_DISTRIBUTIONS = ("lognormal", "uniform")

SKEWED_PREFIX = "jskew"

_BASE_YEAR = 2018  # papers are published in this year or the one before

_MAX_TOPICS = 2**32  # the most that _paper_draws' 32-bit topic draws can address


@dataclass(frozen=True)
class SyntheticProfile:
    """Shape of a generated corpus; each field is a ``jrank generate`` flag.

    Papers draw their topics from ``n_topics`` clusters, and the corpus's
    topics are those drawn, which may be fewer.  ``skewed_journals`` of the
    ``n_journals`` total get the outlier profile: one paper at
    ``outlier_citations``, a ``outlier_zero_fraction`` share of zero-cited
    papers (at most all but the outlier), and a weak tail for the rest.
    Their ids carry the ``jskew`` prefix so tests and demos can find them.
    """

    n_journals: int = 30
    n_topics: int = 5
    pubs_min: int = 40
    pubs_max: int = 80
    citation_dist: str = "lognormal"
    lognormal_sigma: float = 1.0
    quality_spread: float = 2.0
    review_fraction: float = 0.15
    unclassified_fraction: float = 0.0
    skewed_journals: int = 0
    outlier_citations: int = 2000
    outlier_zero_fraction: float = 0.70
    n_categories: int = 3

    def validate(self) -> None:
        lowest = {"n_journals": 1, "n_topics": 1, "n_categories": 1, "lognormal_sigma": 0, "outlier_citations": 0}
        for name, low in lowest.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("lognormal_sigma", "quality_spread"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 1 <= self.pubs_min <= self.pubs_max:
            raise ValueError("need 1 <= pubs_min <= pubs_max")
        if self.citation_dist not in CITATION_DISTRIBUTIONS:
            raise ValueError(f"citation_dist must be one of {CITATION_DISTRIBUTIONS}")
        for name in ("review_fraction", "unclassified_fraction", "outlier_zero_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.skewed_journals <= self.n_journals:
            raise ValueError("skewed_journals must be between 0 and n_journals")
        if self.outlier_citations > _MAX_CITATIONS:
            raise ValueError(f"outlier_citations must be <= {_MAX_CITATIONS}")
        if self.n_topics > _MAX_TOPICS:
            raise ValueError(f"n_topics must be <= {_MAX_TOPICS}")


def generate_corpus(profile: SyntheticProfile, seed: int) -> Corpus:
    """Generate a corpus matching the profile; identical for identical seeds.

    The draws come in one fixed order, which is the random stream: per
    journal, its size and then its citation counts; per paper, its topic,
    whether it is unclassified (only when ``unclassified_fraction`` is set),
    its document type and its year.  The per-paper draws of a journal are
    made in one pass by :func:`_paper_draws`, which gives the values and
    leaves the generator in the state that the scalar ``integers`` and
    ``random`` calls in that order would.  Counts are converted with
    ``int()``, which raises on an infinite draw; a count past 2**63 - 1,
    which the corpus reader rejects, raises ValueError once every count is
    drawn.
    """
    profile.validate()
    rng = np.random.default_rng(seed)
    integers, random = rng.integers, rng.random
    categories = [f"C{i + 1}" for i in range(profile.n_categories)]

    n_ordinary = profile.n_journals - profile.skewed_journals
    journal_ids = [f"j{i + 1:03d}" for i in range(n_ordinary)]
    journal_ids += [f"{SKEWED_PREFIX}{i + 1:02d}" for i in range(profile.skewed_journals)]

    journals: dict[str, Journal] = {}
    for journal_id in journal_ids:
        cats = [categories[integers(len(categories))]]
        if len(categories) > 1 and random() < 0.2:
            extra = categories[integers(len(categories))]
            if extra not in cats:
                cats.append(extra)
        journals[journal_id] = Journal(journal_id, f"Journal {journal_id.upper()}", tuple(cats))

    columns: list[tuple[np.ndarray, ...]] = []  # per journal: journal code, topic code, review flag, year
    citations: list[int] = []
    unclassified = profile.unclassified_fraction
    for position, journal_id in enumerate(journal_ids):
        n_pubs = int(integers(profile.pubs_min, profile.pubs_max + 1))
        if journal_id.startswith(SKEWED_PREFIX):
            n_zero = min(round(profile.outlier_zero_fraction * n_pubs), n_pubs - 1)
            n_tail = n_pubs - n_zero - 1
            counts = [profile.outlier_citations]
            counts += [0] * n_zero
            counts += map(int, rng.lognormal(0.5, 1.0, n_tail).tolist())
        else:
            # evenly spaced quality levels keep the ranking well separated
            if n_ordinary > 1:
                quality = profile.quality_spread * (position / (n_ordinary - 1) - 0.5)
            else:
                quality = 0.0
            if profile.citation_dist == "lognormal":
                counts = list(map(int, rng.lognormal(1.0 + quality, profile.lognormal_sigma, n_pubs).tolist()))
            else:
                high = max(2, round(12.0 * float(np.exp(quality))))
                counts = rng.integers(0, high, size=n_pubs).tolist()
        citations += counts
        topic, uniforms, year = _paper_draws(rng, len(counts), profile.n_topics, bool(unclassified))
        topic = topic.astype(np.int64)  # holds every code below 2**32, and -1 for unclassified
        if unclassified:
            topic[uniforms[:, 0] < unclassified] = -1
        journal = np.full(len(counts), position, dtype=np.int32)
        columns.append((journal, topic, uniforms[:, -1] < profile.review_fraction, _BASE_YEAR - year.astype(np.int32)))
    if max(citations) > _MAX_CITATIONS:
        raise ValueError(f"citations must be <= {_MAX_CITATIONS}, got {max(citations)}")

    journal, topic, review, pub_years = map(np.concatenate, zip(*columns))
    journal_ids, journal = _sorted_table(journal_ids, journal, keep=journals)
    # the table names only the topics drawn, so its size is bounded by the papers, not by n_topics
    classified = topic >= 0
    drawn, codes = np.unique(topic[classified], return_inverse=True)
    topic[classified] = codes
    topics, topic = _sorted_table([f"t{i + 1:02d}" for i in drawn.tolist()], topic)
    pub_ids = tuple(["p%06d" % i for i in range(1, len(citations) + 1)])
    citations = np.array(citations, dtype=np.int64)
    return Corpus(pub_ids, journal, topic, review, pub_years, citations, journal_ids, topics, journals)


_LOW32 = np.uint64(0xFFFFFFFF)


def _paper_draws(
    rng: np.random.Generator, n: int, n_topics: int, unclassified: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-paper draws of ``n`` papers in one pass: topics, uniforms and year draws.

    Equal, value for value and in the state it leaves ``rng`` in, to these
    scalar calls per paper: ``integers(n_topics)``, ``random()`` when
    ``unclassified`` is set, ``random()`` and ``integers(2)``.  The uniforms
    come back as an ``(n, 1 + unclassified)`` array, the unclassified draw
    first; topics and year draws as uint64.  The pass takes raw 64-bit
    outputs from ``random_raw`` and derives each draw as numpy's
    ``Generator`` does on PCG64:

    * a bounded integer below 2**32 takes one 32-bit half of an output, the
      low half first; the high half waits in the bit generator's
      ``has_uint32``/``uinteger`` buffer for the next 32-bit draw, across
      calls, so the pass reads the buffer first and writes it back last;
    * that draw is Lemire's multiply-shift, ``(x * n) >> 32``, drawn again
      while ``(x * n) & 0xFFFFFFFF < (2**32 - n) % n``; ``integers(1)``
      draws nothing and ``integers(2)`` never draws again;
    * ``random()`` is ``(x >> 11) * 2**-53`` on a whole output and leaves
      the buffer alone.

    ``n_topics`` must be at most 2**32.  When a topic draw would be drawn
    again (odds about ``n_topics / 2**32`` per paper), the state from before
    the pass is restored and the papers are drawn by the scalar calls
    themselves; that is the only other path.  The tests that hold the
    generator to the row-by-row reference and this pass to the scalar calls
    guard these rules on the installed numpy.
    """
    bit_generator = rng.bit_generator
    before = bit_generator.state
    buffered = before["has_uint32"]
    n_doubles = 1 + unclassified
    per_paper = 1 + (n_topics > 1)  # 32-bit draws: the topic (none for one topic) and the year
    n_draws = n * per_paper
    n_split = (n_draws - buffered + 1) // 2  # outputs that the 32-bit draws split into halves
    raw = bit_generator.random_raw(n * n_doubles + n_split)
    # The split outputs come at a fixed stride.  With a topic draw there is
    # one per paper, its first output when the buffer starts empty and its
    # last when it starts full.  Without, one every other paper, after that
    # paper's doubles.
    if per_paper == 2:
        first, stride = n_doubles * buffered, n_doubles + 1
    else:
        first, stride = n_doubles * (1 + buffered), 2 * n_doubles + 1
    halves = raw[first::stride]
    split = np.zeros(len(raw), dtype=bool)
    split[first::stride] = True
    stream = np.empty(1 + 2 * n_split, dtype=np.uint64)  # the buffered half, then the halves in order
    stream[0] = before["uinteger"]
    stream[1::2] = halves & _LOW32
    stream[2::2] = halves >> 32
    draws = stream[1 - buffered : 1 - buffered + n_draws].reshape(n, per_paper)

    if n_topics > 1:
        scaled = draws[:, 0] * np.uint64(n_topics)
        if ((scaled & _LOW32) < (2**32 - n_topics) % n_topics).any():
            bit_generator.state = before
            topic = np.empty(n, dtype=np.uint64)
            uniforms = np.empty((n, n_doubles))
            year = np.empty(n, dtype=np.uint64)
            for i in range(n):
                topic[i] = rng.integers(n_topics)
                uniforms[i] = [rng.random() for _ in range(n_doubles)]
                year[i] = rng.integers(2)
            return topic, uniforms, year
        topic = scaled >> 32
    else:
        topic = np.zeros(n, dtype=np.uint64)
    after = bit_generator.state
    after["has_uint32"] = buffered + 2 * n_split - n_draws
    after["uinteger"] = int(stream[-1])
    bit_generator.state = after
    uniforms = (raw[~split] >> 11).reshape(n, n_doubles) * 2.0**-53
    return topic, uniforms, draws[:, -1] >> 31


def write_corpus_files(corpus: Corpus, out_dir: Path | str) -> tuple[Path, Path]:
    """Write the publications/journals file pair; returns the two paths."""
    out = Path(out_dir)
    pubs_path = out / "publications.csv"
    journals_path = out / "journals.csv"
    write_publications(corpus, pubs_path)
    write_journals(corpus.journals, journals_path)
    return pubs_path, journals_path
