"""Seed-deterministic synthetic corpora for desk-scale verification.

Ordinary journals draw citation counts from a common distribution family with
a per-journal quality level spread across the corpus, so rankings have real
signal for the robustness machinery to work against.  A profile may also
inject skewed journals: one paper with an extreme citation count on top of a
mostly zero-cited tail, the shape that separates rank-stable indicators from
rank-fragile ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import _MAX_CITATIONS, Corpus, DocumentType, Journal, write_journals, write_publications

CITATION_DISTRIBUTIONS = ("lognormal", "uniform")

SKEWED_PREFIX = "jskew"


@dataclass(frozen=True)
class SyntheticProfile:
    """Shape of a generated corpus.

    ``skewed_journals`` of the ``n_journals`` total get the outlier profile:
    one paper at ``outlier_citations``, a ``outlier_zero_fraction`` share of
    zero-cited papers, and a weak tail for the rest.  Their ids carry the
    ``jskew`` prefix so tests and demos can find them.
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
    base_year: int = 2018
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


def generate_corpus(profile: SyntheticProfile, seed: int) -> Corpus:
    """Generate a corpus matching the profile; identical for identical seeds.

    Each paper's draws are appended to the corpus columns as they are made:
    per journal, its size and then its citation counts; per paper, its topic,
    whether it is unclassified (only when ``unclassified_fraction`` is set),
    its document type and its year.  That order is the random stream, so the
    per-paper draws stay scalar calls.  Counts are converted with ``int()``,
    which raises on an infinite draw; a count past 2**63 - 1, which the
    corpus reader rejects, raises ValueError once every count is drawn.
    """
    profile.validate()
    rng = np.random.default_rng(seed)
    integers, random = rng.integers, rng.random
    topics = [f"t{i + 1:02d}" for i in range(profile.n_topics)]
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

    paper_journals: list[str] = []
    pub_years: list[int] = []
    doc_types: list[DocumentType] = []
    citations: list[int] = []
    topic_ids: list[str | None] = []
    n_topics, unclassified, review = profile.n_topics, profile.unclassified_fraction, profile.review_fraction
    years = (profile.base_year, profile.base_year - 1)  # indexed by the year draw
    article, review_type = DocumentType.ARTICLE, DocumentType.REVIEW
    for position, journal_id in enumerate(journal_ids):
        n_pubs = int(integers(profile.pubs_min, profile.pubs_max + 1))
        if journal_id.startswith(SKEWED_PREFIX):
            n_zero = round(profile.outlier_zero_fraction * n_pubs)
            n_tail = max(0, n_pubs - n_zero - 1)
            counts = [profile.outlier_citations]
            counts += [0] * n_zero
            counts += [int(rng.lognormal(0.5, 1.0)) for _ in range(n_tail)]
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
        paper_journals += [journal_id] * len(counts)
        for _ in counts:
            topic = topics[integers(n_topics)]
            topic_ids.append(None if unclassified and random() < unclassified else topic)
            doc_types.append(review_type if random() < review else article)
            pub_years.append(years[integers(2)])
    if max(citations) > _MAX_CITATIONS:
        raise ValueError(f"citations must be <= {_MAX_CITATIONS}, got {max(citations)}")

    pub_ids = [f"p{i:06d}" for i in range(1, len(citations) + 1)]
    columns = pub_ids, paper_journals, pub_years, doc_types, citations, topic_ids
    return Corpus(*map(tuple, columns), journals, frozenset(topics))


def write_corpus_files(corpus: Corpus, out_dir: Path | str) -> tuple[Path, Path]:
    """Write the publications/journals file pair; returns the two paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pubs_path = out / "publications.csv"
    journals_path = out / "journals.csv"
    write_publications(corpus, pubs_path)
    write_journals(corpus.journals, journals_path)
    return pubs_path, journals_path
