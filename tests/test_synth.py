"""Synthetic corpus generator."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import fields

import pytest

from oracles import reference_generate_corpus

from jrank.corpus import validate_corpus
from jrank.synth import SKEWED_PREFIX, SyntheticProfile, generate_corpus, write_corpus_files


class TestGenerate:
    def test_same_seed_same_corpus(self):
        profile = SyntheticProfile(n_journals=12, n_topics=4, pubs_min=10, pubs_max=30, skewed_journals=2)
        assert generate_corpus(profile, seed=5) == generate_corpus(profile, seed=5)

    def test_different_seeds_differ(self):
        profile = SyntheticProfile(n_journals=12, n_topics=4, pubs_min=10, pubs_max=30)
        assert generate_corpus(profile, seed=5) != generate_corpus(profile, seed=6)

    def test_generated_corpus_validates_cleanly(self):
        profile = SyntheticProfile(n_journals=10, n_topics=2, pubs_min=5, pubs_max=12)
        corpus = generate_corpus(profile, seed=1)
        assert validate_corpus(corpus).ok
        assert len(corpus.journals) == 10
        for n_pubs in Counter(p.journal_id for p in corpus.publications).values():
            assert 5 <= n_pubs <= 12

    def test_skewed_journal_matches_outlier_profile(self):
        profile = SyntheticProfile(
            n_journals=10, n_topics=3, pubs_min=40, pubs_max=60, skewed_journals=1
        )
        corpus = generate_corpus(profile, seed=2)
        (skewed_id,) = [j for j in corpus.journals if j.startswith(SKEWED_PREFIX)]
        citations = [p.citations for p in corpus.publications if p.journal_id == skewed_id]
        assert citations.count(2000) == 1
        assert max(citations) == 2000
        # at least the configured share of zero-cited papers
        assert sum(1 for c in citations if c == 0) >= round(0.7 * len(citations))

    def test_unclassified_fraction_produces_unclassified_papers(self):
        profile = SyntheticProfile(n_journals=6, n_topics=2, pubs_min=30, pubs_max=40,
                                   unclassified_fraction=0.3)
        corpus = generate_corpus(profile, seed=3)
        unclassified = [p for p in corpus.publications if p.topic_id is None]
        assert 0 < len(unclassified) < len(corpus.publications)

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_journals": 0},
            {"n_topics": 0},
            {"pubs_min": 0},
            {"pubs_min": 9, "pubs_max": 5},
            {"citation_dist": "cauchy"},
            {"review_fraction": 1.5},
            {"skewed_journals": 99},
            {"n_categories": 0},
            {"lognormal_sigma": math.nan},
            {"lognormal_sigma": math.inf},
            {"quality_spread": math.nan},
            {"quality_spread": math.inf},
            {"quality_spread": -math.inf},
        ],
    )
    def test_invalid_profiles_rejected(self, bad):
        with pytest.raises(ValueError):
            SyntheticProfile(**bad).validate()

    def test_outlier_at_the_int64_limit_is_generated(self):
        profile = SyntheticProfile(n_journals=2, pubs_min=5, pubs_max=5, skewed_journals=1, outlier_citations=2**63 - 1)
        assert max(generate_corpus(profile, seed=1).citations) == 2**63 - 1

    def test_negative_quality_spread_allowed(self):
        SyntheticProfile(quality_spread=-2.0).validate()

    def test_uniform_family_supported(self):
        profile = SyntheticProfile(n_journals=5, n_topics=2, pubs_min=5, pubs_max=10,
                                   citation_dist="uniform")
        corpus = generate_corpus(profile, seed=4)
        assert all(p.citations >= 0 for p in corpus.publications)


_SMALL = dict(n_journals=6, n_topics=4, pubs_min=3, pubs_max=12)


def _parity_profiles():
    for dist in ("lognormal", "uniform"):
        for unclassified in (0.0, 0.3):
            for skewed in (0, 3, _SMALL["n_journals"]):
                yield pytest.param(
                    SyntheticProfile(
                        **_SMALL, citation_dist=dist, unclassified_fraction=unclassified, skewed_journals=skewed
                    ),
                    id=f"{dist}-unclassified{unclassified}-skewed{skewed}",
                )
    yield pytest.param(SyntheticProfile(**_SMALL, skewed_journals=_SMALL["n_journals"] - 1), id="one-ordinary")
    yield pytest.param(SyntheticProfile(**{**_SMALL, "pubs_min": 7, "pubs_max": 7}, skewed_journals=2), id="fixed-size")
    yield pytest.param(SyntheticProfile(**_SMALL, n_categories=1, unclassified_fraction=0.3), id="one-category")
    # every paper of a skewed journal zero-cited: its outlier makes one paper more than its size draw
    yield pytest.param(SyntheticProfile(**_SMALL, skewed_journals=2, outlier_zero_fraction=1.0), id="all-zero-tail")


@pytest.mark.parametrize("profile", _parity_profiles())
def test_generator_matches_the_row_by_row_reference(profile, tmp_path):
    for seed in range(10):
        got = generate_corpus(profile, seed)
        want = reference_generate_corpus(profile, seed)
        for column in fields(got):
            assert getattr(got, column.name) == getattr(want, column.name), (seed, column.name)
        assert got.publications == want.publications
        written = write_corpus_files(got, tmp_path / f"got{seed}")
        expected = write_corpus_files(want, tmp_path / f"want{seed}")
        assert [path.read_bytes() for path in written] == [path.read_bytes() for path in expected]
