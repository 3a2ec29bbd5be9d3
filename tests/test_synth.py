"""Synthetic corpus generator."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from conftest import load_corpus, same_corpus
from oracles import reference_generate_corpus

from jrank.cli import _GENERATE_FLAGS
from jrank.corpus import validate_corpus
from jrank.synth import SKEWED_PREFIX, SyntheticProfile, _paper_draws, generate_corpus, write_corpus_files


class TestGenerate:
    def test_same_seed_same_corpus(self):
        profile = SyntheticProfile(n_journals=12, n_topics=4, pubs_min=10, pubs_max=30, skewed_journals=2)
        assert same_corpus(generate_corpus(profile, seed=5), generate_corpus(profile, seed=5))

    def test_different_seeds_differ(self):
        profile = SyntheticProfile(n_journals=12, n_topics=4, pubs_min=10, pubs_max=30)
        assert not same_corpus(generate_corpus(profile, seed=5), generate_corpus(profile, seed=6))

    def test_generated_corpus_validates_cleanly(self):
        profile = SyntheticProfile(n_journals=10, n_topics=2, pubs_min=5, pubs_max=12)
        corpus = generate_corpus(profile, seed=1)
        assert validate_corpus(corpus) == []
        assert len(set(corpus.pub_ids)) == len(corpus.pub_ids)  # validation does not check the ids
        assert len(corpus.journals) == 10
        for n_pubs in Counter(p.journal_id for p in corpus.publications).values():
            assert 5 <= n_pubs <= 12

    @pytest.mark.parametrize("zero_fraction", [0.7, 1.0])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_skewed_journals_keep_to_the_size_range(self, size, zero_fraction):
        profile = SyntheticProfile(n_journals=4, n_topics=3, pubs_min=size, pubs_max=size, skewed_journals=2,
                                   outlier_zero_fraction=zero_fraction)
        for seed in range(3):
            sizes = Counter(p.journal_id for p in generate_corpus(profile, seed).publications)
            assert len(sizes) == profile.n_journals and set(sizes.values()) == {size}, seed

    def test_write_then_load_gives_back_the_generated_corpus(self, tmp_path):
        # at most 12 papers draw from 40 topic clusters, so the corpus uses fewer topics than the profile has
        profile = SyntheticProfile(n_journals=3, n_topics=40, pubs_min=3, pubs_max=4)
        corpus = generate_corpus(profile, seed=1)
        reloaded, errors = load_corpus(*write_corpus_files(corpus, tmp_path))
        assert errors == [] and same_corpus(reloaded, corpus)
        assert reloaded.topics == corpus.topics == tuple(sorted({p.topic_id for p in corpus.publications}))
        assert len(corpus.topics) < profile.n_topics

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
            {"n_topics": 2**32 + 1},
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

    def test_memory_follows_the_topics_drawn_not_the_topic_count(self):
        # six papers name at most six topics, however many clusters they draw from
        profile = SyntheticProfile(n_journals=1, n_topics=10**6, pubs_min=6, pubs_max=6)
        tracemalloc.start()
        try:
            corpus = generate_corpus(profile, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus.topics) <= 6 and peak < 1_000_000

    def test_negative_quality_spread_allowed(self):
        SyntheticProfile(quality_spread=-2.0).validate()

    def test_uniform_family_supported(self):
        profile = SyntheticProfile(n_journals=5, n_topics=2, pubs_min=5, pubs_max=10,
                                   citation_dist="uniform")
        corpus = generate_corpus(profile, seed=4)
        assert all(p.citations >= 0 for p in corpus.publications)


def test_every_profile_field_is_a_generate_flag():
    flagged = sorted(name for name, _, _ in _GENERATE_FLAGS.values())
    assert sorted(field.name for field in fields(SyntheticProfile)) == flagged


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
    # every paper of a skewed journal but its outlier zero-cited: the zeros are capped at its size draw less one
    yield pytest.param(SyntheticProfile(**_SMALL, skewed_journals=2, outlier_zero_fraction=1.0), id="all-zero-tail")
    # integers(1) draws nothing, so the 32-bit buffer changes phase once per paper
    yield pytest.param(SyntheticProfile(**{**_SMALL, "n_topics": 1}, skewed_journals=2), id="one-topic")
    yield pytest.param(
        SyntheticProfile(**{**_SMALL, "n_topics": 1}, unclassified_fraction=0.3), id="one-topic-unclassified"
    )
    yield pytest.param(SyntheticProfile(**{**_SMALL, "n_topics": 2, "pubs_min": 1, "pubs_max": 2}), id="two-topics-tiny")
    yield pytest.param(SyntheticProfile(**{**_SMALL, "pubs_min": 1, "pubs_max": 1}), id="one-paper-journals")
    for review in (0.0, 1.0):
        yield pytest.param(SyntheticProfile(**_SMALL, review_fraction=review), id=f"review{review}")


@pytest.mark.parametrize("profile", _parity_profiles())
def test_generator_matches_the_row_by_row_reference(profile, tmp_path):
    for seed in range(10):
        got = generate_corpus(profile, seed)
        want = reference_generate_corpus(profile, seed)
        for column in fields(got):
            a, b = getattr(got, column.name), getattr(want, column.name)
            same = (a.dtype == b.dtype and np.array_equal(a, b)) if isinstance(a, np.ndarray) else a == b
            assert same, (seed, column.name)
        assert got.publications == want.publications
        written = write_corpus_files(got, tmp_path / f"got{seed}")
        expected = write_corpus_files(want, tmp_path / f"want{seed}")
        assert [path.read_bytes() for path in written] == [path.read_bytes() for path in expected]


@pytest.mark.parametrize("odd_first", [False, True], ids=["buffer-empty", "buffer-full"])
@pytest.mark.parametrize("n_topics", [1, 2, 3, 150, 2**31 + 1])
def test_paper_draws_equal_the_scalar_calls(n_topics, odd_first):
    # at 2**31 + 1 about half the topic draws are drawn again, which takes the scalar path
    for n in (0, 1, 2, 7):
        for unclassified in (False, True):
            rng, twin = np.random.default_rng(11), np.random.default_rng(11)
            if odd_first:  # leaves the high half of an output in the 32-bit buffer
                assert rng.integers(5) == twin.integers(5)
            topic, uniforms, year = _paper_draws(rng, n, n_topics, unclassified)
            want = [
                (int(twin.integers(n_topics)), [twin.random() for _ in range(1 + unclassified)], int(twin.integers(2)))
                for _ in range(n)
            ]
            case = (n, unclassified)
            assert topic.tolist() == [t for t, _, _ in want], case
            assert uniforms.tolist() == [u for _, u, _ in want], case
            assert year.tolist() == [y for _, _, y in want], case
            assert rng.bit_generator.state == twin.bit_generator.state, case
            assert rng.integers(7, size=3).tolist() == twin.integers(7, size=3).tolist(), case


# perfbench's workload profiles (perfbench/workloads.py); their files at seed 1
# are the benchmark's inputs, and these are their sha256 digests
_BENCHMARK_INPUTS = {
    "census": (
        dict(n_journals=1500, n_topics=150, pubs_min=50, pubs_max=150, skewed_journals=3),
        "ca1c251580e2b77cf3aa1e0d7d46654e28fb069549973b8104570e5b0197caa4",
        "bcac4ab3fc0f802ed444775553150baa1fe9ee20538b92181d28ff1c242e6dbc",
    ),
    "robustness": (
        dict(n_journals=300, n_topics=50, pubs_min=50, pubs_max=150, skewed_journals=3),
        "f297f782805bc5d517ed927a3387d9c3f296a6f83696a08ebc9cda0e0e207f9d",
        "82505a7df0760e1d4ead464aa0feb558fc29e4bb09e814d2f32221a9e3fea220",
    ),
    "classify": (
        dict(n_journals=2000, n_topics=100, pubs_min=50, pubs_max=150, unclassified_fraction=0.3),
        "feb9783a21f81af72f70fe886f3f1a98cc30246b49709332b58fd1523fdace94",
        "c6b0b8865461f91e4ff9b827a6701e1dab0f4c6f2abcf22d461e2ae785245a37",
    ),
}


@pytest.mark.parametrize("workload", list(_BENCHMARK_INPUTS))
def test_benchmark_inputs_are_unchanged(workload, tmp_path):
    profile, publications, journals = _BENCHMARK_INPUTS[workload]
    written = write_corpus_files(generate_corpus(SyntheticProfile(**profile), seed=1), tmp_path)
    assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in written] == [publications, journals]
