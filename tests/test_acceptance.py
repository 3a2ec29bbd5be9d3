"""Acceptance gate: one test per acceptance criterion, tolerances pinned.

Each test prints a pass/fail line (see the hook in conftest.py), so running

    pytest tests/test_acceptance.py -v

gives one line per criterion.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time

import numpy as np
import pytest

from conftest import A, cell_scores, corpus_of, coverage_9998_corpus, pub, records, values
from oracles import brute_expected_jif, brute_fncsi, brute_fnif, brute_spearman, corpus_from_rows, random_corpus

from jrank.cli import main
from jrank.corpus import coverage_stats
from jrank.indicators import compute_all
from jrank.ranking import rank
from jrank.robustness import bootstrap_rankings, perturbation_comparison, relative_change
from jrank.synth import SKEWED_PREFIX, SyntheticProfile, generate_corpus, write_corpus_files

ORACLE_TOL = 1e-12
INFLUENCE_SLACK = 1e-12

FIG_PROFILE = SyntheticProfile(
    n_journals=37,  # 36 ordinary journals plus the skewed one
    n_topics=5,
    pubs_min=50,
    pubs_max=80,
    skewed_journals=1,
    review_fraction=0.15,
    quality_spread=2.0,
)
FIG_SEED = 42


@pytest.fixture(scope="module")
def skewed_corpus():
    corpus = generate_corpus(FIG_PROFILE, seed=FIG_SEED)
    (skewed_id,) = [j for j in corpus.journals if j.startswith(SKEWED_PREFIX)]
    return corpus, skewed_id


def test_oracle_equivalence_on_50_random_corpora():
    """Rank kernel vs all-pairs enumeration, 1e-12, under 60 seconds."""
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    journals_checked = 0
    for _ in range(50):
        corpus = random_corpus(rng, max_journals=50, max_pubs=2000, max_topics=10,
                               unclassified_p=0.05)
        for record in records(compute_all(corpus)):
            for mine, reference in (
                (record.fncsi, brute_fncsi(corpus, record.journal_id)),
                (record.fnif, brute_fnif(corpus, record.journal_id)),
                (record.expected_jif, brute_expected_jif(corpus, record.journal_id)),
            ):
                if reference is None:
                    assert mine is None
                else:
                    assert abs(mine - reference) <= ORACLE_TOL
            journals_checked += 1
    elapsed = time.monotonic() - started
    assert journals_checked >= 50
    assert elapsed < 60.0, f"oracle-equivalence run took {elapsed:.1f}s (limit 60s)"


def test_tie_semantics_and_complement_identity():
    """Pure ties score exactly 0.5; csi(A) + csi(B) == 1 exactly, 1000 cells."""
    pure_tie = corpus_of([pub("a", "jA", 5, "t1"), pub("b", "jB", 5, "t1")])
    probability, _ = cell_scores(pure_tie)["jA", "t1", A]
    assert probability == 0.5

    rng = np.random.default_rng(99)
    for _ in range(1000):
        n_a = int(rng.integers(1, 60))
        n_b = int(rng.integers(1, 60))
        top = int(rng.integers(1, 16))
        pubs = [pub(f"a{i}", "jA", int(rng.integers(0, top)), "t1") for i in range(n_a)]
        pubs += [pub(f"b{i}", "jB", int(rng.integers(0, top)), "t1") for i in range(n_b)]
        scores = cell_scores(corpus_of(pubs))
        score_a, _ = scores["jA", "t1", A]
        score_b, _ = scores["jB", "t1", A]
        assert score_a + score_b == 1.0


def test_monotonicity_and_bounded_influence_on_100_corpora():
    """A citation bump never lowers the journal's score; change <= 1/N' + 1e-12."""
    rng = np.random.default_rng(4096)
    checked = 0
    for _ in range(100):
        corpus = random_corpus(rng, max_journals=12, max_pubs=250, max_topics=4, tie_heavy=True)
        by_id = {r.journal_id: r for r in records(compute_all(corpus))}
        eligible = [
            i for i, p in enumerate(corpus.publications)
            if p.topic_id is not None and by_id[p.journal_id].fncsi is not None
        ]
        if not eligible:
            continue
        target = eligible[int(rng.integers(len(eligible)))]
        journal_id = corpus.publications[target].journal_id
        before = by_id[journal_id].fncsi
        compared = sum(n for _, n in by_id[journal_id].topic_breakdown.values())

        bumped = list(corpus.publications)
        bumped[target] = dataclasses.replace(bumped[target], citations=bumped[target].citations + 1)
        after = values(corpus_from_rows(bumped, corpus.journals), "fncsi")[journal_id]

        assert after >= before, f"bump decreased fncsi: {before} -> {after}"
        assert after - before <= 1.0 / compared + INFLUENCE_SLACK
        checked += 1
    assert checked >= 90  # the construction virtually always yields a target


def test_bootstrap_rank_spread_fncsi_below_fnif(skewed_corpus):
    """Skewed journal's rank spread and corpus-level delta, 100 sims, fixed seed."""
    corpus, skewed_id = skewed_corpus
    started = time.monotonic()
    spreads = {}
    deltas = {}
    bootstrap = bootstrap_rankings(corpus, ("fncsi", "fnif"), sims=100, seed=FIG_SEED)
    for key, (journal_ids, samples) in bootstrap.items():
        ranks = samples[journal_ids.index(skewed_id)].tolist()
        assert len(ranks) == 100
        spreads[key] = max(ranks) - min(ranks)
        deltas[key] = relative_change(samples)
    elapsed = time.monotonic() - started
    assert spreads["fncsi"] < spreads["fnif"], f"spreads: {spreads}"
    assert deltas["fncsi"] < deltas["fnif"], f"deltas: {deltas}"
    assert elapsed < 300.0, f"bootstrap run took {elapsed:.1f}s (limit 300s)"


def test_flip_displacement_fncsi_at_most_fnif(skewed_corpus):
    """Median |rank shift| under fncsi <= fnif; strict for the outlier journal."""
    corpus, skewed_id = skewed_corpus
    displacement = {}
    for key, pairs in perturbation_comparison(corpus, ("fncsi", "fnif")).items():
        displacement[key] = {
            j: abs(original - perturbed)
            for j, original, perturbed in pairs
            if original is not None and perturbed is not None
        }
    median_fncsi = statistics.median(displacement["fncsi"].values())
    median_fnif = statistics.median(displacement["fnif"].values())
    assert median_fncsi <= median_fnif, f"medians: {median_fncsi} vs {median_fnif}"
    assert displacement["fncsi"][skewed_id] < displacement["fnif"][skewed_id], (
        f"outlier journal displacement: {displacement['fncsi'][skewed_id]} vs "
        f"{displacement['fnif'][skewed_id]}"
    )


def test_fncsi_fnif_rankings_strongly_correlated():
    """Spearman > 0.9 on a log-normal corpus without injected outliers."""
    profile = SyntheticProfile(n_journals=40, n_topics=5, pubs_min=50, pubs_max=80,
                               skewed_journals=0)
    corpus = generate_corpus(profile, seed=7)
    indicators = compute_all(corpus)
    fncsi, fnif = ({journal_id: r for journal_id, _, r, _ in rank(indicators, key)} for key in ("fncsi", "fnif"))
    assert len(fncsi.keys() & fnif.keys()) == 40
    rho = brute_spearman(fncsi, fnif)
    assert rho > 0.9, f"spearman {rho}"


def test_relative_change_worked_examples():
    """The three spot-check values reproduce exactly: 0, 1.0, 0.5."""
    assert relative_change(np.array([[2, 2, 2], [1, 1, 1]])) == 0.0
    assert relative_change(np.array([[1, 2, 3]])) == 1.0
    assert relative_change(np.array([[1, 1], [1, 3]])) == 0.5


def test_bootstrap_cli_runs_are_byte_identical(tmp_path):
    """`bootstrap --sims 100 --seed 42` twice: identical output bytes."""
    profile = SyntheticProfile(n_journals=12, n_topics=3, pubs_min=12, pubs_max=20,
                               skewed_journals=1)
    pubs_path, journals_path = write_corpus_files(generate_corpus(profile, seed=11), tmp_path / "data")
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main([
            "bootstrap", "--pubs", str(pubs_path), "--journals", str(journals_path),
            "--out", str(out), "--sims", "100", "--seed", "42",
        ])
        assert code == 0
        digests.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())})
    assert digests[0] == digests[1]
    assert any(name.startswith("robustness_") for name in digests[0])


def test_coverage_statistics_reproduce_hand_counts():
    """Hand-counted fractions, including an exact (0.99, 0.98) corpus."""
    # 3 of 4 publications assigned; the journal sits at 75%, not above 90%
    simple = corpus_of(
        [pub("p1", "jA", 1, "t1"), pub("p2", "jA", 2, "t1"), pub("p3", "jA", 3, "t1"),
         pub("p4", "jA", 4, None)]
    )
    cov = coverage_stats(simple)
    assert cov.publication_coverage == 0.75
    assert cov.journal_coverage == 0.0

    cov = coverage_stats(coverage_9998_corpus())
    assert cov.publication_coverage == 0.99
    assert cov.journal_coverage == 0.98
    assert (cov.n_publications, cov.n_classified) == (1000, 990)
    assert (cov.n_journals, cov.n_journals_over_90) == (100, 98)
