"""Bootstrap stability, the relative-change statistic, and the doc-type flip."""

from __future__ import annotations

import math
import statistics
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import A, R, corpus_of, pub, same_corpus
from oracles import (
    corpus_from_rows,
    flip_doc_type,
    opposite,
    random_corpus,
    rebuild_bootstrap_rankings,
    reference_relative_change,
)

from jrank import robustness as robustness_module
from jrank.corpus import DocumentType, Journal
from jrank.indicators import INDICATOR_KEYS, compute_all
from jrank.ranking import rank
from jrank.robustness import bootstrap_rankings, bootstrap_report, perturbation_comparison, relative_change
from jrank.synth import SyntheticProfile, generate_corpus


def rank_of(rows: list[tuple[str, float, int, float]]) -> dict[str, int]:
    return {journal_id: r for journal_id, _, r, _ in rows}


def small_corpus():
    pubs = []
    for j, quality in (("jA", 1), ("jB", 4), ("jC", 9)):
        for i in range(8):
            pubs.append(pub(f"{j}_p{i}", j, quality + (i % 3), "t1"))
    return corpus_of(pubs)


def noisy_corpus():
    """Journals with heavily overlapping citation ranges, so ranks actually move."""
    rng = np.random.default_rng(77)
    pubs = []
    for j in range(6):
        for i in range(10):
            pubs.append(pub(f"j{j}_p{i}", f"j{j}", int(rng.integers(0, 10)) + j, "t1"))
    return corpus_of(pubs)


class TestRelativeChange:
    def test_constant_ranks_give_zero(self):
        assert relative_change(np.array([[2, 2, 2], [1, 1, 1]])) == 0.0

    def test_single_journal_arithmetic(self):
        assert relative_change(np.array([[1, 2, 3]])) == 1.0

    def test_two_journal_average(self):
        assert relative_change(np.array([[1, 1], [1, 3]])) == 0.5

    def test_always_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ranks = rng.integers(1, 20, size=(int(rng.integers(1, 8)), 10))
            delta = relative_change(ranks)
            assert delta >= 0.0
            assert (delta == 0.0) == (ranks == ranks[:, :1]).all()

    def test_empty_inputs_rejected(self):
        for shape in ((0, 3), (2, 0), (0, 0)):
            with pytest.raises(ValueError, match="no ranking samples"):
                relative_change(np.ones(shape, dtype=np.int64))

    def test_matches_the_left_to_right_loop_bit_for_bit(self):
        # a pairwise or compensated float sum of the per-journal terms differs from the loop on most of these
        rng = np.random.default_rng(41)
        for _ in range(3000):
            n_journals, sims = int(rng.integers(1, 401)), int(rng.integers(1, 61))
            ranks = rng.integers(1, n_journals + 2, size=(n_journals, sims))
            assert relative_change(ranks) == reference_relative_change(ranks.tolist())


class TestBootstrap:
    def test_each_journal_gets_exactly_sims_rankings(self):
        journal_ids, ranks = bootstrap_rankings(small_corpus(), ["fncsi"], sims=100, seed=42)["fncsi"]
        assert journal_ids == ["jA", "jB", "jC"]
        assert ranks.shape == (3, 100) and ranks.dtype == np.int64

    def test_single_publication_journals_are_rank_constant(self):
        # every journal has one paper: each resample is the identity, so all
        # indicator values and hence all ranks are constant across simulations
        pubs = [pub(f"p{i}", f"j{i}", i, "t1") for i in range(5)]
        rows, delta = bootstrap_report(corpus_of(pubs), ["fncsi"], sims=25, seed=3)["fncsi"]
        assert delta == 0.0
        for _, min_rank, *_, max_rank in rows:
            assert min_rank == max_rank

    def test_fixed_seed_reproduces_report_exactly(self):
        corpus = small_corpus()
        first = bootstrap_report(corpus, ["fnif"], sims=20, seed=42)
        second = bootstrap_report(corpus, ["fnif"], sims=20, seed=42)
        assert first == second

    def test_different_seeds_differ(self):
        corpus = noisy_corpus()
        a_ids, a_ranks = bootstrap_rankings(corpus, ["fnif"], sims=20, seed=1)["fnif"]
        b_ids, b_ranks = bootstrap_rankings(corpus, ["fnif"], sims=20, seed=2)["fnif"]
        assert a_ids == b_ids
        assert not np.array_equal(a_ranks, b_ranks)

    def test_quartiles_are_ordered(self):
        rows, delta = bootstrap_report(small_corpus(), ["fncsi"], sims=30, seed=9)["fncsi"]
        _, ranks = bootstrap_rankings(small_corpus(), ["fncsi"], sims=30, seed=9)["fncsi"]
        assert delta == relative_change(ranks)
        for _, min_rank, q1, median, q3, max_rank in rows:
            assert min_rank <= q1 <= median <= q3 <= max_rank

    def test_rejects_unrankable_corpus_and_bad_sims(self):
        unclassified = corpus_of([pub("p1", "jA", 3, None)])
        with pytest.raises(ValueError):
            bootstrap_rankings(unclassified, ["fncsi"], sims=5, seed=1)
        with pytest.raises(ValueError):
            bootstrap_rankings(small_corpus(), ["fncsi"], sims=0, seed=1)

    def test_bare_string_is_not_a_key_list(self):
        # iterated, "fncsi" is the unknown keys "f", "n", ...
        with pytest.raises(ValueError, match="unknown indicator key 'f'"):
            bootstrap_rankings(small_corpus(), "fncsi", sims=5, seed=1)
        with pytest.raises(ValueError, match="unknown indicator key 'f'"):
            perturbation_comparison(small_corpus(), "fncsi")

    def test_original_corpus_untouched(self):
        corpus = small_corpus()
        snapshot = corpus.publications
        bootstrap_rankings(corpus, ["fncsi"], sims=5, seed=1)
        assert corpus.publications == snapshot


class TestReportSummary:
    def test_quartiles_follow_the_inclusive_rule(self):
        rng = np.random.default_rng(38)
        for sims in (2, 3, 4, 5, 6, 7, 20):
            corpus = random_corpus(rng, max_journals=10, max_pubs=150, max_topics=3, tie_heavy=True,
                                   unclassified_p=0.2)
            for key in INDICATOR_KEYS:
                seed = int(rng.integers(1000))
                journal_ids, samples = bootstrap_rankings(corpus, [key], sims=sims, seed=seed)[key]
                rows, _ = bootstrap_report(corpus, [key], sims=sims, seed=seed)[key]
                assert [journal_id for journal_id, *_ in rows] == journal_ids == sorted(journal_ids)
                for (_, *summary), ranks in zip(rows, samples.tolist()):
                    quartiles = statistics.quantiles(ranks, n=4, method="inclusive")
                    assert summary == [min(ranks), *quartiles, max(ranks)]
                    assert [type(v) for v in summary] == [int, float, float, float, int]

    def test_one_simulation_summarizes_to_its_rank(self):
        corpus = random_corpus(np.random.default_rng(39), max_journals=10, max_pubs=150, max_topics=3)
        for key in INDICATOR_KEYS:
            journal_ids, samples = bootstrap_rankings(corpus, [key], sims=1, seed=5)[key]
            rows, _ = bootstrap_report(corpus, [key], sims=1, seed=5)[key]
            assert [journal_id for journal_id, *_ in rows] == journal_ids
            for (_, *summary), (only,) in zip(rows, samples.tolist()):
                assert summary == [only] * 5
                assert [type(v) for v in summary] == [int, float, float, float, int]


class TestReweighting:
    def test_matches_rebuilding_every_resample(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            corpus = random_corpus(rng, max_journals=10, max_pubs=150, max_topics=3, tie_heavy=True,
                                   unclassified_p=0.2)
            # two single-paper journals, and a publisher missing from the journal table
            extra = (pub("S1", "J_SOLO1", 2, "T00"), pub("S2", "J_SOLO2", 0, None), pub("S3", "J_GONE", 3, "T00"))
            journals = {**corpus.journals, "J_SOLO1": Journal("J_SOLO1"), "J_SOLO2": Journal("J_SOLO2")}
            corpus = corpus_from_rows(corpus.publications + extra, journals)
            seed = int(rng.integers(1000))
            samples = bootstrap_rankings(corpus, INDICATOR_KEYS, sims=6, seed=seed)
            assert list(samples) == list(INDICATOR_KEYS)
            for key in INDICATOR_KEYS:
                journal_ids, ranks = samples[key]
                rebuilt = rebuild_bootstrap_rankings(corpus, key, sims=6, seed=seed)
                assert list(zip(journal_ids, ranks.tolist())) == list(rebuilt.items())

    def test_one_draw_matches_the_per_journal_loop(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            sizes = rng.integers(1, 400, size=int(rng.integers(1, 80)))
            seq = np.random.SeedSequence(int(rng.integers(2**32)))
            one, loop = np.random.default_rng(seq), np.random.default_rng(seq)
            drawn = one.integers(0, np.repeat(sizes, sizes))
            expected = np.concatenate([loop.integers(0, n, size=n) for n in sizes])
            assert np.array_equal(drawn, expected)
            assert one.integers(2**62) == loop.integers(2**62)  # both streams end in the same state


class TestFlip:
    def test_most_cited_paper_flips(self):
        corpus = corpus_of([pub("p1", "jA", 100, "t1", doc=A), pub("p2", "jA", 3, "t1", doc=A)])
        flipped = {p.pub_id: p for p in flip_doc_type(corpus).publications}
        assert flipped["p1"].doc_type is DocumentType.REVIEW
        assert flipped["p2"].doc_type is DocumentType.ARTICLE

    def test_tie_flips_smaller_pub_id(self):
        corpus = corpus_of([pub("p2", "jA", 7, "t1"), pub("p1", "jA", 7, "t1")])
        flipped = {p.pub_id: p for p in flip_doc_type(corpus).publications}
        assert flipped["p1"].doc_type is DocumentType.REVIEW
        assert flipped["p2"].doc_type is DocumentType.ARTICLE

    def test_exactly_one_flip_per_journal(self):
        rng = np.random.default_rng(32)
        corpus = random_corpus(rng, max_journals=12, max_pubs=300, max_topics=3)
        flipped = flip_doc_type(corpus)
        diffs = [
            (a, b) for a, b in zip(corpus.publications, flipped.publications) if a != b
        ]
        journals_with_pubs = len({p.journal_id for p in corpus.publications})
        assert len(diffs) == journals_with_pubs
        assert len({a.journal_id for a, _ in diffs}) == journals_with_pubs
        for a, b in diffs:
            assert a.doc_type is opposite(b.doc_type)
            assert (a.pub_id, a.citations, a.topic_id) == (b.pub_id, b.citations, b.topic_id)

    def test_involution_when_max_is_unique(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            corpus = random_corpus(rng, max_journals=8, max_pubs=120, max_topics=3)
            # make every journal's top paper unique by spiking one paper
            bumped = []
            seen = set()
            for p in corpus.publications:
                if p.journal_id not in seen:
                    seen.add(p.journal_id)
                    import dataclasses
                    p = dataclasses.replace(p, citations=10_000 + len(seen))
                bumped.append(p)
            unique_top = corpus_from_rows(bumped, corpus.journals)
            assert same_corpus(flip_doc_type(flip_doc_type(unique_top)), unique_top)


class TestPerturbationComparison:
    def test_matches_ranking_the_flipped_corpus(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            corpus = random_corpus(rng, max_journals=10, max_pubs=150, max_topics=3, tie_heavy=True,
                                   unclassified_p=0.2)
            # a publisher missing from the journal table whose top paper is unclassified;
            # shuffled so that the smallest pub_id of a tie is not the first in corpus order
            extra = (pub("S1", "J_GONE", 3, "T00"), pub("S2", "J_GONE", 5, None))
            pubs = corpus.publications + extra
            shuffled = tuple(pubs[i] for i in rng.permutation(len(pubs)))
            corpus = corpus_from_rows(shuffled, corpus.journals)
            flipped = flip_doc_type(corpus)
            with mock.patch.object(robustness_module, "compute_all", wraps=compute_all) as scored:
                comparisons = perturbation_comparison(corpus, INDICATOR_KEYS)
            # the retyped side takes the oracle's review flags and keeps the corpus's distinct ids
            plain, retyped = (call.args[0] for call in scored.call_args_list)
            assert plain is corpus and np.array_equal(retyped.review, flipped.review)
            assert retyped.pub_ids == corpus.pub_ids
            assert list(comparisons) == list(INDICATOR_KEYS)
            for key in INDICATOR_KEYS:
                original = rank_of(rank(compute_all(corpus), key))
                perturbed = rank_of(rank(compute_all(flipped), key))
                journal_ids = sorted(original.keys() | perturbed.keys(), key=lambda j: (original.get(j, math.inf), j))
                rows = [(j, original.get(j), perturbed.get(j)) for j in journal_ids]
                assert comparisons[key] == rows

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_holds_one_kernel_at_a_time(self, seed):
        # a second kernel built while the first side's is alive lifts the peak by about a third
        profile = SyntheticProfile(n_journals=60, n_topics=50, pubs_min=50, pubs_max=150, skewed_journals=3)
        corpus = generate_corpus(profile, seed=seed)
        peaks = []
        for run in (lambda: compute_all(corpus), lambda: perturbation_comparison(corpus, INDICATOR_KEYS)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.15 * peaks[0], f"flip test peak {peaks[1]} B against {peaks[0]} B for compute_all"

    def test_tie_broken_in_str_order_where_a_trailing_nul_counts(self):
        # "a" < "a\0" as Python strings; a fixed-width numpy string array reads them as equal
        corpus = corpus_of([
            pub("a\0", "jA", 5, "t2"), pub("a", "jA", 5, "t1"),
            pub("b1", "jB", 6, "t1"), pub("b2", "jB", 4, "t1", doc=R), pub("b3", "jB", 1, "t2"),
            pub("c1", "jC", 4, "t2", doc=R), pub("c2", "jC", 3, "t1"),
        ])
        perturbed = rank_of(rank(compute_all(flip_doc_type(corpus)), "fnif"))
        assert perturbed == {"jA": 1, "jC": 2, "jB": 3}  # flipping "a\0" instead puts jC first
        rows = perturbation_comparison(corpus, ["fnif"])["fnif"]
        assert {journal_id: after for journal_id, _, after in rows} == perturbed

    def test_flip_insensitive_indicators_keep_all_ranks(self):
        # jif and expected_jif ignore document type entirely
        rng = np.random.default_rng(34)
        corpus = random_corpus(rng, max_journals=10, max_pubs=200, max_topics=3)
        comparisons = perturbation_comparison(corpus, ("jif", "expected_jif"))
        for key in ("jif", "expected_jif"):
            pairs = comparisons[key]
            assert pairs and all(original == perturbed for _, original, perturbed in pairs)

    def test_rows_cover_rankable_journals(self):
        corpus = small_corpus()
        pairs = perturbation_comparison(corpus, ["fncsi"])["fncsi"]
        assert {j for j, _, _ in pairs} == {p.journal_id for p in corpus.publications}

    def test_rows_ordered_by_original_rank(self):
        corpus = small_corpus()
        pairs = perturbation_comparison(corpus, ["fnif"])["fnif"]
        originals = [original for _, original, _ in pairs if original is not None]
        assert originals == sorted(originals)

    def test_lone_cell_flip_shows_largest_displacement(self):
        # jlone's most-cited paper is its only review: flipping it moves a
        # big citation count between cells with very different means, while
        # the other journals' flips shuffle papers among many cell-mates
        rng = np.random.default_rng(35)
        pubs = []
        for j in range(6):
            jid = f"j{j}"
            for i in range(8):
                pubs.append(pub(f"{jid}_a{i}", jid, int(rng.integers(0, 6)) + j, "t1", doc=A))
            for i in range(4):
                pubs.append(pub(f"{jid}_r{i}", jid, int(rng.integers(0, 6)) + j, "t1", doc=R))
        pubs += [pub(f"jlone_a{i}", "jlone", int(rng.integers(0, 4)), "t1", doc=A) for i in range(8)]
        pubs.append(pub("jlone_r0", "jlone", 60, "t1", doc=R))
        corpus = corpus_of(pubs)

        pairs = perturbation_comparison(corpus, ["fnif"])["fnif"]
        displacement = {j: abs(a - b) for j, a, b in pairs if a is not None and b is not None}
        assert displacement["jlone"] == max(displacement.values())
        assert displacement["jlone"] > min(displacement.values())
