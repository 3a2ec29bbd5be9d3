"""Indicator kernels against spec'd values and the all-pairs oracle."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A, R, cell_scores, corpus_of, pub, record, records, values
from oracles import (
    brute_expected_jif,
    brute_fncsi,
    brute_fnif,
    brute_jif,
    corpus_from_rows,
    pairwise_score,
    random_corpus,
)

from jrank.corpus import DocumentType
from jrank.indicators import INDICATOR_KEYS, RankKernel, _group_sums, compute_all
from jrank.synth import SyntheticProfile, generate_corpus


def cell_score(journal_id, corpus, topic_id="t1", doc=A):
    return cell_scores(corpus)[journal_id, topic_id, doc]


def cell_of(own: list[int], others: list[int]):
    """One-cell corpus: journal jA with `own` citations, jB with `others`."""
    pubs = [pub(f"a{i}", "jA", c, "t1") for i, c in enumerate(own)]
    pubs += [pub(f"o{i}", "jB", c, "t1") for i, c in enumerate(others)]
    return corpus_of(pubs)


def cell_members(kernel):
    """(topic, doc type) -> [(journal_id, citations)] in the kernel's by-cell order."""
    cells = {}
    for i in kernel.by_cell.tolist():
        topic, review = int(kernel.corpus.topic[i]), bool(kernel.corpus.review[i])
        key = (kernel.topic_ids[topic], (A, R)[review])
        cells.setdefault(key, []).append((kernel.journal_ids[kernel.journal[i]], int(kernel.citations[i])))
    return cells


class TestBuildCells:
    def test_direct_grouping(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jB", 1, "t1")])
        kernel = RankKernel(corpus)
        cells = cell_members(kernel)
        assert set(cells) == {("t1", A)}
        assert [c for _, c in cells["t1", A]] == [1, 3]
        scores = kernel.evaluate()
        assert scores.cell_total.tolist() == [2, 0]
        assert scores.cell_citations[0] / scores.cell_total[0] == 2.0

    def test_doc_type_splits_cells(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jB", 1, "t1", doc=R)])
        kernel = RankKernel(corpus)
        assert {doc for _, doc in cell_members(kernel)} == {DocumentType.ARTICLE, DocumentType.REVIEW}
        assert kernel.evaluate().cell_total.tolist() == [1, 1]

    def test_totals_recount(self):
        rng = random.Random(0)
        pubs = [
            pub(f"p{i}", f"j{rng.randrange(4)}", rng.randrange(9), f"t{rng.randrange(3)}",
                doc=R if rng.random() < 0.4 else A)
            for i in range(10)
        ]
        kernel = RankKernel(corpus_of(pubs))
        assert kernel.evaluate().cell_total.sum() == 10
        # per-journal multiplicities never exceed the cell histogram
        for members in cell_members(kernel).values():
            whole = Counter(c for _, c in members)
            for (_, value), count in Counter(members).items():
                assert count <= whole[value]

    def test_unclassified_publications_excluded(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jA", 9, None)])
        assert RankKernel(corpus).evaluate().cell_total.tolist() == [1, 0]

    def test_cell_topics_are_the_corpus_topics(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            corpus = random_corpus(rng, max_journals=6, max_pubs=60, max_topics=12, unclassified_p=0.3)
            assert RankKernel(corpus).topic_ids == corpus.topics

    def test_reads_the_corpus_columns_in_place(self):
        corpus = random_corpus(np.random.default_rng(4), max_journals=6, max_pubs=60, max_topics=3)
        kernel = RankKernel(corpus)
        assert np.shares_memory(kernel.journal, corpus.journal)
        assert np.shares_memory(kernel.citations, corpus.citations)


class TestCsiCell:
    def test_worked_example_matches_all_pairs(self):
        probability, n = cell_score("jA", cell_of([3, 2], [1, 1, 2]))
        assert n == 2
        assert probability == pairwise_score([3, 2], [1, 1, 2])
        assert probability == pytest.approx(11 / 12, abs=1e-15)

    def test_pure_tie_is_exactly_half(self):
        probability, _ = cell_score("jA", cell_of([5], [5]))
        assert probability == 0.5

    def test_sole_publisher_yields_empty_comparison(self):
        pubs = [pub("p1", "jA", 3, "t1"), pub("p2", "jA", 1, "t1")]
        probability, n = cell_score("jA", corpus_of(pubs))
        assert probability is None and n == 2

    def test_absent_journal_is_caller_bug(self):
        with pytest.raises(KeyError):
            cell_score("jZ", cell_of([1], [2]))

    def test_two_journal_complement_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            own = [int(c) for c in rng.integers(0, 12, size=rng.integers(1, 30))]
            others = [int(c) for c in rng.integers(0, 12, size=rng.integers(1, 30))]
            scores = cell_scores(cell_of(own, others))
            pa, _ = scores["jA", "t1", A]
            pb, _ = scores["jB", "t1", A]
            assert pa + pb == 1.0

    def test_identical_distribution_is_exactly_half(self):
        # jB's histogram is jA's scaled by 3: statistically identical
        probability, _ = cell_score("jA", cell_of([0, 2, 2], [0, 0, 0, 2, 2, 2, 2, 2, 2]))
        assert probability == 0.5

    def test_proportional_multisets_are_neutral(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            own = [int(v) for v in rng.integers(0, 8, size=rng.integers(1, 10))]
            scale = int(rng.integers(1, 5))
            probability, _ = cell_score("jA", cell_of(own, own * scale))
            assert probability == 0.5


class TestFncsi:
    def test_single_cell_journal_equals_its_cell_score(self):
        pubs = [pub("a1", "jA", 4, "t1"), pub("a2", "jA", 1, "t1"), pub("o1", "jB", 2, "t1")]
        corpus = corpus_of(pubs)
        ja = record("jA", corpus)
        value, breakdown = ja.fncsi, ja.topic_breakdown
        assert value == cell_score("jA", corpus)[0]
        assert breakdown == {"t1": (value, 2)}

    def test_total_dominance_is_one(self):
        pubs = [pub("a1", "jA", 10, "t1"), pub("a2", "jA", 9, "t2", doc=R)]
        pubs += [pub(f"o{i}", "jB", i % 3, f"t{1 + i % 2}", doc=R if i % 2 else A) for i in range(8)]
        corpus = corpus_of(pubs)
        value = record("jA", corpus).fncsi
        assert value == 1.0

    def test_two_topics_equal_weight_averages(self):
        # topic scores 0.25 and 0.75 with one paper each -> 0.5
        pubs = [pub("a1", "jA", 1, "t1")] + [pub(f"o{i}", "jB", c, "t1") for i, c in enumerate([0, 2, 2, 2])]
        pubs += [pub("a2", "jA", 2, "t2")] + [pub(f"q{i}", "jB", c, "t2") for i, c in enumerate([3, 1, 1, 1])]
        corpus = corpus_of(pubs)
        assert cell_score("jA", corpus, "t1")[0] == 0.25
        assert cell_score("jA", corpus, "t2")[0] == 0.75
        value = record("jA", corpus).fncsi
        assert value == 0.5

    def test_empty_comparison_cells_dropped_and_renormalized(self):
        # jA alone in (t1, Review); its two Article papers still compare
        pubs = [
            pub("a1", "jA", 5, "t1"),
            pub("a2", "jA", 0, "t1"),
            pub("a3", "jA", 9, "t1", doc=R),
            pub("o1", "jB", 1, "t1"),
        ]
        corpus = corpus_of(pubs)
        ja = record("jA", corpus)
        value, breakdown = ja.fncsi, ja.topic_breakdown
        assert breakdown == {"t1": (value, 2)}  # review paper did not participate
        assert value == pairwise_score([5, 0], [1])

    def test_all_cells_empty_comparison_is_unrankable(self):
        corpus = corpus_of([pub("a1", "jA", 5, "t1"), pub("o1", "jB", 1, "t2")])
        ja = record("jA", corpus)
        value, breakdown = ja.fncsi, ja.topic_breakdown
        assert value is None and breakdown == {}


class TestFnif:
    def test_papers_at_cell_means_give_one(self):
        # both cells have integer means equal to jA's citation there
        pubs = [
            pub("a1", "jA", 2, "t1"), pub("o1", "jB", 1, "t1"), pub("o2", "jB", 3, "t1"),
            pub("a2", "jA", 4, "t2"), pub("o3", "jB", 6, "t2"), pub("o4", "jB", 2, "t2"),
        ]
        corpus = corpus_of(pubs)
        assert record("jA", corpus).fnif == 1.0

    def test_single_paper_twice_the_mean(self):
        pubs = [pub("a1", "jA", 4, "t1"), pub("o1", "jB", 0, "t1"), pub("o2", "jB", 2, "t1"), pub("o3", "jB", 2, "t1")]
        corpus = corpus_of(pubs)
        assert record("jA", corpus).fnif == 2.0

    def test_mixed_two_cell_journal_matches_naive_loops(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            corpus = random_corpus(rng, max_journals=6, max_pubs=120, max_topics=3)
            for journal_id in corpus.journals:
                mine = record(journal_id, corpus).fnif
                ref = brute_fnif(corpus, journal_id)
                if ref is None:
                    assert mine is None
                else:
                    assert mine == pytest.approx(ref, abs=1e-12)

    def test_zero_mean_cell_contributes_zero(self):
        pubs = [pub("a1", "jA", 0, "t1"), pub("o1", "jB", 0, "t1"), pub("a2", "jA", 3, "t2"), pub("o2", "jB", 1, "t2")]
        corpus = corpus_of(pubs)
        # numerator only from t2: 3 / 2.0 = 1.5; divided by 2 classified papers
        assert record("jA", corpus).fnif == 0.75


class TestExpectedJif:
    def test_single_topic_journal_takes_topic_mean(self):
        pubs = [pub("a1", "jA", 2, "t1"), pub("a2", "jA", 1, "t1")]
        pubs += [pub(f"o{i}", "jB", c, "t1") for i, c in enumerate([3, 0, 3])]
        corpus = corpus_of(pubs)  # topic mean = 9/5 = 1.8
        assert record("jA", corpus).expected_jif == 1.8

    def test_even_split_averages_topic_means(self):
        pubs = [pub("a1", "jA", 0, "t1"), pub("a2", "jA", 0, "t2")]
        pubs += [pub("o1", "jB", 2, "t1"), pub("o2", "jB", 6, "t2")]
        corpus = corpus_of(pubs)  # topic means 1.0 and 3.0
        assert record("jA", corpus).expected_jif == 2.0

    def test_pools_document_types(self):
        # same topic, different doc types: one pooled mean, not per-cell means
        pubs = [pub("a1", "jA", 0, "t1", doc=A), pub("o1", "jB", 4, "t1", doc=R)]
        corpus = corpus_of(pubs)
        assert record("jA", corpus).expected_jif == 2.0

    def test_multi_topic_matches_per_paper_recompute(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            corpus = random_corpus(rng, max_journals=6, max_pubs=120, max_topics=4)
            for journal_id in corpus.journals:
                mine = record(journal_id, corpus).expected_jif
                ref = brute_expected_jif(corpus, journal_id)
                if ref is None:
                    assert mine is None
                else:
                    assert mine == pytest.approx(ref, abs=1e-12)


class TestJif:
    def test_plain_mean(self):
        corpus = corpus_of([pub("p1", "jA", 10), pub("p2", "jA", 0), pub("p3", "jA", 2)])
        assert record("jA", corpus).jif == 4.0

    def test_all_zero_citations(self):
        corpus = corpus_of([pub("p1", "jA", 0), pub("p2", "jA", 0)])
        assert record("jA", corpus).jif == 0.0

    def test_counts_unclassified_papers_that_fncsi_excludes(self):
        pubs = [pub("p1", "jA", 4, "t1"), pub("p2", "jA", 8, None), pub("o1", "jB", 1, "t1")]
        corpus = corpus_of(pubs)
        ja = record("jA", corpus)
        assert ja.jif == 6.0
        compared = sum(n for _, n in ja.topic_breakdown.values())
        assert len([p for p in corpus.publications if p.journal_id == "jA"]) > compared  # jif denominator is wider

    def test_citation_sum_past_2_53_is_exact(self):
        # summed in float64, 2**53 + 1 + 1 rounds back to 2**53 at each step
        corpus = corpus_of([pub("a1", "jA", 2**53), pub("a2", "jA", 1), pub("a3", "jA", 1), pub("b1", "jB", 1)])
        assert values(corpus, "jif")["jA"] == brute_jif(corpus, "jA") == 3002399751580331.5


class TestComputeAll:
    def test_two_journal_corpus_fully_populated(self):
        pubs = [pub("a1", "jA", 3, "t1"), pub("a2", "jA", 1, "t1"), pub("b1", "jB", 2, "t1")]
        rows = records(compute_all(corpus_of(pubs)))
        assert [r.journal_id for r in rows] == ["jA", "jB"]
        for r in rows:
            assert None not in (r.fncsi, r.fnif, r.expected_jif, r.jif)

    def test_unclassified_only_journal_marked_unrankable(self):
        pubs = [pub("a1", "jA", 3, "t1"), pub("b1", "jB", 2, "t1"), pub("c1", "jC", 7, None)]
        by_id = {r.journal_id: r for r in records(compute_all(corpus_of(pubs)))}
        jc = by_id["jC"]
        assert jc.fncsi is None and jc.fnif is None and jc.expected_jif is None
        assert jc.jif == 7.0 and jc.n_pubs == 0

    def test_matches_brute_force_field_by_field(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            corpus = random_corpus(rng, max_journals=8, max_pubs=150, max_topics=3, unclassified_p=0.1)
            for record in records(compute_all(corpus)):
                for mine, ref in (
                    (record.fncsi, brute_fncsi(corpus, record.journal_id)),
                    (record.fnif, brute_fnif(corpus, record.journal_id)),
                    (record.expected_jif, brute_expected_jif(corpus, record.journal_id)),
                    (record.jif, brute_jif(corpus, record.journal_id)),
                ):
                    if ref is None:
                        assert mine is None
                    else:
                        assert mine == pytest.approx(ref, abs=1e-12)

    def test_n_pubs_sums_topic_counts(self):
        rng = np.random.default_rng(10)
        corpus = random_corpus(rng, max_journals=8, max_pubs=200, max_topics=4, unclassified_p=0.15)
        for record in records(compute_all(corpus)):
            classified = [p for p in corpus.publications
                          if p.journal_id == record.journal_id and p.topic_id is not None]
            assert record.n_pubs == len(classified)
            assert 0 <= sum(n for _, n in record.topic_breakdown.values()) <= record.n_pubs
            if record.fncsi is not None:
                assert 0.0 <= record.fncsi <= 1.0
                # score equals the breakdown's own weighted mean
                weighted = sum(s * n for s, n in record.topic_breakdown.values())
                weight = sum(n for _, n in record.topic_breakdown.values())
                assert record.fncsi == pytest.approx(weighted / weight, abs=1e-15)


class TestProperties:
    def test_order_invariance_bitwise(self):
        rng = np.random.default_rng(13)
        corpus = random_corpus(rng, max_journals=10, max_pubs=200, max_topics=4, unclassified_p=0.1)
        shuffled = list(corpus.publications)
        random.Random(99).shuffle(shuffled)
        permuted = corpus_from_rows(shuffled, corpus.journals)
        original = {r.journal_id: r for r in records(compute_all(corpus))}
        reordered = {r.journal_id: r for r in records(compute_all(permuted))}
        for journal_id, record in original.items():
            other = reordered[journal_id]
            assert (record.fncsi, record.fnif, record.expected_jif, record.jif) == (
                other.fncsi, other.fnif, other.expected_jif, other.jif)

    def test_incrementing_citations_never_hurts_fncsi(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            corpus = random_corpus(rng, max_journals=8, max_pubs=100, max_topics=3, tie_heavy=True)
            base = values(corpus, "fncsi")
            classified = [i for i, p in enumerate(corpus.publications)
                          if p.topic_id is not None and base[p.journal_id] is not None]
            if not classified:
                continue
            target = classified[int(rng.integers(len(classified)))]
            bumped = list(corpus.publications)
            import dataclasses
            bumped[target] = dataclasses.replace(bumped[target], citations=bumped[target].citations + 1)
            after = values(corpus_from_rows(bumped, corpus.journals), "fncsi")
            journal_id = corpus.publications[target].journal_id
            assert after[journal_id] >= base[journal_id] - 1e-15

    def test_single_paper_influence_is_bounded(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            corpus = random_corpus(rng, max_journals=8, max_pubs=100, max_topics=3)
            base = values(corpus, "fncsi")
            by_id = {r.journal_id: r for r in records(compute_all(corpus))}
            classified = [i for i, p in enumerate(corpus.publications)
                          if p.topic_id is not None and base[p.journal_id] is not None]
            if not classified:
                continue
            target = classified[int(rng.integers(len(classified)))]
            journal_id = corpus.publications[target].journal_id
            import dataclasses
            bumped = list(corpus.publications)
            bumped[target] = dataclasses.replace(bumped[target], citations=int(rng.integers(0, 10_000)))
            after = values(corpus_from_rows(bumped, corpus.journals), "fncsi")
            n_compared = sum(n for _, n in by_id[journal_id].topic_breakdown.values())
            assert abs(after[journal_id] - base[journal_id]) <= 1 / n_compared + 1e-12

    def test_fnif_influence_is_unbounded_unlike_fncsi(self):
        # a single runaway paper moves fnif arbitrarily far but fncsi by at
        # most that paper's comparison share
        pubs = [pub(f"a{i}", "jA", 2, "t1") for i in range(10)]
        pubs += [pub(f"o{i}", "jB", 2, "t1") for i in range(200)]
        corpus = corpus_of(pubs)
        base_fnif = values(corpus, "fnif")["jA"]
        base_fncsi = values(corpus, "fncsi")["jA"]

        import dataclasses
        boosted = [dataclasses.replace(p, citations=2000) if p.pub_id == "a0" else p
                   for p in corpus.publications]
        spiked = corpus_from_rows(boosted, corpus.journals)
        assert values(spiked, "fnif")["jA"] - base_fnif > 5.0
        assert values(spiked, "fncsi")["jA"] - base_fncsi <= 1 / 10 + 1e-12

    def test_indicator_values_agrees_with_compute_all(self):
        rng = np.random.default_rng(16)
        corpus = random_corpus(rng, max_journals=10, max_pubs=200, max_topics=4, unclassified_p=0.1)
        by_id = {r.journal_id: r for r in records(compute_all(corpus))}
        for key in ("fncsi", "fnif", "expected_jif", "jif"):
            assert values(corpus, key) == {j: getattr(r, key) for j, r in by_id.items()}

    def test_indicator_values_rejects_unknown_key(self):
        corpus = corpus_of([pub("p1", "jA", 1, "t1")])
        with pytest.raises(ValueError):
            values(corpus, "h-index")


def indicators_by_id(scores):
    """Table journal id -> its four indicator values, None where undefined."""
    kernel = scores.kernel
    columns = [scores.column(key).tolist() for key in INDICATOR_KEYS]
    return {
        journal_id: tuple(None if math.isnan(column[code]) else column[code] for column in columns)
        for code, journal_id in enumerate(kernel.journal_ids)
        if kernel.in_table[code]
    }


def weights_for(kernel, data, low=0, high=3):
    return data.draw(st.lists(st.integers(low, high), min_size=len(kernel.journal), max_size=len(kernel.journal)))


class TestWeightedEvaluation:
    @pytest.fixture
    def kernel(self):
        return RankKernel(cell_of([3, 1], [2, 2]))

    @pytest.mark.parametrize(
        "weights",
        [[1, -3, 1, 1], [0.7] * 4, [1.0] * 4, [True] * 4, [1] * 3, [1] * 5, [[1, 1], [1, 1]], 1],
        ids=["negative", "fractional", "float", "bool", "short", "long", "2-d", "scalar"],
    )
    def test_rejects_anything_but_one_non_negative_integer_per_paper(self, kernel, weights):
        with pytest.raises(ValueError, match="one non-negative integer per paper"):
            kernel.evaluate(weights)

    def test_accepts_a_list_of_ints_and_bootstrap_counts(self, kernel):
        assert indicators_by_id(kernel.evaluate([1, 1, 1, 1])) == indicators_by_id(kernel.evaluate())
        counts = np.bincount([0, 0, 2, 3], minlength=4)
        assert indicators_by_id(kernel.evaluate(counts)) == indicators_by_id(kernel.evaluate(counts.tolist()))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tie_heavy=st.booleans(), data=st.data())
    def test_weights_score_as_repeated_papers(self, seed, tie_heavy, data):
        corpus = random_corpus(np.random.default_rng(seed), max_journals=8, max_pubs=150, max_topics=4,
                               tie_heavy=tie_heavy, unclassified_p=0.1)
        kernel = RankKernel(corpus)
        weights = weights_for(kernel, data)
        expanded = [row for row, w in zip(corpus.publications, weights) for _ in range(w)]
        repeated = RankKernel(corpus_from_rows(expanded, corpus.journals))
        assert indicators_by_id(kernel.evaluate(weights)) == indicators_by_id(repeated.evaluate())

    @settings(max_examples=300, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4), citations=st.integers(0, 50), data=st.data())
    def test_pure_tie_cell_is_exactly_half(self, sizes, citations, data):
        pubs = [pub(f"p{j}_{i}", f"j{j}", citations, "t1") for j, size in enumerate(sizes) for i in range(size)]
        kernel = RankKernel(corpus_of(pubs))
        assert kernel.evaluate(weights_for(kernel, data, 1, 4)).pair_score.tolist() == [0.5] * len(sizes)

    @settings(max_examples=300, deadline=None)
    @given(
        own=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        others=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_two_journal_complement_is_exact(self, own, others, data):
        kernel = RankKernel(cell_of(own, others))
        pa, pb = kernel.evaluate(weights_for(kernel, data, 1, 4)).pair_score.tolist()
        assert pa + pb == 1.0


_LIMIT = 2**63 - 1


class TestInt64Limit:
    """Citation sums and products are exact int64 or rejected, never wrapped."""

    def kernel_of(self, citations, topic="t1"):
        return RankKernel(corpus_of([pub(f"a{i}", "jA", c, topic) for i, c in enumerate(citations)]))

    @pytest.mark.parametrize(
        "papers",
        [
            [("jA", 2**62), ("jA", 2**62), ("jB", 2)],  # one run of two papers: its citations
            [("jA", 2**62), ("jA", 2**62 + 1)],  # the cell's sum, and the journal's own
            [("jA", 2**61), ("jA", 0), ("jB", 0), ("jB", 0)],  # own citations times the cell's paper count
            [("jA", _LIMIT // 7 + 1)] + [("jB", 0)] * 6,
        ],
    )
    def test_unweighted_corpus_beyond_the_limit_is_rejected(self, papers):
        pubs = [pub(f"p{i}", journal_id, c, "t1") for i, (journal_id, c) in enumerate(papers)]
        with pytest.raises(ValueError, match=r"2\*\*63 - 1 \(9223372036854775807\)"):
            compute_all(corpus_of(pubs))

    def test_journal_sum_of_unclassified_papers_beyond_the_limit_is_rejected(self):
        pubs = [pub("u1", "jA", 2**62), pub("u2", "jA", 2**62), pub("b1", "jB", 1, "t1")]
        with pytest.raises(ValueError, match=r"2\*\*63 - 1 \(9223372036854775807\)"):
            compute_all(corpus_of(pubs))

    def test_sums_and_products_at_the_limit_are_exact(self):
        assert self.kernel_of([_LIMIT]).evaluate().fnif.tolist() == [1.0]
        # own citations times the cell's paper count is exactly 2**63 - 1
        pubs = [pub("a", "jA", _LIMIT // 7, "t1")] + [pub(f"b{i}", "jB", 0, "t1") for i in range(6)]
        scores = RankKernel(corpus_of(pubs)).evaluate()
        assert scores.cell_citations.tolist() == [_LIMIT // 7, 0] and scores.fnif.tolist() == [7.0, 0.0]

    @pytest.mark.parametrize(
        "citations, topic, weights",
        [
            ([2**60, 0, 0, 0], "t1", [4, 0, 0, 0]),  # own citations times the cell's paper count
            ([2**61, 2**61 - 1], "t1", [2, 2]),  # the cell's sum
            ([2**62, 1], None, [2, 1]),  # an unclassified paper's weighted citations, which only jif sums
        ],
    )
    def test_weights_that_pass_the_limit_are_rejected(self, citations, topic, weights):
        kernel = self.kernel_of(citations, topic)
        kernel.evaluate()
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            kernel.evaluate(weights)

    @settings(max_examples=300, deadline=None)
    @given(
        segments=st.lists(
            st.lists(st.one_of(st.integers(0, _LIMIT), st.sampled_from([0, 2**31, 2**32 - 1, 2**32, 2**62])),
                     min_size=1, max_size=8),
            min_size=1, max_size=5,
        )
    )
    def test_segment_sums_are_checked_exactly(self, segments):
        terms = np.array([t for segment in segments for t in segment], dtype=np.int64)
        groups = np.repeat(np.arange(len(segments)), [len(segment) for segment in segments])
        if max(sum(segment) for segment in segments) > _LIMIT:
            with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
                _group_sums(terms, groups, len(segments))
        else:
            assert _group_sums(terms, groups, len(segments)).tolist() == [sum(segment) for segment in segments]


class TestWeightLimit:
    """Weights that total more than 2**31 - 1 are rejected, so no paper count or product of them wraps int64."""

    def tied_pair(self):
        # two one-paper journals tied at 0 citations in one cell
        return RankKernel(corpus_of([pub("a", "jA", 0, "t1"), pub("b", "jB", 0, "t1")]))

    @pytest.mark.parametrize(
        "weights",
        [
            pytest.param([2**31, 2**31], id="fncsi-minus-half"),  # wrapped to -0.5 each
            pytest.param([2**32, 2**32], id="fncsi-nan"),  # wrapped to NaN
            pytest.param([2**31 - 1, 1], id="one-past"),
            pytest.param(np.array([2**62, 2**62], dtype=np.int64), id="int64-total-wraps"),
            pytest.param(np.array([2**63, 2**63], dtype=np.uint64), id="uint64-total-wraps-to-0"),
        ],
    )
    def test_weights_past_the_bound_are_rejected(self, weights):
        with pytest.raises(ValueError, match=r"2\*\*31 - 1 \(2147483647\)"):
            self.tied_pair().evaluate(weights)

    def test_weights_at_the_bound_are_exact(self):
        scores = self.tied_pair().evaluate(np.array([2**30, 2**30 - 1]))
        assert scores.fncsi.tolist() == [0.5, 0.5]
        assert scores.n_classified.tolist() == [2**30, 2**30 - 1]


# strictly increasing maps of citation counts that keep an uncited paper at 0
_INCREASING = {
    "3c + 1": lambda c: np.where(c > 0, 3 * c + 1, 0),
    "c**2 + c": lambda c: c * c + c,
    "c + 10**9": lambda c: np.where(c > 0, c + 10**9, 0),
}


def claims_corpus(seed, tie_heavy):
    return random_corpus(np.random.default_rng(seed), max_journals=10, max_pubs=200, max_topics=4,
                         tie_heavy=tie_heavy, unclassified_p=0.1)


def compared_papers(scores, journal):
    """N': the journal's papers summed over its (journal, cell) pairs that have comparison papers."""
    pairs = (scores.kernel.pair_journal == journal) & ~np.isnan(scores.pair_score)
    return int(scores.pair_papers[pairs].sum())


class TestRobustnessClaims:
    """The paper's two robustness claims for fncsi, as exact properties of the Mann-Whitney form.

    Each holds unweighted (``compute_all``) and under the integer weights of a
    bootstrap resample (``evaluate(weights)``).
    """

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tie_heavy=st.booleans(), data=st.data())
    def test_fncsi_depends_only_on_the_order_of_citations(self, seed, tie_heavy, data):
        # extremely highly cited papers: stretching citations keeps every cell's order, so fncsi is bit-identical
        corpus = claims_corpus(seed, tie_heavy)
        weights = weights_for(RankKernel(corpus), data)
        for name, increasing in _INCREASING.items():
            mapped = replace(corpus, citations=increasing(corpus.citations))
            sides = [
                (compute_all(corpus), compute_all(mapped)),
                (RankKernel(corpus).evaluate(weights), RankKernel(mapped).evaluate(weights)),
            ]
            for before, after in sides:
                for field in ("fncsi", "pair_score", "topic_score"):
                    assert getattr(before, field).tobytes() == getattr(after, field).tobytes(), (name, field)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tie_heavy=st.booleans(), data=st.data())
    def test_one_retyped_paper_moves_its_journal_by_at_most_one_compared_paper(self, seed, tie_heavy, data):
        # a wrongly assigned document type: only the retyped paper's own share of its journal's mean moves
        corpus = claims_corpus(seed, tie_heavy)
        weights = np.array(weights_for(RankKernel(corpus), data), dtype=np.int64)
        classified = corpus.topic >= 0
        for journal in np.unique(corpus.journal[classified]).tolist():
            target = data.draw(st.sampled_from(np.flatnonzero(classified & (corpus.journal == journal)).tolist()))
            review = corpus.review.copy()
            review[target] ^= True
            retyped = replace(corpus, review=review)
            counted = weights.copy()
            counted[target] = 1  # the retyped paper counts once
            sides = [
                (compute_all(corpus), compute_all(retyped)),
                (RankKernel(corpus).evaluate(counted), RankKernel(retyped).evaluate(counted)),
            ]
            for before, after in sides:
                n_before, n_after = compared_papers(before, journal), compared_papers(after, journal)
                if n_before and n_after:
                    moved = abs(after.fncsi[journal] - before.fncsi[journal])
                    assert moved <= 1 / min(n_before, n_after) + 1e-12, (journal, n_before, n_after, moved)


def arrays_of(obj):
    """Every ndarray attribute of ``obj``, as its dtype, shape and bytes."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in vars(obj).items()
        if isinstance(value, np.ndarray)
    }


class TestInPlaceSteps:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tie_heavy=st.booleans(), data=st.data())
    def test_evaluations_leave_the_kernel_and_each_other_unchanged(self, seed, tie_heavy, data):
        # an in-place step that writes through a view of kernel state would change every later evaluation
        corpus = claims_corpus(seed, tie_heavy)
        kernel = RankKernel(corpus)
        state, columns = arrays_of(kernel), (corpus.topic.tobytes(), corpus.review.tobytes())
        weights = np.array(weights_for(kernel, data), dtype=np.int64)
        drawn = weights.tobytes()
        first = arrays_of(kernel.evaluate(weights))
        unweighted = arrays_of(kernel.evaluate())
        assert arrays_of(kernel.evaluate(weights)) == first
        assert unweighted == arrays_of(RankKernel(corpus).evaluate())
        assert arrays_of(kernel) == state
        assert (corpus.topic.tobytes(), corpus.review.tobytes()) == columns
        assert weights.tobytes() == drawn


def traced(run):
    """``run()``'s result, the bytes it leaves allocated, and its peak, both by tracemalloc."""
    tracemalloc.start()
    try:
        result = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


class TestBoundedMemory:
    """The build and each evaluation free every temporary after its last read."""

    @pytest.fixture(params=[(60, 1), (60, 2), (60, 3), (300, 1), (300, 2), (300, 3)], ids=lambda p: "%dj-seed%d" % p)
    def corpus(self, request):
        n_journals, seed = request.param
        profile = SyntheticProfile(n_journals=n_journals, n_topics=50, pubs_min=50, pubs_max=150, skewed_journals=3)
        return generate_corpus(profile, seed=seed)

    def test_the_build_peaks_near_what_the_kernel_keeps(self, corpus):
        # the sort keys and sorted gathers, held to the end of the build, take its peak past twice what it keeps
        _, kept, peak = traced(lambda: RankKernel(corpus))
        assert peak < 1.5 * kept, f"kernel build peak {peak} B against {kept} B kept"

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_an_evaluation_holds_less_than_three_times_its_scores_beside_them(self, corpus, weighted):
        # per-paper and per-pair temporaries held to the end of evaluate() take it past 3.3 times
        kernel = RankKernel(corpus)
        n = len(corpus.journal)
        weights = np.bincount(np.random.default_rng(0).integers(0, n, n), minlength=n) if weighted else None
        _, kept, peak = traced(lambda: kernel.evaluate(weights))
        assert peak - kept < 3 * kept, f"evaluate() transient {peak - kept} B against {kept} B of Scores"
