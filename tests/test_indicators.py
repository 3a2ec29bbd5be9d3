"""Indicator kernels against spec'd values and the all-pairs oracle."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A, R, cell_scores, corpus_of, pub, record, values
from oracles import brute_expected_jif, brute_fncsi, brute_fnif, brute_jif, pairwise_score, random_corpus

from jrank.corpus import Corpus, DocumentType
from jrank.indicators import INDICATOR_KEYS, RankKernel, compute_all


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
        code = int(kernel.cell[i])
        key = (kernel.topic_ids[code >> 1], (A, R)[code & 1])
        cells.setdefault(key, []).append((kernel.journal_ids[kernel.journal[i]], int(kernel.citations[i])))
    return cells


class TestBuildCells:
    def test_direct_grouping(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jB", 1, "t1")])
        kernel = RankKernel.from_corpus(corpus)
        cells = cell_members(kernel)
        assert set(cells) == {("t1", A)}
        assert [c for _, c in cells["t1", A]] == [1, 3]
        scores = kernel.evaluate()
        assert scores.cell_total.tolist() == [2, 0]
        assert scores.cell_citations[0] / scores.cell_total[0] == 2.0

    def test_doc_type_splits_cells(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jB", 1, "t1", doc=R)])
        kernel = RankKernel.from_corpus(corpus)
        assert {doc for _, doc in cell_members(kernel)} == {DocumentType.ARTICLE, DocumentType.REVIEW}
        assert kernel.evaluate().cell_total.tolist() == [1, 1]

    def test_totals_recount(self):
        rng = random.Random(0)
        pubs = [
            pub(f"p{i}", f"j{rng.randrange(4)}", rng.randrange(9), f"t{rng.randrange(3)}",
                doc=R if rng.random() < 0.4 else A)
            for i in range(10)
        ]
        kernel = RankKernel.from_corpus(corpus_of(pubs))
        assert kernel.evaluate().cell_total.sum() == 10
        # per-journal multiplicities never exceed the cell histogram
        for members in cell_members(kernel).values():
            whole = Counter(c for _, c in members)
            for (_, value), count in Counter(members).items():
                assert count <= whole[value]

    def test_unclassified_publications_excluded(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jA", 9, None)])
        assert RankKernel.from_corpus(corpus).evaluate().cell_total.tolist() == [1, 0]


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


class TestComputeAll:
    def test_two_journal_corpus_fully_populated(self):
        pubs = [pub("a1", "jA", 3, "t1"), pub("a2", "jA", 1, "t1"), pub("b1", "jB", 2, "t1")]
        records = compute_all(corpus_of(pubs))
        assert [r.journal_id for r in records] == ["jA", "jB"]
        for r in records:
            assert None not in (r.fncsi, r.fnif, r.expected_jif, r.jif)

    def test_unclassified_only_journal_marked_unrankable(self):
        pubs = [pub("a1", "jA", 3, "t1"), pub("b1", "jB", 2, "t1"), pub("c1", "jC", 7, None)]
        records = {r.journal_id: r for r in compute_all(corpus_of(pubs))}
        jc = records["jC"]
        assert jc.fncsi is None and jc.fnif is None and jc.expected_jif is None
        assert jc.jif == 7.0 and jc.n_pubs == 0

    def test_matches_brute_force_field_by_field(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            corpus = random_corpus(rng, max_journals=8, max_pubs=150, max_topics=3, unclassified_p=0.1)
            for record in compute_all(corpus):
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
        for record in compute_all(corpus):
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
        permuted = Corpus.of(shuffled, corpus.journals, corpus.topics)
        original = {r.journal_id: r for r in compute_all(corpus)}
        reordered = {r.journal_id: r for r in compute_all(permuted)}
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
            after = values(Corpus.of(bumped, corpus.journals, corpus.topics), "fncsi")
            journal_id = corpus.publications[target].journal_id
            assert after[journal_id] >= base[journal_id] - 1e-15

    def test_single_paper_influence_is_bounded(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            corpus = random_corpus(rng, max_journals=8, max_pubs=100, max_topics=3)
            base = values(corpus, "fncsi")
            records = {r.journal_id: r for r in compute_all(corpus)}
            classified = [i for i, p in enumerate(corpus.publications)
                          if p.topic_id is not None and base[p.journal_id] is not None]
            if not classified:
                continue
            target = classified[int(rng.integers(len(classified)))]
            journal_id = corpus.publications[target].journal_id
            import dataclasses
            bumped = list(corpus.publications)
            bumped[target] = dataclasses.replace(bumped[target], citations=int(rng.integers(0, 10_000)))
            after = values(Corpus.of(bumped, corpus.journals, corpus.topics), "fncsi")
            n_compared = sum(n for _, n in records[journal_id].topic_breakdown.values())
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
        spiked = Corpus.of(boosted, corpus.journals, corpus.topics)
        assert values(spiked, "fnif")["jA"] - base_fnif > 5.0
        assert values(spiked, "fncsi")["jA"] - base_fncsi <= 1 / 10 + 1e-12

    def test_indicator_values_agrees_with_compute_all(self):
        rng = np.random.default_rng(16)
        corpus = random_corpus(rng, max_journals=10, max_pubs=200, max_topics=4, unclassified_p=0.1)
        records = {r.journal_id: r for r in compute_all(corpus)}
        for key in ("fncsi", "fnif", "expected_jif", "jif"):
            assert values(corpus, key) == {j: getattr(r, key) for j, r in records.items()}

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
        return RankKernel.from_corpus(cell_of([3, 1], [2, 2]))

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
        kernel = RankKernel.from_corpus(corpus)
        weights = weights_for(kernel, data)
        rows = corpus.publications
        expanded = [rows[row] for row, w in zip(kernel.rows.tolist(), weights) for _ in range(w)]
        repeated = RankKernel.from_corpus(Corpus.of(expanded, corpus.journals, corpus.topics))
        assert indicators_by_id(kernel.evaluate(weights)) == indicators_by_id(repeated.evaluate())

    @settings(max_examples=300, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4), citations=st.integers(0, 50), data=st.data())
    def test_pure_tie_cell_is_exactly_half(self, sizes, citations, data):
        pubs = [pub(f"p{j}_{i}", f"j{j}", citations, "t1") for j, size in enumerate(sizes) for i in range(size)]
        kernel = RankKernel.from_corpus(corpus_of(pubs))
        assert kernel.evaluate(weights_for(kernel, data, 1, 4)).pair_score.tolist() == [0.5] * len(sizes)

    @settings(max_examples=300, deadline=None)
    @given(
        own=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        others=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_two_journal_complement_is_exact(self, own, others, data):
        kernel = RankKernel.from_corpus(cell_of(own, others))
        pa, pb = kernel.evaluate(weights_for(kernel, data, 1, 4)).pair_score.tolist()
        assert pa + pb == 1.0
