"""Majority-rule topic assignment."""

from __future__ import annotations

import itertools

import numpy as np

from conftest import corpus_of, pub

from jrank.classifier import RelatedRecords, assign_majority, load_related


def classified(pid, topic, jid="jC"):
    return pub(pid, jid, 1, topic)


def topic_of(corpus, pid):
    return next(p.topic_id for p in corpus.publications if p.pub_id == pid)


class TestMajority:
    def test_strict_majority_wins(self):
        corpus = corpus_of(
            [pub("x", "jA", 5), classified("r1", "t1"), classified("r2", "t1"), classified("r3", "t2")]
        )
        out, report = assign_majority(corpus, [RelatedRecords("x", ("r1", "r2", "r3"))])
        assert topic_of(out, "x") == "t1"
        assert report.assigned == 1

    def test_tie_breaks_to_smallest_topic_id_regardless_of_order(self):
        base = [pub("x", "jA", 5), classified("r1", "t1"), classified("r2", "t2")]
        # every ordering of the related list and of the corpus publications
        for related_order in itertools.permutations(("r1", "r2")):
            for pub_order in itertools.permutations(base):
                corpus = corpus_of(list(pub_order))
                out, _ = assign_majority(corpus, [RelatedRecords("x", related_order)])
                assert topic_of(out, "x") == "t1"

    def test_no_topical_related_records_leaves_unclassified(self):
        corpus = corpus_of([pub("x", "jA", 5), pub("r1", "jB", 1)])  # r1 itself unclassified
        out, report = assign_majority(corpus, [RelatedRecords("x", ("r1",))])
        assert topic_of(out, "x") is None
        assert report.assigned == 0
        assert report.still_unclassified == 2

    def test_external_ids_ignored_and_counted(self):
        corpus = corpus_of([pub("x", "jA", 5), classified("r1", "t3")])
        out, report = assign_majority(corpus, [RelatedRecords("x", ("ext1", "r1", "ext2"))])
        assert topic_of(out, "x") == "t3"
        assert report.external_ignored == 2

    def test_never_modifies_already_classified(self):
        corpus = corpus_of([pub("x", "jA", 5, "t9"), classified("r1", "t1")], topics={"t1", "t9"})
        out, report = assign_majority(corpus, [RelatedRecords("x", ("r1",))])
        assert topic_of(out, "x") == "t9"
        assert report.assigned == 0 and report.already_classified == 1

    def test_assignment_is_single_pass(self):
        # y's topic is decided this pass, so x (related only to y) stays
        # unclassified: fresh assignments never feed later majorities
        corpus = corpus_of([pub("x", "jA", 5), pub("y", "jA", 4), classified("r1", "t1")])
        related = [RelatedRecords("x", ("y",)), RelatedRecords("y", ("r1",))]
        out, report = assign_majority(corpus, related)
        assert topic_of(out, "y") == "t1"
        assert topic_of(out, "x") is None
        assert report.assigned == 1

    def test_chosen_topic_always_from_related_multiset(self):
        rng = np.random.default_rng(3)
        topics = [f"t{i}" for i in range(6)]
        for _ in range(50):
            sources = [classified(f"r{i}", topics[rng.integers(len(topics))]) for i in range(8)]
            corpus = corpus_of([pub("x", "jA", 5)] + sources)
            ids = tuple(f"r{i}" for i in rng.choice(8, size=rng.integers(1, 8), replace=False))
            out, _ = assign_majority(corpus, [RelatedRecords("x", ids)])
            assigned = topic_of(out, "x")
            candidate_topics = {topic_of(corpus, rid) for rid in ids}
            assert assigned in candidate_topics

    def test_idempotent_on_flat_related_records(self):
        # related ids point at natively classified publications or outside the
        # corpus, the shape majority assignment is designed for
        rng = np.random.default_rng(4)
        for _ in range(20):
            sources = [classified(f"r{i}", f"t{rng.integers(4)}") for i in range(10)]
            targets = [pub(f"x{i}", "jA", int(rng.integers(10))) for i in range(5)]
            corpus = corpus_of(sources + targets)
            related = [
                RelatedRecords(
                    t.pub_id,
                    tuple(f"r{i}" for i in rng.choice(10, size=3, replace=False)) + ("external",),
                )
                for t in targets
                if rng.random() < 0.8
            ]
            once, report_once = assign_majority(corpus, related)
            twice, report_twice = assign_majority(once, related)
            assert once == twice
            assert report_twice.assigned == 0
            assert report_twice.still_unclassified == report_once.still_unclassified

    def test_records_for_unknown_publications_are_skipped(self):
        corpus = corpus_of([classified("r1", "t1")])
        out, report = assign_majority(corpus, [RelatedRecords("ghost", ("r1",))])
        assert out == corpus
        assert report.assigned == 0


class TestLoadRelated:
    def test_pipe_separated_ids(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,r1|r2|r3\n", encoding="utf-8")
        frag = load_related(path)
        assert frag.records == [RelatedRecords("p1", ("r1", "r2", "r3"))]

    def test_empty_related_list_is_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,\n", encoding="utf-8")
        frag = load_related(path)
        assert not frag.records and len(frag.errors) == 1

    def test_self_reference_is_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,r1|p1\n", encoding="utf-8")
        frag = load_related(path)
        assert not frag.records and "itself" in frag.errors[0].message

    def test_duplicate_subject_is_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,r1\np1,r2\n", encoding="utf-8")
        frag = load_related(path)
        assert len(frag.records) == 1 and "duplicate" in frag.errors[0].message

    def test_quoted_multiline_list_is_one_record_and_errors_name_physical_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "# related records\npub_id,related_ids\n\"p1\",\"r1|\n# r2\n|r3\"\np2,\np3,r1\tr2|r4\n",
            encoding="utf-8",
        )
        frag = load_related(path)
        assert frag.records == [RelatedRecords("p1", ("r1", "# r2", "r3")), RelatedRecords("p3", ("r1\tr2", "r4"))]
        assert [(e.line, e.message) for e in frag.errors] == [(6, "no related ids for 'p2'")]
