"""Majority-rule topic assignment."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_of, corpus_of, load_corpus, load_related, pub, same_corpus
from oracles import reference_assign_majority

from jrank import cli
from jrank.classifier import assign_majority, read_related
from jrank.synth import SyntheticProfile, generate_corpus, write_corpus_files


def classified(pid, topic, jid="jC"):
    return pub(pid, jid, 1, topic)


def topic_of(corpus, pid):
    return next(p.topic_id for p in corpus.publications if p.pub_id == pid)


class TestMajority:
    def test_strict_majority_wins(self):
        corpus = corpus_of(
            [pub("x", "jA", 5), classified("r1", "t1"), classified("r2", "t1"), classified("r3", "t2")]
        )
        out, report = assign_majority(corpus, [block_of([("x", ("r1", "r2", "r3"))])])
        assert topic_of(out, "x") == "t1"
        assert report.assigned == 1

    def test_tie_breaks_to_smallest_topic_id_regardless_of_order(self):
        base = [pub("x", "jA", 5), classified("r1", "t1"), classified("r2", "t2")]
        # every ordering of the related list and of the corpus publications
        for related_order in itertools.permutations(("r1", "r2")):
            for pub_order in itertools.permutations(base):
                corpus = corpus_of(list(pub_order))
                out, _ = assign_majority(corpus, [block_of([("x", related_order)])])
                assert topic_of(out, "x") == "t1"

    def test_no_topical_related_records_leaves_unclassified(self):
        corpus = corpus_of([pub("x", "jA", 5), pub("r1", "jB", 1)])  # r1 itself unclassified
        out, report = assign_majority(corpus, [block_of([("x", ("r1",))])])
        assert topic_of(out, "x") is None
        assert report.assigned == 0
        assert report.still_unclassified == 2

    def test_external_ids_ignored_and_counted(self):
        corpus = corpus_of([pub("x", "jA", 5), classified("r1", "t3")])
        out, report = assign_majority(corpus, [block_of([("x", ("ext1", "r1", "ext2"))])])
        assert topic_of(out, "x") == "t3"
        assert report.external_ignored == 2

    def test_never_modifies_already_classified(self):
        corpus = corpus_of([pub("x", "jA", 5, "t9"), classified("r1", "t1")])
        out, report = assign_majority(corpus, [block_of([("x", ("r1",))])])
        assert topic_of(out, "x") == "t9"
        assert report.assigned == 0 and report.already_classified == 1

    def test_assignment_is_single_pass(self):
        # y's topic is decided this pass, so x (related only to y) stays
        # unclassified: fresh assignments never feed later majorities
        corpus = corpus_of([pub("x", "jA", 5), pub("y", "jA", 4), classified("r1", "t1")])
        related = [block_of([("x", ("y",)), ("y", ("r1",))])]
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
            out, _ = assign_majority(corpus, [block_of([("x", ids)])])
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
            related = [block_of([
                (t.pub_id, tuple(f"r{i}" for i in rng.choice(10, size=3, replace=False)) + ("external",))
                for t in targets
                if rng.random() < 0.8
            ])]
            once, report_once = assign_majority(corpus, related)
            twice, report_twice = assign_majority(once, related)
            assert same_corpus(once, twice)
            assert report_twice.assigned == 0
            assert report_twice.still_unclassified == report_once.still_unclassified

    def test_records_for_unknown_publications_are_skipped(self):
        corpus = corpus_of([classified("r1", "t1")])
        out, report = assign_majority(corpus, [block_of([("ghost", ("r1",))])])
        assert same_corpus(out, corpus)
        assert report.assigned == 0


class TestLoadRelated:
    def test_pipe_separated_ids(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,r1|r2|r3\n", encoding="utf-8")
        records, _ = load_related(path)
        assert records == [("p1", ("r1", "r2", "r3"))]

    def test_empty_related_list_is_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,\n", encoding="utf-8")
        records, errors = load_related(path)
        assert not records and len(errors) == 1

    def test_self_reference_is_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,r1|p1\n", encoding="utf-8")
        records, errors = load_related(path)
        assert not records and "itself" in errors[0].message

    def test_duplicate_subject_is_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("pub_id,related_ids\np1,r1\np1,r2\n", encoding="utf-8")
        records, errors = load_related(path)
        assert len(records) == 1 and "duplicate" in errors[0].message

    def test_quoted_multiline_list_is_one_record_and_errors_name_physical_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "# related records\npub_id,related_ids\n\"p1\",\"r1|\n# r2\n|r3\"\np2,\np3,r1\tr2|r4\n",
            encoding="utf-8",
        )
        records, errors = load_related(path)
        assert records == [("p1", ("r1", "# r2", "r3")), ("p3", ("r1\tr2", "r4"))]
        assert [(e.line, e.message) for e in errors] == [(6, "no related ids for 'p2'")]


@st.composite
def _vote_cases(draw):
    """A corpus and related records with ties, unknown subjects and external ids.

    Topic names sort differently as text and as numbers (``t10`` < ``t2``);
    with 300 topics one filler paper per topic gives more than 256 ranks,
    and with none the corpus has no topic at all.
    """
    n_topics = draw(st.sampled_from([0, 1, 2, 3, 12, 300]))
    topics = [f"t{i}" for i in range(n_topics)]
    topic = st.one_of(st.none(), st.sampled_from(topics)) if topics else st.none()
    ids = [f"p{i}" for i in range(draw(st.integers(1, 8)))]
    # drawn without replacement, as corpus ids are distinct; an id left out is outside the corpus
    papers = [pub(pid, "jA", 1, draw(topic)) for pid in draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))]
    fillers = [f"f{i}" for i in range(n_topics)] if n_topics > 12 else []
    papers += [pub(fid, "jB", 0, t) for fid, t in zip(fillers, topics)]
    related_id = st.sampled_from(ids + ["x1", "x2"] + fillers[:3] + fillers[-3:])
    records = draw(st.lists(
        st.tuples(st.sampled_from(ids + ["ghost"]), st.lists(related_id, max_size=7).map(tuple)),
        max_size=10,
    ))
    return corpus_of(draw(st.permutations(papers))), records


@settings(max_examples=400, deadline=None)
@given(case=_vote_cases(), data=st.data())
def test_batched_vote_matches_the_record_by_record_vote(case, data):
    corpus, records = case
    # blocks of 1-3 records in order, and one empty block, as read_related yields for a block of rejected rows
    blocks, start = [], 0
    while start < len(records):
        end = start + data.draw(st.integers(1, 3))
        blocks.append(block_of(records[start:end]))
        start = end
    blocks.insert(data.draw(st.integers(0, len(blocks))), block_of([]))
    got, report = assign_majority(corpus, iter(blocks))
    want, want_report = reference_assign_majority(corpus, records)
    assert same_corpus(got, want) and report == want_report
    assert got.pub_ids == corpus.pub_ids  # the distinct ids it was given, in their order


# rows of a related file: good records with ids in and outside the corpus,
# then one of each rejected row (empty list, empty id, self-reference,
# nothing between separators, and a subject that a good row also names)
_ROWS = ["u1,a1|a2|ext1", "u2,a2|b1", "u3,ext2|ext3", "b1,a1", "ghost,a1|b1", "u4,u1|a1|b2|b2",
         "u5,", ",a1", "u2,u2|a1", "u3,|", "u1,b1"]


@settings(max_examples=200, deadline=None)
@given(rows=st.permutations(_ROWS) | st.lists(st.sampled_from(_ROWS), max_size=16))
def test_streamed_records_vote_as_the_loaded_list_does(tmp_path_factory, rows):
    corpus = corpus_of(
        [pub("u1", "jA", 1), pub("u2", "jA", 2), pub("u3", "jB", 3), pub("u4", "jB", 0), pub("u5", "jA", 1),
         classified("a1", "t1"), classified("a2", "t2"), classified("b1", "t2"), classified("b2", "t1")]
    )
    path = tmp_path_factory.mktemp("related") / "related.csv"
    path.write_text("pub_id,related_ids\n" + "".join(f"{row}\n" for row in rows), encoding="utf-8")
    errors = []
    streamed, report = assign_majority(corpus, read_related(path, errors))
    records, loaded_errors = load_related(path)
    loaded, loaded_report = assign_majority(corpus, [block_of(records)])
    assert same_corpus(streamed, loaded) and report == loaded_report
    assert errors == loaded_errors


def test_classify_holds_far_less_than_the_loaded_related_records(tmp_path):
    """The traced peak of ``cli._classified`` against what ``load_related`` keeps alive.

    About 20k publications, 30% unclassified, each with 10 related ids.  When
    ``_classified`` loaded the whole list before voting, its peak was 1.59
    times what the list retains, more than 3x the bound of one half; voting
    while reading gives 0.34.
    """
    generated = generate_corpus(
        SyntheticProfile(n_journals=200, n_topics=40, pubs_min=50, pubs_max=150, unclassified_fraction=0.3), seed=5
    )
    pubs_path, journals_path = write_corpus_files(generated, tmp_path)
    rng = random.Random(5)
    pub_ids = generated.pub_ids
    subjects = [pub_ids[row] for row in np.flatnonzero(generated.topic < 0).tolist()]
    related_path = tmp_path / "related.csv"
    with open(related_path, "w", encoding="utf-8") as fh:
        fh.write("pub_id,related_ids\n")
        for i, subject in enumerate(subjects):
            picks = (rng.choice(pub_ids) for _ in range(10))
            related = [r if r != subject and rng.random() < 0.9 else f"x{i:06d}.{k}" for k, r in enumerate(picks)]
            fh.write(f"{subject},{'|'.join(related)}\n")
    assert len(pub_ids) > 15_000 and len(subjects) > 4_000
    config = cli._resolve_config(
        cli.build_parser().parse_args(["classify", "--pubs", str(pubs_path), "--journals", str(journals_path),
                                       "--related", str(related_path), "--out", str(tmp_path / "out")]),
        cli._config_types(cli._COMMANDS["classify"][2]),
    )
    corpus, errors = load_corpus(pubs_path, journals_path)
    assert errors == []

    tracemalloc.start()
    try:
        loaded = load_related(related_path)
        retained, _ = tracemalloc.get_traced_memory()
        del loaded
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        classified = cli._classified(config, corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classified is not None and classified[1].assigned > 0
    assert peak - base < retained / 2, f"peak {peak - base} B against {retained} B retained"
