"""Byte-for-byte regression against the frozen CLI outputs in ``tests/golden``."""

from __future__ import annotations

from make_golden import COMMANDS, GOLDEN, run_commands, write_golden_corpus

from jrank.cli import main
from jrank.corpus import Corpus, CorpusFragment


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_outputs_match_golden_bytes(tmp_path):
    run_commands(tmp_path)
    for name, _ in COMMANDS:
        got = tree(tmp_path / name)
        want = tree(GOLDEN / name)
        assert sorted(got) == sorted(want), name
        for filename, content in want.items():
            assert got[filename] == content, f"{name}/{filename} differs from the golden output"


def test_golden_corpus_matches_its_generator(tmp_path):
    write_golden_corpus(tmp_path)
    assert tree(tmp_path) == tree(GOLDEN / "corpus")


def test_no_command_builds_publication_rows(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a command built Publication rows")

    monkeypatch.setattr(Corpus, "publications", property(refuse))
    monkeypatch.setattr(CorpusFragment, "publications", property(refuse))
    related = tmp_path / "related.csv"
    related.write_text("pub_id,related_ids\nh09,h01|h02|x1\nh10,h04\n", encoding="utf-8")
    io = ["--pubs", str(GOLDEN / "corpus" / "publications.csv"), "--journals", str(GOLDEN / "corpus" / "journals.csv")]
    for argv in (
        ["validate"],
        ["classify", "--related", str(related)],
        ["compute"],
        ["rank"],
        ["bootstrap", "--sims", "5"],
        ["flip-test"],
        ["report", "--related", str(related)],
    ):
        assert main([*argv, *io, "--out", str(tmp_path / argv[0])]) == 0, argv[0]
