"""Golden CLI outputs: the corpus, the commands, and how to regenerate them.

The golden corpus is a small generated corpus plus hand-written rows that
reach the edge cases of every indicator: a skewed journal, unclassified
papers, a journal with only unclassified papers, a journal without
publications, a journal that falls to the bootstrap's sentinel rank, a
review-only cell, a sole-publisher cell and an all-uncited cell.
``tests/test_golden.py`` reruns the commands and compares bytes.

Regenerate (only when an output is meant to change, and say why in
CHANGES.md) from the repository root:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

from oracles import corpus_from_rows

from jrank.cli import main
from jrank.corpus import DocumentType, Journal, Publication
from jrank.synth import SyntheticProfile, generate_corpus, write_corpus_files

GOLDEN = Path(__file__).resolve().parent / "golden"

PROFILE = SyntheticProfile(
    n_journals=10,
    n_topics=3,
    pubs_min=8,
    pubs_max=14,
    review_fraction=0.2,
    unclassified_fraction=0.1,
    skewed_journals=1,
)
SEED = 5

A = DocumentType.ARTICLE
R = DocumentType.REVIEW

# (pub_id, journal_id, doc_type, citations, topic_id)
HAND_ROWS = (
    # t90 holds reviews only: the (t90, Article) cell never exists
    ("h01", "j001", R, 3, "t90"),
    ("h02", "j001", R, 1, "t90"),
    ("h03", "j002", R, 2, "t90"),
    # j003 is the sole publisher of (t91, Article): no comparison papers
    ("h04", "j003", A, 5, "t91"),
    ("h05", "j003", A, 0, "t91"),
    # (t92, Article) is all uncited: a pure tie, and a zero cell mean
    ("h06", "j004", A, 0, "t92"),
    ("h07", "j004", A, 0, "t92"),
    ("h08", "j005", A, 0, "t92"),
    # jun only has unclassified papers: rankable on jif alone
    ("h09", "jun", A, 4, None),
    ("h10", "jun", R, 1, None),
    # jrare shares one cell of two: unrankable on fncsi in about a quarter
    # of the bootstrap resamples, which gives it the sentinel rank
    ("h11", "jrare", A, 2, "t93"),
    ("h12", "jrare", A, 1, "t01"),
)
EXTRA_JOURNALS = (
    Journal("jun", "Journal JUN", ("C1",)),
    Journal("jrare", "Journal JRARE", ("C1", "C2")),
    Journal("jempty", "Journal JEMPTY", ("C2",)),
)

_IO = ["--pubs", "corpus/publications.csv", "--journals", "corpus/journals.csv"]

# (output directory, argv without --out); paths are relative to GOLDEN
# because the configuration hash in every output covers them
COMMANDS = (
    ("compute", ["compute", *_IO]),
    ("bootstrap", ["bootstrap", *_IO, "--sims", "20", "--seed", "42"]),
    ("flip_test", ["flip-test", *_IO]),
    ("report", ["report", *_IO]),
    ("rank", ["rank", *_IO, "--category", "C1"]),
)


def write_golden_corpus(out_dir: Path) -> None:
    corpus = generate_corpus(PROFILE, seed=SEED)
    hand = [Publication(pid, jid, 2018, doc, cites, topic) for pid, jid, doc, cites, topic in HAND_ROWS]
    journals = dict(corpus.journals)
    journals.update((j.journal_id, j) for j in EXTRA_JOURNALS)
    grown = corpus_from_rows(corpus.publications + tuple(hand), journals)
    write_corpus_files(grown, out_dir)


@contextlib.contextmanager
def _working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_commands(out_root: Path) -> None:
    """Run every golden command into ``out_root/<name>``, stdout into ``stdout.txt``.

    The output directory is written ``<out>`` in ``stdout.txt``.
    """
    with _working_directory(GOLDEN):
        for name, argv in COMMANDS:
            out_dir = out_root / name
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = main([*argv, "--out", str(out_dir)])
            if code != 0:
                raise RuntimeError(f"{name} exited {code}")
            # report prints the paths it wrote; keep them independent of out_root
            stdout = captured.getvalue().replace(str(out_dir), "<out>")
            (out_dir / "stdout.txt").write_text(stdout, encoding="utf-8")


if __name__ == "__main__":
    write_golden_corpus(GOLDEN / "corpus")
    run_commands(GOLDEN)
