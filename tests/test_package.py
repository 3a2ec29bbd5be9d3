"""The package's public names."""

from __future__ import annotations

import ast
import importlib.util
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from conftest import A, R, pub, run_child
from oracles import random_corpus, reference_generate_corpus, reference_load_publications

import jrank
import jrank.cli
import jrank.robustness
from jrank.corpus import Journal, load_publications
from jrank.synth import SyntheticProfile, generate_corpus, write_corpus_files


def test_every_exported_name_resolves_and_appears_once():
    assert len(jrank.__all__) == len(set(jrank.__all__))
    assert [name for name in jrank.__all__ if not hasattr(jrank, name)] == []


def test_importing_the_package_loads_no_numpy_and_leaves_the_environment_alone():
    # the command line's OpenBLAS default must not reach a library user's process, or its children
    script = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import jrank\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        "from jrank import *\n"
        "print(sorted(set(jrank.__all__) - set(globals())))\n"
        "import jrank.cli\n"  # numpy is loaded by now: too late for the default to take effect
        "print('OPENBLAS_NUM_THREADS' in os.environ)\n"
    )
    assert run_child(script) == ["False True", "[]", "False"]


def test_every_module_parses_under_the_declared_python_floor():
    """Every module of the package parses with the grammar of Python 3.10, the floor ``requires-python`` declares.

    This checks grammar only: a call to a library function added in 3.11 would pass.
    """
    for path in sorted(Path(jrank.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def _blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every ``@``, call of a BLAS-backed numpy function, and use of ``linalg`` in ``tree``."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in _BLAS_CALLS:
            uses.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            uses.extend((node.lineno, name) for name in names if "linalg" in name.split("."))
        elif "linalg" in (getattr(node, "attr", None), getattr(node, "id", None)):
            uses.append((node.lineno, ast.unparse(node)))
    return uses


def test_the_package_makes_no_blas_call():
    """No module calls into BLAS, the premise of the command line's one-thread OpenBLAS default.

    A BLAS call added later would run on one thread under ``jrank``; it must come with a look at that default.
    """
    found = [(path.name, *use) for path in sorted(Path(jrank.__file__).parent.glob("*.py"))
             for use in _blas_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


@pytest.mark.parametrize("source", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "vdot(a, b)", "np.inner(a, b)", "np.matmul(a, b)",
    "np.tensordot(a, b)", "np.einsum('i,i', a, b)", "np.linalg.norm(a)", "from numpy.linalg import norm",
    "from numpy import linalg", "import numpy.linalg", "la = np.linalg",
])
def test_the_blas_scan_sees_each_form(source):
    assert len(_blas_uses(ast.parse(source))) == 1


def test_analyses_return_plain_rows(tmp_path):
    # the writers name the columns; an analysis hands back tuples and arrays, no record type
    corpus = random_corpus(np.random.default_rng(26), max_journals=6, max_pubs=80, max_topics=2, unclassified_p=0.1)
    keys = jrank.INDICATOR_KEYS
    scores = jrank.compute_all(corpus)
    rows = [row for key in keys for row in jrank.rank(scores, key)]
    for summaries, _ in jrank.bootstrap_report(corpus, keys, sims=3, seed=1).values():
        rows.extend(summaries)
    rows.extend(row for flips in jrank.perturbation_comparison(corpus, keys).values() for row in flips)
    assert rows and [type(row) for row in rows if type(row) is not tuple] == []
    samples = jrank.bootstrap_rankings(corpus, keys, sims=3, seed=1)
    assert [type(value) for value in samples.values()] == [tuple] * len(keys)
    # related records come as blocks of two plain columns: subject ids, and a tuple of related ids per subject
    related = tmp_path / "related.csv"
    related.write_text("pub_id,related_ids\nu1,a1|a2\nu2,\nu3,a1\n", encoding="utf-8")
    blocks = list(jrank.read_related(related, []))
    assert [type(block) for block in blocks] == [tuple] and [type(column) for column in blocks[0]] == [list, list]
    assert blocks == [(["u1", "u3"], [("a1", "a2"), ("a1",)])]
    assert {type(value) for subjects, lists in blocks for value in (*subjects, *lists)} == {str, tuple}


def test_the_benchmark_trace_sites_are_still_bound():
    # the benchmark times each layer by rebinding these names; a rename would silently zero its metric
    sites = {
        jrank.cli: ("load_publications", "load_journals", "validate_corpus", "coverage_stats", "write_publications",
                    "assign_majority", "compute_all", "rank", "bootstrap_report", "perturbation_comparison"),
        jrank.robustness: ("bootstrap_rankings",),
    }
    assert [(module.__name__, name) for module, names in sites.items() for name in names
            if not callable(getattr(module, name, None))] == []


def test_the_oracles_load_by_path_as_the_benchmark_loads_them():
    # perfbench/checks.py execs tests/oracles.py from its path without registering it in sys.modules,
    # where a dataclass defined in the module fails to build
    spec = importlib.util.spec_from_file_location("oracles_by_path", Path(__file__).with_name("oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    assert "oracles_by_path" not in sys.modules
    rows = (pub("a1", "jA", 3, "t1"), pub("a2", "jA", 1, "t1"), pub("b1", "jB", 1, "t1"))
    corpus = oracles.corpus_from_rows(rows, {"jA": Journal("jA"), "jB": Journal("jB")})
    assert corpus.publications == rows and corpus.topics == ("t1",)
    assert oracles.brute_fncsi(corpus, "jA") == 0.75
    flipped = oracles.flip_doc_type(corpus)
    assert [p.doc_type for p in flipped.publications] == [R, A, R]
    assert oracles.brute_fncsi(flipped, "jA") == 1.0  # a1 now beats b1 among reviews; a2 is its cell's sole paper


def test_the_rows_the_benchmark_reads_match_the_references(tmp_path):
    # perfbench reads these fields of generate_corpus(...).publications and counts load_publications(path).publications
    profile = SyntheticProfile(n_journals=30, n_topics=7, pubs_min=5, pubs_max=20, unclassified_fraction=0.3,
                               skewed_journals=2)
    fields = attrgetter("pub_id", "journal_id", "pub_year", "doc_type.value", "citations", "topic_id")
    generated = generate_corpus(profile, seed=3)
    rows = list(map(fields, generated.publications))
    assert rows == list(map(fields, reference_generate_corpus(profile, seed=3).publications))
    types = {tuple(map(type, row)) for row in rows}
    assert types == {(str, str, int, str, int, str), (str, str, int, str, int, type(None))}
    pubs_path, _ = write_corpus_files(generated, tmp_path)
    assert len(load_publications(pubs_path).publications) == len(reference_load_publications(pubs_path).publications)
    assert len(load_publications(pubs_path).publications) == len(rows)
