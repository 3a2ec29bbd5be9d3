"""Tests of the benchmark itself: output checks, spans, child accounting, exit on a bare tree.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import dataclasses
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import jrank
import jrank.cli
import run
from spans import Recorder, installed
from workloads import WORKLOADS, set_up

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "census": dict(n_journals=12, n_topics=3, pubs_min=20, pubs_max=30, skewed_journals=1),
    "robustness": dict(n_journals=10, n_topics=3, pubs_min=20, pubs_max=30, skewed_journals=1),
    "classify": dict(n_journals=10, n_topics=3, pubs_min=20, pubs_max=30, unclassified_fraction=0.3),
}


def tiny_inputs(name: str, directory: Path, seed: int = 7):
    workload = dataclasses.replace(WORKLOADS[name], profile=TINY[name])
    inputs = set_up(workload, seed, directory / "inputs", Recorder())
    inputs.expected = workload.expect(inputs, checks.load_oracles(ROOT))
    return inputs, workload.commands(inputs, directory / "out")


def run_pass(commands, recorder: Recorder | None = None) -> list[list[str]]:
    """Problems of each command of one in-process pass, traced when a recorder is given."""
    results = run.in_process_pass(jrank.cli, commands, recorder)
    return [command.check(stdout) if code == 0 else [f"exit code {code}"]
            for command, (code, stdout) in zip(commands, results)]


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    directory = tmp_path_factory.mktemp("census")
    inputs, commands = tiny_inputs("census", directory)
    assert run_pass(commands) == [[], []]
    return inputs, directory / "out" / "indicators.csv"


def rewrite_rows(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    rows = [rows[0], *edit(rows[1:])]
    path.write_text("".join(meta) + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def test_indicator_check_accepts_the_program_output(census):
    inputs, table = census
    assert checks.check_indicators(table, inputs.expected["journal_ids"], inputs.expected["oracle"]) == []


def test_indicator_check_rejects_a_perturbed_value(census, tmp_path):
    inputs, table = census
    sampled = sorted(inputs.expected["oracle"])[0]
    perturbed = tmp_path / "indicators.csv"
    shutil.copy(table, perturbed)

    def nudge(rows):
        return [[r[0], repr(float(r[1]) + 1e-9), *r[2:]] if r[0] == sampled else r for r in rows]

    rewrite_rows(perturbed, nudge)
    problems = checks.check_indicators(perturbed, inputs.expected["journal_ids"], inputs.expected["oracle"])
    assert problems and sampled in problems[0] and "fncsi" in problems[0]


def test_indicator_check_rejects_a_missing_journal_row(census, tmp_path):
    inputs, table = census
    unsampled = next(j for j in inputs.expected["journal_ids"] if j not in inputs.expected["oracle"])
    truncated = tmp_path / "indicators.csv"
    shutil.copy(table, truncated)
    rewrite_rows(truncated, lambda rows: [r for r in rows if r[0] != unsampled])
    assert checks.check_indicators(truncated, inputs.expected["journal_ids"], inputs.expected["oracle"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_two_traced_passes_give_the_same_spans(name, tmp_path):
    inputs, commands = tiny_inputs(name, tmp_path)
    recorder = Recorder()
    seen = []
    for group in ("first", "second"):
        recorder.group = group
        with installed(recorder) as missing:
            assert missing == []
            assert all(p == [] for p in run_pass(commands, recorder))
        spans = [s for s in recorder.spans if s.group == group]
        seen.append((Counter(s.name for s in spans), [s.counts for s in spans]))
    assert seen[0] == seen[1]

    names = set(seen[0][0])
    assert any(n.startswith("robustness.") for n in names) == (name == "robustness")
    assert any(n.startswith("indicators.") for n in names) == (name != "classify")
    assert jrank.cli.compute_all is jrank.indicators.compute_all  # originals restored


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"\x01" * len(range(0, len(ballast), 4096))  # make the pages resident
    with run.Spawner() as spawner:
        child = spawner.run([sys.executable, "-c", "pass"], tmp_path / "child", timeout=60)
    assert child.returncode == 0
    assert child.maxrss_mb < 100


def test_exits_nonzero_without_a_jrank_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
