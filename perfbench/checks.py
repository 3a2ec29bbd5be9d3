"""Output checks: every command's files are read back and compared with the inputs.

Indicator values are compared with the brute-force oracles in the checkout's
``tests/oracles.py``, imported read-only.  Rankability and the classified
table are checked against the in-memory corpus that the inputs were written
from.  Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import re
from pathlib import Path
from types import ModuleType
from typing import Any

INDICATOR_COLUMNS = ("fncsi", "fnif", "expected_jif", "jif")
ORACLE_TOL = 1e-12
UNRANKABLE = "unrankable"


def load_oracles(root: Path) -> ModuleType:
    """Import ``tests/oracles.py`` of the checkout under test, without copying it."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a jrank output table, skipping ``#`` meta lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise ValueError(f"{path.name}: no header")
    return rows[0], rows[1:]


def _value(text: str) -> float | None:
    return None if text == UNRANKABLE else float(text)


def oracle_values(oracles: ModuleType, corpus: Any, journal_ids: list[str]) -> dict[str, tuple]:
    """(fncsi, fnif, expected_jif, jif) per journal, by brute force."""
    return {
        j: (
            oracles.brute_fncsi(corpus, j),
            oracles.brute_fnif(corpus, j),
            oracles.brute_expected_jif(corpus, j),
            oracles.brute_jif(corpus, j),
        )
        for j in journal_ids
    }


def _close(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is want
    return math.isfinite(got) and abs(got - want) <= ORACLE_TOL


def check_indicators(path: Path, journal_ids: list[str], expected: dict[str, tuple]) -> list[str]:
    """One row per journal, and the sampled journals' four values match the oracle."""
    try:
        header, rows = read_table(path)
        index = {name: header.index(name) for name in ("journal_id", *INDICATOR_COLUMNS)}
        by_id: dict[str, list[str]] = {}
        for row in rows:
            by_id.setdefault(row[index["journal_id"]], []).append(row)
        problems = []
        if sorted(by_id) != sorted(journal_ids) or len(rows) != len(journal_ids):
            problems.append(
                f"{path.name}: {len(rows)} rows for {len(by_id)} journal ids, "
                f"expected one row for each of {len(journal_ids)} journals"
            )
        for journal_id, want in expected.items():
            row = by_id.get(journal_id, [None])[0]
            if row is None:
                continue
            got = tuple(_value(row[index[c]]) for c in INDICATOR_COLUMNS)
            for column, g, w in zip(INDICATOR_COLUMNS, got, want):
                if not _close(g, w):
                    problems.append(f"{path.name}: {journal_id} {column} = {g}, oracle {w}")
        return problems
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable: {exc}"]


def rankable(corpus: Any) -> dict[str, set[str]]:
    """Journals with a defined fncsi and fnif on the corpus.

    fnif needs one classified publication; fncsi needs one cell that the
    journal shares with another journal.
    """
    cells: dict[tuple, set[str]] = {}
    for p in corpus.publications:
        if p.topic_id is not None:
            cells.setdefault((p.topic_id, p.doc_type), set()).add(p.journal_id)
    fnif = set().union(*cells.values()) if cells else set()
    fncsi = set().union(*(js for js in cells.values() if len(js) > 1)) if cells else set()
    return {"fncsi": fncsi, "fnif": fnif}


def check_bootstrap(json_path: Path, csv_path: Path, journals: set[str], sims: int) -> list[str]:
    """Both tables cover exactly the rankable journals, min <= q1 <= median <= q3 <= max <= sentinel."""
    try:
        report = json.loads(json_path.read_text(encoding="utf-8"))
        header, rows = read_table(csv_path)
        problems = []
        sentinel = report["sentinel_rank"]
        if sentinel != len(journals) + 1:
            problems.append(f"{json_path.name}: sentinel rank {sentinel}, expected {len(journals) + 1}")
        if report["simulations"] != sims:
            problems.append(f"{json_path.name}: {report['simulations']} simulations, expected {sims}")
        from_json = {
            j: (s["min"], s["q1"], s["median"], s["q3"], s["max"]) for j, s in report["per_journal"].items()
        }
        from_csv = {row[0]: tuple(float(v) for v in row[1:6]) for row in rows}
        if header[:6] != ["journal_id", "min_rank", "q1", "median", "q3", "max_rank"]:
            problems.append(f"{csv_path.name}: unexpected header {header}")
        for name, table in ((json_path.name, from_json), (csv_path.name, from_csv)):
            if set(table) != journals:
                problems.append(f"{name}: covers {len(table)} journals, expected the {len(journals)} rankable")
            for journal_id, summary in table.items():
                if list(summary) != sorted(summary) or summary[0] < 1 or summary[-1] > sentinel:
                    problems.append(f"{name}: {journal_id} has summary {summary} (sentinel {sentinel})")
        if len(rows) != len(from_csv):
            problems.append(f"{csv_path.name}: duplicate journal rows")
        if from_csv != {j: tuple(float(v) for v in s) for j, s in from_json.items()}:
            problems.append(f"{csv_path.name}: disagrees with {json_path.name}")
        return problems
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{json_path.name}/{csv_path.name}: unreadable: {exc}"]


def check_flip(path: Path, journals: set[str]) -> list[str]:
    """The original ranks are exactly 1..n over the rankable journals."""
    try:
        _, rows = read_table(path)
        original = {row[0]: int(row[1]) for row in rows if row[1] != UNRANKABLE}
        problems = []
        if set(original) != journals or sorted(original.values()) != list(range(1, len(journals) + 1)):
            problems.append(f"{path.name}: original ranks do not cover the {len(journals)} rankable journals")
        return problems
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable: {exc}"]


_CLASSIFY_LINE = re.compile(r"still unclassified: (\d+)")


def check_classified(path: Path, corpus: Any, stdout: str) -> list[str]:
    """Every pub_id kept, every classified row unchanged, unclassified count as printed."""
    match = _CLASSIFY_LINE.search(stdout)
    if match is None:
        return ["classify printed no unclassified count"]
    try:
        header, rows = read_table(path)
        columns = {name: header.index(name) for name in header}
        by_id = {row[columns["pub_id"]]: row for row in rows}
        problems = []
        if len(by_id) != len(rows) or len(rows) != len(corpus.publications):
            problems.append(f"{path.name}: {len(rows)} rows, expected {len(corpus.publications)}")
        for p in corpus.publications:
            row = by_id.get(p.pub_id)
            if row is None:
                problems.append(f"{path.name}: {p.pub_id} missing")
                break
            kept = [p.pub_id, p.journal_id, str(p.pub_year), p.doc_type.value, str(p.citations)]
            got = [row[columns[c]] for c in ("pub_id", "journal_id", "pub_year", "doc_type", "citations")]
            topic = row[columns["topic_id"]]
            if got != kept or (p.topic_id is not None and topic != p.topic_id):
                problems.append(f"{path.name}: row {p.pub_id} changed: {row}")
                break
        unclassified = sum(1 for row in rows if not row[columns["topic_id"]])
        if unclassified != int(match.group(1)):
            problems.append(f"{path.name}: {unclassified} unclassified rows, classify printed {match.group(1)}")
        return problems
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{path.name}: unreadable: {exc}"]


_VALIDATE_LINE = re.compile(r"publications: (\d+)")


def check_validate(stdout: str, n_publications: int) -> list[str]:
    match = _VALIDATE_LINE.search(stdout)
    if match is None or int(match.group(1)) != n_publications:
        return [f"validate reported {match and match.group(1)} publications, expected {n_publications}"]
    return []
