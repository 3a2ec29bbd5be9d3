"""In-memory spans around jrank's public functions, and the per-layer metrics.

Spans come only from this benchmark: :func:`installed` rebinds each public
function in the module that calls it (``jrank.cli``, ``jrank.robustness``,
``jrank.ranking``, ``jrank.indicators``) to a recorder and restores the
original on exit.  Nothing under ``src/`` is edited.  A function that a later
version of jrank no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

Counts = Callable[[tuple, dict, Any], dict[str, float]]


def _rows(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    loaded = getattr(result, "publications", None)
    if loaded is None:
        loaded = getattr(result, "journals", ())
    return {"rows": len(loaded), "row_errors": len(getattr(result, "errors", ()))}


def _assigned(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    corpus = args[0] if args else kwargs["corpus"]
    before = sum(1 for p in corpus.publications if p.topic_id is None)
    return {"assigned": result[1].assigned, "unclassified_before": before}


def _sims(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"sims": getattr(result, "simulations", 0)}


def _sentinels(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Journal-simulations at the sentinel rank (tracked journals + 1)."""
    if not isinstance(result, Mapping):
        return {}
    sentinel = len(result) + 1
    ranks = [r for samples in result.values() for r in getattr(samples, "rankings", ())]
    return {"journal_sims": len(ranks), "at_sentinel": sum(1 for r in ranks if r == sentinel)}


# (module that calls the function, attribute, span name, counts at the boundary)
SITES: tuple[tuple[str, str, str, Counts | None], ...] = (
    ("jrank.cli", "load_publications", "corpus.load_publications", _rows),
    ("jrank.cli", "load_journals", "corpus.load_journals", _rows),
    ("jrank.cli", "validate_corpus", "corpus.validate_corpus", None),
    ("jrank.cli", "coverage_stats", "corpus.coverage_stats", None),
    ("jrank.cli", "write_publications", "corpus.write_publications", None),
    ("jrank.cli", "load_related", "classifier.load_related", None),
    ("jrank.cli", "assign_majority", "classifier.assign_majority", _assigned),
    ("jrank.cli", "compute_all", "indicators.compute_all", None),
    ("jrank.cli", "rank", "ranking.rank", None),
    ("jrank.cli", "bootstrap_report", "robustness.bootstrap_report", _sims),
    ("jrank.cli", "perturbation_comparison", "robustness.perturbation_comparison", None),
    ("jrank.robustness", "bootstrap_rankings", "robustness.bootstrap_rankings", _sentinels),
    ("jrank.robustness", "indicator_values", "indicators.indicator_values", None),
    ("jrank.robustness", "order_journals", "ranking.order_journals", None),
    ("jrank.ranking", "order_journals", "ranking.order_journals", None),
    ("jrank.indicators", "build_cells", "indicators.build_cells", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    group: str = ""
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; ``group`` names the pass or set-up they belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.group = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, group=self.group))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, counts: Counts | None) -> Callable:
        def recorded(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                self.spans[index].counts = counts(args, kwargs, result)
            return result

        return recorded


@contextmanager
def installed(recorder: Recorder) -> Iterator[list[str]]:
    """Rebind every site to a recorder; yields the sites that are missing."""
    saved: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for module_name, attr, name, counts in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, counts))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def pass_metrics(recorder: Recorder, group: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass; self time is a span minus its children."""
    total: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    counts: defaultdict[str, float] = defaultdict(float)
    children: defaultdict[int, float] = defaultdict(float)
    spans = [(i, s) for i, s in enumerate(recorder.spans) if s.group == group]
    for _, s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    for i, s in spans:
        duration = s.end - s.start
        total[s.name] += duration
        self_s[s.name] += duration - children[i]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[key] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    load_s = total["corpus.load_publications"] + total["corpus.load_journals"]
    return {
        "corpus.load_s": load_s,
        "corpus.load_calls": calls["corpus.load_publications"] + calls["corpus.load_journals"],
        "corpus.rows_per_s": ratio(counts["rows"], load_s),
        "corpus.row_errors": counts["row_errors"],
        "corpus.validate_s": total["corpus.validate_corpus"] + total["corpus.coverage_stats"],
        "corpus.write_s": total["corpus.write_publications"],
        "classifier.load_related_s": total["classifier.load_related"],
        "classifier.assign_s": total["classifier.assign_majority"],
        "classifier.assigned_frac": ratio(counts["assigned"], counts["unclassified_before"]),
        "indicators.compute_all_s": total["indicators.compute_all"],
        "indicators.values_s": total["indicators.indicator_values"],
        "indicators.values_calls": calls["indicators.indicator_values"],
        "indicators.cells_s": total["indicators.build_cells"],
        "ranking.rank_s": total["ranking.rank"],
        "ranking.order_s": total["ranking.order_journals"],
        "robustness.bootstrap_s": total["robustness.bootstrap_report"],
        "robustness.sim_s": ratio(total["robustness.bootstrap_report"], counts["sims"]),
        "robustness.resample_self_s": self_s["robustness.bootstrap_rankings"],
        "robustness.flip_s": total["robustness.perturbation_comparison"],
        "robustness.sentinel_frac": ratio(counts["at_sentinel"], counts["journal_sims"]),
        "robustness.share": ratio(
            total["robustness.bootstrap_report"] + total["robustness.perturbation_comparison"],
            total["cli.main"],
        ),
        "cli.self_s": self_s["cli.main"],
    }
