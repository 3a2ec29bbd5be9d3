"""The package's public names."""

from __future__ import annotations

import jrank
import jrank.cli
import jrank.robustness


def test_every_exported_name_resolves_and_appears_once():
    assert len(jrank.__all__) == len(set(jrank.__all__))
    assert [name for name in jrank.__all__ if not hasattr(jrank, name)] == []


def test_the_benchmark_trace_sites_are_still_bound():
    # the benchmark times each layer by rebinding these names; a rename would silently zero its metric
    sites = {
        jrank.cli: ("load_publications", "load_journals", "validate_corpus", "coverage_stats", "write_publications",
                    "assign_majority", "compute_all", "rank", "bootstrap_report", "perturbation_comparison"),
        jrank.robustness: ("bootstrap_rankings",),
    }
    assert [(module.__name__, name) for module, names in sites.items() for name in names
            if not callable(getattr(module, name, None))] == []
