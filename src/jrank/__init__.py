"""Field-normalized journal impact indicators and ranking-robustness analysis.

The package computes four journal indicators over a publication corpus
partitioned into fine-grained topic clusters (fncsi, fnif, expected_jif,
jif), turns them into deterministic rankings, and quantifies how stable those
rankings are under bootstrap resampling and document-type mislabeling.

Each public name is imported from its submodule on first use, so ``import
jrank`` alone loads no submodule and no numpy: the command line
(:mod:`jrank.cli`) can then set up the environment numpy reads at load.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "AssignmentReport": "classifier",
    "assign_majority": "classifier",
    "read_related": "classifier",
    "Corpus": "corpus",
    "CoverageReport": "corpus",
    "DocumentType": "corpus",
    "Journal": "corpus",
    "Publication": "corpus",
    "SchemaError": "corpus",
    "coverage_stats": "corpus",
    "load_journals": "corpus",
    "load_publications": "corpus",
    "validate_corpus": "corpus",
    "write_journals": "corpus",
    "write_publications": "corpus",
    "INDICATOR_KEYS": "indicators",
    "RankKernel": "indicators",
    "Scores": "indicators",
    "compute_all": "indicators",
    "rank": "ranking",
    "bootstrap_rankings": "robustness",
    "bootstrap_report": "robustness",
    "perturbation_comparison": "robustness",
    "relative_change": "robustness",
    "SyntheticProfile": "synth",
    "generate_corpus": "synth",
    "write_corpus_files": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
