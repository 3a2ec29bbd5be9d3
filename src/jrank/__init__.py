"""Field-normalized journal impact indicators and ranking-robustness analysis.

The package computes four journal indicators over a publication corpus
partitioned into fine-grained topic clusters (fncsi, fnif, expected_jif,
jif), turns them into deterministic rankings, and quantifies how stable those
rankings are under bootstrap resampling and document-type mislabeling.
"""

from .classifier import AssignmentReport, RelatedRecords, assign_majority, read_related
from .corpus import (
    Corpus,
    CoverageReport,
    DocumentType,
    Journal,
    Publication,
    SchemaError,
    coverage_stats,
    load_journals,
    load_publications,
    validate_corpus,
    write_journals,
    write_publications,
)
from .indicators import INDICATOR_KEYS, RankKernel, Scores, compute_all
from .ranking import rank
from .robustness import bootstrap_rankings, bootstrap_report, perturbation_comparison, relative_change
from .synth import SyntheticProfile, generate_corpus, write_corpus_files

__version__ = "0.1.0"

__all__ = [
    "AssignmentReport",
    "Corpus",
    "CoverageReport",
    "DocumentType",
    "INDICATOR_KEYS",
    "Journal",
    "Publication",
    "RankKernel",
    "RelatedRecords",
    "SchemaError",
    "Scores",
    "SyntheticProfile",
    "assign_majority",
    "bootstrap_rankings",
    "bootstrap_report",
    "compute_all",
    "coverage_stats",
    "generate_corpus",
    "load_journals",
    "load_publications",
    "perturbation_comparison",
    "rank",
    "read_related",
    "relative_change",
    "validate_corpus",
    "write_corpus_files",
    "write_journals",
    "write_publications",
]
