"""The benchmark's workloads: inputs made from the seed, the commands of one pass, their checks.

Inputs come from jrank's own generator (``generate_corpus`` and
``write_corpus_files``, the code behind ``jrank generate``) plus the related-records
writer below.  The commands see only the written files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

import numpy as np
from jrank import SyntheticProfile, generate_corpus, write_corpus_files
from jrank.synth import SKEWED_PREFIX

import checks
from spans import Recorder

RELATED_PER_PUBLICATION = 10
EXTERNAL_SHARE = 0.1
ORACLE_SAMPLE = 5  # ordinary journals checked against the oracle, besides every skewed one
BOOTSTRAP_SIMS = 20


@dataclass
class Inputs:
    """The files one set-up wrote, the corpus they hold, and what the checks expect."""

    directory: Path
    corpus: Any
    seed: int
    related_ids: int = 0
    external_ids: int = 0
    expected: dict[str, Any] = field(default_factory=dict)

    @property
    def pubs(self) -> str:
        return str(self.directory / "publications.csv")

    @property
    def journals(self) -> str:
        return str(self.directory / "journals.csv")

    @property
    def related(self) -> str:
        return str(self.directory / "related.csv")

    def properties(self) -> dict[str, float]:
        pubs = self.corpus.publications
        classified = [p for p in pubs if p.topic_id is not None]
        return {
            "publications": len(pubs),
            "journals": len(self.corpus.journals),
            "cells": len({(p.topic_id, p.doc_type) for p in classified}),
            "journal_cells": len({(p.journal_id, p.topic_id, p.doc_type) for p in classified}),
            "unclassified_share": round(1 - len(classified) / len(pubs), 4),
            "related_ids": self.related_ids,
            "external_share": round(self.external_ids / self.related_ids, 4) if self.related_ids else 0.0,
        }


@dataclass(frozen=True)
class Command:
    """One jrank invocation and the check of its output (stdout -> problems)."""

    argv: list[str]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: dict[str, Any]
    commands: Callable[[Inputs, Path], list[Command]]
    expect: Callable[[Inputs, ModuleType], dict[str, Any]]
    related: bool = False


def write_related(corpus: Any, path: Path, seed: int) -> tuple[int, int]:
    """Related records for every unclassified publication; returns (ids, external ids).

    Each lists ``RELATED_PER_PUBLICATION`` ids of other publications, about
    ``EXTERNAL_SHARE`` of them outside the corpus, which ``classify`` must
    ignore and count.
    """
    rng = np.random.default_rng([seed, 1])
    pubs = corpus.publications
    subjects = np.array([i for i, p in enumerate(pubs) if p.topic_id is None], dtype=np.int64)
    picks = rng.integers(0, len(pubs) - 1, size=(len(subjects), RELATED_PER_PUBLICATION))
    picks += picks >= subjects[:, None]  # never the subject itself
    external = rng.random(picks.shape) < EXTERNAL_SHARE
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("pub_id,related_ids\n")
        for row, subject in enumerate(subjects.tolist()):
            related = [
                f"x{row:06d}.{k}" if ext else pubs[i].pub_id
                for k, (i, ext) in enumerate(zip(picks[row].tolist(), external[row].tolist()))
            ]
            fh.write(f"{pubs[subject].pub_id},{'|'.join(related)}\n")
    return int(picks.size), int(external.sum())


def set_up(workload: Workload, seed: int, directory: Path, recorder: Recorder) -> Inputs:
    """Generate and write the workload's input files."""
    profile = SyntheticProfile(**workload.profile)
    with recorder.span("synth.generate_corpus"):
        corpus = generate_corpus(profile, seed=seed)
    with recorder.span("synth.write_corpus_files"):
        write_corpus_files(corpus, directory)
    inputs = Inputs(directory, corpus, seed)
    if workload.related:
        with recorder.span("perfbench.write_related"):
            inputs.related_ids, inputs.external_ids = write_related(corpus, Path(inputs.related), seed)
    return inputs


def _io(inputs: Inputs, out: Path) -> list[str]:
    return ["--pubs", inputs.pubs, "--journals", inputs.journals, "--out", str(out)]


# --- census: the yearly indicator tables --------------------------------------


def _census_expect(inputs: Inputs, oracles: ModuleType) -> dict[str, Any]:
    ids = sorted(inputs.corpus.journals)
    skewed = [j for j in ids if j.startswith(SKEWED_PREFIX)]
    ordinary = [j for j in ids if not j.startswith(SKEWED_PREFIX)]
    sample = skewed + random.Random(inputs.seed).sample(ordinary, ORACLE_SAMPLE)
    return {"journal_ids": ids, "oracle": checks.oracle_values(oracles, inputs.corpus, sample)}


def _census_commands(inputs: Inputs, out: Path) -> list[Command]:
    n = len(inputs.corpus.publications)
    expected = inputs.expected
    return [
        Command(["validate", *_io(inputs, out)], lambda stdout: checks.check_validate(stdout, n)),
        Command(
            ["compute", *_io(inputs, out)],
            lambda stdout: checks.check_indicators(
                out / "indicators.csv", expected["journal_ids"], expected["oracle"]
            ),
        ),
    ]


# --- robustness: bootstrap and flip test ---------------------------------------

ROBUSTNESS_INDICATORS = ("fncsi", "fnif")


def _robustness_expect(inputs: Inputs, oracles: ModuleType) -> dict[str, Any]:
    return {"rankable": checks.rankable(inputs.corpus)}


def _robustness_commands(inputs: Inputs, out: Path) -> list[Command]:
    rankable = inputs.expected["rankable"]
    indicator_flags = [flag for key in ROBUSTNESS_INDICATORS for flag in ("--indicator", key)]

    def bootstrap_ok(stdout: str) -> list[str]:
        return [
            problem
            for key in ROBUSTNESS_INDICATORS
            for problem in checks.check_bootstrap(
                out / f"robustness_{key}.json", out / f"quartiles_{key}.csv", rankable[key], BOOTSTRAP_SIMS
            )
        ]

    def flip_ok(stdout: str) -> list[str]:
        return [p for key in ROBUSTNESS_INDICATORS for p in checks.check_flip(out / f"flip_{key}.csv", rankable[key])]

    return [
        Command(
            ["bootstrap", *_io(inputs, out), *indicator_flags,
             "--sims", str(BOOTSTRAP_SIMS), "--seed", str(inputs.seed)],
            bootstrap_ok,
        ),
        Command(["flip-test", *_io(inputs, out), *indicator_flags], flip_ok),
    ]


# --- classify: topic assignment by related records -----------------------------


def _classify_commands(inputs: Inputs, out: Path) -> list[Command]:
    n = len(inputs.corpus.publications)
    classified = out / "publications_classified.csv"
    return [
        Command(
            ["classify", *_io(inputs, out), "--related", inputs.related],
            lambda stdout: checks.check_classified(classified, inputs.corpus, stdout),
        ),
        Command(
            ["validate", "--pubs", str(classified), "--journals", inputs.journals, "--out", str(out)],
            lambda stdout: checks.check_validate(stdout, n),
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="census",
            why="yearly ranking run (validate, compute) on ~151k publications: ingest, compute_all and "
            "output encoding; no robustness work",
            profile=dict(n_journals=1500, n_topics=150, pubs_min=50, pubs_max=150, skewed_journals=3),
            commands=_census_commands,
            expect=_census_expect,
        ),
        Workload(
            name="robustness",
            why="bootstrap (20 sims) and flip test on ~30k publications: per-simulation rebuild and "
            "indicator kernels dominate, ingest is a small share",
            profile=dict(n_journals=300, n_topics=50, pubs_min=50, pubs_max=150, skewed_journals=3),
            commands=_robustness_commands,
            expect=_robustness_expect,
        ),
        Workload(
            name="classify",
            why="classify then validate on ~200k publications, 30% unclassified: corpus reads and writes "
            "and the classifier; no indicator or robustness work",
            profile=dict(n_journals=2000, n_topics=100, pubs_min=50, pubs_max=150, unclassified_fraction=0.3),
            commands=_classify_commands,
            expect=lambda inputs, oracles: {},
            related=True,
        ),
    )
}
