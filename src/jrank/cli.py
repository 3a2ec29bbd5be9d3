"""Command-line front end.

Subcommands: validate, classify, compute, rank, bootstrap, flip-test,
generate, report.  Each subcommand takes only the flags it reads, and a JSON
config file (``--config``) may set any of them; explicit flags override the
file.  Outputs are deterministic: rerunning a command with identical inputs
and seed produces byte-identical files, and every output records the tool
version, the seed, and a hash of the resolved configuration so results can be
audited later.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import __version__
from .classifier import AssignmentReport, assign_majority, load_related
from .corpus import (
    Corpus,
    RowError,
    atomic_write,
    corpus_from_fragments,
    coverage_stats,
    load_journals,
    load_publications,
    validate_corpus,
    write_publications,
    write_table,
)
from .indicators import INDICATOR_KEYS, JournalIndicator, compute_all
from .ranking import RankingTable, rank
from .robustness import bootstrap_report, perturbation_comparison
from .synth import CITATION_DISTRIBUTIONS, SyntheticProfile, generate_corpus, write_corpus_files

# CLI spelling -> library key
_CLI_KEYS = {key.replace("_", "-"): key for key in INDICATOR_KEYS}
_KEY_TO_CLI = {v: k for k, v in _CLI_KEYS.items()}

_json_string = json.encoder.encode_basestring_ascii

_SUMMARY_FIELDS = ("min", "q1", "median", "q3", "max")  # bootstrap JSON names of the RankSummary fields, in order

_PERCENTILE_NOTE = "percentile = 100 * (N - rank + 1) / N within the ranked set; higher is better"

_DEFAULTS: dict[str, Any] = {
    "sims": 100,
    "seed": 42,
    "format": ["csv", "json"],
    "indicator": list(_CLI_KEYS),
    "out": ".",
}


# generate flag -> (SyntheticProfile field, type, help); defaults come from the profile
_GENERATE_FLAGS = {
    "journals-count": ("n_journals", int, "journal count"),
    "topics-count": ("n_topics", int, "topic cluster count"),
    "pubs-min": ("pubs_min", int, "per-journal size range low end"),
    "pubs-max": ("pubs_max", int, "per-journal size range high end"),
    "dist": ("citation_dist", str, "citation family"),
    "sigma": ("lognormal_sigma", float, "lognormal shape parameter"),
    "quality-spread": ("quality_spread", float, "log-scale span of journal quality"),
    "review-fraction": ("review_fraction", float, "review share"),
    "unclassified-fraction": ("unclassified_fraction", float, "unclassified share"),
    "skewed": ("skewed_journals", int, "journals given the outlier profile"),
    "outlier-citations": ("outlier_citations", int, "outlier paper citation count"),
    "outlier-zero-fraction": ("outlier_zero_fraction", float, "outlier journal zero share"),
    "categories-count": ("n_categories", int, "category label count"),
}

# long flag without dashes -> add_argument keywords; an "append" flag is repeatable
_FLAGS: dict[str, dict[str, Any]] = {
    "pubs": {"help": "publications file (csv/tsv)"},
    "journals": {"help": "journals file (csv/tsv)"},
    "related": {"help": "related-records file (csv/tsv)"},
    "out": {"help": "output directory (default: current directory)"},
    "format": {"action": "append", "choices": ("csv", "json"), "help": "output format; repeatable (default: both)"},
    "indicator": {
        "action": "append",
        "choices": tuple(_CLI_KEYS),
        "help": "indicator key; repeatable (default: all four)",
    },
    "category": {"help": "restrict rankings to one journal category label"},
    "sims": {"type": int, "help": "bootstrap simulation count (default: 100)"},
    "seed": {"type": int, "help": "random seed (default: 42)"},
    **{
        flag: {
            "type": kind,
            "choices": CITATION_DISTRIBUTIONS if name == "citation_dist" else None,
            "help": f"{text} (default: {getattr(SyntheticProfile(), name)})",
        }
        for flag, (name, kind, text) in _GENERATE_FLAGS.items()
    },
}


@dataclass
class RunConfig:
    """Resolved settings for one command invocation.

    ``profile`` holds the generate flags; the other commands ignore it.
    """

    command: str
    publications_path: Path | None
    journals_path: Path | None
    related_records_path: Path | None
    indicators: list[str]
    category: str | None
    sims: int
    seed: int
    output_dir: Path
    formats: list[str]
    profile: SyntheticProfile
    config_hash: str

    def validate_inputs(self) -> None:
        """Raise for a usage error; runs before any input file is read or output written."""
        if self.sims < 1:
            raise ValueError("--sims must be >= 1")
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")
        if not self.indicators:
            raise ValueError("at least one --indicator is required")
        if not self.formats:
            raise ValueError("at least one --format is required")
        if self.category is not None and not self.category.strip():
            raise ValueError("--category must not be empty")
        for path in (self.publications_path, self.journals_path, self.related_records_path):
            if path is not None and not path.is_file():
                raise FileNotFoundError(f"input file not found: {path}")
        if self.command == "generate":
            self.profile.validate()
            return
        if self.command == "classify" and self.related_records_path is None:
            raise ValueError("--related is required for classify")
        if self.publications_path is None or self.journals_path is None:
            raise ValueError("--pubs and --journals are required")


def _config_types(flags: Iterable[str]) -> dict[str, type]:
    """Keys a config file may set for a subcommand that reads ``flags``, with the type of their values.

    A repeatable flag has type ``list``: its value is a string or a list of
    strings.
    """
    return {flag: list if _FLAGS[flag].get("action") == "append" else _FLAGS[flag].get("type", str) for flag in flags}


# config value type -> (what it must be, test)
_CONFIG_CHECKS: dict[type, tuple[str, Callable[[Any], bool]]] = {
    list: (
        "a string or a list of strings",
        lambda v: isinstance(v, str) or isinstance(v, list) and all(isinstance(x, str) for x in v),
    ),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _resolve_config(args: argparse.Namespace, config_types: dict[str, type]) -> RunConfig:
    """Merge hard defaults, the optional config file, and explicit flags."""
    file_cfg: dict[str, Any] = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(config_types))
        if unknown:
            raise ValueError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
        for key, value in file_cfg.items():
            expected, accepts = _CONFIG_CHECKS[config_types[key]]
            if not accepts(value):
                raise ValueError(f"config key {key} in {args.config} must be {expected}, not {json.dumps(value)}")

    def pick(name: str) -> Any:
        # explicit flag, else config file, else default; a repeatable flag
        # gives a list in which a repeated value counts once, where first given
        value = getattr(args, name.replace("-", "_"), None)
        if value is None:
            value = file_cfg.get(name, _DEFAULTS.get(name))
        if config_types.get(name) is list:
            value = list(dict.fromkeys([value] if isinstance(value, str) else value))
        return value

    def path(name: str) -> Path | None:
        value = pick(name)
        return Path(value) if value else None

    unknown = [k for k in pick("indicator") if k not in _CLI_KEYS]
    if unknown:
        raise ValueError(f"unknown indicator(s): {', '.join(unknown)}")
    bad_formats = [f for f in pick("format") if f not in ("csv", "json")]
    if bad_formats:
        raise ValueError(f"unknown format(s): {', '.join(bad_formats)}")

    # the hash identifies the computation, not where its files land, so runs
    # into different directories still produce byte-identical outputs; a key
    # the subcommand has no flag for hashes as its default
    hashed = {name: pick(name) for name in ("pubs", "journals", "related", "indicator", "category", "sims", "seed")}
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode("utf-8")).hexdigest()[:12]
    settings = {field: pick(flag) for flag, (field, _, _) in _GENERATE_FLAGS.items()}
    return RunConfig(
        command=args.command,
        publications_path=path("pubs"),
        journals_path=path("journals"),
        related_records_path=path("related"),
        indicators=[_CLI_KEYS[k] for k in pick("indicator")],
        category=pick("category"),
        sims=pick("sims"),
        seed=pick("seed"),
        output_dir=Path(pick("out")),
        formats=pick("format"),
        profile=SyntheticProfile(**{field: value for field, value in settings.items() if value is not None}),
        config_hash=digest,
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _meta(config: RunConfig, notes: Iterable[str] = ()) -> list[str]:
    lines = [
        f"tool: jrank {__version__}",
        f"command: {config.command}",
        f"seed: {config.seed}",
        f"config: sha256:{config.config_hash}",
    ]
    lines.extend(notes)
    return lines


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return "unrankable"
    return str(value)


def _write_csv(path: Path, meta: list[str], header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with atomic_write(path) as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        write_table(fh, header, ([_fmt(v) for v in row] for row in rows))


def _write_json(path: Path, meta: list[str], payload: dict[str, Any]) -> None:
    document = {"meta": meta, **payload}
    with atomic_write(path) as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _json_number(value: float | int | None) -> str:
    """``value`` spelt as ``json.dumps`` spells it (NaN and the infinities included)."""
    if value is None:
        return "null"
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return int.__repr__(value)


def _indicator_record(ind: JournalIndicator) -> str:
    """One journal of ``indicators.json``: an element of the indented, key-sorted ``journals`` list."""
    if ind.topic_breakdown:
        topics = ",\n".join(
            f'        {_json_string(topic)}: {{\n'
            f'          "papers_compared": {_json_number(n)},\n'
            f'          "score": {_json_number(score)}\n'
            f"        }}"
            for topic, (score, n) in sorted(ind.topic_breakdown.items())
        )
        breakdown = f"{{\n{topics}\n      }}"
    else:
        breakdown = "{}"
    return (
        "    {\n"
        f'      "expected_jif": {_json_number(ind.expected_jif)},\n'
        f'      "fncsi": {_json_number(ind.fncsi)},\n'
        f'      "fnif": {_json_number(ind.fnif)},\n'
        f'      "jif": {_json_number(ind.jif)},\n'
        f'      "journal_id": {_json_string(ind.journal_id)},\n'
        f'      "n_pubs": {_json_number(ind.n_pubs)},\n'
        f'      "topic_breakdown": {breakdown}\n'
        "    }"
    )


def _write_indicators_json(path: Path, meta: list[str], indicators: Iterable[JournalIndicator]) -> None:
    """Write ``indicators.json`` one journal record at a time.

    The bytes equal ``json.dumps({"meta": meta, "journals": [...]}, indent=2,
    sort_keys=True) + "\n"`` for the records ``_indicator_record`` spells out,
    without holding the document, its text or its chunks in memory.
    """
    with atomic_write(path) as fh:
        fh.write('{\n  "journals": [')
        empty = True
        for ind in indicators:
            fh.write("\n" if empty else ",\n")
            fh.write(_indicator_record(ind))
            empty = False
        fh.write("],\n" if empty else "\n  ],\n")
        if meta:
            lines = ",\n".join(f"    {_json_string(line)}" for line in meta)
            fh.write(f'  "meta": [\n{lines}\n  ]\n}}\n')
        else:
            fh.write('  "meta": []\n}\n')


def _indicator_rows(indicators: Sequence[JournalIndicator]) -> list[list[Any]]:
    return [
        [ind.journal_id, ind.fncsi, ind.fnif, ind.expected_jif, ind.jif, ind.n_pubs]
        for ind in indicators
    ]


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def _write_ranking(table: RankingTable, config: RunConfig) -> list[Path]:
    suffix = f"_{_slug(table.scope)}" if table.scope else ""
    stem = f"ranking_{table.indicator_name}{suffix}"
    meta = _meta(config, notes=[_PERCENTILE_NOTE])
    written = []
    if "csv" in config.formats:
        path = config.output_dir / f"{stem}.csv"
        _write_csv(path, meta, ("journal_id", "value", "rank", "percentile"), table.rows)
        written.append(path)
    if "json" in config.formats:
        path = config.output_dir / f"{stem}.json"
        _write_json(
            path,
            meta,
            {
                "indicator": table.indicator_name,
                "scope": table.scope,
                "rows": [row._asdict() for row in table.rows],
            },
        )
        written.append(path)
    return written


def _print_row_errors(path: Path, errors: Iterable[RowError]) -> None:
    for err in errors:
        print(f"error: {path}: {err}", file=sys.stderr)


def _load_checked(config: RunConfig) -> tuple[Corpus, bool]:
    """Load and validate the corpus, printing each row error and finding; (corpus, clean).

    Row errors name their source file.
    """
    pubs = load_publications(config.publications_path)
    journals = load_journals(config.journals_path)
    _print_row_errors(config.publications_path, pubs.errors)
    _print_row_errors(config.journals_path, journals.errors)
    corpus = corpus_from_fragments(pubs, journals)
    report = validate_corpus(corpus)
    for finding in report:
        print(f"error: {finding}", file=sys.stderr)
    return corpus, not pubs.errors and not journals.errors and report.ok


def _classified(config: RunConfig, corpus: Corpus) -> tuple[Corpus, AssignmentReport] | None:
    """Assign topics to ``corpus`` from the related records; None, after printing them, if a row is bad."""
    fragment = load_related(config.related_records_path)
    _print_row_errors(config.related_records_path, fragment.errors)
    if fragment.errors:
        return None
    return assign_majority(corpus, fragment.records)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(config: RunConfig) -> int:
    corpus, clean = _load_checked(config)
    coverage = coverage_stats(corpus)
    print(
        f"publications: {coverage.n_publications} ({coverage.n_classified} classified, "
        f"coverage {coverage.publication_coverage:.4f})"
    )
    print(
        f"journals: {coverage.n_journals} with publications, "
        f"{coverage.n_journals_over_90} above 90% assigned "
        f"(coverage {coverage.journal_coverage:.4f})"
    )
    return 0 if clean else 1


def cmd_classify(config: RunConfig) -> int:
    corpus, clean = _load_checked(config)
    classified = _classified(config, corpus) if clean else None
    if classified is None:
        return 1
    assigned_corpus, report = classified
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "publications_classified.csv"
    write_publications(assigned_corpus, out_path)
    print(
        f"assigned: {report.assigned}, still unclassified: {report.still_unclassified}, "
        f"external related ids ignored: {report.external_ignored}"
    )
    print(f"wrote {out_path}")
    return 0


def _write_indicators(config: RunConfig, indicators: Sequence[JournalIndicator]) -> None:
    meta = _meta(config)
    if "csv" in config.formats:
        _write_csv(
            config.output_dir / "indicators.csv",
            meta,
            ("journal_id", "fncsi", "fnif", "expected_jif", "jif", "n_pubs"),
            _indicator_rows(indicators),
        )
    if "json" in config.formats:
        _write_indicators_json(config.output_dir / "indicators.json", meta, indicators)


def _rankings(config: RunConfig, corpus: Corpus, indicators: Sequence[JournalIndicator]) -> Iterator[RankingTable]:
    """One ranking table per requested indicator, in the requested scope."""
    return (rank(indicators, key, scope=config.category, journals=corpus.journals) for key in config.indicators)


def cmd_compute(config: RunConfig) -> int:
    corpus, clean = _load_checked(config)
    if not clean:
        return 1
    indicators = compute_all(corpus)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    _write_indicators(config, indicators)
    for table in _rankings(config, corpus, indicators):
        _write_ranking(table, config)
    return 0


def cmd_rank(config: RunConfig) -> int:
    corpus, clean = _load_checked(config)
    if not clean:
        return 1
    indicators = compute_all(corpus)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for table in _rankings(config, corpus, indicators):
        for path in _write_ranking(table, config):
            print(f"wrote {path}")
    return 0


def cmd_bootstrap(config: RunConfig) -> int:
    corpus, clean = _load_checked(config)
    if not clean:
        return 1
    # raises before any file is written if one key has no rankable journal
    reports = bootstrap_report(corpus, config.indicators, sims=config.sims, seed=config.seed)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for key in config.indicators:
        report = reports[key]
        meta = _meta(
            config,
            notes=[
                f"simulations: {report.simulations}",
                f"sentinel rank for journals unrankable in a simulation: {report.sentinel_rank}",
            ],
        )
        _write_json(
            config.output_dir / f"robustness_{key}.json",
            meta,
            {
                "indicator": report.indicator_name,
                "delta": report.delta,
                "seed": report.seed,
                "simulations": report.simulations,
                "sentinel_rank": report.sentinel_rank,
                "per_journal": {j: dict(zip(_SUMMARY_FIELDS, s)) for j, s in report.per_journal.items()},
            },
        )
        _write_csv(
            config.output_dir / f"quartiles_{key}.csv",
            meta,
            ("journal_id", "min_rank", "q1", "median", "q3", "max_rank"),
            [(j, *summary) for j, summary in report.per_journal.items()],
        )
        print(f"delta {_KEY_TO_CLI[key]} = {report.delta}")
    return 0


def cmd_flip_test(config: RunConfig) -> int:
    corpus, clean = _load_checked(config)
    if not clean:
        return 1
    comparisons = perturbation_comparison(corpus, config.indicators)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for key in config.indicators:
        pairs = comparisons[key]
        _write_csv(
            config.output_dir / f"flip_{key}.csv",
            _meta(config),
            ("journal_id", "original_rank", "perturbed_rank"),
            pairs,
        )
        moved = sum(1 for _, a, b in pairs if a is not None and b is not None and a != b)
        print(f"flip-test {_KEY_TO_CLI[key]}: {len(pairs)} journals, {moved} changed rank")
    return 0


def cmd_generate(config: RunConfig) -> int:
    corpus = generate_corpus(config.profile, seed=config.seed)
    pubs_path, journals_path = write_corpus_files(corpus, config.output_dir)
    print(f"wrote {pubs_path} ({len(corpus.pub_ids)} publications)")
    print(f"wrote {journals_path} ({len(corpus.journals)} journals)")
    return 0


def cmd_report(config: RunConfig) -> int:
    corpus, clean = _load_checked(config)
    if not clean:
        return 1
    if config.related_records_path is not None:
        classified = _classified(config, corpus)
        if classified is None:
            return 1
        corpus, _ = classified
    coverage = coverage_stats(corpus)
    indicators = compute_all(corpus)
    config.output_dir.mkdir(parents=True, exist_ok=True)

    lines: list[str] = []
    lines.extend(f"# {m}" for m in _meta(config, notes=[_PERCENTILE_NOTE]))
    lines.append("")
    lines.append(
        f"corpus: {coverage.n_publications} publications, {coverage.n_journals} journals, "
        f"{coverage.n_classified} classified "
        f"(publication coverage {coverage.publication_coverage:.4f}, "
        f"journal coverage {coverage.journal_coverage:.4f})"
    )
    for table in _rankings(config, corpus, indicators):
        scope_note = f" in category {table.scope}" if table.scope else ""
        lines.append("")
        lines.append(f"top journals by {_KEY_TO_CLI[table.indicator_name]}{scope_note}:")
        lines.append("rank  journal_id        value       percentile")
        for row in table.rows[:20]:
            lines.append(f"{row.rank:>4}  {row.journal_id:<16}  {row.value:<10.6g}  {row.percentile:.2f}")
    out_path = config.output_dir / "summary.txt"
    with atomic_write(out_path) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    # the indicator tables reflect the same (possibly classified) corpus
    _write_indicators(config, indicators)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_IO = ("pubs", "journals", "out")
_RANKINGS = ("format", "indicator", "category", "seed")

# subcommand -> (command, help, the flags it reads besides --config)
_COMMANDS: dict[str, tuple[Callable[[RunConfig], int], str, tuple[str, ...]]] = {
    "validate": (cmd_validate, "check corpus files and report findings", _IO),
    "classify": (cmd_classify, "assign topics to unclassified publications by majority rule", (*_IO, "related")),
    "compute": (cmd_compute, "compute all indicators and write ranking tables", (*_IO, *_RANKINGS)),
    "rank": (cmd_rank, "write ranking tables for the chosen indicators", (*_IO, *_RANKINGS)),
    "bootstrap": (cmd_bootstrap, "bootstrap ranking-stability analysis", (*_IO, "indicator", "sims", "seed")),
    "flip-test": (cmd_flip_test, "document-type flip perturbation analysis", (*_IO, "indicator", "seed")),
    "report": (cmd_report, "human-readable summary of indicators and coverage", (*_IO, "related", *_RANKINGS)),
    "generate": (cmd_generate, "generate a synthetic corpus file pair", ("out", "seed", *_GENERATE_FLAGS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrank",
        description="Field-normalized journal impact indicators, rankings, and robustness analysis.",
    )
    parser.add_argument("--version", action="version", version=f"jrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run, _, flags = _COMMANDS[args.command]
    try:
        config = _resolve_config(args, _config_types(flags))
        config.validate_inputs()
    except (ValueError, FileNotFoundError) as exc:  # a malformed config file raises a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except Exception as exc:  # surfaced as diagnostics, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
