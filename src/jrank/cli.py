"""Command-line front end.

Subcommands: validate, classify, compute, rank, bootstrap, flip-test,
generate, report.  Each subcommand takes only the flags it reads, and a JSON
config file (``--config``) may set any of them; explicit flags override the
file.  Classify and the five scoring commands (compute, rank, report,
bootstrap and flip-test) share one path, :func:`cmd_score`, which loads and
checks the corpus, classifies it when ``--related`` is given, printing the
assignment counts, and hands it to the command's writer.  An output
directory is created with its first file, so a command that fails before
writing leaves none.  Outputs are deterministic: rerunning a command with
identical inputs and seed produces byte-identical files, and every output
records the tool version, the seed, and a hash of the resolved configuration
so results can be audited later.  The JSON files are spelt column by column,
and :func:`_write_json` writes the object of each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

# OpenBLAS reads this once, as numpy loads, and otherwise starts a worker thread per
# extra core; jrank makes no BLAS call, so a command's outputs do not depend on it
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .classifier import AssignmentReport, assign_majority, read_related
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
from .indicators import INDICATOR_KEYS, Scores, compute_all
from .ranking import rank
from .robustness import bootstrap_report, perturbation_comparison
from .synth import CITATION_DISTRIBUTIONS, SyntheticProfile, generate_corpus, write_corpus_files

# CLI spelling -> library key
_CLI_KEYS = {key.replace("_", "-"): key for key in INDICATOR_KEYS}
_KEY_TO_CLI = {v: k for k, v in _CLI_KEYS.items()}

_json_string = json.encoder.encode_basestring_ascii

_RANKING_FIELDS = ("journal_id", "value", "rank", "percentile")  # a rank() row: CSV header and JSON keys

_SUMMARY_FIELDS = ("min", "q1", "median", "q3", "max")  # bootstrap JSON names of a report row's rank summary, in order

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
    "sims": {"type": int, "help": f"bootstrap simulation count (default: {_DEFAULTS['sims']})"},
    "seed": {"type": int, "help": f"random seed (default: {_DEFAULTS['seed']})"},
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
        # the output directory is made with the first file; the nearest path that exists must be a directory
        existing = next(path for path in (self.output_dir, *self.output_dir.parents) if path.exists())
        if not existing.is_dir():
            raise ValueError(f"--out {self.output_dir}: {existing} exists and is not a directory")
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
    if value is None or value != value:  # NaN: an indicator undefined for the journal
        return "unrankable"
    return str(value)


def _write_csv(path: Path, meta: list[str], header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with atomic_write(path) as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        write_table(fh, header, ([_fmt(v) for v in row] for row in rows))


def _json_floats(values: np.ndarray, nan: str = "NaN") -> list[str]:
    """Each float of ``values`` spelt as ``json.dumps`` spells it, NaN as ``nan``.

    ``float.__repr__`` spells every value; the few that are not finite are patched by index.
    """
    spelt = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        spelt[i] = nan if np.isnan(values[i]) else "Infinity" if values[i] > 0 else "-Infinity"
    return spelt


def _joined(*parts: str | Iterable[str]) -> Iterator[str]:
    """One string per position: the columns among ``parts`` zipped, each constant ``str`` repeated, joined in order."""
    return map("".join, zip(*(repeat(part) if isinstance(part, str) else part for part in parts)))


def _json_objects(indent: str, *prefix: Iterable[str], **members: Iterable[str]) -> Iterator[str]:
    """One object per position of the spelt ``members`` columns, each after the ``prefix`` columns.

    An object is spelt as ``json.dumps(indent=2, sort_keys=True)`` spells
    one nested at ``indent``; a prefix is, for example, its member name.
    """
    parts: list[str | Iterable[str]] = []
    for key in sorted(members):
        parts += [f",\n{indent}  {_json_string(key)}: ", members[key]]
    parts[0] = "{" + parts[0][1:]  # the first member follows the brace, not a comma
    return _joined(*prefix, *parts, f"\n{indent}}}")


def _json_block(items: Sequence[str], indent: str, brackets: str = "[]") -> str:
    """A list of the spelt ``items`` nested at ``indent``, as ``json.dumps(indent=2)`` spells it.

    With ``brackets="{}"`` the items are an object's spelt members.
    """
    if not items:
        return brackets
    inner = f"\n{indent}  "
    return brackets[0] + inner + f",{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _write_json(path: Path, meta: list[str], /, **members: str | Iterable[str]) -> None:
    """Write ``meta`` and the ``members`` as one object, spelt as ``json.dumps(indent=2, sort_keys=True) + "\n"``.

    A member is its value spelt nested at two spaces, or a stream of pieces of that text written as they come.
    """
    members["meta"] = _json_block(list(map(_json_string, meta)), "  ")
    with atomic_write(path) as fh:
        for i, name in enumerate(sorted(members)):  # the first member follows the brace, each later one a comma
            fh.write(f"{',' if i else '{'}\n  {_json_string(name)}: ")
            fh.writelines([members[name]] if isinstance(members[name], str) else members[name])
        fh.write("\n}\n")


def _indicator_rows(scores: Scores) -> Iterator[tuple[Any, ...]]:
    """(journal id, the four indicators, n_pubs) of each journal of the journal table, in id order; NaN if undefined."""
    kernel = scores.kernel
    codes = np.flatnonzero(kernel.in_table)
    columns = [getattr(scores, key)[codes].tolist() for key in INDICATOR_KEYS]
    return zip([kernel.journal_ids[code] for code in codes.tolist()], *columns, scores.n_classified[codes].tolist())


_JOURNALS_PER_BATCH = 8  # journals of indicators.json spelt at a time: bounds the text held in memory


def _write_indicators_json(path: Path, meta: list[str], scores: Scores) -> None:
    """Write ``indicators.json`` in batches of whole journals, each column of a batch spelt at once.

    The bytes equal ``json.dumps({"meta": meta, "journals": [...]}, indent=2,
    sort_keys=True) + "\n"``, one record per journal of the journal table in
    id order (``journal_id``, the four indicators, null where undefined,
    ``n_pubs`` and ``topic_breakdown``), without holding the document or more
    than one batch of its text in memory.  A journal's topic breakdown is its
    run of the kernel's (journal, topic) groups, whose topics are already in
    id order; a topic in which none of its papers was compared is left out.
    """
    kernel = scores.kernel
    codes = np.flatnonzero(kernel.in_table)
    # one search for every journal: a search per batch would cast the int32 group journals each time
    starts = np.searchsorted(kernel._group_journal, codes)
    ends = np.searchsorted(kernel._group_journal, codes, side="right")
    names = [f"{_json_string(topic)}: " for topic in kernel.topic_ids]

    def journal_list() -> Iterator[str]:  # the spelt journal list, a batch of whole journals at a time
        for first in range(0, len(codes), _JOURNALS_PER_BATCH):
            batch = slice(first, first + _JOURNALS_PER_BATCH)
            journals, low = codes[batch], starts[first]
            groups = np.flatnonzero(scores.topic_n[low : ends[batch][-1]]) + low
            entries = list(
                _json_objects(
                    "        ",
                    map(names.__getitem__, kernel._group_topic[groups].tolist()),
                    papers_compared=map(int.__repr__, scores.topic_n[groups].tolist()),
                    score=_json_floats(scores.topic_score[groups]),
                )
            )
            # each journal's run of compared groups, as bounds into entries
            runs = zip(np.searchsorted(groups, starts[batch]).tolist(), np.searchsorted(groups, ends[batch]).tolist())
            records = _json_objects(
                "    ",
                journal_id=map(_json_string, map(kernel.journal_ids.__getitem__, journals.tolist())),
                n_pubs=map(int.__repr__, scores.n_classified[journals].tolist()),
                topic_breakdown=(_json_block(entries[start:end], "      ", "{}") for start, end in runs),
                **{key: _json_floats(getattr(scores, key)[journals], nan="null") for key in INDICATOR_KEYS},
            )
            yield "[\n    " if first == 0 else ",\n    "
            yield ",\n    ".join(records)
        yield "\n  ]" if len(codes) else "[]"

    _write_json(path, meta, journals=journal_list())


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def _write_ranking_json(
    path: Path, meta: list[str], key: str, scope: str | None, rows: list[tuple[str, float, int, float]]
) -> None:
    """Write ``rank()``'s rows for ``key`` as JSON, each column spelt at once.

    The bytes equal ``json.dumps({"meta": meta, "indicator": key, "scope":
    scope, "rows": [dict(zip(_RANKING_FIELDS, row)) for row in rows]},
    indent=2, sort_keys=True) + "\n"``.
    """
    journal_ids, values, ranks, percentiles = zip(*rows) if rows else ((),) * 4
    records = _json_objects(
        "    ",
        journal_id=map(_json_string, journal_ids),
        value=_json_floats(np.array(values, dtype=float)),
        rank=map(int.__repr__, ranks),
        percentile=_json_floats(np.array(percentiles, dtype=float)),
    )
    scope_json = "null" if scope is None else _json_string(scope)
    _write_json(path, meta, indicator=_json_string(key), rows=_json_block(list(records), "  "), scope=scope_json)


def _write_ranking(key: str, rows: list[tuple[str, float, int, float]], config: RunConfig) -> list[Path]:
    """Write ``rank()``'s rows for ``key``, in ``config.category``'s scope, in each requested format."""
    scope = config.category
    stem = f"ranking_{key}_{_slug(scope)}" if scope else f"ranking_{key}"
    meta = _meta(config, notes=[_PERCENTILE_NOTE])
    written = []
    if "csv" in config.formats:
        path = config.output_dir / f"{stem}.csv"
        _write_csv(path, meta, _RANKING_FIELDS, rows)
        written.append(path)
    if "json" in config.formats:
        path = config.output_dir / f"{stem}.json"
        _write_ranking_json(path, meta, key, scope, rows)
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
    row_errors = bool(pubs.errors or journals.errors)
    corpus = corpus_from_fragments(pubs, journals)
    del pubs  # the fragment's journal codes would otherwise live beside the corpus's through validation
    findings = validate_corpus(corpus)
    for finding in findings:
        print(f"error: {finding}", file=sys.stderr)
    return corpus, not row_errors and not findings


def _classified(config: RunConfig, corpus: Corpus) -> tuple[Corpus, AssignmentReport] | None:
    """Assign topics to ``corpus`` from the related records; None, after printing them, if a row is bad.

    The records are voted on as they are read, so one block is alive at a time.
    """
    errors: list[RowError] = []
    blocks = read_related(config.related_records_path, errors)
    # after a bad row nothing is written: read on to report every bad row, but stop voting
    classified = assign_majority(corpus, (block for block in blocks if not errors))
    _print_row_errors(config.related_records_path, errors)
    return None if errors else classified


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


def _write_indicators(config: RunConfig, scores: Scores) -> None:
    meta = _meta(config)
    if "csv" in config.formats:
        header = ("journal_id", *INDICATOR_KEYS, "n_pubs")
        _write_csv(config.output_dir / "indicators.csv", meta, header, _indicator_rows(scores))
    if "json" in config.formats:
        _write_indicators_json(config.output_dir / "indicators.json", meta, scores)


def cmd_score(write: Callable[[RunConfig, Corpus], None], config: RunConfig) -> int:
    """Classify and the scoring commands: load, check, classify with ``--related``, then ``write`` the command's files.

    Classifying prints the assignment counts before ``write`` runs.
    """
    corpus, clean = _load_checked(config)
    if not clean:
        return 1
    if config.category is not None and not any(config.category in j.categories for j in corpus.journals.values()):
        print(f"error: no journal in the journal table has category {config.category!r}", file=sys.stderr)
        return 1
    if config.related_records_path is not None:
        classified = _classified(config, corpus)
        if classified is None:
            return 1
        corpus, report = classified
        print(
            f"assigned: {report.assigned}, still unclassified: {report.still_unclassified}, "
            f"external related ids ignored: {report.external_ignored}"
        )
    write(config, corpus)
    return 0


def _write_classified(config: RunConfig, corpus: Corpus) -> None:
    out_path = config.output_dir / "publications_classified.csv"
    write_publications(corpus, out_path)
    print(f"wrote {out_path}")


def _write_compute(config: RunConfig, corpus: Corpus) -> None:
    scores = compute_all(corpus)
    _write_indicators(config, scores)
    for key in config.indicators:
        _write_ranking(key, rank(scores, key, scope=config.category), config)


def _write_rank(config: RunConfig, corpus: Corpus) -> None:
    scores = compute_all(corpus)
    for key in config.indicators:
        for path in _write_ranking(key, rank(scores, key, scope=config.category), config):
            print(f"wrote {path}")


def _write_report(config: RunConfig, corpus: Corpus) -> None:
    scores = compute_all(corpus)
    coverage = coverage_stats(corpus)
    lines: list[str] = []
    lines.extend(f"# {m}" for m in _meta(config, notes=[_PERCENTILE_NOTE]))
    lines.append("")
    lines.append(
        f"corpus: {coverage.n_publications} publications, {coverage.n_journals} journals, "
        f"{coverage.n_classified} classified "
        f"(publication coverage {coverage.publication_coverage:.4f}, "
        f"journal coverage {coverage.journal_coverage:.4f})"
    )
    scope_note = f" in category {config.category}" if config.category else ""
    for key in config.indicators:
        lines.append("")
        lines.append(f"top journals by {_KEY_TO_CLI[key]}{scope_note}:")
        lines.append("rank  journal_id        value       percentile")
        for journal_id, value, r, percentile in rank(scores, key, scope=config.category)[:20]:
            lines.append(f"{r:>4}  {journal_id:<16}  {value:<10.6g}  {percentile:.2f}")
    out_path = config.output_dir / "summary.txt"
    with atomic_write(out_path) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    # the indicator tables reflect the same (possibly classified) corpus
    _write_indicators(config, scores)


def _write_bootstrap(config: RunConfig, corpus: Corpus) -> None:
    # raises before any file is written if one key has no rankable journal
    reports = bootstrap_report(corpus, config.indicators, sims=config.sims, seed=config.seed)
    for key in config.indicators:
        rows, delta = reports[key]
        sentinel_rank = len(rows) + 1
        meta = _meta(
            config,
            notes=[
                f"simulations: {config.sims}",
                f"sentinel rank for journals unrankable in a simulation: {sentinel_rank}",
            ],
        )
        # one object per tracked journal, under its id; rows come in id order, so in key order
        journal_ids, low, *quartiles, high = zip(*rows)
        summary = [map(int.__repr__, low), *(_json_floats(np.array(q)) for q in quartiles), map(int.__repr__, high)]
        per_journal = _json_objects("    ", map(_json_string, journal_ids), ": ", **dict(zip(_SUMMARY_FIELDS, summary)))
        _write_json(
            config.output_dir / f"robustness_{key}.json",
            meta,
            delta=repr(delta),  # finite: every rank is at least 1
            indicator=_json_string(key),
            per_journal=_json_block(list(per_journal), "  ", "{}"),
            seed=int.__repr__(config.seed),
            sentinel_rank=int.__repr__(sentinel_rank),
            simulations=int.__repr__(config.sims),
        )
        _write_csv(
            config.output_dir / f"quartiles_{key}.csv",
            meta,
            ("journal_id", "min_rank", "q1", "median", "q3", "max_rank"),
            rows,
        )
        print(f"delta {_KEY_TO_CLI[key]} = {delta}")


def _write_flip_test(config: RunConfig, corpus: Corpus) -> None:
    comparisons = perturbation_comparison(corpus, config.indicators)
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


def cmd_generate(config: RunConfig) -> int:
    corpus = generate_corpus(config.profile, seed=config.seed)
    pubs_path, journals_path = write_corpus_files(corpus, config.output_dir)
    print(f"wrote {pubs_path} ({len(corpus.pub_ids)} publications)")
    print(f"wrote {journals_path} ({len(corpus.journals)} journals)")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_IO = ("pubs", "journals", "out")
_RANKINGS = ("format", "indicator", "category", "seed")

# subcommand -> (command, help, the flags it reads besides --config)
_COMMANDS: dict[str, tuple[Callable[[RunConfig], int], str, tuple[str, ...]]] = {
    "validate": (cmd_validate, "check corpus files and report findings", _IO),
    "classify": (
        partial(cmd_score, _write_classified),
        "assign topics to unclassified publications by majority rule",
        (*_IO, "related"),
    ),
    "compute": (
        partial(cmd_score, _write_compute), "compute all indicators and write ranking tables", (*_IO, *_RANKINGS)
    ),
    "rank": (partial(cmd_score, _write_rank), "write ranking tables for the chosen indicators", (*_IO, *_RANKINGS)),
    "bootstrap": (
        partial(cmd_score, _write_bootstrap),
        "bootstrap ranking-stability analysis",
        (*_IO, "indicator", "sims", "seed"),
    ),
    "flip-test": (
        partial(cmd_score, _write_flip_test), "document-type flip perturbation analysis", (*_IO, "indicator", "seed")
    ),
    "report": (
        partial(cmd_score, _write_report),
        "human-readable summary of indicators and coverage",
        (*_IO, "related", *_RANKINGS),
    ),
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
        p.set_defaults(subparser=p)  # a flag the subcommand does not read is reported against its usage
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    run, _, flags = _COMMANDS[args.command]
    try:
        config = _resolve_config(args, _config_types(flags))
        config.validate_inputs()
    except (ValueError, OSError) as exc:  # a malformed config file raises a ValueError, an unreadable one an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except Exception as exc:  # surfaced as diagnostics, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
