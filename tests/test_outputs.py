"""Output files: the JSON writers against ``json.dumps``, ``indicators.json``'s memory, and lossless read-back."""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Record, corpus_of, load_corpus, pub, records, scores_of
from make_golden import GOLDEN
import jrank
from jrank.cli import (
    _RANKING_FIELDS,
    _json_block,
    _json_floats,
    _json_string,
    _write_csv,
    _write_indicators_json,
    _write_json,
    _write_ranking_json,
    main,
)
from jrank.corpus import Journal
from jrank.indicators import INDICATOR_KEYS, compute_all
from jrank.ranking import rank
from jrank.robustness import bootstrap_report
from jrank.synth import write_corpus_files


def reference_document(meta, indicators):
    """The document ``indicators.json`` holds for these records, for ``json.dumps`` to encode.

    A topic with no compared paper is left out of its journal's breakdown.
    """
    return {
        "meta": meta,
        "journals": [
            {
                "journal_id": ind.journal_id,
                "fncsi": ind.fncsi,
                "fnif": ind.fnif,
                "expected_jif": ind.expected_jif,
                "jif": ind.jif,
                "n_pubs": ind.n_pubs,
                "topic_breakdown": {
                    topic: {"score": score, "papers_compared": n}
                    for topic, (score, n) in ind.topic_breakdown.items()
                    if n
                },
            }
            for ind in indicators
        ],
    }


def reference_bytes(meta, indicators):
    return (json.dumps(reference_document(meta, indicators), indent=2, sort_keys=True) + "\n").encode("utf-8")


# strings json must escape, non-ASCII and astral characters, and anything else
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "\U0001f600"])
_strings = st.text(st.one_of(_SPECIAL, st.characters(blacklist_categories=("Cs",))), max_size=8)
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 0.1, 1.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(),
)
_counts = st.integers(0, 10**12)
# journal ids come sorted and distinct, as a kernel's journal codes are
_indicators = st.lists(
    st.builds(
        Record,
        journal_id=_strings,
        fncsi=st.none() | _floats,
        fnif=st.none() | _floats,
        expected_jif=st.none() | _floats,
        jif=st.none() | _floats,
        n_pubs=_counts,
        topic_breakdown=st.dictionaries(_strings, st.tuples(_floats, _counts), max_size=4),
    ),
    max_size=4,
    unique_by=lambda ind: ind.journal_id,
).map(lambda inds: sorted(inds, key=lambda ind: ind.journal_id))


def scores_holding(indicators):
    """``Scores`` that hold exactly these records, NaN for None."""
    columns = {key: [math.nan if getattr(ind, key) is None else getattr(ind, key) for ind in indicators]
               for key in INDICATOR_KEYS}
    return scores_of(
        [ind.journal_id for ind in indicators],
        {ind.journal_id: ind.topic_breakdown for ind in indicators},
        n_classified=[ind.n_pubs for ind in indicators],
        **columns,
    )


class TestIndicatorsJson:
    @settings(max_examples=300, deadline=None)
    @given(meta=st.lists(_strings, max_size=3), indicators=_indicators)
    def test_bytes_equal_indented_sorted_json_dumps(self, tmp_path_factory, meta, indicators):
        path = tmp_path_factory.mktemp("ind") / "indicators.json"
        _write_indicators_json(path, meta, scores_holding(indicators))
        # NaN marks an undefined indicator, written null; a breakdown score is written as it is
        undefined = [ind._replace(**{k: None for k in INDICATOR_KEYS if getattr(ind, k) != getattr(ind, k)})
                     for ind in indicators]
        assert path.read_bytes() == reference_bytes(meta, undefined)

    def test_empty_journal_list_and_empty_breakdown(self, tmp_path):
        path = tmp_path / "indicators.json"
        _write_indicators_json(path, ["tool: jrank"], scores_holding([]))
        assert path.read_bytes() == reference_bytes(["tool: jrank"], [])
        assert b'"journals": [],' in path.read_bytes()
        lone = [Record("j", None, None, None, 0.0, 0, {})]
        _write_indicators_json(path, [], scores_holding(lone))
        assert path.read_bytes() == reference_bytes([], lone)
        assert b'"topic_breakdown": {}' in path.read_bytes()

    def test_peak_memory_below_a_quarter_of_the_file(self, tmp_path):
        rng = random.Random(3)
        indicators = [
            Record(
                f"j{j:04d}", rng.random(), rng.random(), rng.random() * 5, rng.random() * 5, rng.randrange(500),
                {f"t{t:03d}": (rng.random(), rng.randrange(1, 60)) for t in range(50)},
            )
            for j in range(500)
        ]
        scores = scores_holding(indicators)
        path = tmp_path / "indicators.json"
        tracemalloc.start()
        try:
            _write_indicators_json(path, ["tool: jrank"], scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000
        assert peak < size / 4, f"peak {peak} B for a {size} B file"


def ranking_document(meta, key, scope, rows):
    """The document a ranking JSON file holds for ``rank()``'s rows, for ``json.dumps`` to encode."""
    return {"meta": meta, "indicator": key, "scope": scope, "rows": [dict(zip(_RANKING_FIELDS, row)) for row in rows]}


def robustness_document(meta, key, rows, delta, seed, sims):
    """The document ``robustness_<key>.json`` holds for ``bootstrap_report()``'s rows and delta of ``key``."""
    return {
        "meta": meta,
        "indicator": key,
        "delta": delta,
        "seed": seed,
        "simulations": sims,
        "sentinel_rank": len(rows) + 1,
        "per_journal": {
            journal_id: dict(zip(("min", "q1", "median", "q3", "max"), summary)) for journal_id, *summary in rows
        },
    }


@settings(max_examples=300, deadline=None)
@given(
    meta=st.lists(_strings, max_size=3),
    key=_strings,
    scope=st.none() | _strings,
    rows=st.lists(st.tuples(_strings, _floats, st.integers(-(2**70), 2**70), _floats), max_size=5),
)
def test_ranking_json_bytes_equal_indented_sorted_json_dumps(tmp_path_factory, meta, key, scope, rows):
    path = tmp_path_factory.mktemp("rank") / "ranking.json"
    _write_ranking_json(path, meta, key, scope, rows)
    expected = json.dumps(ranking_document(meta, key, scope, rows), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def spelt(value):
    """``value`` spelt as the writers spell a member: a string, a float, an int, or a list of strings."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, float):
        return _json_floats(np.array([value]))[0]
    if isinstance(value, list):
        return _json_block(list(map(_json_string, value)), "  ")
    return int.__repr__(value)


# member names the writer's own parameters could shadow, and any other name but "meta"
_member_names = st.sampled_from(["path", "members", ""]) | _strings.filter(lambda name: name != "meta")
_members = st.dictionaries(
    _member_names, _strings | _floats | st.integers(-(2**70), 2**70) | st.lists(_strings, max_size=3), max_size=5
)


@settings(max_examples=300, deadline=None)
@given(meta=st.lists(_strings, max_size=3), members=_members, streamed=st.booleans())
def test_json_document_bytes_equal_indented_sorted_json_dumps(tmp_path_factory, meta, members, streamed):
    path = tmp_path_factory.mktemp("doc") / "document.json"
    # a streamed member arrives one character at a time
    _write_json(path, meta, **{name: iter(spelt(v)) if streamed else spelt(v) for name, v in members.items()})
    expected = json.dumps({"meta": meta, **members}, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# journal ids that a delimited file must quote or that read back as comments
_TRICKY = st.sampled_from([",", '"', "\n", "\r", "#", " "])
_journal_ids = st.text(st.one_of(_TRICKY, st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=10)
_values = st.none() | st.floats(allow_nan=False) | st.integers(-(10**12), 10**12)


@settings(max_examples=300, deadline=None)
@given(
    meta=st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=12),
                  max_size=3),
    rows=st.lists(st.tuples(st.one_of(_journal_ids, _journal_ids.map(lambda s: "#" + s)), _values, _values),
                  max_size=6),
)
def test_csv_table_reads_back_as_the_rows_written(tmp_path_factory, meta, rows):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    _write_csv(path, meta, ("journal_id", "value", "rank"), rows)
    with open(path, encoding="utf-8", newline="") as fh:
        got = list(csv.reader(itertools.dropwhile(lambda line: line.startswith("# "), fh)))
    spelt = [[jid, *("unrankable" if v is None else repr(v) for v in values)] for jid, *values in rows]
    assert got == [["journal_id", "value", "rank"], *spelt]
    for (_, *values), (_, *fields) in zip(rows, got[1:]):
        assert [None if f == "unrankable" else type(v)(f) for v, f in zip(values, fields)] == values


def test_every_json_output_loads_back_to_its_payload(tmp_path):
    odd = ['J, "A"', "Jé\U0001f600", "#lead", "back\\slash"]
    pubs = [pub(f"p{i}{k}", jid, (i * 7 + k) % 5, f"t{k}") for i, jid in enumerate(odd) for k in range(3)]
    pubs.append(pub("u1", "jun", 2, None))
    journals = {j: Journal(j, f"Journal {j}", ("C",)) for j in [*odd, "jun", "jempty"]}
    data = tmp_path / "data"
    write_corpus_files(corpus_of(pubs, journals=journals), data)

    io_flags = ["--pubs", str(data / "publications.csv"), "--journals", str(data / "journals.csv")]
    for command in (["compute"], ["bootstrap", "--sims", "5"], ["report"]):
        assert main([*command, *io_flags, "--out", str(tmp_path / command[0])]) == 0
    # every JSON file the commands wrote is checked below
    written = {path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.json")}
    names = [f"{kind}_{key}.json" for kind in ("compute/ranking", "bootstrap/robustness") for key in INDICATOR_KEYS]
    assert written == {*names, "compute/indicators.json", "report/indicators.json"}

    # the ranking and indicator files against values read off the library's own Scores, not the writers' input
    corpus, errors = load_corpus(data / "publications.csv", data / "journals.csv")
    scores = compute_all(corpus)
    for key in INDICATOR_KEYS:
        document = json.loads((tmp_path / "compute" / f"ranking_{key}.json").read_text(encoding="utf-8"))
        assert document["meta"][:3] == [f"tool: jrank {jrank.__version__}", "command: compute", "seed: 42"]
        assert document["rows"] and document == ranking_document(document["meta"], key, None, rank(scores, key)), key
    expected = records(scores)
    assert not errors and any(ind.fncsi is None for ind in expected) and any(ind.topic_breakdown for ind in expected)
    for command in ("compute", "report"):
        document = json.loads((tmp_path / command / "indicators.json").read_text(encoding="utf-8"))
        assert document["meta"][:3] == [f"tool: jrank {jrank.__version__}", f"command: {command}", "seed: 42"]
        assert document == reference_document(document["meta"], expected), command
        with open(tmp_path / command / "indicators.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(itertools.dropwhile(lambda line: line.startswith("# "), fh))
        assert header == ["journal_id", *INDICATOR_KEYS, "n_pubs"]
        read_back = [(jid, *(None if f == "unrankable" else float(f) for f in values), int(n)) for jid, *values, n in rows]
        assert read_back == [tuple(ind[:6]) for ind in expected], command
    # the robustness reports against the library's own bootstrap, with the run's seed, count and sentinel rank
    for key, (rows, delta) in bootstrap_report(corpus, INDICATOR_KEYS, sims=5, seed=42).items():
        document = json.loads((tmp_path / "bootstrap" / f"robustness_{key}.json").read_text(encoding="utf-8"))
        assert document["meta"][:3] == [f"tool: jrank {jrank.__version__}", "command: bootstrap", "seed: 42"]
        assert len(rows) > 1 and document == robustness_document(document["meta"], key, rows, delta, 42, 5), key


def test_no_command_spells_json_with_the_indenting_encoder(tmp_path, monkeypatch, capsys):
    # the writers spell every JSON file column by column; json.dumps(indent=...) goes through this pure-Python encoder
    def refuse(*args, **kwargs):
        raise AssertionError("a command encoded JSON with json's indenting encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"journals": []}, indent=2)
    # the config hash and the config errors quote values with json's C encoder, which stays available
    config = tmp_path / "config.json"
    corpus = GOLDEN / "corpus"
    config.write_text(json.dumps({"pubs": str(corpus / "publications.csv"), "journals": str(corpus / "journals.csv")}))
    for argv in (["compute"], ["rank"], ["report"], ["bootstrap", "--sims", "5"]):
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / argv[0])]) == 0, argv[0]
    assert len(list(tmp_path.rglob("*.json"))) == 1 + 5 + 4 + 1 + 4  # the config, then each command's JSON files
    config.write_text('{"sims": [5, "x"]}')
    capsys.readouterr()
    assert main(["bootstrap", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f'error: config key sims in {config} must be an integer, not [5, "x"]\n'
