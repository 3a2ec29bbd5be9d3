"""Command-line interface: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jrank
from jrank import cli
from jrank.cli import _write_csv, main
from jrank.indicators import RankKernel, compute_all

HEADER = "pub_id,journal_id,pub_year,doc_type,citations,topic_id\n"
JHEADER = "journal_id,title,categories\n"


def digest_dir(path):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(path.iterdir())}


def write_tiny_corpus(tmp_path, rows=None, journals=None):
    pubs = tmp_path / "pubs.csv"
    jrn = tmp_path / "journals.csv"
    pubs.write_text(
        HEADER
        + (rows or "a1,jA,2018,Article,3,t1\na2,jA,2018,Article,1,t1\nb1,jB,2018,Article,2,t1\n"),
        encoding="utf-8",
    )
    jrn.write_text(JHEADER + (journals or "jA,Journal A,X\njB,Journal B,X|Y\n"), encoding="utf-8")
    return pubs, jrn


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "generate", "--out", str(out), "--seed", "11", "--journals-count", "12",
            "--topics-count", "3", "--pubs-min", "12", "--pubs-max", "20", "--skewed", "1",
        ]
    )
    assert code == 0
    return out / "publications.csv", out / "journals.csv"


class TestGenerate:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["--seed", "9", "--journals-count", "8", "--topics-count", "2",
                "--pubs-min", "5", "--pubs-max", "9"]
        assert main(["generate", "--out", str(tmp_path / "one"), *args]) == 0
        assert main(["generate", "--out", str(tmp_path / "two"), *args]) == 0
        assert digest_dir(tmp_path / "one") == digest_dir(tmp_path / "two")

    def test_generated_files_pass_validation(self, generated):
        pubs, journals = generated
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 0

    def test_invalid_descriptor_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path), "--pubs-min", "9", "--pubs-max", "3"])
        assert code == 2
        assert "pubs_min" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            pytest.param(["--outlier-citations", "-5"], None, "outlier_citations must be >= 0",
                         id="--outlier-citations-outlier_citations"),
            pytest.param(["--outlier-citations", str(2**63)], None, "outlier_citations must be <= 9223372036854775807",
                         id="--outlier-citations-past-int64"),
            pytest.param(["--sigma", "-5"], None, "lognormal_sigma must be >= 0", id="--sigma-lognormal_sigma"),
            pytest.param(["--sigma", "nan"], None, "lognormal_sigma must be finite", id="--sigma-nan"),
            pytest.param(["--sigma", "inf"], None, "lognormal_sigma must be finite", id="--sigma-inf"),
            pytest.param(["--quality-spread", "nan"], None, "quality_spread must be finite", id="--quality-spread-nan"),
            pytest.param([], {"sigma": math.nan}, "lognormal_sigma must be finite", id="config-sigma-nan"),
        ],
    )
    def test_negative_profile_value_is_usage_error(self, tmp_path, capsys, flags, config, message):
        if config is not None:
            cfg = tmp_path / "gen.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            flags = [*flags, "--config", str(cfg)]
        code = main(["generate", "--out", str(tmp_path / "out"), "--skewed", "1", *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_citation_draw_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out), "--sigma", "1000", "--journals-count", "3"]) == 1
        assert capsys.readouterr().err == "error: cannot convert float infinity to integer\n"
        assert not out.exists()

    def test_citation_count_past_int64_fails_before_writing(self, tmp_path, capsys):
        # a draw that validate would reject as a row error stops generate instead
        out = tmp_path / "out"
        args = ["--seed", "42", "--sigma", "60", "--journals-count", "3", "--pubs-min", "200", "--pubs-max", "200"]
        assert main(["generate", "--out", str(out), *args]) == 1
        assert re.fullmatch(r"error: citations must be <= 9223372036854775807, got \d{20,}\n", capsys.readouterr().err)
        assert not out.exists()


class TestValidate:
    def test_clean_corpus_exits_zero(self, tmp_path):
        pubs, journals = write_tiny_corpus(tmp_path)
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 0

    def test_row_error_exits_one_with_row_context(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path, rows="a1,jA,2018,Article,-4,t1\n")
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_citation_count_beyond_int64_is_a_row_error(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(
            tmp_path,
            rows="a1,jA,2018,Article,9223372036854775807,t1\na2,jA,2018,Article,9223372036854775808,t1\n"
            "b1,jB,2018,Article,2,t1\n",
        )
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 1
        assert capsys.readouterr().err == (
            f"error: {pubs}: line 3: citations must be <= 9223372036854775807, got 9223372036854775808\n"
        )
        out = tmp_path / "out"
        assert main(["compute", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 1
        assert not out.exists()

    def test_dangling_journal_exits_one(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path, rows="a1,jZ,2018,Article,4,t1\n")
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 1
        assert "dangling-journal" in capsys.readouterr().err

    def test_dangling_journals_are_reported_in_row_order(self, tmp_path, capsys):
        # findings grouped by journal, or sorted by pub_id, come out in another order
        rows = "d1,jZ,2018,Article,4,t1\na1,jA,2018,Article,3,t1\nc1,jY,2018,Review,2,t1\nb1,jZ,2018,Article,1,t1\n"
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows)
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: dangling-journal: d1: journal 'jZ' not in journal table",
            "error: dangling-journal: c1: journal 'jY' not in journal table",
            "error: dangling-journal: b1: journal 'jZ' not in journal table",
        ]

    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["validate", "--pubs", str(tmp_path / "nope.csv"), "--journals", str(tmp_path / "nope2.csv")]) == 2

    def test_row_errors_and_findings_printed_per_file_in_order(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(
            tmp_path,
            rows="a1,jA,2018,Article,-4,t1\na2,jZ,2018,Review,1,t1\n",
            journals="jA,Journal A,X\njA,Again,Y\n",
        )
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {pubs}: line 2: citations must be >= 0, got -4",
            f"error: {journals}: line 3: duplicate journal_id 'jA'",
            "error: dangling-journal: a2: journal 'jZ' not in journal table",
        ]

    def test_multiline_journal_title_keeps_its_categories(self, tmp_path):
        pubs, journals = write_tiny_corpus(tmp_path, journals='jA,"Journal\nA",X\njB,Journal B,X|Y\n')
        out = tmp_path / "out"
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 0
        assert main(["rank", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out),
                     "--indicator", "jif", "--category", "X"]) == 0
        rows = [l for l in (out / "ranking_jif_X.csv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("journal_id")]
        assert sorted(r.split(",")[0] for r in rows) == ["jA", "jB"]


class TestCompute:
    def test_minimal_corpus_outputs(self, tmp_path):
        pubs, journals = write_tiny_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["compute", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 0
        table = (out / "indicators.csv").read_text().splitlines()
        data_rows = [l for l in table if l and not l.startswith("#") and not l.startswith("journal_id")]
        assert len(data_rows) == 2
        for key in ("fncsi", "fnif", "expected_jif", "jif"):
            assert (out / f"ranking_{key}.csv").exists()
            assert (out / f"ranking_{key}.json").exists()

    def test_unclassified_journal_marked_unrankable(self, tmp_path):
        rows = "a1,jA,2018,Article,3,t1\nb1,jB,2018,Article,2,t1\nc1,jC,2018,Article,9,\n"
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows,
                                           journals="jA,A,\njB,B,\njC,C,\n")
        out = tmp_path / "out"
        assert main(["compute", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 0
        jc_row = [l for l in (out / "indicators.csv").read_text().splitlines() if l.startswith("jC")][0]
        assert "unrankable" in jc_row
        assert jc_row.split(",")[4] == "9.0"  # jif still populated

    def test_reruns_are_byte_identical(self, generated, tmp_path):
        pubs, journals = generated
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["compute", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 0
            runs.append(digest_dir(out))
        assert runs[0] == runs[1]

    def test_category_scoped_ranking(self, tmp_path):
        pubs, journals = write_tiny_corpus(tmp_path)
        out = tmp_path / "out"
        code = main(["rank", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out),
                     "--indicator", "jif", "--category", "Y"])
        assert code == 0
        rows = [l for l in (out / "ranking_jif_Y.csv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("journal_id")]
        assert [r.split(",")[0] for r in rows] == ["jB"]

    @pytest.mark.parametrize("category", ["NOPE", " X "])
    @pytest.mark.parametrize("command", ["compute", "rank", "report"])
    def test_category_no_journal_carries_writes_nothing(self, tmp_path, capsys, command, category):
        # labels are stripped at ingest, so " X " names no journal's category although X does
        pubs, journals = write_tiny_corpus(tmp_path)
        out = tmp_path / "out"
        code = main([command, "--pubs", str(pubs), "--journals", str(journals), "--out", str(out),
                     "--category", category])
        assert code == 1
        assert capsys.readouterr().err == f"error: no journal in the journal table has category {category!r}\n"
        assert not out.exists()

    def test_percentile_formula_quoted_in_header(self, tmp_path):
        pubs, journals = write_tiny_corpus(tmp_path)
        out = tmp_path / "out"
        main(["rank", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out), "--indicator", "fncsi"])
        head = (out / "ranking_fncsi.csv").read_text().splitlines()[:6]
        assert any("100 * (N - rank + 1) / N" in line for line in head)

    def test_journal_id_with_comma_and_quote_reads_back_as_one_field(self, tmp_path):
        rows = 'a1,"J, ""A""",2018,Article,3,t1\nb1,jB,2018,Article,2,t1\n'
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows, journals='"J, ""A""",Journal A,X\njB,Journal B,X\n')
        out = tmp_path / "out"
        assert main(["compute", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 0
        for name, width in (("indicators.csv", 6), ("ranking_fncsi.csv", 4)):
            lines = [l for l in (out / name).read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
            table = list(csv.reader(lines))
            assert all(len(row) == width for row in table)
            assert sorted(row[0] for row in table[1:]) == ['J, "A"', "jB"]

    def test_unknown_indicator_rejected_by_parser(self, tmp_path):
        pubs, journals = write_tiny_corpus(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--pubs", str(pubs), "--journals", str(journals), "--indicator", "h-index"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command", [["compute"], ["rank"], ["report"], ["bootstrap", "--sims", "3"], ["flip-test"]]
    )
    def test_cell_citation_sum_beyond_int64_fails_before_writing(self, tmp_path, capsys, command):
        # every count passes ingest, but the cell's sum is 2**63 + 2
        rows = f"a1,jA,2018,Article,{2**62},t1\na2,jA,2018,Article,{2**62},t1\nb1,jB,2018,Article,2,t1\n"
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows)
        assert main(["validate", "--pubs", str(pubs), "--journals", str(journals)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*command, "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2**63 - 1 (9223372036854775807)" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["compute"], ["bootstrap", "--sims", "3"], ["flip-test"]])
    def test_journal_sum_of_unclassified_papers_beyond_int64_fails_before_writing(self, tmp_path, capsys, command):
        # jif's sum for jA is 2**63; no cell holds the unclassified papers
        rows = f"u1,jA,2018,Article,{2**62},\nu2,jA,2018,Article,{2**62},\nb1,jB,2018,Article,2,t1\n"
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows)
        out = tmp_path / "out"
        assert main([*command, "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2**63 - 1 (9223372036854775807)" in err
        assert not out.exists()


class TestClassify:
    def test_assigns_and_writes_new_publications(self, tmp_path, capsys):
        rows = "a1,jA,2018,Article,3,t1\na2,jA,2018,Article,5,t1\nu1,jB,2018,Article,2,\n"
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows)
        related = tmp_path / "related.csv"
        related.write_text("pub_id,related_ids\nu1,a1|a2|ext9\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["classify", "--pubs", str(pubs), "--journals", str(journals),
                     "--related", str(related), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "assigned: 1" in stdout and "external related ids ignored: 1" in stdout
        result = (out / "publications_classified.csv").read_text()
        assert "u1,jB,2018,Article,2,t1" in result

    def test_classify_requires_related(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path)
        # --related is named first, also when --pubs and --journals are missing
        for inputs in (["--pubs", str(pubs), "--journals", str(journals)], []):
            assert main(["classify", *inputs]) == 2
            assert capsys.readouterr().err == "error: --related is required for classify\n"

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_related_row_error_exits_one_and_writes_nothing(self, tmp_path, capsys, command):
        rows = "a1,jA,2018,Article,3,t1\nu1,jB,2018,Article,2,\n"
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows)
        related = tmp_path / "related.csv"
        related.write_text("pub_id,related_ids\nu1,a1\nu1,u1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main([command, "--pubs", str(pubs), "--journals", str(journals),
                     "--related", str(related), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {related}: line 3: 'u1' lists itself as a related record\n"
        assert not out.exists()

    def test_input_files_never_mutated(self, tmp_path):
        rows = "a1,jA,2018,Article,3,t1\nu1,jB,2018,Article,2,\n"
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows)
        related = tmp_path / "related.csv"
        related.write_text("pub_id,related_ids\nu1,a1\n", encoding="utf-8")
        before = (pubs.read_bytes(), journals.read_bytes(), related.read_bytes())
        main(["classify", "--pubs", str(pubs), "--journals", str(journals),
              "--related", str(related), "--out", str(tmp_path / "out")])
        assert (pubs.read_bytes(), journals.read_bytes(), related.read_bytes()) == before


class TestRobustnessCommands:
    def test_bootstrap_reruns_byte_identical(self, generated, tmp_path):
        pubs, journals = generated
        runs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            code = main(["bootstrap", "--pubs", str(pubs), "--journals", str(journals),
                         "--out", str(out), "--indicator", "fncsi", "--sims", "10", "--seed", "42"])
            assert code == 0
            runs.append(digest_dir(out))
        assert runs[0] == runs[1]
        assert "robustness_fncsi.json" in runs[0] and "quartiles_fncsi.csv" in runs[0]

    def test_bootstrap_summary_line_reports_delta(self, generated, tmp_path, capsys):
        pubs, journals = generated
        code = main(["bootstrap", "--pubs", str(pubs), "--journals", str(journals),
                     "--out", str(tmp_path / "b"), "--indicator", "fncsi", "--indicator", "fnif",
                     "--sims", "10", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta fncsi = " in out and "delta fnif = " in out

    def test_flip_outputs_one_row_per_journal(self, generated, tmp_path):
        pubs, journals = generated
        out = tmp_path / "flip"
        code = main(["flip-test", "--pubs", str(pubs), "--journals", str(journals),
                     "--out", str(out), "--indicator", "jif"])
        assert code == 0
        rows = [l for l in (out / "flip_jif.csv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("journal_id")]
        assert len(rows) == 12

    @pytest.mark.parametrize("command", ["bootstrap", "flip-test"])
    def test_repeated_indicator_counts_once(self, generated, tmp_path, capsys, command):
        pubs, journals = generated
        runs = []
        for name, flags in (("once", ["--indicator", "fncsi"]), ("twice", ["--indicator", "fncsi"] * 2)):
            out = tmp_path / name
            sims = ["--sims", "5"] if command == "bootstrap" else []
            code = main([command, "--pubs", str(pubs), "--journals", str(journals), "--out", str(out),
                         *flags, *sims])
            assert code == 0
            runs.append((digest_dir(out), capsys.readouterr().out))
        assert runs[0] == runs[1]

    def test_bootstrap_writes_nothing_when_one_key_is_unrankable(self, tmp_path, capsys):
        # jif ranks every journal; fncsi needs classified papers, and there are none
        pubs, journals = write_tiny_corpus(tmp_path, rows="a1,jA,2018,Article,3,\nb1,jB,2018,Article,2,\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["bootstrap", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out),
                     "--indicator", "jif", "--indicator", "fncsi", "--sims", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: corpus has no journals rankable on 'fncsi'\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, encodings, evaluations, files_per_key", [("bootstrap", 1, 7 + 1, 2), ("flip-test", 2, 2, 1)]
    )
    def test_encodings_and_evaluations_independent_of_key_count(
        self, generated, tmp_path, monkeypatch, command, encodings, evaluations, files_per_key
    ):
        pubs, journals = generated
        post_init, evaluate = RankKernel.__post_init__, RankKernel.evaluate
        calls = {}

        def counting_post_init(self):
            calls["encode"] += 1
            post_init(self)

        def counting_evaluate(self, weights=None):
            calls["evaluate"] += 1
            return evaluate(self, weights)

        monkeypatch.setattr(RankKernel, "__post_init__", counting_post_init)
        monkeypatch.setattr(RankKernel, "evaluate", counting_evaluate)
        sims = ["--sims", "7"] if command == "bootstrap" else []
        for keys, n_keys in ((["--indicator", "fncsi"], 1), ([], 4)):  # one key, then the default four
            calls.update(encode=0, evaluate=0)
            out = tmp_path / f"out{n_keys}"
            code = main([command, "--pubs", str(pubs), "--journals", str(journals), "--out", str(out),
                         *keys, *sims])
            assert code == 0
            assert len(list(out.iterdir())) == files_per_key * n_keys
            assert calls == {"encode": encodings, "evaluate": evaluations}

    def test_bootstrap_leaves_numpy_ma_unimported(self, generated, tmp_path):
        # importing numpy.ma costs time and peak memory in every bootstrap child; np.quantile pulls it in
        pubs, journals = generated
        script = (
            "import sys\n"
            "from jrank.cli import main\n"
            f"assert main(['bootstrap', '--pubs', {str(pubs)!r}, '--journals', {str(journals)!r},"
            f" '--out', {str(tmp_path / 'out')!r}, '--sims', '5']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(jrank.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestConfigFile:
    def test_config_supplies_flags_and_cli_overrides(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "pubs": str(pubs), "journals": str(journals),
            "out": str(tmp_path / "from_config"), "indicator": ["jif"], "format": ["csv"],
        }), encoding="utf-8")
        assert main(["compute", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "ranking_jif.csv").exists()
        assert not (tmp_path / "from_config" / "ranking_jif.json").exists()
        # explicit flag beats the file
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "cli_wins")]) == 0
        assert (tmp_path / "cli_wins" / "ranking_jif.csv").exists()

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pubs": str(pubs), "journals": str(journals),
                                   "indicator": ["h-index"]}), encoding="utf-8")
        assert main(["compute", "--config", str(cfg)]) == 2
        assert "unknown indicator" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pubs": str(pubs), "journals": str(journals), "simz": 3, "sed": 1}),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["bootstrap", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key(s)" in err and "sed, simz" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("key", "value", "expected"),
        [
            ("sims", 2.7, "an integer"),
            ("sims", True, "an integer"),
            ("seed", "7", "an integer"),
            ("seed", False, "an integer"),
            ("format", 3, "a string or a list of strings"),
            ("format", ["csv", 3], "a string or a list of strings"),
            ("indicator", 5, "a string or a list of strings"),
            ("pubs", 5, "a string"),
            ("out", ["o"], "a string"),
            ("category", 1, "a string"),
            ("category", None, "a string"),
        ],
    )
    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys, key, value, expected):
        pubs, journals = write_tiny_corpus(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pubs": str(pubs), "journals": str(journals), key: value}), encoding="utf-8")
        out = tmp_path / "out"
        command = "compute" if key in ("format", "category") else "bootstrap"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config key {key} in {cfg} must be {expected}, not {json.dumps(value)}\n"
        assert not out.exists()

    def test_empty_format_list_is_usage_error(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pubs": str(pubs), "journals": str(journals), "format": []}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compute", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: at least one --format is required\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        ("settings", "message"),
        [
            (["compute"], "config file {cfg} must hold a JSON object"),
            ({"indicator": []}, "at least one --indicator is required"),
            ({"format": ["xml"]}, "unknown format(s): xml"),
        ],
    )
    def test_config_usage_error(self, tmp_path, capsys, settings, message):
        pubs, journals = write_tiny_corpus(tmp_path)
        cfg = tmp_path / "run.json"
        if isinstance(settings, dict):
            settings = {"pubs": str(pubs), "journals": str(journals), **settings}
        cfg.write_text(json.dumps(settings), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compute", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    def test_mistyped_generate_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "gen"), "sigma": "wide"}), encoding="utf-8")
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "config key sigma" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        pubs, journals = write_tiny_corpus(tmp_path)
        out = tmp_path / "out"
        code = main(["compute", "--config", str(tmp_path), "--pubs", str(pubs), "--journals", str(journals),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_sims_floor_enforced(self, tmp_path):
        pubs, journals = write_tiny_corpus(tmp_path)
        assert main(["bootstrap", "--pubs", str(pubs), "--journals", str(journals), "--sims", "0"]) == 2


class TestUsageErrors:
    """Usage errors exit 2 before any input file is read or output written."""

    @pytest.fixture(autouse=True)
    def no_reads(self, monkeypatch):
        def refuse(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "load_publications", refuse)
        monkeypatch.setattr(cli, "load_journals", refuse)

    @pytest.mark.parametrize("command", ["compute", "rank", "bootstrap", "flip-test", "report"])
    def test_missing_corpus_input(self, tmp_path, capsys, command):
        pubs, _ = write_tiny_corpus(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--pubs", str(pubs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --pubs and --journals are required\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("command", ["compute", "classify", "bootstrap", "generate"])
    def test_out_at_or_under_a_file(self, tmp_path, capsys, command, below):
        pubs, journals = write_tiny_corpus(tmp_path)
        related = tmp_path / "related.csv"
        related.write_text("pub_id,related_ids\n", encoding="utf-8")
        inputs = {
            "generate": [],
            "classify": ["--pubs", str(pubs), "--journals", str(journals), "--related", str(related)],
        }.get(command, ["--pubs", str(pubs), "--journals", str(journals)])
        afile = tmp_path / "afile"
        afile.write_bytes(b"not a directory\n")
        out = afile / below
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {afile} exists and is not a directory\n"
        assert afile.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["bootstrap", "flip-test", "generate"])
    def test_negative_seed(self, tmp_path, capsys, command, source):
        pubs, journals = write_tiny_corpus(tmp_path)
        inputs = [] if command == "generate" else ["--pubs", str(pubs), "--journals", str(journals)]
        if source == "flag":
            inputs += ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
            inputs += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("category", ["", "  "])
    @pytest.mark.parametrize("command, source", [("rank", "flag"), ("compute", "config")])
    def test_empty_category(self, tmp_path, capsys, command, source, category):
        pubs, journals = write_tiny_corpus(tmp_path)
        inputs = ["--pubs", str(pubs), "--journals", str(journals)]
        if source == "flag":
            inputs += ["--category", category]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"category": category}), encoding="utf-8")
            inputs += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --category must not be empty\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            *(("validate", flag) for flag in ("format", "indicator", "category", "sims", "seed")),
            *(("classify", flag) for flag in ("format", "indicator", "category", "sims", "seed")),
            ("compute", "sims"),
            ("rank", "sims"),
            ("bootstrap", "format"),
            ("bootstrap", "category"),
            ("flip-test", "format"),
            ("flip-test", "category"),
            ("flip-test", "sims"),
            ("report", "sims"),
        ],
    )
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command, flag):
        pubs, journals = write_tiny_corpus(tmp_path)
        value = {"format": "json", "indicator": "jif", "category": "X", "sims": "9", "seed": "1"}[flag]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--pubs", str(pubs), "--journals", str(journals), "--out", str(out), f"--{flag}", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: jrank {command} ")
        assert f"\njrank {command}: error: unrecognized arguments: --{flag} {value}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("compute", {"sigma": -4, "dist": "x"}),
            ("validate", {"related": "pubs.csv"}),
            ("generate", {"pubs": "pubs.csv"}),
            ("bootstrap", {"category": "X"}),
        ],
    )
    def test_config_key_the_command_does_not_read(self, tmp_path, monkeypatch, capsys, command, keys):
        # a path key names an existing file, so only the key itself can be at fault
        monkeypatch.chdir(tmp_path)
        pubs, journals = write_tiny_corpus(tmp_path)
        inputs = {} if command == "generate" else {"pubs": str(pubs), "journals": str(journals)}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**inputs, **keys}), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unknown config key(s) in {cfg}: {', '.join(sorted(keys))}\n"
        assert not out.exists()


class TestSubcommandFlags:
    IO = {"pubs", "journals", "out"}

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("validate", IO),
            ("classify", IO | {"related"}),
            ("compute", IO | {"format", "indicator", "category", "seed"}),
            ("rank", IO | {"format", "indicator", "category", "seed"}),
            ("bootstrap", IO | {"indicator", "sims", "seed"}),
            ("flip-test", IO | {"indicator", "seed"}),
            ("report", IO | {"related", "format", "indicator", "category", "seed"}),
            ("generate", {"out", "seed", "journals-count", "topics-count", "pubs-min", "pubs-max", "dist", "sigma",
                          "quality-spread", "review-fraction", "unclassified-fraction", "skewed",
                          "outlier-citations", "outlier-zero-fraction", "categories-count"}),
        ],
    )
    def test_each_subcommand_takes_only_the_flags_it_reads(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        assert listed == flags | {"help", "config"}

    def test_bootstrap_help_states_the_defaults_a_run_takes(self, capsys):
        with pytest.raises(SystemExit):
            main(["bootstrap", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--sims SIMS bootstrap simulation count (default: 100)" in text
        assert "--seed SEED random seed (default: 42)" in text
        assert (cli._DEFAULTS["sims"], cli._DEFAULTS["seed"]) == (100, 42)


class TestReport:
    def test_summary_written(self, generated, tmp_path, capsys):
        pubs, journals = generated
        out = tmp_path / "rep"
        assert main(["report", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "top journals by fncsi" in summary
        assert "coverage" in summary
        assert (out / "indicators.csv").exists()

    def test_report_tables_reflect_classification(self, tmp_path):
        rows = ("a1,jA,2018,Article,3,t1\na2,jA,2018,Article,5,t1\n"
                "u1,jB,2018,Article,9,\nb1,jB,2018,Article,1,t1\n")
        pubs, journals = write_tiny_corpus(tmp_path, rows=rows)
        related = tmp_path / "related.csv"
        related.write_text("pub_id,related_ids\nu1,a1|a2\n", encoding="utf-8")
        out = tmp_path / "rep"
        code = main(["report", "--pubs", str(pubs), "--journals", str(journals),
                     "--related", str(related), "--out", str(out)])
        assert code == 0
        jb_row = [l for l in (out / "indicators.csv").read_text().splitlines() if l.startswith("jB")][0]
        assert jb_row.split(",")[5] == "2"  # u1 was classified before computing

    @pytest.mark.parametrize("command", ["compute", "rank", "report"])
    def test_corpus_scored_once(self, tmp_path, monkeypatch, command):
        pubs, journals = write_tiny_corpus(tmp_path)
        calls = []

        def counting_compute_all(corpus):
            calls.append(corpus)
            return compute_all(corpus)

        monkeypatch.setattr(cli, "compute_all", counting_compute_all)
        code = main([command, "--pubs", str(pubs), "--journals", str(journals), "--out", str(tmp_path / "rep")])
        assert code == 0
        assert len(calls) == 1


class TestFilenames:
    def test_scoped_ranking_filename_slugs_spaces(self, tmp_path):
        pubs, journals = write_tiny_corpus(
            tmp_path, journals='jA,Journal A,CELL BIOLOGY\njB,Journal B,"CELL BIOLOGY|X"\n'
        )
        out = tmp_path / "out"
        code = main(["rank", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out),
                     "--indicator", "jif", "--category", "CELL BIOLOGY"])
        assert code == 0
        assert (out / "ranking_jif_CELL_BIOLOGY.csv").exists()

    def test_generate_profile_from_config_file(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "out": str(tmp_path / "gen"), "seed": 1,
            "journals-count": 4, "topics-count": 2, "pubs-min": 3, "pubs-max": 5,
        }), encoding="utf-8")
        assert main(["generate", "--config", str(cfg)]) == 0
        lines = (tmp_path / "gen" / "journals.csv").read_text().splitlines()
        assert len(lines) - 1 == 4
        # explicit flag still beats the file
        assert main(["generate", "--config", str(cfg), "--journals-count", "6",
                     "--out", str(tmp_path / "gen2")]) == 0
        assert len((tmp_path / "gen2" / "journals.csv").read_text().splitlines()) - 1 == 6


class TestAtomicOutputs:
    def test_table_writer_that_raises_leaves_no_file(self, tmp_path):
        def rows():
            yield ("jA", 1.0)
            raise RuntimeError("crash mid-table")

        with pytest.raises(RuntimeError, match="mid-table"):
            _write_csv(tmp_path / "t.csv", ["meta"], ("journal_id", "value"), rows())
        assert list(tmp_path.iterdir()) == []

    def test_crashed_compute_keeps_finished_files_and_no_temporaries(self, tmp_path, monkeypatch, capsys):
        pubs, journals = write_tiny_corpus(tmp_path)
        out = tmp_path / "out"
        args = ["compute", "--pubs", str(pubs), "--journals", str(journals), "--out", str(out)]
        assert main(args) == 0
        before = digest_dir(out)

        def failing_rows(scores):
            yield [scores.kernel.journal_ids[0], 0.0, 0.0, 0.0, 0.0, 0]
            raise RuntimeError("crash mid-table")

        monkeypatch.setattr(cli, "_indicator_rows", failing_rows)
        assert main(args) == 1
        assert "crash mid-table" in capsys.readouterr().err
        assert digest_dir(out) == before
