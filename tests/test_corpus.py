"""Corpus ingestion, validation, coverage, and serialization round-trips."""

from __future__ import annotations

import csv
import io
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import R, corpus_of, coverage_9998_corpus, load_corpus, load_related, pub, same_corpus
from oracles import (
    corpus_from_rows,
    random_corpus,
    reference_load_journals,
    reference_load_publications,
    reference_load_related,
    reference_write_table,
)

from jrank import corpus as corpus_module
from jrank.classifier import RELATED_COLUMNS
from jrank.corpus import (
    Corpus,
    CorpusFragment,
    DocumentType,
    JOURNAL_COLUMNS,
    PUBLICATION_COLUMNS,
    Finding,
    Journal,
    Publication,
    SchemaError,
    atomic_write,
    coverage_stats,
    load_journals,
    load_publications,
    validate_corpus,
    write_journals,
    write_publications,
    write_table,
)
from jrank.synth import SyntheticProfile, generate_corpus

HEADER = "pub_id,journal_id,pub_year,doc_type,citations,topic_id\n"
JHEADER = "journal_id,title,categories\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadPublications:
    def test_row_maps_directly_to_fields(self, tmp_path):
        frag = load_publications(write(tmp_path, "p.csv", HEADER + "p1,jA,2018,Article,3,t7\n"))
        assert not frag.errors
        (p,) = frag.publications
        assert (p.pub_id, p.journal_id, p.pub_year) == ("p1", "jA", 2018)
        assert p.doc_type is DocumentType.ARTICLE
        assert (p.citations, p.topic_id) == (3, "t7")

    def test_negative_citations_collected_with_row_number(self, tmp_path):
        frag = load_publications(write(tmp_path, "p.csv", HEADER + "p1,jA,2018,Article,-1,t7\n"))
        assert not frag.publications
        (err,) = frag.errors
        assert err.line == 2
        assert "citations" in err.message

    def test_empty_file_with_header_is_empty_fragment(self, tmp_path):
        frag = load_publications(write(tmp_path, "p.csv", HEADER))
        assert frag.publications == [] and frag.errors == []

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write(tmp_path, "p.csv", "pub_id,journal_id,pub_year,doc_type,citations\np1,jA,2018,Article,3\n")
        with pytest.raises(SchemaError, match="topic_id"):
            load_publications(path)

    def test_completely_empty_file_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            load_publications(write(tmp_path, "p.csv", ""))

    def test_duplicate_pub_id_collected(self, tmp_path):
        frag = load_publications(
            write(tmp_path, "p.csv", HEADER + "p1,jA,2018,Article,3,t7\np1,jB,2018,Review,1,t7\n")
        )
        assert len(frag.publications) == 1
        (err,) = frag.errors
        assert "duplicate" in err.message and err.line == 3

    def test_unknown_doc_type_rejected_not_mapped(self, tmp_path):
        frag = load_publications(write(tmp_path, "p.csv", HEADER + "p1,jA,2018,Letter,3,t7\n"))
        assert not frag.publications
        assert "Letter" in frag.errors[0].message

    def test_doc_type_parse_is_case_insensitive(self, tmp_path):
        frag = load_publications(
            write(tmp_path, "p.csv", HEADER + "p1,jA,2018,article,3,t7\np2,jA,2018,REVIEW,1,t7\n")
        )
        assert [p.doc_type for p in frag.publications] == [DocumentType.ARTICLE, DocumentType.REVIEW]

    def test_tab_delimiter_autodetected(self, tmp_path):
        text = HEADER.replace(",", "\t") + "p1\tjA\t2018\tArticle\t3\tt7\n"
        frag = load_publications(write(tmp_path, "p.tsv", text))
        assert frag.publications[0].citations == 3

    def test_crlf_comments_and_blank_lines_tolerated(self, tmp_path):
        text = "# provenance comment\r\n" + HEADER.replace("\n", "\r\n") + "\r\np1,jA,2018,Article,3,t7\r\n"
        frag = load_publications(write(tmp_path, "p.csv", text))
        assert len(frag.publications) == 1 and not frag.errors

    def test_empty_topic_means_unclassified(self, tmp_path):
        frag = load_publications(write(tmp_path, "p.csv", HEADER + "p1,jA,2018,Article,3,\n"))
        assert frag.publications[0].topic_id is None

    def test_rejected_rows_leave_nothing_in_any_column(self, tmp_path):
        rows = "p1,jA,2018,Article,3,t7\np2,jA,2018,Letter,3,t7\np1,jB,2018,Review,1,t7\np3,jA,2018,Article,-1,\n"
        frag = load_publications(write(tmp_path, "p.csv", HEADER + rows + "p4,jB,2019,Review,0,\n"))
        assert [e.line for e in frag.errors] == [3, 4, 5]
        assert frag.publications == [
            Publication("p1", "jA", 2018, DocumentType.ARTICLE, 3, "t7"),
            Publication("p4", "jB", 2019, DocumentType.REVIEW, 0, None),
        ]
        assert (frag.corpus.journal_ids, frag.corpus.topics) == (("jA", "jB"), ("t7",))

    def test_repeated_journal_year_and_topic_share_one_object(self, tmp_path):
        rows = "".join(f"p{i},jA,2018,Article,{i},t7\n" for i in range(3))
        frag = load_publications(write(tmp_path, "p.csv", HEADER + rows))
        corpus = frag.corpus
        assert (corpus.journal_ids, corpus.topics, corpus.pub_years.tolist()) == (("jA",), ("t7",), [2018] * 3)
        assert corpus.journal.tolist() == corpus.topic.tolist() == [0, 0, 0]
        for column in ("journal_id", "topic_id"):  # the rows decode each code to its table's one object
            assert len({id(getattr(p, column)) for p in frag.publications}) == 1

    def test_bad_year_and_bad_citations_reported(self, tmp_path):
        frag = load_publications(
            write(tmp_path, "p.csv", HEADER + "p1,jA,bad,Article,3,t7\np2,jA,2018,Article,many,t7\n")
        )
        assert [e.line for e in frag.errors] == [2, 3]


class TestLoadJournals:
    def test_categories_pipe_separated(self, tmp_path):
        path = write(tmp_path, "j.csv", "journal_id,title,categories\njA,Journal A,ONCOLOGY|CELL BIOLOGY\n")
        frag = load_journals(path)
        assert frag.journals["jA"].categories == ("ONCOLOGY", "CELL BIOLOGY")

    def test_empty_categories_allowed(self, tmp_path):
        frag = load_journals(write(tmp_path, "j.csv", "journal_id,title,categories\njA,Journal A,\n"))
        assert frag.journals["jA"].categories == ()

    def test_duplicate_journal_id_collected(self, tmp_path):
        frag = load_journals(
            write(tmp_path, "j.csv", "journal_id,title,categories\njA,One,\njA,Two,\n")
        )
        assert len(frag.journals) == 1 and "duplicate" in frag.errors[0].message


class TestRecords:
    """One csv.reader streams the file: records may span lines, comments only start records."""

    def test_quoted_newline_in_title_is_one_journal(self, tmp_path):
        text = JHEADER + 'jA,"Multi\nline",ONCOLOGY|CELL BIOLOGY\njB,Plain,X\n'
        frag = load_journals(write(tmp_path, "j.csv", text))
        assert not frag.errors and list(frag.journals) == ["jA", "jB"]
        assert frag.journals["jA"] == Journal("jA", "Multi\nline", ("ONCOLOGY", "CELL BIOLOGY"))

    @pytest.mark.parametrize("separator", ["\x85", "\u2028"])
    def test_unicode_line_separator_in_title_is_one_journal(self, tmp_path, separator):
        text = JHEADER + f"jA,Alpha{separator}Gamma,X|Y\njB,Beta,Z\n"
        frag = load_journals(write(tmp_path, "j.csv", text))
        assert not frag.errors and list(frag.journals) == ["jA", "jB"]
        assert frag.journals["jA"] == Journal("jA", f"Alpha{separator}Gamma", ("X", "Y"))

    def test_quoted_field_keeps_blank_and_hash_continuation_lines(self, tmp_path):
        title = "first\n\n# not a comment\n   \nlast"
        frag = load_journals(write(tmp_path, "j.csv", JHEADER + f'jA,"{title}",X\n# a comment\njB,B,\n'))
        assert not frag.errors and list(frag.journals) == ["jA", "jB"]
        assert frag.journals["jA"].title == title

    def test_row_error_after_multiline_record_names_its_physical_line(self, tmp_path):
        text = (
            HEADER
            + 'p1,jA,2018,Article,3,"t\n1"\n'  # lines 2-3
            + "# comment\n\n"  # lines 4-5
            + "p2,jA,2018,Article,-1,t1\n"  # line 6
            + 'p3,jA,"20\n18x",Article,1,t1\n'  # lines 7-8
            + "p4,jA,2018,Letter,1,t1\n"  # line 9
        )
        frag = load_publications(write(tmp_path, "p.csv", text))
        assert [p.topic_id for p in frag.publications] == ["t\n1"]
        assert [e.line for e in frag.errors] == [6, 8, 9]
        assert "citations" in frag.errors[0].message and "20\\n18x" in frag.errors[1].message

    def test_bom_crlf_comment_and_quoted_crlf(self, tmp_path):
        text = "\ufeff# provenance\r\n" + HEADER.replace("\n", "\r\n") + '\r\np1,jA,2018,Article,3,"t\r\n7"\r\n'
        frag = load_publications(write(tmp_path, "p.csv", text))
        assert not frag.errors
        assert [p.topic_id for p in frag.publications] == ["t\r\n7"]

    def test_bom_before_header(self, tmp_path):
        frag = load_publications(write(tmp_path, "p.csv", "\ufeff" + HEADER + "p1,jA,2018,Article,3,t7\n"))
        assert not frag.errors and frag.publications[0].pub_id == "p1"

    def test_tab_delimited_quoted_tab(self, tmp_path):
        text = HEADER.replace(",", "\t") + 'p1\tjA\t2018\tArticle\t3\t"t\t7"\n'
        frag = load_publications(write(tmp_path, "p.tsv", text))
        assert not frag.errors and frag.publications[0].topic_id == "t\t7"

    def test_indented_comment_and_whitespace_line_skipped(self, tmp_path):
        text = HEADER + "   # indented comment\n \t \np1,jA,2018,Article,3,t7\np2,jA,2018,Article,-3,t7\n"
        frag = load_publications(write(tmp_path, "p.csv", text))
        assert len(frag.publications) == 1
        assert [e.line for e in frag.errors] == [5]

    def test_header_columns_in_any_order_and_short_rows_padded(self, tmp_path):
        text = "topic_id,citations,doc_type,pub_year,journal_id,pub_id,extra\nt1,3,Review,2019,jA,p1,x\n"
        text += ",3,Article,2019,jA,p2\n"
        frag = load_publications(write(tmp_path, "p.csv", text))
        assert not frag.errors
        assert frag.publications == [
            Publication("p1", "jA", 2019, DocumentType.REVIEW, 3, "t1"),
            Publication("p2", "jA", 2019, DocumentType.ARTICLE, 3, None),
        ]

    def test_missing_trailing_field_reads_empty(self, tmp_path):
        frag = load_journals(write(tmp_path, "j.csv", JHEADER + "jA,Title\n"))
        assert not frag.errors and frag.journals["jA"] == Journal("jA", "Title", ())

    def test_unclosed_quote_is_schema_error_naming_its_line(self, tmp_path):
        text = HEADER + "p1,jA,2018,Article,3,t1\n" + 'p2,jA,2018,Article,3,"t1\np3,jA,2018,Article,1,t1\n'
        with pytest.raises(SchemaError, match="line 3: quoted field is never closed"):
            load_publications(write(tmp_path, "p.csv", text))

    def test_oversized_field_is_schema_error_naming_its_line(self, tmp_path):
        text = HEADER + "p1,jA,2018,Article,3,t1\n" + 'p2,jA,2018,Article,3,"' + "x" * 200_000 + '"\n'
        with pytest.raises(SchemaError, match="line 3: field larger than field limit"):
            load_publications(write(tmp_path, "p.csv", text))

    def test_oversized_unquoted_field_is_schema_error_naming_its_line(self, tmp_path):
        text = HEADER + "p1,jA,2018,Article,3,t1\n" + "p2,jA,2018,Article,3," + "x" * 200_000 + "\n"
        with pytest.raises(SchemaError, match="line 3: field larger than field limit"):
            load_publications(write(tmp_path, "p.csv", text))

    def test_comment_only_file_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="empty file"):
            load_publications(write(tmp_path, "p.csv", "# nothing here\n\n"))


def outcome(load, path):
    """What a loader makes of a file: its fragment (a publications fragment as its rows and errors),
    or the text of the SchemaError it raises."""
    try:
        loaded = load(path)
    except SchemaError as exc:
        return str(exc)
    return (loaded.publications, loaded.errors) if isinstance(loaded, CorpusFragment) else loaded


class TestBlocks:
    """Clean blocks are split column-wise; from the first other block on, csv.reader reads the rest."""

    ROWS = "".join(f"p{i},jA,2018,Article,{i},t1\n" for i in range(12))  # about 25 characters a line

    def load_in_blocks(self, tmp_path, text, hint=60):
        path = write(tmp_path, "p.csv", text)
        with mock.patch.object(corpus_module, "_BLOCK_HINT", hint):
            fragment = load_publications(path)
        assert same_corpus(fragment, reference_load_publications(path))
        return fragment

    def test_clean_file_reads_only_its_header_through_csv(self, tmp_path):
        rows = []
        csv_reader = csv.reader

        def reader(lines, **kwargs):
            for row in csv_reader(lines, **kwargs):
                rows.append(row)
                yield row

        path = write(tmp_path, "p.csv", HEADER + self.ROWS)
        with mock.patch.object(corpus_module, "_BLOCK_HINT", 60), mock.patch.object(csv, "reader", reader):
            frag = load_publications(path)
        assert len(frag.publications) == 12 and not frag.errors
        assert rows == [list(PUBLICATION_COLUMNS)]

    def test_quoted_field_across_a_block_boundary(self, tmp_path):
        text = HEADER + self.ROWS + 'p20,jA,2018,Article,1,"t\n1"\np21,jA,2018,Letter,1,t1\n' + self.ROWS
        frag = self.load_in_blocks(tmp_path, text)
        assert (frag.publications[12].pub_id, frag.publications[12].topic_id) == ("p20", "t\n1")
        assert [e.line for e in frag.errors] == [16] + list(range(17, 29))

    def test_comment_after_clean_blocks(self, tmp_path):
        text = HEADER + self.ROWS + "# a comment\n\n" + "p30,jA,2018,Article,-1,t1\np31,jA,2018,Article,1,\n"
        frag = self.load_in_blocks(tmp_path, text)
        assert [(e.line, e.message) for e in frag.errors] == [(16, "citations must be >= 0, got -1")]
        assert (frag.publications[-1].pub_id, frag.publications[-1].topic_id) == ("p31", None)

    def test_duplicate_of_an_earlier_block_is_a_row_error(self, tmp_path):
        frag = self.load_in_blocks(tmp_path, HEADER + self.ROWS + "p3,jB,2019,Review,0,t2\np40,jB,2019,Review,0,t2\n")
        assert [(e.line, e.message) for e in frag.errors] == [(14, "duplicate pub_id 'p3'")]
        assert frag.publications[-1].pub_id == "p40"

    @pytest.mark.parametrize("pad", ["\xa0", "\u3000", "\x85", "\x1c", " ", "\t", "\x0b", "\x0c", "\x1f"])
    def test_padding_in_an_otherwise_clean_block_is_stripped(self, tmp_path, pad):
        padded = f"{pad}p50,jA{pad},{pad}2018,Article{pad},{pad}1{pad},{pad}t1\n"
        text = HEADER + self.ROWS + padded + self.ROWS.replace("p", "q")
        # in a tab-separated file a tab separates, so every other pad is tried there too
        for delimiter in ",\t".replace(pad, ""):
            frag = self.load_in_blocks(tmp_path, text.replace(",", delimiter))
            assert not frag.errors
            assert frag.publications[12] == Publication("p50", "jA", 2018, DocumentType.ARTICLE, 1, "t1")


# Values for the cells of generated tables: valid ones per table, and others
# that every table must survive: quotes, comment marks, padding, NUL, a BOM,
# bad integers, unknown document types, negative counts.
_VALID = {
    PUBLICATION_COLUMNS: {
        "pub_id": st.sampled_from([f"p{i}" for i in range(12)]),
        "journal_id": st.sampled_from(["jA", "jB", " jC "]),
        "pub_year": st.sampled_from(["2018", "2019", " 2020"]),
        "doc_type": st.sampled_from(["Article", "review", "REVIEW "]),
        "citations": st.sampled_from(["0", "3", "17"]),
        "topic_id": st.sampled_from(["t1", "t2", ""]),
    },
    JOURNAL_COLUMNS: {
        "journal_id": st.sampled_from([f"j{i}" for i in range(8)]),
        "title": st.sampled_from(["Title", " Padded title ", ""]),
        "categories": st.sampled_from(["A|B", "A", "", " | C"]),
    },
    RELATED_COLUMNS: {
        "pub_id": st.sampled_from([f"p{i}" for i in range(8)]),
        "related_ids": st.sampled_from(["p1|p2", "x9", "p3| |p4", ""]),
    },
}
# odd cells that leave a line clean, and ones that send the rest of the file through csv.reader
_ODD = st.sampled_from(
    ["", "  ", "19x9", "1.5", "-1", "9223372036854775808", "Letter", "#p", " # p", "\ufeffp", "x\u2028y", "a\x00b", "p1|p1"]
)
_UNCLEAN = st.sampled_from(['"p1"', '"a,b"', '"multi\nline"', '"half', 'a"b', "a\rb", "\tp\t"])
_EXTRA_LINES = st.sampled_from(["", "   ", "\t\t", "# comment", "  # indented", "\x0c"])


@st.composite
def _table_texts(draw, columns):
    """A table of mostly valid rows, some with one odd cell, some short or long, with stray lines between."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    header = list(columns)
    if draw(st.booleans()):
        header.append("extra")
    if draw(st.booleans()):
        header.insert(0, draw(st.sampled_from(columns)))  # a repeated column: the last wins
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(columns)))  # the file is refused
    header = draw(st.permutations(header))
    lines = [delimiter.join(header if draw(st.booleans()) else [f" {name} " for name in header])]
    for _ in range(draw(st.integers(0, 25))):
        values = [draw(_VALID[columns].get(name, st.just("x"))) for name in header]
        kind = draw(st.integers(0, 19))
        if kind < 5:
            values[draw(st.integers(0, len(values) - 1))] = draw(_ODD)
        elif kind == 5:
            values[draw(st.integers(0, len(values) - 1))] = draw(_UNCLEAN)
        elif kind == 6:
            values = values[: draw(st.integers(0, len(values) - 1))] if draw(st.booleans()) else values + ["more"]
        elif kind == 7:
            values = [draw(_EXTRA_LINES)] if draw(st.booleans()) else [" "] * len(header)
        lines.append(delimiter.join(values))
    if draw(st.booleans()):
        lines.insert(0, draw(_EXTRA_LINES.filter(lambda text: not text.strip() or "#" in text)))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", None]))
    endings = [ending or draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(map(str.__add__, lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\n")  # no final line break
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_block_reader_matches_the_row_reader(tmp_path_factory, data):
    columns, load, reference = data.draw(
        st.sampled_from(
            [
                (PUBLICATION_COLUMNS, load_publications, reference_load_publications),
                (JOURNAL_COLUMNS, load_journals, reference_load_journals),
                (RELATED_COLUMNS, load_related, reference_load_related),
            ]
        )
    )
    path = tmp_path_factory.mktemp("blocks") / "table.csv"
    path.write_bytes(data.draw(_table_texts(columns)).encode("utf-8"))
    with mock.patch.object(corpus_module, "_BLOCK_HINT", data.draw(st.integers(1, 120))):
        got = outcome(load, path)
    assert got == outcome(reference, path)


_cells = st.one_of(
    st.sampled_from(["#", " #x", "a\rb", "\r", "x", "", '"', ",", "\n"]),
    st.text(st.sampled_from("ab #\r\n,\"\t"), max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_cells, min_size=1, max_size=4), max_size=20), batch=st.integers(1, 6))
def test_write_table_matches_the_row_by_row_rule(rows, batch):
    expected = io.StringIO(newline="")
    reference_write_table(expected, ("a", "b"), rows)
    written = io.StringIO(newline="")
    with mock.patch.object(corpus_module, "_WRITE_BATCH", batch):
        write_table(written, ("a", "b"), rows)
    assert written.getvalue() == expected.getvalue()


# rows a csv writer leaves unquoted, ragged, and rows it must quote or treat apart
_plain_rows = st.lists(st.sampled_from(["a", "b c", " x ", "", "2018", "a#b"]), min_size=1, max_size=4).filter(
    lambda row: row != [""]
)
_odd_rows = st.one_of(
    st.sampled_from([[""], ("",), ["#a", "b"], [" #", ""], ["a,b"], ["x", 'a"b'], ["a\nb", "c"], ["a", "b\r"]]),
    st.lists(_cells, min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(_plain_rows, _plain_rows.map(tuple), _odd_rows), max_size=24), batch=st.integers(1, 4))
def test_joined_batches_match_the_row_by_row_rule(rows, batch):
    expected = io.StringIO(newline="")
    reference_write_table(expected, ("a", "b"), rows)
    written = io.StringIO(newline="")
    with mock.patch.object(corpus_module, "_WRITE_BATCH", batch):
        write_table(written, ("a", "b"), rows)
    assert written.getvalue() == expected.getvalue()


def test_write_publications_matches_rows_built_one_at_a_time(tmp_path):
    corpus = corpus_of(
        [pub("p1", "jA", 10**18), pub("p2", "jB", 0, "t1", doc=R, year=1999), pub("#p3", "jA", 2**63 - 1, "t,2", doc=R),
         pub("p4", "j\r", 5), pub("p5", "jB", 7, "t1"), pub("p6", "jA", 1, None, doc=R, year=-3)]
    )
    rows = (
        (p.pub_id, p.journal_id, str(p.pub_year), p.doc_type.value, str(p.citations), p.topic_id or "")
        for p in corpus.publications
    )
    expected = io.StringIO(newline="")
    reference_write_table(expected, PUBLICATION_COLUMNS, rows)
    with mock.patch.object(corpus_module, "_WRITE_BATCH", 2):
        write_publications(corpus, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes().decode("utf-8") == expected.getvalue()


class TestWriteReadBack:
    def test_leading_hash_ids_are_quoted_and_read_back(self, tmp_path):
        journals = {"#jA": Journal("#jA", "# title", ("#c",)), "jB": Journal("jB", "B", ())}
        corpus = corpus_of([pub("#p1", "#jA", 2, "#t"), pub("p2", "jB", 1, "t1")], journals=journals)
        write_publications(corpus, tmp_path / "p.csv")
        write_journals(corpus.journals, tmp_path / "j.csv")
        assert '"#p1","#jA","2018","Article","2","#t"\n' in (tmp_path / "p.csv").read_text(encoding="utf-8")
        assert "p2,jB,2018,Article,1,t1\n" in (tmp_path / "p.csv").read_text(encoding="utf-8")
        reloaded, errors = load_corpus(tmp_path / "p.csv", tmp_path / "j.csv")
        assert not errors and same_corpus(reloaded, corpus)

    def test_carriage_return_in_field_reads_back(self, tmp_path):
        journals = {"jA": Journal("jA", "one\rtwo", ("X\rY",))}
        corpus = corpus_of([pub("p\r1", "jA", 2, "t\r1")], journals=journals)
        write_publications(corpus, tmp_path / "p.csv")
        write_journals(corpus.journals, tmp_path / "j.csv")
        reloaded, errors = load_corpus(tmp_path / "p.csv", tmp_path / "j.csv")
        assert not errors and same_corpus(reloaded, corpus)

    def test_writer_that_raises_leaves_no_file(self, tmp_path):
        class Broken(tuple):
            def __iter__(self):
                yield "p1"
                raise RuntimeError("disk gone")

        corpus = corpus_of([pub("p1", "jA", 2, "t1"), pub("p2", "jA", 1, "t1")])
        with pytest.raises(RuntimeError, match="disk gone"):
            write_publications(replace(corpus, pub_ids=Broken(corpus.pub_ids)), tmp_path / "p.csv")
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_creates_the_missing_directory(self, tmp_path):
        out = tmp_path / "a" / "b"
        with pytest.raises(RuntimeError, match="disk gone"):
            with atomic_write(out / "t.txt") as fh:
                fh.write("half")
                raise RuntimeError("disk gone")
        assert list(out.iterdir()) == []
        with atomic_write(out / "t.txt") as fh:
            fh.write("whole")
        assert [path.name for path in out.iterdir()] == ["t.txt"] and (out / "t.txt").read_text() == "whole"

    def test_writer_that_raises_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "j.csv"
        write_journals({"jA": Journal("jA", "A", ())}, path)
        before = path.read_bytes()

        class Broken(dict):
            def values(self):
                yield Journal("jB", "B", ())
                raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError):
            write_journals(Broken(), path)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before


# Text that ingest keeps as written: no surrounding whitespace (fields are
# stripped), drawn with the characters that delimited text must quote or
# that other line splitters break on.
_TRICKY = st.sampled_from([",", '"', "\t", "\n", "\r", "\x85", "\u2028", "#", " ", "|"])
_text = st.text(st.one_of(_TRICKY, st.characters(blacklist_categories=("Cs",))), max_size=12)
_ids = st.one_of(_text, _text.map(lambda s: "#" + s)).map(str.strip).filter(bool)
_categories = st.lists(_ids.map(lambda s: s.replace("|", "/").strip()).filter(bool), max_size=3)


@st.composite
def _corpora(draw) -> Corpus:
    journal_ids = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    journals = {
        j: Journal(j, draw(_text.map(str.strip)), tuple(draw(_categories))) for j in journal_ids
    }
    pub_ids = draw(st.lists(_ids, max_size=8, unique=True))
    publications = tuple(
        Publication(
            p,
            draw(st.sampled_from(journal_ids)),
            draw(st.integers(1900, 2100)),
            draw(st.sampled_from(DocumentType)),
            draw(st.integers(0, 10**6)),
            draw(st.one_of(st.none(), _ids)),
        )
        for p in pub_ids
    )
    return corpus_from_rows(publications, journals)


@settings(max_examples=200, deadline=None)
@given(corpus=_corpora())
def test_write_then_load_gives_back_the_corpus(tmp_path_factory, corpus):
    directory = tmp_path_factory.mktemp("roundtrip")
    write_publications(corpus, directory / "p.csv")
    write_journals(corpus.journals, directory / "j.csv")
    reloaded, errors = load_corpus(directory / "p.csv", directory / "j.csv")
    assert errors == []
    assert same_corpus(reloaded, corpus)


def test_topics_are_the_sorted_topics_the_publications_use():
    corpus = corpus_of([pub("p1", "jA", 3, "t2"), pub("p2", "jA", 1), pub("p3", "jB", 0, "t10"),
                        pub("p4", "jB", 2, "t2")])
    assert corpus.topics == ("t10", "t2")
    assert corpus_of([pub("p1", "jA", 3)]).topics == ()


def columns(**changes) -> dict:
    """Constructor arguments of a clean three-paper corpus (two journals, two topics, one paper unclassified)."""
    arguments = dict(
        pub_ids=("p1", "p2", "p3"),
        journal=np.array([0, 1, 1], dtype=np.int32),
        topic=np.array([1, -1, 0], dtype=np.int32),
        review=np.array([False, True, False]),
        pub_years=np.array([2018, 2018, 2017], dtype=np.int32),
        citations=np.array([3, 1, 0], dtype=np.int64),
        journal_ids=("jA", "jB"),
        topics=("t1", "t2"),
        journals={"jA": Journal("jA"), "jB": Journal("jB")},
    )
    return arguments | changes


class TestCorpusColumns:
    """The constructor refuses columns that would make a command score or count the wrong papers."""

    def test_clean_columns_decode_to_their_rows(self):
        corpus = Corpus(**columns())
        assert corpus.publications == (
            Publication("p1", "jA", 2018, DocumentType.ARTICLE, 3, "t2"),
            Publication("p2", "jB", 2018, DocumentType.REVIEW, 1, None),
            Publication("p3", "jB", 2017, DocumentType.ARTICLE, 0, "t1"),
        )

    @pytest.mark.parametrize(
        "name, column",
        [
            ("journal", np.array([0, 1], dtype=np.int32)),  # three pub_ids, two journal codes
            ("citations", np.array([3, 1, 0, 7], dtype=np.int64)),
            ("review", np.array([False, True])),
        ],
    )
    def test_columns_of_unequal_length_are_rejected(self, name, column):
        with pytest.raises(ValueError, match=f"{name} must be"):
            Corpus(**columns(**{name: column}))

    @pytest.mark.parametrize(
        "name, codes",
        [
            ("journal", [0, 2, 1]),
            ("journal", [0, -1, 1]),
            ("topic", [1, -1, 2]),
            ("topic", [1, -2, 0]),
        ],
    )
    def test_codes_outside_their_tables_are_rejected(self, name, codes):
        with pytest.raises(ValueError, match=f"{name} codes must index"):
            Corpus(**columns(**{name: np.array(codes, dtype=np.int32)}))

    @pytest.mark.parametrize(
        "citations", [np.array([3, -5, 0], dtype=np.int64), np.array([3, 2**63, 0], dtype=np.uint64), [3, 1, 0]]
    )
    def test_citations_outside_int64_counts_are_rejected(self, citations):
        with pytest.raises(ValueError, match="citations"):
            Corpus(**columns(citations=citations))

    @pytest.mark.parametrize(
        "topics, codes",
        [
            (("t2", "t1"), [1, -1, 0]),  # unsorted
            (("t1", "t1"), [1, -1, 0]),  # repeated
            (("t1", "t2", "t3"), [1, -1, 0]),  # t3 unused
        ],
    )
    def test_topic_table_unsorted_repeated_or_unused_is_rejected(self, topics, codes):
        with pytest.raises(ValueError, match="topics must be"):
            Corpus(**columns(topics=topics, topic=np.array(codes, dtype=np.int32)))

    @pytest.mark.parametrize(
        "journal_ids, journals",
        [
            (("jB", "jA"), None),  # unsorted
            (("jA", "jB", "jC"), None),  # jC neither publishes nor is in the journal table
            (("jA", "jB"), {"jA": Journal("jA"), "jB": Journal("jB"), "jZ": Journal("jZ")}),  # jZ missing
        ],
    )
    def test_journal_table_other_than_the_table_and_the_publishers_is_rejected(self, journal_ids, journals):
        changes = {"journal_ids": journal_ids} | ({"journals": journals} if journals else {})
        with pytest.raises(ValueError, match="journal_ids must be"):
            Corpus(**columns(**changes))


class TestValidate:
    def test_dangling_journal_reference(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1")], journals=["jB"])
        report = validate_corpus(corpus)
        assert len(report) == 1
        assert report[0].code == "dangling-journal"

    def test_well_formed_corpus_is_clean(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jA", 1, "t1"), pub("p3", "jB", 0, "t2")])
        assert validate_corpus(corpus) == []

    def test_validation_is_pure(self):
        corpus = corpus_of([pub("p1", "jA", 3, "t1"), pub("p2", "jB", 1, "t2")], journals=["jB"])
        assert validate_corpus(corpus) == validate_corpus(corpus)
        assert [f.code for f in validate_corpus(corpus)] == ["dangling-journal"]

    def test_a_clean_corpus_is_checked_in_far_less_memory_than_a_set_of_its_ids(self):
        # at 50k papers one set(pub_ids) peaks near 2.6 MB and the journal-code check near 0.12 MB
        corpus = generate_corpus(SyntheticProfile(n_journals=500, n_topics=50, pubs_min=80, pubs_max=120), seed=3)
        assert len(corpus.pub_ids) >= 50_000
        tracemalloc.start()
        try:
            set(corpus.pub_ids)
            _, id_set = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert validate_corpus(corpus) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < id_set / 10, f"validate_corpus peak {peak} B against {id_set} B for the set of ids"


def walked_findings(corpus: Corpus) -> list[Finding]:
    """The findings of a plain walk over every row, in row order."""
    findings = []
    for p in corpus.publications:
        if p.journal_id not in corpus.journals:
            findings.append(Finding("dangling-journal", p.pub_id, f"journal {p.journal_id!r} not in journal table"))
    return findings


@st.composite
def _flawed_corpora(draw) -> Corpus:
    """Small corpora with distinct ids and dangling journals at random rows."""
    ids = draw(st.permutations([f"p{i}" for i in range(draw(st.integers(0, 12)))]))
    rows = [
        Publication(
            pub_id,
            draw(st.sampled_from(["jA", "jB", "jX"])),
            2018,
            DocumentType.ARTICLE,
            draw(st.integers(0, 9)),
            draw(st.sampled_from([None, "t1", "t2", "t9"])),
        )
        for pub_id in ids
    ]
    journals = {j: Journal(j) for j in draw(st.sets(st.sampled_from(["jA", "jB", "jX"])))}
    return corpus_from_rows(rows, journals)


@settings(max_examples=500, deadline=None)
@given(corpus=_flawed_corpora())
def test_validate_finds_what_a_row_walk_finds(corpus):
    assert validate_corpus(corpus) == walked_findings(corpus)


class TestCoverage:
    def test_all_assigned(self):
        corpus = corpus_of([pub("p1", "jA", 1, "t1"), pub("p2", "jB", 2, "t1")])
        cov = coverage_stats(corpus)
        assert (cov.publication_coverage, cov.journal_coverage) == (1.0, 1.0)

    def test_99_of_100_single_journal(self):
        pubs = [pub(f"p{i}", "jA", 0, "t1") for i in range(99)] + [pub("p99", "jA", 0, None)]
        cov = coverage_stats(corpus_of(pubs))
        assert cov.publication_coverage == 0.99
        assert cov.journal_coverage == 1.0

    def test_exactly_90_percent_does_not_count(self):
        pubs = [pub(f"p{i}", "jA", 0, "t1") for i in range(9)] + [pub("p9", "jA", 0, None)]
        assert coverage_stats(corpus_of(pubs)).journal_coverage == 0.0

    def test_paper_scale_thresholds(self):
        cov = coverage_stats(coverage_9998_corpus())
        assert cov.publication_coverage == 0.99
        assert cov.journal_coverage == 0.98

    def test_fractions_match_brute_recount(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            corpus = random_corpus(rng, max_journals=12, max_pubs=300, unclassified_p=0.2)
            cov = coverage_stats(corpus)
            assert 0.0 <= cov.publication_coverage <= 1.0
            assert 0.0 <= cov.journal_coverage <= 1.0
            classified = [p for p in corpus.publications if p.topic_id is not None]
            assert cov.publication_coverage == len(classified) / len(corpus.publications)
            per_journal: dict[str, list[int]] = {}
            for p in corpus.publications:
                per_journal.setdefault(p.journal_id, []).append(1 if p.topic_id else 0)
            over = sum(1 for flags in per_journal.values() if sum(flags) / len(flags) > 0.9)
            assert cov.journal_coverage == over / len(per_journal)


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(5):
            corpus = random_corpus(rng, max_journals=10, max_pubs=200, unclassified_p=0.1)
            pubs_path = tmp_path / f"pubs{i}.csv"
            journals_path = tmp_path / f"journals{i}.csv"
            write_publications(corpus, pubs_path)
            write_journals(corpus.journals, journals_path)
            reloaded, errors = load_corpus(pubs_path, journals_path)
            assert not errors
            assert same_corpus(reloaded, corpus)

    def test_roundtrip_preserves_categories_and_titles(self, tmp_path):
        from jrank.corpus import Journal

        journals = {"jA": Journal("jA", 'Journal "A", applied', ("X", "Y Z"))}
        corpus = corpus_of([pub("p1", "jA", 2, "t1")], journals=journals)
        write_publications(corpus, tmp_path / "p.csv")
        write_journals(corpus.journals, tmp_path / "j.csv")
        reloaded, errors = load_corpus(tmp_path / "p.csv", tmp_path / "j.csv")
        assert not errors and same_corpus(reloaded, corpus)
