"""Ranking tables and percentile ranks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scores_of
from oracles import order_journals

from jrank.corpus import Journal
from jrank.indicators import INDICATOR_KEYS
from jrank.ranking import rank, ranks

# ties, signed zeros and infinities are drawn often; None is an unrankable journal, NaN in Scores
_floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, math.inf, -math.inf]), st.floats(allow_nan=False))
_values = st.one_of(st.none(), _floats)


def scores_with(values: dict[str, float | None], key="fncsi", journals=None):
    """``Scores`` in which the journals of ``values`` hold those values on ``key`` and NaN on the other keys."""
    column = [math.nan if values[j] is None else values[j] for j in sorted(values)]
    other = [math.nan] * len(values)
    return scores_of(journals or list(values), **{k: column if k == key else other for k in INDICATOR_KEYS})


def table_from(values: dict[str, float], key="fncsi", journals=None, **kwargs) -> list[tuple[str, float, int, float]]:
    return rank(scores_with(values, key, journals), key, **kwargs)


class TestRank:
    def test_descending_order(self):
        table = table_from({"jA": 0.9, "jB": 0.7})
        assert [(journal_id, r) for journal_id, _, r, _ in table] == [("jA", 1), ("jB", 2)]

    def test_tie_broken_by_journal_id(self):
        table = table_from({"jB": 0.5, "jA": 0.5})
        assert [(journal_id, r) for journal_id, _, r, _ in table] == [("jA", 1), ("jB", 2)]

    def test_unknown_key_is_usage_error(self):
        with pytest.raises(ValueError, match="unknown indicator"):
            rank(scores_with({"jA": 1.0}), "eigenfactor")

    def test_unrankable_journals_excluded(self):
        table = table_from({"jA": 0.9, "jB": None})
        assert [journal_id for journal_id, *_ in table] == ["jA"]

    def test_category_scope_filters_and_allows_multi_category(self):
        journals = {
            "jA": Journal("jA", categories=("ONCOLOGY", "CELL BIOLOGY")),
            "jB": Journal("jB", categories=("ONCOLOGY",)),
            "jC": Journal("jC", categories=("OPTICS",)),
        }
        values = {"jA": 0.3, "jB": 0.8, "jC": 0.9}
        oncology = table_from(values, scope="ONCOLOGY", journals=journals)
        assert [journal_id for journal_id, *_ in oncology] == ["jB", "jA"]
        cell_bio = table_from(values, scope="CELL BIOLOGY", journals=journals)
        assert [journal_id for journal_id, *_ in cell_bio] == ["jA"]

    def test_empty_scope_gives_empty_table(self):
        journals = {"jA": Journal("jA", categories=("X",))}
        table = table_from({"jA": 0.5}, scope="NO SUCH", journals=journals)
        assert table == []

    def test_percentile_endpoints_and_monotonicity(self):
        n = 7
        table = table_from({f"j{i}": float(i) for i in range(n)})
        percentiles = [percentile for *_, percentile in table]
        assert percentiles[0] == 100.0
        assert percentiles[-1] == pytest.approx(100.0 / n)
        assert all(a > b for a, b in zip(percentiles, percentiles[1:]))
        assert [r for _, _, r, _ in table] == list(range(1, n + 1))

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(21)
        values = {f"j{i:02d}": float(v) for i, v in enumerate(rng.uniform(0, 5, size=30))}
        plain = table_from(values)
        squashed = table_from({j: math.tanh(v) for j, v in values.items()})
        assert [journal_id for journal_id, *_ in plain] == [journal_id for journal_id, *_ in squashed]
        assert [r for _, _, r, _ in plain] == [r for _, _, r, _ in squashed]

    def test_order_journals_skips_none(self):
        assert order_journals({"a": None, "b": 1.0, "c": 2.0}) == ["c", "b"]

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.dictionaries(st.text("Jab0", min_size=1, max_size=3), _values, max_size=12),
        in_x=st.sets(st.text("Jab0", min_size=1, max_size=3)),
        scoped=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_oracle_order(self, values, in_x, scoped, data):
        journals = {j: Journal(j, categories=("X",) if j in in_x else ("Y",)) for j in values}
        shuffled = data.draw(st.permutations(list(values)))
        scope = "X" if scoped else None
        table = table_from({j: values[j] for j in shuffled}, scope=scope, journals=journals)
        expected = order_journals({j: v for j, v in values.items() if scope is None or j in in_x})
        n = len(expected)
        assert [(journal_id, r, percentile) for journal_id, _, r, percentile in table] == [
            (j, r, 100.0 * (n - r + 1) / n) for r, j in enumerate(expected, start=1)
        ]
        # the value itself: type, sign of zero and all
        assert all(type(value) is float and repr(value) == repr(values[journal_id]) for journal_id, value, _, _ in table)
        assert all(type(r) is int and type(percentile) is float for _, _, r, percentile in table)

    @settings(max_examples=300, deadline=None)
    @given(column=st.lists(st.one_of(st.just(math.nan), _floats), max_size=12))
    def test_ranks_gives_the_sentinel_to_exactly_the_nan_positions(self, column):
        values = np.array(column, dtype=float)
        sentinel = len(column) + 1
        ranked = ranks(values, sentinel)
        assert ((ranked == sentinel) == np.isnan(values)).all()
        ids = [f"j{i:02d}" for i in range(len(column))]
        expected = order_journals({j: None if math.isnan(v) else v for j, v in zip(ids, column)})
        assert [ids[i] for i in ranked.argsort()[: len(expected)].tolist()] == expected
