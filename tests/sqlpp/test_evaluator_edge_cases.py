"""Evaluator corner cases beyond the main suite."""

import pytest

from repro.adm import open_type
from repro.adm.values import MISSING
from repro.errors import SqlppEvaluationError
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.storage import Dataset


def run(text, bindings=None, catalog=None):
    evaluator = Evaluator(EvaluationContext(catalog or {}))
    return evaluator.evaluate_query(parse_expression(text), bindings or {})


class TestOrderByOutputAliases:
    """SQL++ ORDER BY resolves SELECT output fields (post-projection)."""

    ROWS = "[{'c': 'x', 'v': 3}, {'c': 'y', 'v': 1}, {'c': 'z', 'v': 2}]"

    def test_order_by_projection_alias(self):
        got = run(f"SELECT r.c AS name, r.v AS val FROM {self.ROWS} r ORDER BY val")
        assert [g["name"] for g in got] == ["y", "z", "x"]

    def test_order_by_aggregate_alias(self):
        rows = "[{'k': 'a'}, {'k': 'b'}, {'k': 'a'}]"
        got = run(
            f"SELECT r.k AS k, count(*) AS n FROM {rows} r GROUP BY r.k ORDER BY n DESC"
        )
        assert got == [{"k": "a", "n": 2}, {"k": "b", "n": 1}]

    def test_underlying_var_still_visible(self):
        got = run(f"SELECT r.c AS name FROM {self.ROWS} r ORDER BY r.v DESC")
        assert [g["name"] for g in got] == ["x", "z", "y"]

    def test_sort_stability_on_ties(self):
        rows = "[{'k': 1, 'i': 0}, {'k': 1, 'i': 1}, {'k': 1, 'i': 2}]"
        got = run(f"SELECT VALUE r.i FROM {rows} r ORDER BY r.k")
        assert got == [0, 1, 2]  # input order preserved for equal keys


class TestMixedTypeOrdering:
    def test_missing_null_sort_first(self):
        rows = "[{'v': 2}, {}, {'v': null}, {'v': 1}]"
        got = run(f"SELECT VALUE r.v FROM {rows} r ORDER BY r.v")
        assert got[0] is MISSING
        assert got[1] is None
        assert got[2:] == [1, 2]

    def test_mixed_numbers_and_strings(self):
        rows = "[{'v': 'b'}, {'v': 2}, {'v': 'a'}, {'v': 1}]"
        got = run(f"SELECT VALUE r.v FROM {rows} r ORDER BY r.v")
        assert got == [1, 2, "a", "b"]  # numbers before strings


class TestNestedScoping:
    def test_inner_from_shadows_outer_var(self):
        got = run(
            "SELECT VALUE (SELECT VALUE x FROM [10, 20] x) FROM [1] x"
        )
        assert got == [[10, 20]]

    def test_let_shadows_parameterish_binding(self):
        got = run("LET x = 5 SELECT VALUE x", {"x": 1})
        assert got == [5]

    def test_deeply_nested_subqueries(self):
        got = run(
            "SELECT VALUE (SELECT VALUE (SELECT VALUE z + y FROM [100] z) "
            "FROM [10] y) FROM [1] x"
        )
        assert got == [[[110]]]


class TestGroupEdgeCases:
    def test_group_key_with_missing_values(self):
        rows = "[{'k': 'a'}, {}, {'k': 'a'}, {}]"
        got = run(f"SELECT count(*) AS n FROM {rows} r GROUP BY r.k")
        assert sorted(g["n"] for g in got) == [2, 2]

    def test_multi_key_grouping(self):
        rows = "[{'a': 1, 'b': 1}, {'a': 1, 'b': 2}, {'a': 1, 'b': 1}]"
        got = run(
            f"SELECT r.a AS a, r.b AS b, count(*) AS n FROM {rows} r "
            "GROUP BY r.a, r.b"
        )
        assert sorted((g["a"], g["b"], g["n"]) for g in got) == [
            (1, 1, 2),
            (1, 2, 1),
        ]

    def test_aggregate_inside_case_in_group(self):
        rows = "[{'k': 'a', 'v': 5}, {'k': 'a', 'v': 10}]"
        got = run(
            f"SELECT VALUE CASE WHEN sum(r.v) > 10 THEN 'big' ELSE 'small' END "
            f"FROM {rows} r GROUP BY r.k"
        )
        assert got == ["big"]


class TestDistinctMatchesGroupEquality:
    """DISTINCT and GROUP BY agree on which values are equal."""

    def test_distinct_merges_int_and_equal_double(self):
        assert run("SELECT DISTINCT VALUE x FROM [1, 1.0, 2] x") == [1, 2]

    def test_distinct_ignores_object_field_order(self):
        got = run("SELECT DISTINCT VALUE x FROM [{'a': 1, 'b': 2}, {'b': 2, 'a': 1}] x")
        assert got == [{"a": 1, "b": 2}]

    def test_distinct_keeps_arrays_of_distinct_values_apart(self):
        got = run("SELECT DISTINCT VALUE x FROM [[1, 2], [1.0, 2], [2, 1], [true, 2]] x")
        assert got == [[1, 2], [2, 1], [True, 2]]

    def test_group_by_keeps_true_apart_from_one(self):
        got = run("SELECT x AS k, count(*) AS n FROM [1, 1.0, true] x GROUP BY x")
        assert got == [{"k": 1, "n": 2}, {"k": True, "n": 1}]

    def test_group_by_object_values_ignores_field_order(self):
        rows = "[{'o': {'a': 1, 'b': 2}}, {'o': {'b': 2, 'a': 1}}, {'o': {'a': 2}}]"
        got = run(f"SELECT r.o AS o, count(*) AS n FROM {rows} r GROUP BY r.o")
        assert got == [{"o": {"a": 1, "b": 2}, "n": 2}, {"o": {"a": 2}, "n": 1}]


class TestDatasetEdgeCases:
    def test_two_scans_of_same_dataset(self):
        ds = Dataset("D", open_type("T", id="int64"), "id", validate=False)
        for i in range(3):
            ds.insert({"id": i})
        got = run(
            "SELECT VALUE [a.id, b.id] FROM D a, D b WHERE a.id = b.id",
            catalog={"D": ds},
        )
        assert sorted(got) == [[0, 0], [1, 1], [2, 2]]

    def test_scan_cache_shared_between_aliases(self):
        ds = Dataset("D", open_type("T", id="int64"), "id", validate=False)
        ds.insert({"id": 1})
        ctx = EvaluationContext({"D": ds})
        Evaluator(ctx).evaluate_query(
            parse_expression("SELECT VALUE [a.id, b.id] FROM D a, D b")
        )
        # one scan cache entry, shared by both FROM aliases
        assert ctx.shared_meter.records_scanned == 1

    def test_empty_dataset(self):
        ds = Dataset("D", open_type("T", id="int64"), "id", validate=False)
        assert run("SELECT VALUE d FROM D d", catalog={"D": ds}) == []
        assert run("SELECT count(*) AS n FROM D d", catalog={"D": ds}) == [
            {"n": 0}
        ]
