"""Query compiler: hyracks-vs-interpreter differential tests."""

import pytest

from repro.adm import open_type
from repro.cluster import Cluster
from repro.sqlpp.compiler import QueryCompiler, run_insert
from repro.sqlpp.evaluator import EvaluationContext, Evaluator
from repro.sqlpp.parser import parse_expression
from repro.storage import Dataset


@pytest.fixture
def setup():
    catalog = {}
    ds = Dataset("Tweets", open_type("T", id="int64"), "id", num_partitions=3,
                 validate=False)
    def country_of(i):
        # skewed group sizes (30/22/15/13/10) so ORDER BY count() has no ties
        for bucket, threshold in enumerate([30, 52, 67, 80, 90]):
            if i < threshold:
                return f"C{bucket}"

    for i in range(90):
        ds.insert(
            {"id": i, "country": country_of(i), "score": i % 7, "text": f"t{i}"}
        )
    catalog["Tweets"] = ds
    cluster = Cluster(3)
    return cluster, catalog, QueryCompiler(cluster, catalog)


def interpret(catalog, text):
    result = Evaluator(EvaluationContext(catalog)).evaluate_query(
        parse_expression(text)
    )
    return result if isinstance(result, list) else [result]


def canonical(rows):
    return sorted(repr(r) for r in rows)


DIFFERENTIAL_QUERIES = [
    "SELECT VALUE t.id FROM Tweets t",
    "SELECT VALUE t.id FROM Tweets t WHERE t.score > 3",
    "SELECT t.id, t.country FROM Tweets t WHERE t.country = 'C2'",
    "SELECT t.country AS country, count(*) AS num FROM Tweets t GROUP BY t.country",
    "SELECT t.country, sum(t.score) AS total FROM Tweets t GROUP BY t.country",
    "SELECT VALUE t.id FROM Tweets t ORDER BY t.id DESC LIMIT 5",
    "SELECT VALUE t.country FROM Tweets t GROUP BY t.country ORDER BY count(t) DESC LIMIT 2",
    "SELECT VALUE y FROM Tweets t LET y = t.score * 10 WHERE y >= 40 ORDER BY y LIMIT 7",
]


class TestDifferential:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_hyracks_matches_interpreter(self, setup, query):
        cluster, catalog, compiler = setup
        compiled = compiler.compile(parse_expression(query))
        got = compiled.execute()
        expected = interpret(catalog, query)
        if "ORDER BY" in query:
            assert got == expected
        else:
            assert canonical(got) == canonical(expected)


class TestStrategySelection:
    def test_single_dataset_select_compiles_to_hyracks(self, setup):
        _cluster, _catalog, compiler = setup
        compiled = compiler.compile(
            parse_expression("SELECT VALUE t.id FROM Tweets t")
        )
        assert compiled.strategy == "hyracks"

    def test_grouped_compiles_to_hyracks(self, setup):
        _c, _cat, compiler = setup
        compiled = compiler.compile(
            parse_expression(
                "SELECT t.country, count(*) AS n FROM Tweets t GROUP BY t.country"
            )
        )
        assert compiled.strategy == "hyracks"

    def test_join_falls_back_to_interpreter(self, setup):
        _c, _cat, compiler = setup
        compiled = compiler.compile(
            parse_expression("SELECT VALUE [a.id, b.id] FROM Tweets a, Tweets b "
                             "WHERE a.id = b.id AND a.id < 3")
        )
        assert compiled.strategy == "interpreter"
        assert len(compiled.execute()) == 3

    def test_global_aggregate_falls_back(self, setup):
        _c, _cat, compiler = setup
        compiled = compiler.compile(
            parse_expression("SELECT count(*) AS n FROM Tweets t")
        )
        assert compiled.strategy == "interpreter"
        assert compiled.execute() == [{"n": 90}]

    def test_array_source_falls_back(self, setup):
        _c, _cat, compiler = setup
        compiled = compiler.compile(parse_expression("SELECT VALUE x FROM [1, 2] x"))
        assert compiled.strategy == "interpreter"
        assert compiled.execute() == [1, 2]


class TestGroupKeyEquality:
    def test_object_keys_group_regardless_of_field_order(self):
        ds = Dataset("Shapes", open_type("T", id="int64"), "id", num_partitions=3,
                     validate=False)
        for i, shape in enumerate(
            [{"w": 1, "h": 2}, {"h": 2, "w": 1}, {"w": 2, "h": 1}, {"w": 1.0, "h": 2}]
        ):
            ds.insert({"id": i, "shape": shape})
        catalog = {"Shapes": ds}
        query = "SELECT s.shape AS shape, count(*) AS n FROM Shapes s GROUP BY s.shape"
        compiled = QueryCompiler(Cluster(3), catalog).compile(parse_expression(query))
        assert compiled.strategy == "hyracks"
        got = sorted(row["n"] for row in compiled.execute())
        assert got == [1, 3]
        assert got == sorted(row["n"] for row in interpret(catalog, query))

    def test_int_and_integral_float_keys_form_one_group(self):
        # 1 and 1.0 (also 2/2.0, 4/4.0) have different reprs, and the
        # group-by exchange hash-partitions on the repr of the key.
        ds = Dataset("Nums", open_type("T", id="int64"), "id", num_partitions=3,
                     validate=False)
        for i, w in enumerate([1, 1.0, 2, 2.0, 4, 4.0]):
            ds.insert({"id": i, "w": w})
        catalog = {"Nums": ds}
        query = "SELECT n.w AS w, count(*) AS c FROM Nums n GROUP BY n.w"
        compiled = QueryCompiler(Cluster(3), catalog).compile(parse_expression(query))
        assert compiled.strategy == "hyracks"
        got = compiled.execute()
        assert sorted(row["w"] for row in got) == [1, 2, 4]
        assert all(row["c"] == 2 for row in got)


class TestRunInsert:
    def test_insert_job_routes_and_counts(self, setup):
        cluster, catalog, _compiler = setup
        target = Dataset("Out", open_type("T", id="int64"), "id", num_partitions=3,
                         validate=False)
        catalog["Out"] = target
        result = run_insert(cluster, catalog, "Out", [{"id": i} for i in range(20)])
        assert result.records_out == 20
        assert len(target) == 20

    def test_unknown_dataset_rejected(self, setup):
        cluster, catalog, _compiler = setup
        from repro.errors import SqlppAnalysisError

        with pytest.raises(SqlppAnalysisError):
            run_insert(cluster, catalog, "Nope", [])
