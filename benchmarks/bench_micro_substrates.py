"""Micro-benchmarks of the substrates (wall-clock, for regression tracking).

These are not paper figures; they measure the real Python performance of
the building blocks so substrate regressions are visible independently of
the simulated-time results.
"""

import random

import pytest

from repro.adm import Point, open_type, parse_json
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.storage import BPlusTree, Dataset, IndexKind, LSMTree, RTree
from repro.udf.library import SQLPP_UDFS
from repro.workloads import TweetGenerator


def test_micro_adm_parse(benchmark):
    raws = list(TweetGenerator().raw_json(500))

    def parse_all():
        for raw in raws:
            parse_json(raw)

    benchmark(parse_all)


def test_micro_lsm_insert(benchmark):
    def insert_2000():
        tree = LSMTree(memtable_budget=256)
        for i in range(2000):
            tree.upsert(i, {"id": i})
        return tree

    benchmark(insert_2000)


def test_micro_lsm_lookup(benchmark):
    tree = LSMTree(memtable_budget=256)
    for i in range(5000):
        tree.upsert(i, {"id": i})
    keys = random.Random(0).sample(range(5000), 500)

    def lookup_all():
        for key in keys:
            tree.get(key)

    benchmark(lookup_all)


def test_micro_btree_probe(benchmark):
    tree = BPlusTree(order=32)
    for i in range(10_000):
        tree.insert(i, f"pk{i}")
    keys = random.Random(0).sample(range(10_000), 1000)

    def probe_all():
        for key in keys:
            tree.search(key)

    benchmark(probe_all)


def test_micro_rtree_build(benchmark):
    rnd = random.Random(0)
    points = [Point(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(5000)]

    def build_5000():
        tree = RTree(max_entries=16)
        for i, point in enumerate(points):
            tree.insert(point, i)
        return tree

    benchmark(build_5000)


def test_micro_rtree_upsert(benchmark):
    # moving a person re-indexes it: an R-tree delete, then an insert
    rnd = random.Random(0)

    def person(i):
        location = Point(rnd.uniform(0, 100), rnd.uniform(0, 100))
        return {"person_id": i, "location": location}

    persons = Dataset(
        "Persons", open_type("PersonType"), "person_id", num_partitions=2,
        validate=False,
    )
    for i in range(2000):
        persons.insert(person(i))
    persons.flush_all()
    persons.create_index("Persons_spatial", "location", IndexKind.RTREE)

    def move_500():
        for i in rnd.sample(range(2000), 500):
            persons.upsert(person(i))

    benchmark(move_500)


def test_micro_rtree_probe(benchmark):
    rnd = random.Random(0)
    tree = RTree(max_entries=16)
    for i in range(5000):
        tree.insert(Point(rnd.uniform(0, 100), rnd.uniform(0, 100)), i)
    from repro.adm import Circle

    queries = [
        Circle(Point(rnd.uniform(0, 100), rnd.uniform(0, 100)), 1.5)
        for _ in range(200)
    ]

    def probe_all():
        for query in queries:
            list(tree.search(query))

    benchmark(probe_all)


def test_micro_sqlpp_parse(benchmark):
    source = SQLPP_UDFS["tweet_context"]

    def parse_udf():
        from repro.sqlpp import parse_function

        return parse_function(source)

    benchmark(parse_udf)


def test_micro_sqlpp_hash_enrichment(benchmark):
    ratings = Dataset(
        "SafetyRatings", open_type("T"), "country_code", num_partitions=4,
        validate=False,
    )
    for i in range(2000):
        ratings.insert({"country_code": f"C{i:04d}", "safety_rating": "3"})
    ratings.flush_all()
    ctx = EvaluationContext({"SafetyRatings": ratings})
    evaluator = Evaluator(ctx)
    expr = parse_expression(
        "SELECT VALUE s.safety_rating FROM SafetyRatings s "
        "WHERE t.country = s.country_code"
    )
    tweets = [{"country": f"C{i % 2000:04d}"} for i in range(500)]

    def enrich_all():
        ctx.refresh_batch()
        for tweet in tweets:
            evaluator.evaluate_query(expr, {"t": tweet})

    benchmark(enrich_all)
