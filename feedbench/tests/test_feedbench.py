"""Tests of the benchmark's own code.

    python3 -m pytest feedbench/tests -q

The smoke test runs every workload end to end at a small size (~1 min).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import feeds  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from repro.adm.values import DateTime, Point  # noqa: E402
from repro.storage.dataset import Dataset  # noqa: E402

SMOKE_RECORDS = 1680


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


# ------------------------------------------------------------- self time


def test_nested_spans_subtract_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.tick(2.0)

    def outer():
        clock.tick(1.0)
        tracer.call("inner", inner)
        clock.tick(0.5)
        tracer.call("inner", inner)

    tracer.call("outer", outer)
    assert tracer.self_seconds["outer"] == pytest.approx(1.5)
    assert tracer.self_seconds["inner"] == pytest.approx(4.0)
    assert tracer.calls == {"outer": 1, "inner": 2}
    outer_span = tracer.spans[0]
    assert outer_span[spans.BUSY] == pytest.approx(5.5)
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert not tracer.active


def test_generator_span_timed_over_consumption():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def produce():
        for item in range(3):
            clock.tick(1.0)  # work inside the generator
            yield item

    def consume():
        seen = []
        for item in tracer.consume("scan", produce()):
            clock.tick(10.0)  # the consumer's own work between resumes
            seen.append(item)
        return seen

    assert tracer.call("build", consume) == [0, 1, 2]
    # the call itself costs nothing; the three resumes cost 1 s each
    assert tracer.self_seconds["scan"] == pytest.approx(3.0)
    assert tracer.self_seconds["build"] == pytest.approx(30.0)
    scan = tracer.spans[1]
    assert scan[spans.PARENT] == 0
    assert scan[spans.BUSY] == pytest.approx(3.0)
    assert scan[spans.END] - scan[spans.START] == pytest.approx(33.0)


def test_generator_span_abandoned_early_is_closed():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    closed = []

    def produce():
        try:
            while True:
                clock.tick(1.0)
                yield 1
        finally:
            closed.append(True)

    def take_one():
        iterator = tracer.consume("scan", produce())
        value = next(iterator)
        iterator.close()
        return value

    assert tracer.call("root", take_one) == 1
    assert closed == [True]
    assert tracer.self_seconds["scan"] == pytest.approx(1.0)
    assert tracer.self_seconds["root"] == pytest.approx(0.0)


def test_raising_span_still_closes():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def fail():
        clock.tick(2.0)
        raise KeyError("x")

    def outer():
        clock.tick(1.0)
        with pytest.raises(KeyError):
            tracer.call("fail", fail)

    tracer.call("outer", outer)
    assert tracer.self_seconds == {"outer": pytest.approx(1.0), "fail": pytest.approx(2.0)}
    assert not tracer.active


def test_coverage_excludes_root_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def run_feed():
        clock.tick(1.0)  # launch: unattributed
        tracer.call(spans.RUNTIME, clock.tick, 9.0)

    tracer.call(spans.ROOT, run_feed)
    assert spans.coverage(tracer, 10.0) == pytest.approx(0.9)


def test_probes_patch_and_restore():
    from repro.ingestion import pipelines

    originals = (Dataset.upsert, Dataset.scan, pipelines.make_invoker)
    probes = spans.LayerProbes(spans.Tracer(), "T", ["R"])
    probes.install()
    assert Dataset.upsert is not originals[0]
    assert pipelines.make_invoker is not originals[2]
    probes.uninstall()
    assert (Dataset.upsert, Dataset.scan, pipelines.make_invoker) == originals


def test_chrome_export(tmp_path):
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.call("runtime", clock.tick, 0.002)
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    (event,) = json.loads(path.read_text())["traceEvents"]
    assert event["ph"] == "X"
    assert event["dur"] == pytest.approx(2000.0)
    assert event["args"]["parent"] == -1


# ------------------------------------------------------------ statistics


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 100 samples
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summary_reports_sample_count():
    s = stats.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s["n"] == 5
    assert s["median"] == 3.0
    assert s["q1"] <= s["median"] <= s["q3"]
    assert stats.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_max_backlog():
    assert stats.max_backlog([0, 1, 2], [3, 3, 3]) == 3
    assert stats.max_backlog([0, 2, 4], [1, 3, 5]) == 1
    # a commit at the same instant as the next hand-over counts first
    assert stats.max_backlog([0, 1], [1, 2]) == 1


def test_digest_is_order_independent_and_type_tagged():
    a = {"id": 1, "t": DateTime(0), "p": Point(1.0, 2.0)}
    b = {"id": 2, "t": "datetime('1970-01-01T00:00:00Z')"}
    assert stats.digest([a, b], "id") == stats.digest([b, a], "id")
    assert stats.digest([a], "id") != stats.digest(
        [dict(a, t=repr(DateTime(0)))], "id"
    )


def test_digest_hashes_the_compact_json_array():
    import hashlib

    records = [{"id": 2, "b": [1, 2]}, {"id": 1, "a": "x"}]
    text = json.dumps(
        sorted(records, key=lambda r: r["id"]), sort_keys=True,
        separators=(",", ":"),
    )
    assert stats.digest(records, "id") == hashlib.sha256(text.encode()).hexdigest()
    assert stats.digest([], "id") == hashlib.sha256(b"[]").hexdigest()


def test_refresh_updates_change_tweeted_countries():
    workload = feeds.WORKLOADS["enrich_refresh"]
    inputs = feeds.make_inputs(workload, 3, 840)
    original = {
        r["country_code"]: r["safety_rating"]
        for r in inputs.reference_records["SafetyRatings"]
    }
    countries = {json.loads(raw)["country"] for raw in inputs.raws}
    assert inputs.updates
    for update in inputs.updates:
        assert update["country_code"] in countries
    assert feeds.make_inputs(workload, 3, 840).updates == inputs.updates
    assert any(
        u["safety_rating"] != original[u["country_code"]] for u in inputs.updates
    )


# ------------------------------------------------------------------ smoke


@pytest.mark.parametrize("name", sorted(feeds.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    outcome = run.measure(
        name, run.DEFAULT_SEED, 0.0, True, SMOKE_RECORDS, min_rounds=1,
        out_dir=str(tmp_path),
    )
    result, details = outcome["result"], outcome["details"]
    assert details["problems"] == []
    assert details["oracle"] is not None  # recorded or run: always checked
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.95
    assert "trace.overhead" in metrics
    sqlpp = sum(v for k, v in metrics.items() if k.startswith("sqlpp."))
    cached = metrics["sqlpp.memo.hit_ratio"] + metrics["sqlpp.state_cache.hit_ratio"]
    if name == "ingest_plain":
        assert sqlpp == 0
        assert metrics["adm.parse.self_s"] == max(
            v for k, v in metrics.items() if k.endswith(".self_s")
        )
    if name == "enrich_refresh":
        assert metrics["sqlpp.memo.evictions"] > 0
        assert metrics["sqlpp.memo.invalidations"] > 0
        assert 0 < metrics["sqlpp.memo.hit_ratio"] < 1
        assert metrics["storage.checkpoint.commits"] > 0
        assert metrics["storage.ref_update.self_s"] > 0
    else:
        assert cached == 0
        assert metrics["storage.checkpoint.commits"] == 0
    assert os.path.exists(details["chrome_trace"])


def test_end_to_end_result_shape(tmp_path):
    outcome = run.measure(
        "ingest_plain", 2, 0.0, False, SMOKE_RECORDS, min_rounds=2,
        out_dir=str(tmp_path),
    )
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    units = run.metric_units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"], "unit": units[name]}
        assert metric["value"] > 0
    assert outcome["details"]["end_to_end"]["throughput_rps"]["n"] >= 2


def test_benchmark_json_names_the_workloads():
    with open(run.SPEC_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(feeds.WORKLOADS)
    assert spec["paths"] == [os.path.basename(BENCH)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "feedbench", ignore=shutil.ignore_patterns("tests"))
    done = subprocess.run(
        [sys.executable, "feedbench/run.py", "--workload", "ingest_plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
