"""Wall-clock micro-benchmark: real Python records/sec for enrichment UDFs.

Everything else in ``bench/`` measures *simulated* cost (WorkMeter units on
a discrete-event clock); this module measures actual elapsed time.  It runs
a representative UDF mix through the record-at-a-time invoker (compiled
plans) and through the columnar batch invoker, and reports records/sec for
both, giving the repo a real-time performance trajectory alongside the
paper-faithful simulated figures.

Numbers are machine-dependent and nondeterministic, so results go to
``BENCH_wallclock.json`` at the repo root, never into
``benchmarks/results/`` (which is byte-compared across runs).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..ingestion.feed import AttachedFunction
from ..ingestion.udf_operator import make_batch_invoker, make_invoker
from ..sqlpp.evaluator import EvaluationContext
from .harness import BATCH_16X, USE_CASES, ExperimentHarness

#: Default UDF mix: two equality-probe enrichments and one with a
#: grouped/ordered subquery, covering the common plan shapes.
DEFAULT_CASES = ("safety_rating", "religious_population", "largest_religions")


def calibration_score(repeats: int = 3, loops: int = 200_000) -> float:
    """Machine-speed score: pure-Python ops/sec on a fixed loop.

    Planned throughput is machine-dependent, so the committed baseline
    cannot gate absolute rec/s across machines.  Dividing by this score
    (measured on the same machine, at the same time, with the same
    Python) yields a normalized throughput that *is* comparable — both
    numerator and denominator move together with CPU speed.  The loop
    mixes dict access, attribute-free arithmetic, and branching,
    approximating the evaluator's instruction mix.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        acc = 0
        table = {"a": 1, "b": 2}
        start = time.perf_counter()
        for i in range(loops):
            acc += table["a"] + (i & 7)
            table["b"] = acc & 1023
            if table["b"] > 512:
                acc -= 1
        best = min(best, time.perf_counter() - start)
    return loops / best


def _time_planned(
    tweets: List[dict],
    catalog: Dict[str, object],
    registry,
    function_name: str,
    batch_size: int,
    reference_work_scale: float,
):
    """One timed pass over ``tweets``; returns (elapsed_seconds, outputs)."""
    ctx = EvaluationContext(
        catalog,
        functions=registry,
        reference_work_scale=reference_work_scale,
    )
    invoker = make_invoker([AttachedFunction(function_name)], registry)
    out: List[dict] = []
    start = time.perf_counter()
    for position, record in enumerate(tweets):
        if position and position % batch_size == 0:
            ctx.refresh_batch()
        out.extend(invoker(record, ctx))
    return time.perf_counter() - start, out


def _time_columnar(
    tweets: List[dict],
    catalog: Dict[str, object],
    registry,
    function_name: str,
    batch_size: int,
    reference_work_scale: float,
):
    """One timed pass through the columnar batch invoker.

    Batches match :func:`_time_planned`'s refresh boundaries exactly; a
    batch the invoker declines falls back to the scalar invoker, the same
    protocol the UDF evaluator operator uses.
    """
    ctx = EvaluationContext(
        catalog,
        functions=registry,
        reference_work_scale=reference_work_scale,
    )
    attached = [AttachedFunction(function_name)]
    batch_invoker = make_batch_invoker(attached, registry)
    scalar_invoker = make_invoker(attached, registry)
    out: List[dict] = []
    start = time.perf_counter()
    for lo in range(0, len(tweets), batch_size):
        if lo:
            ctx.refresh_batch()
        chunk = tweets[lo : lo + batch_size]
        rows = (
            batch_invoker(chunk, ctx) if batch_invoker is not None else None
        )
        if rows is None:
            for record in chunk:
                out.extend(scalar_invoker(record, ctx))
        else:
            out.extend(rows)
    return time.perf_counter() - start, out


def _best_of(repeats: int, timed, *args):
    """Run ``timed(*args)`` ``repeats`` times; (best seconds, last outputs).

    The minimum is the least noisy estimate of the achievable rate
    (standard micro-benchmark practice).
    """
    best = float("inf")
    out = None
    for _ in range(max(1, repeats)):
        elapsed, out = timed(*args)
        best = min(best, elapsed)
    return best, out


def _best_planned(repeats: int, *args):
    """Best planned pass in seconds and in calibration ops; last outputs.

    On a shared host the machine's speed drifts between passes, so each
    pass is bracketed by two :func:`calibration_score` samples and its
    elapsed time is also counted in calibration ops (seconds times the
    samples' mean ops/sec).  Normalizing every pass by the speed measured
    around it keeps the normalized throughput far steadier than dividing
    by one score taken after all passes.
    """
    best_seconds = best_ops = float("inf")
    out = None
    for _ in range(max(1, repeats)):
        before = calibration_score(repeats=1)
        elapsed, out = _time_planned(*args)
        speed = (before + calibration_score(repeats=1)) / 2
        best_seconds = min(best_seconds, elapsed)
        best_ops = min(best_ops, elapsed * speed)
    return best_seconds, best_ops, out


def run_wallclock(
    records: int = 1500,
    batch_size: int = BATCH_16X,
    cases: Sequence[str] = DEFAULT_CASES,
    repeats: int = 3,
    reference_scale: float = 0.01,
) -> Dict:
    """Measure planned vs. columnar records/sec over the UDF mix.

    The default batch size is the paper's 16X (6720): per-batch hash-build
    cost is identical in both modes, so the benchmark amortizes it away to
    isolate per-record evaluation.

    Each (case, mode) pair is timed ``repeats`` times and the best run is
    kept.  Columnar outputs are compared with planned outputs for equality
    so a kernel bug cannot masquerade as a speedup.  Planned throughput is
    also reported per million calibration ops (see :func:`_best_planned`),
    the machine-comparable number the ``--baseline`` gates use.
    """
    harness = ExperimentHarness(
        reference_scale=reference_scale, num_partitions=2
    )
    tweets = list(harness.workload.tweet_generator.records(records))

    per_case: Dict[str, Dict] = {}
    total_planned = 0.0
    total_planned_ops = 0.0
    total_columnar = 0.0
    for key in cases:
        case = USE_CASES[key]
        catalog = harness.catalog_for(case.datasets)
        registry = harness.registry_for(catalog)
        args = (
            tweets,
            catalog,
            registry,
            case.sqlpp_function,
            batch_size,
            harness.reference_work_scale,
        )
        planned, planned_ops, planned_out = _best_planned(repeats, *args)
        columnar, columnar_out = _best_of(repeats, _time_columnar, *args)
        if columnar_out != planned_out:
            raise AssertionError(
                f"{case.sqlpp_function}: columnar and planned outputs differ"
            )
        total_planned += planned
        total_planned_ops += planned_ops
        total_columnar += columnar
        per_case[key] = {
            "function": case.sqlpp_function,
            "planned_seconds": planned,
            "columnar_seconds": columnar,
            "planned_records_per_sec": records / planned,
            "columnar_records_per_sec": records / columnar,
            "columnar_speedup": planned / columnar,
        }

    # the calibration speed that the best planned passes ran at
    score = total_planned_ops / total_planned
    total_records = records * len(per_case)
    planned_rate = total_records / total_planned
    return {
        "benchmark": "wallclock enrichment micro-benchmark",
        "records_per_case": records,
        "batch_size": batch_size,
        "repeats": repeats,
        "reference_scale": reference_scale,
        "cases": per_case,
        "aggregate": {
            "planned_records_per_sec": planned_rate,
            "columnar_records_per_sec": total_records / total_columnar,
            "columnar_speedup": total_planned / total_columnar,
            # records evaluated per million calibration ops
            "planned_normalized_throughput": planned_rate / (score / 1e6),
        },
        "calibration_ops_per_sec": score,
    }
