"""Whole-feed wall-clock benchmark: one workload, one seed, one run.

    python3 feedbench/run.py --workload enrich_hash --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  After generating its inputs, the run does one warm-up round and
then repeats rounds (set-up plus a whole feed) until ``--seconds`` have
passed, and reports medians over the rounds, scaled to nominal machine
speed by a speed probe timed around each round.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics, the tracing overhead and coverage, and
writes the last traced round as Chrome trace-event JSON.  The last line
of standard output is the JSON result; README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".feedbench")
ORACLE_FILE = os.path.join(HERE, "oracle.json")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1
MIN_ROUNDS = 3


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def recorded_digest(workload: str, seed: int, records: int) -> Optional[str]:
    """The output digest recorded for the default seed, if any."""
    if seed != DEFAULT_SEED:
        return None
    with open(ORACLE_FILE, encoding="utf-8") as handle:
        recorded = json.load(handle)
    return recorded.get(workload, {}).get(str(records))


def check_rounds(rounds, expected: Optional[str]) -> int:
    """Fold the output check into each round; returns records failed.

    ``rounds`` all run one configuration.  A round fails as a whole when
    its own checks found a problem, when its digest differs from the
    oracle (or, without one, from the first round), or when its simulated
    throughput differs from the first round's: the simulated axis is
    deterministic.
    """
    reference = rounds[0]  # every round runs the same configuration
    digest = expected if expected is not None else reference.digest
    failed = 0
    for r in rounds:
        if r.digest != digest:
            r.problems.append(f"output digest {r.digest[:12]} != {digest[:12]}")
        if r.report.throughput != reference.report.throughput:
            r.problems.append(
                f"sim throughput {r.report.throughput!r} != "
                f"{reference.report.throughput!r}"
            )
        if r.problems:
            failed += r.records
    return failed


def end_to_end(rounds, at_nominal_speed: bool = True) -> Dict[str, List[float]]:
    """Per-round samples of every end-to-end metric.

    By default each round's times are divided by, and its rate multiplied
    by, the machine slowdown probed around that round
    (:func:`stats.speed_probe`), which gives the values at nominal machine
    speed.  ``at_nominal_speed=False`` gives the wall-clock values as
    measured.
    """
    def feed(r):
        return r.slowdown if at_nominal_speed else 1.0

    def setup(r):
        return r.setup_slowdown if at_nominal_speed else 1.0

    return {
        "throughput_rps": [r.throughput_rps * feed(r) for r in rounds],
        "latency_p50_ms": [r.latency_p50_ms / feed(r) for r in rounds],
        "latency_p99_ms": [r.latency_p99_ms / feed(r) for r in rounds],
        "setup_s": [r.setup_s / setup(r) for r in rounds],
    }


def per_layer(r) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    import spans

    tracer = r.tracer
    self_s = tracer.self_seconds  # 0.0 for a layer the run never entered
    report = r.report
    n = r.records
    memo_lookups = report.memo_hits + report.memo_misses
    cache_lookups = report.state_cache_hits + report.state_cache_misses
    out = {
        "adm.parse.self_s": self_s[spans.ADM_PARSE],
        "adm.parse.us_per_record": self_s[spans.ADM_PARSE] / n * 1e6,
        "sqlpp.kernel.self_s": self_s[spans.SQLPP_KERNEL],
        "sqlpp.scalar.self_s": self_s[spans.SQLPP_SCALAR],
        "sqlpp.operator.self_s": self_s[spans.SQLPP_OPERATOR],
        "sqlpp.batches": report.vectorized_batches,
        "sqlpp.fallback_frac": (
            report.scalar_fallbacks / report.vectorized_batches
            if report.vectorized_batches
            else 0.0
        ),
        "sqlpp.memo.hit_ratio": (
            report.memo_hits / memo_lookups if memo_lookups else 0.0
        ),
        "sqlpp.memo.evictions": report.memo_evictions,
        "sqlpp.memo.invalidations": r.memo_stats.get("version_mismatches", 0),
        "sqlpp.state_cache.hit_ratio": (
            report.state_cache_hits / cache_lookups if cache_lookups else 0.0
        ),
        "storage.ref_read.self_s": self_s[spans.REF_READ],
        "storage.ref_read.calls": tracer.calls.get(spans.REF_READ, 0),
        "storage.write.self_s": self_s[spans.WRITE],
        "storage.write.us_per_record": self_s[spans.WRITE] / n * 1e6,
        "storage.ref_update.self_s": self_s[spans.REF_UPDATE],
        "storage.lsm.flushes": r.storage_stats.get("flushes", 0),
        "storage.lsm.merges": r.storage_stats.get("merges", 0),
        "storage.checkpoint.self_s": self_s[spans.CHECKPOINT],
        "storage.checkpoint.commits": report.checkpoint_commits,
        "hyracks.job.self_s": self_s[spans.HYRACKS_JOB],
        "hyracks.jobs": tracer.calls.get(spans.HYRACKS_JOB, 0),
        "runtime.self_s": self_s[spans.RUNTIME],
        "ingestion.intake.backlog_max": r.backlog_max,
        "sim.throughput_rps": report.throughput,
        "trace.wall_s": r.wall_s,
        "trace.coverage": spans.coverage(tracer, r.wall_s),
    }
    makespan = report.runtime.makespan_seconds
    for layer in ("intake", "computing", "storage"):
        times = report.runtime.layer(layer)
        out[f"sim.{layer}.busy_frac"] = times.busy / makespan
        out[f"sim.{layer}.blocked_frac"] = times.blocked / makespan
    return out


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    records: Optional[int] = None,
    min_rounds: int = MIN_ROUNDS,
    out_dir: str = OUT_DIR,
) -> Dict:
    """Run one workload; returns the result object plus details."""
    import feeds
    import spans
    from repro.bench.wallclock import calibration_score
    from stats import summary

    workload = feeds.WORKLOADS[workload_name]
    records = records or workload.records
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    inputs = feeds.make_inputs(workload, seed, records)

    expected = recorded_digest(workload_name, seed, records)
    oracle_rounds = []
    if workload.has_oracle_run:
        oracle = feeds.run_round(workload.oracle(), inputs, scratch)
        if expected is not None and oracle.digest != expected:
            oracle.problems.append(
                f"oracle digest {oracle.digest[:12]} != recorded {expected[:12]}"
            )
        expected = oracle.digest
        oracle_rounds.append(oracle)
    warmup = feeds.run_round(workload, inputs, scratch)

    untraced, traced = [], []
    layer_samples: Dict[str, List[float]] = {}
    started = time.perf_counter()
    while (
        len(untraced) < min_rounds
        or (trace and len(traced) < min_rounds)
        or time.perf_counter() - started < seconds
    ):
        untraced.append(feeds.run_round(workload, inputs, scratch))
        if trace:
            r = feeds.run_round(
                workload, inputs, scratch, spans.Tracer(run_id=len(traced))
            )
            for name, value in per_layer(r).items():
                layer_samples.setdefault(name, []).append(value)
            # keep only the last round's spans, for the Chrome trace
            if traced:
                traced[-1].tracer = None
            traced.append(r)
    failed = check_rounds([warmup] + untraced + traced, expected)
    failed += sum(r.records for r in oracle_rounds if r.problems)
    rounds = oracle_rounds + [warmup] + untraced + traced
    problems = sorted({p for r in rounds for p in r.problems})

    details: Dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "records": records,
        "batches": -(-records // feeds.BATCH_SIZE),
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "digest": warmup.digest,
        "oracle": expected,
        "problems": problems,
        # machine-speed context only: never used to gate or normalise
        "calibration_ops_per_sec": calibration_score(),
    }
    if trace:
        samples = layer_samples
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["trace.overhead"] = (
            statistics.median(r.wall_s / r.slowdown for r in traced)
            / statistics.median(r.wall_s / r.slowdown for r in untraced)
            - 1.0
        )
        samples["trace.overhead"] = [metrics["trace.overhead"]]
        units = metric_units("per_layer")
        details["per_layer"] = {n: summary(v) for n, v in samples.items()}
        chrome = os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.json")
        traced[-1].tracer.write_chrome(chrome)
        details["chrome_trace"] = chrome
    else:
        samples = end_to_end(untraced)
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = metric_units("end_to_end")
        details["end_to_end"] = {n: summary(v) for n, v in samples.items()}
        details["wall_clock"] = {
            n: summary(v) for n, v in end_to_end(untraced, False).items()
        }
        details["slowdown"] = summary([r.slowdown for r in untraced])
        details["latency_samples_per_round"] = records
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC_FILE}"
        )
    result = {
        "correct": failed == 0,
        "attempted": records * len(rounds),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"feedbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import feeds

    if args.workload not in feeds.WORKLOADS:
        print(
            f"feedbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(feeds.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details = outcome["details"]
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=2, sort_keys=True)
    for group in ("end_to_end", "wall_clock", "per_layer"):
        for metric, s in sorted(details.get(group, {}).items()):
            label = f"{metric} (as measured)" if group == "wall_clock" else metric
            print(
                f"{label}: median {s['median']:.6g} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] over {s['n']} rounds"
            )
    if "slowdown" in details:
        print(f"machine slowdown: median {details['slowdown']['median']:.4g}")
    print(
        f"{args.workload}: {details['records']} records in {details['batches']} "
        f"batches per round, {details['rounds']} untraced + "
        f"{details['traced_rounds']} traced rounds"
    )
    for problem in details["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
