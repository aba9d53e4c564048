"""Wall-clock records/sec: planned vs. columnar evaluation.

Unlike the fig* benchmarks (deterministic simulated cost), this harness
measures real elapsed time, so its output goes to ``BENCH_wallclock.json``
at the repo root rather than ``benchmarks/results/``.

Usage::

    python benchmarks/bench_wallclock.py            # full run
    python benchmarks/bench_wallclock.py --smoke    # quick CI run

Exits non-zero if columnar evaluation is slower than planned, or — with
``--baseline BENCH_wallclock.json`` recorded in the same mode (smoke or
full) — if calibration-normalized planned throughput dropped more than
30% or the columnar/planned speedup ratio dropped more than
``--baseline-tolerance`` (default 20%) against the recorded baseline.
A baseline from the other mode is reported and skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: allowed fractional drop in calibration-normalized planned throughput vs
#: the baseline (generous: the normalization removes machine speed, not
#: scheduler noise)
PLANNED_BASELINE_TOLERANCE = 0.30
sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run for CI (fewer records and repeats)",
    )
    parser.add_argument("--records", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_wallclock.json",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="previous BENCH_wallclock.json to gate planned and columnar "
        "throughput against (fail on regression beyond the tolerance)",
    )
    parser.add_argument(
        "--baseline-tolerance",
        type=float,
        default=0.20,
        help="allowed fractional drop in the columnar/planned speedup "
        "ratio vs the baseline",
    )
    args = parser.parse_args(argv)

    records = args.records or (300 if args.smoke else 1500)
    repeats = args.repeats or (2 if args.smoke else 3)

    # Snapshot the baseline before running: --output may point at the same
    # file (the committed BENCH_wallclock.json), which the run overwrites.
    baseline = None
    if args.baseline is not None and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())

    from repro.bench.wallclock import run_wallclock

    result = run_wallclock(records=records, repeats=repeats)
    result["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    aggregate = result["aggregate"]
    print(f"wrote {args.output}")
    for key, case in list(result["cases"].items()) + [("aggregate", aggregate)]:
        print(
            f"  {key:24s} planned {case['planned_records_per_sec']:8.0f} rec/s"
            f"  columnar {case['columnar_records_per_sec']:8.0f} rec/s"
            f"  ({case['columnar_speedup']:.2f}x)"
        )
    print(
        f"  calibration {result['calibration_ops_per_sec']:.0f} ops/s,"
        f" planned normalized {aggregate['planned_normalized_throughput']:.1f}"
    )
    if aggregate["columnar_speedup"] < 1.0:
        print("FAIL: columnar evaluation is slower than planned", file=sys.stderr)
        return 1
    if baseline is not None and baseline.get("mode") != result["mode"]:
        # Only a baseline recorded in the same mode is comparable: per-batch
        # hash builds and kernel compiles amortize over the record count,
        # so a smaller smoke run legitimately reads lower normalized
        # throughput and a smaller columnar ratio.
        print(
            f"  skipping baseline gates: baseline mode "
            f"{baseline.get('mode')!r} != current {result['mode']!r}"
        )
        baseline = None
    if baseline is not None:
        recorded_aggregate = baseline.get("aggregate", {})
        # Planned gate: calibration-normalized throughput is
        # machine-comparable (rec/s divided by a pure-Python ops/s score
        # sampled around each timed pass), so a drop beyond the tolerance
        # means the evaluator itself got slower, not the machine.
        recorded_planned = recorded_aggregate.get("planned_normalized_throughput")
        if recorded_planned:
            current = aggregate["planned_normalized_throughput"]
            floor = recorded_planned * (1.0 - PLANNED_BASELINE_TOLERANCE)
            print(
                f"  baseline planned normalized {recorded_planned:.1f} "
                f"(floor {floor:.1f} at {PLANNED_BASELINE_TOLERANCE:.0%} "
                f"tolerance) -> current {current:.1f}"
            )
            if current < floor:
                print(
                    "FAIL: planned throughput regressed more than "
                    f"{PLANNED_BASELINE_TOLERANCE:.0%} vs {args.baseline}",
                    file=sys.stderr,
                )
                return 1
        recorded_columnar = recorded_aggregate.get("columnar_speedup")
        if recorded_columnar:
            floor = recorded_columnar * (1.0 - args.baseline_tolerance)
            current = aggregate["columnar_speedup"]
            print(
                f"  baseline columnar speedup {recorded_columnar:.2f}x "
                f"(floor {floor:.2f}x at {args.baseline_tolerance:.0%} "
                f"tolerance) -> current {current:.2f}x"
            )
            if current < floor:
                print(
                    "FAIL: columnar throughput regressed more than "
                    f"{args.baseline_tolerance:.0%} vs {args.baseline}",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
