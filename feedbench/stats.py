"""Order statistics, the canonical output digest and the speed probe."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from typing import Dict, Iterable, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(1, rank) - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of repeated measurements."""
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def max_backlog(handed: Iterable[float], committed: Iterable[float]) -> int:
    """Largest number of records handed over but not yet committed.

    A commit stamped at the same instant as a hand-over counts first, so
    equal stamps never inflate the backlog.
    """
    events = [(t, 1) for t in handed] + [(t, -1) for t in committed]
    events.sort()
    level = peak = 0
    for _t, step in events:
        level += step
        peak = max(peak, level)
    return peak


def _canonical_value(value):
    # ADM values (datetime, point, ...) print as their literal; the type
    # tag keeps them distinct from strings with the same text.
    return f"{type(value).__name__}:{value!r}"


def digest(records: Iterable[dict], primary_key: str) -> str:
    """SHA-256 of the records sorted by primary key, keys sorted.

    The hash covers the compact JSON array of the sorted records, fed to
    it one record at a time so that the whole text never exists at once.
    """
    ordered: List[dict] = sorted(records, key=lambda r: r[primary_key])
    sha = hashlib.sha256(b"[")
    for i, record in enumerate(ordered):
        text = json.dumps(
            record,
            sort_keys=True,
            separators=(",", ":"),
            default=_canonical_value,
        )
        sha.update((("," if i else "") + text).encode("utf-8"))
    sha.update(b"]")
    return sha.hexdigest()


#: seconds one :func:`speed_probe` loop takes at nominal machine speed
#: (measured on a 2-core x86-64 Xeon at 2.0 GHz with CPython 3.11)
NOMINAL_PROBE_SECONDS = 2.2e-3


def _probe_loop(iterations: int = 20_000) -> float:
    # the instruction mix of repro.bench.wallclock.calibration_score:
    # dict reads and writes plus integer arithmetic
    acc = 0
    table = {"a": 1, "b": 2}
    started = time.perf_counter()
    for i in range(iterations):
        acc += table["a"] + (i & 7)
        table["b"] = acc & 1023
    return time.perf_counter() - started


def speed_probe(loops: int = 7) -> float:
    """How slow the machine is right now, relative to nominal speed.

    1.0 at nominal speed, 1.3 when a fixed pure-Python loop takes 30%
    longer.  A shared machine changes speed over seconds to minutes;
    probing right before and after a round tracks that drift.
    """
    return statistics.median(_probe_loop() for _ in range(loops)) / (
        NOMINAL_PROBE_SECONDS
    )
