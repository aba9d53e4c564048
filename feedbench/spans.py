"""In-memory span tracer and the probes that attribute a feed's wall time.

A span is one call into a layer: ``(name, start, end, parent, run)``.
Spans nest through a stack; a layer's *self time* is its span's busy time
minus the busy time of the spans opened inside it.  Calls that return a
generator (``Dataset.scan`` and the index probes) are timed over their
consumption: every resume is one segment of the same span, so a lazily
consumed scan is charged where its records are produced, not as 0 s at
the call.

:class:`LayerProbes` wraps public functions of the program from the
outside, at frame or batch granularity, and only while a traced run is
active.  Names are patched where callers look them up: the feed driver
imports ``make_invoker``/``make_batch_invoker`` by name, and the storage
layer binds ``dataset.upsert`` when it is built, so probes must be
installed before the system under test is set up.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List

#: index of each field in a span record
NAME, START, END, PARENT, RUN, BUSY = range(6)


class Tracer:
    """Keeps spans in memory and self time per span name."""

    def __init__(self, clock=time.perf_counter, run_id: int = 0):
        self.clock = clock
        #: span records: ``[name, start, end, parent, run, busy]``;
        #: ``parent`` is the index of the enclosing span or -1
        self.spans: List[list] = []
        #: open segments: ``[span_index, segment_start, child_seconds]``
        self._stack: List[list] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.run_id = run_id

    @property
    def active(self) -> bool:
        """True while a span is open: probes record only inside a run."""
        return bool(self._stack)

    # --------------------------------------------------------------- spans

    def _new_span(self, name: str, now: float) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, now, now, parent, self.run_id, 0.0])
        self.calls[name] += 1
        return len(self.spans) - 1

    def _enter(self, index: int, now: float) -> None:
        self._stack.append([index, now, 0.0])

    def _exit(self) -> None:
        now = self.clock()
        index, started, child = self._stack.pop()
        duration = now - started
        span = self.spans[index]
        span[END] = now
        span[BUSY] += duration
        self.self_seconds[span[NAME]] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        now = self.clock()
        self._enter(self._new_span(name, now), now)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def consume(self, name: str, iterator: Iterable) -> Iterator:
        """Yield from ``iterator``, timing each resume as part of one span.

        The span's parent is the span open at the call; each resume is
        charged to whichever span is consuming at the time.
        """
        iterator = iter(iterator)
        index = self._new_span(name, self.clock())
        try:
            while True:
                self._enter(index, self.clock())
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit()
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------- reports

    def chrome_events(self) -> List[dict]:
        """Spans as Chrome trace-event ``X`` events (microseconds)."""
        if not self.spans:
            return []
        origin = min(span[START] for span in self.spans)
        events = []
        for index, span in enumerate(self.spans):
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[NAME].split(".")[0],
                    "ph": "X",
                    "ts": (span[START] - origin) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span": index,
                        "parent": span[PARENT],
                        "run": span[RUN],
                        "busy_us": span[BUSY] * 1e6,
                    },
                }
            )
        return events

    def write_chrome(self, path: str) -> None:
        """Write the spans as a Chrome trace file (opens in Perfetto)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"},
                handle,
            )


#: span names and what they wrap (README.md maps them to layers)
ROOT = "ingestion.feed"
RUNTIME = "runtime"
HYRACKS_JOB = "hyracks.job"
ADM_PARSE = "adm.parse"
SQLPP_OPERATOR = "sqlpp.operator"
SQLPP_KERNEL = "sqlpp.kernel"
SQLPP_SCALAR = "sqlpp.scalar"
REF_READ = "storage.ref_read"
WRITE = "storage.write"
REF_UPDATE = "storage.ref_update"
CHECKPOINT = "storage.checkpoint"


class LayerProbes:
    """Patches public entry points of each module to open spans.

    ``target`` is the name of the dataset the feed writes; ``references``
    are the datasets the UDF reads and the update client writes.  Calls
    on other datasets, and every call made while no span is open, pass
    straight through.
    """

    def __init__(self, tracer: Tracer, target: str, references: Iterable[str]):
        self.tracer = tracer
        self.target = target
        self.references = frozenset(references)
        self._saved: List[tuple] = []

    def install(self) -> None:
        from repro.hyracks.executor import LocalJobRunner
        from repro.hyracks.operators import ParseOperator
        from repro.ingestion import pipelines
        from repro.ingestion.udf_operator import UdfEvaluatorOperator
        from repro.runtime.kernel import Runtime
        from repro.storage.checkpoint import CheckpointStore
        from repro.storage.dataset import Dataset

        tracer = self.tracer

        def span_method(owner, attr, name):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                return tracer.call(name, original, *args, **kwargs)

            self._patch(owner, attr, wrapper)

        span_method(Runtime, "run", RUNTIME)
        span_method(LocalJobRunner, "execute", HYRACKS_JOB)
        span_method(ParseOperator, "next_frame", ADM_PARSE)
        span_method(UdfEvaluatorOperator, "next_frame", SQLPP_OPERATOR)
        span_method(CheckpointStore, "commit", CHECKPOINT)

        def span_factory(attr, name):
            make = getattr(pipelines, attr)

            def wrapped_make(*args, **kwargs):
                invoker = make(*args, **kwargs)
                if invoker is None:
                    return None

                def traced_invoker(*a, **k):
                    if not tracer.active:
                        return invoker(*a, **k)
                    return tracer.call(name, invoker, *a, **k)

                return traced_invoker

            self._patch(pipelines, attr, wrapped_make)

        span_factory("make_batch_invoker", SQLPP_KERNEL)
        span_factory("make_invoker", SQLPP_SCALAR)

        references, target = self.references, self.target

        def ref_reader(attr):
            original = getattr(Dataset, attr)

            def wrapper(dataset, *args, **kwargs):
                if not tracer.active or dataset.name not in references:
                    return original(dataset, *args, **kwargs)
                if attr == "get":
                    return tracer.call(REF_READ, original, dataset, *args, **kwargs)
                return tracer.consume(REF_READ, original(dataset, *args, **kwargs))

            self._patch(Dataset, attr, wrapper)

        for attr in ("scan", "get", "index_probe_equal", "index_probe_spatial"):
            ref_reader(attr)

        def writer(attr):
            original = getattr(Dataset, attr)

            def wrapper(dataset, *args, **kwargs):
                if tracer.active:
                    if dataset.name == target:
                        return tracer.call(WRITE, original, dataset, *args, **kwargs)
                    if dataset.name in references:
                        return tracer.call(
                            REF_UPDATE, original, dataset, *args, **kwargs
                        )
                return original(dataset, *args, **kwargs)

            self._patch(Dataset, attr, wrapper)

        for attr in ("insert", "upsert"):
            writer(attr)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)



def coverage(tracer: Tracer, wall: float) -> float:
    """Self time attributed to layers over the traced wall time.

    The root span is the feed run itself; its own self time (launch and
    report assembly outside the runtime) is the unattributed part.
    """
    attributed = sum(
        seconds for name, seconds in tracer.self_seconds.items() if name != ROOT
    )
    return attributed / wall
