"""The four whole-feed workloads and one measured round of each.

Every round sets a fresh system up (reference datasets loaded and
indexed, paper UDFs registered, feed connected) and then drives the whole
dynamic feed — raw JSON through parse, intake, computing, sequencer and
LSM storage — through :class:`DynamicIngestionPipeline`.  Inputs (tweets,
reference records, the update stream) are built from the seed before any
timer starts; the program receives only those generated inputs.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.adm.schema import open_type
from repro.bench.updates import NOMINAL_BATCH_SECONDS, BatchScheduledUpdates
from repro.cluster.controller import Cluster
from repro.ingestion.adapter import FeedAdapter
from repro.ingestion.feed import AttachedFunction, FeedDefinition, FeedRunReport
from repro.ingestion.pipelines import DynamicIngestionPipeline
from repro.ingestion.policy import FeedPolicy
from repro.ingestion.updates import ReferenceUpdateClient
from repro.storage.checkpoint import CheckpointStore
from repro.storage.dataset import Dataset
from repro.storage.index import IndexKind
from repro.udf.library import register_paper_udfs
from repro.udf.registry import FunctionRegistry
from repro.workloads.reference import PaperWorkload, WorkloadScale
from repro.workloads.tweets import TWEET_TYPE_FULL

import spans
import stats

BATCH_SIZE = 420  # the paper's 1X batch
NODES = 2
TARGET = "EnrichedTweets"
#: reference work is charged as if the datasets had the paper's
#: cardinality (the figure benchmarks' default, 1 / reference scale)
REFERENCE_WORK_SCALE = 100.0
#: Persons rows (the paper's 1B residents, sampled); 2,000 keeps Q7's
#: R-tree set-up near one second, so a run fits several set-ups and feeds
PERSONS = 2000
STATE_CACHE_BYTES = 32 << 20  # fits SafetyRatings' build table
MEMO_BYTES = 64 << 10  # below Q1's ~125 KB memo working set
#: reference dataset -> (PaperWorkload generator, primary key, R-tree field)
REFERENCE_TABLES = {
    "SafetyRatings": ("safety_ratings", "country_code", None),
    "AverageIncomes": ("average_incomes", "district_area_id", None),
    "DistrictAreas": ("district_areas", "district_area_id", "district_area"),
    "Facilities": ("facilities", "facility_id", "facility_location"),
    "Persons": ("persons", "person_id", "location"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    udf: Optional[str] = None
    references: Tuple[str, ...] = ()
    intake_partitions: int = 1
    workers: int = 1
    state_cache_bytes: int = 0
    memo_bytes: int = 0
    #: reference upserts per nominal batch second, applied on a fixed
    #: per-batch schedule so every configuration sees the same updates
    update_rate: float = 0.0
    checkpoint: bool = False

    def oracle(self) -> "Workload":
        """This feed with the state cache, memo and checkpoints off.

        Partitions and workers stay as they are: under reference updates
        they decide which batches are computed before each update lands,
        so N=2/W=2 legitimately stores different ratings than N=1/W=1.
        The cache and memo must never change what is stored.
        """
        return replace(
            self, name=f"{self.name}.oracle", state_cache_bytes=0,
            memo_bytes=0, checkpoint=False,
        )

    @property
    def has_oracle_run(self) -> bool:
        """True when the oracle configuration differs from this one."""
        return replace(self, name=self.oracle().name) != self.oracle()


#: Rationale per workload is in README.md and BENCHMARK.json.  Input sizes
#: end half-way into a batch: records of one batch commit together, so a
#: percentile rank on a batch boundary would jump between two batches.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ingest_plain", records=16590),
        Workload(
            "enrich_hash",
            records=8610,
            udf="enrichTweetQ1",
            references=("SafetyRatings",),
        ),
        Workload(
            "enrich_spatial",
            records=2310,
            udf="enrichTweetQ7",
            references=("AverageIncomes", "DistrictAreas", "Facilities", "Persons"),
        ),
        Workload(
            "enrich_refresh",
            records=8610,
            udf="enrichTweetQ1",
            references=("SafetyRatings",),
            intake_partitions=2,
            workers=2,
            state_cache_bytes=STATE_CACHE_BYTES,
            memo_bytes=MEMO_BYTES,
            update_rate=1.0,
            checkpoint=True,
        ),
    )
}


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    """Everything a round feeds the program, generated from the seed."""

    generators: PaperWorkload
    raws: List[str]
    ids: List[int]
    reference_records: Dict[str, List[dict]]
    updates: List[dict]


def make_inputs(workload: Workload, seed: int, records: int) -> Inputs:
    generators = PaperWorkload(
        scale=WorkloadScale(seed=seed, persons=PERSONS), num_partitions=NODES
    )
    raws = list(generators.tweet_generator.raw_json(records))
    tweets = [json.loads(raw) for raw in raws]
    ids = [tweet["id"] for tweet in tweets]
    if sorted(ids) != list(range(records)):
        raise ValueError("tweet ids must be 0..records-1")
    reference_records = {
        name: list(getattr(generators, REFERENCE_TABLES[name][0])())
        for name in workload.references
    }
    updates: List[dict] = []
    if workload.update_rate > 0:
        batches = -(-records // BATCH_SIZE)
        count = int(workload.update_rate * NOMINAL_BATCH_SECONDS * batches) + 2
        updates = rerate_countries(
            reference_records["SafetyRatings"],
            {tweet["country"] for tweet in tweets},
            count,
            random.Random(seed),
        )
    return Inputs(generators, raws, ids, reference_records, updates)


def rerate_countries(ratings, countries, count: int, rnd) -> List[dict]:
    """``count`` upserts that each change the rating of a tweeted country.

    Every update changes a value some tweet joins with, so an enrichment
    that served stale reference state would store different output.
    """
    current = {r["country_code"]: r for r in ratings if r["country_code"] in countries}
    keys = sorted(current)
    values = sorted({r["safety_rating"] for r in ratings})
    updates = []
    for _ in range(count):
        key = rnd.choice(keys)
        old = current[key]
        choices = [v for v in values if v != old["safety_rating"]]
        current[key] = dict(old, safety_rating=rnd.choice(choices))
        updates.append(current[key])
    return updates


class StampingAdapter(FeedAdapter):
    """Hands pre-built raw records over, stamping when each leaves.

    ``handed[id]`` receives the wall time the record was handed to the
    intake; a live re-open continues after the last record drawn.
    """

    def __init__(self, raws: List[str], ids: List[int], handed: List[float]):
        self._raws = raws
        self._ids = ids
        self._handed = handed
        self.received = 0

    def envelopes(self, resume_from=None):
        skip = resume_from if resume_from is not None else -1
        clock, handed, ids = time.perf_counter, self._handed, self._ids
        for seq in range(self.received, len(self._raws)):
            self.received = seq + 1
            if seq <= skip:
                continue
            handed[ids[seq]] = clock()
            yield {"raw": self._raws[seq], "seq": seq}


# ------------------------------------------------------------------- round


@dataclass
class FeedUnderTest:
    pipeline: DynamicIngestionPipeline
    feed: FeedDefinition
    adapters: List[StampingAdapter]
    target: Dataset
    registry: FunctionRegistry
    update_client: Optional[BatchScheduledUpdates]
    checkpoint: Optional[CheckpointStore]

    def run(self) -> FeedRunReport:
        adapter = self.adapters if len(self.adapters) > 1 else self.adapters[0]
        return self.pipeline.run(
            self.feed,
            adapter,
            update_client=self.update_client,
            checkpoint=self.checkpoint,
        )


def load_references(workload: Workload, inputs: Inputs) -> Dict[str, Dataset]:
    """Create, bulk-load and R-tree-index the workload's reference datasets."""
    catalog: Dict[str, Dataset] = {}
    for name in workload.references:
        _generator, pk, spatial = REFERENCE_TABLES[name]
        dataset = Dataset(
            name, open_type(f"{name}Type"), pk, num_partitions=NODES,
            memtable_budget=4096, validate=False,
        )
        dataset.insert_many(inputs.reference_records[name])
        dataset.flush_all()
        if spatial is not None:
            dataset.create_index(f"{name}_spatial", spatial, IndexKind.RTREE)
        catalog[name] = dataset
    return catalog


def set_up(
    workload: Workload,
    inputs: Inputs,
    handed: List[float],
    committed: List[float],
    checkpoint_dir: str,
) -> FeedUnderTest:
    """Load and index the references, register the UDFs, connect the feed."""
    catalog = load_references(workload, inputs)
    target = inputs.generators.enriched_tweets_dataset(TARGET)
    catalog[TARGET] = target
    clock = time.perf_counter

    def on_commit(_op, key):
        committed[key] = clock()

    target.add_update_listener(on_commit)
    registry = FunctionRegistry(lambda: set(catalog))
    register_paper_udfs(registry)

    policy = None
    if workload.intake_partitions > 1 or workload.workers > 1 or (
        workload.state_cache_bytes or workload.memo_bytes
    ):
        policy = FeedPolicy.basic(
            intake_partitions=workload.intake_partitions,
            min_computing_workers=workload.workers,
            max_computing_workers=workload.workers,
            state_cache_bytes=workload.state_cache_bytes,
            enrichment_memo_bytes=workload.memo_bytes,
        )
    feed = FeedDefinition(
        name=workload.name.replace(".", "_"),
        target_dataset=TARGET,
        datatype=TWEET_TYPE_FULL,
        batch_size=BATCH_SIZE,
        functions=[AttachedFunction(workload.udf)] if workload.udf else [],
        policy=policy,
        reference_work_scale=REFERENCE_WORK_SCALE,
    )
    # round-robin split: partition p hands over tweets p, p+N, ... so the
    # union is exactly the single-adapter stream
    n = workload.intake_partitions
    adapters = [
        StampingAdapter(inputs.raws[p::n], inputs.ids[p::n], handed)
        for p in range(n)
    ]
    update_client = None
    if workload.update_rate > 0:
        reference = catalog[workload.references[0]]
        update_client = BatchScheduledUpdates(
            ReferenceUpdateClient(
                workload.update_rate, iter(inputs.updates), reference.upsert
            ),
            NOMINAL_BATCH_SECONDS,
        )
    checkpoint = CheckpointStore(checkpoint_dir) if workload.checkpoint else None
    pipeline = DynamicIngestionPipeline(Cluster(NODES), catalog, registry)
    return FeedUnderTest(
        pipeline, feed, adapters, target, registry, update_client, checkpoint
    )


@dataclass
class Round:
    """One set-up plus one feed run, with what the checks found."""

    setup_s: float
    wall_s: float
    #: machine slowdown probed around the set-up and around the feed
    #: (1.0 = nominal speed, see stats.speed_probe)
    setup_slowdown: float
    slowdown: float
    records: int
    report: FeedRunReport
    digest: str
    #: nearest-rank percentiles of the per-record latencies (one sample
    #: per record; the samples themselves are not kept)
    latency_p50_ms: float
    latency_p99_ms: float
    backlog_max: int
    storage_stats: Dict[str, int]
    memo_stats: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    tracer: Optional[spans.Tracer] = None

    @property
    def throughput_rps(self) -> float:
        return self.records / self.wall_s


def run_round(
    workload: Workload,
    inputs: Inputs,
    scratch_dir: str,
    tracer: Optional[spans.Tracer] = None,
) -> Round:
    """Set up, run and check one whole feed; ``tracer`` traces the run."""
    n = len(inputs.raws)
    handed = [0.0] * n
    committed: List[Optional[float]] = [None] * n
    checkpoint_dir = os.path.join(scratch_dir, f"checkpoint-{os.getpid()}")
    probes = None
    if tracer is not None:
        probes = spans.LayerProbes(tracer, TARGET, workload.references)
        probes.install()
    gc.collect()
    before = stats.speed_probe()
    try:
        started = time.perf_counter()
        system = set_up(workload, inputs, handed, committed, checkpoint_dir)
        setup_s = time.perf_counter() - started
        between = stats.speed_probe()
        started = time.perf_counter()
        if tracer is not None:
            report = tracer.call(spans.ROOT, system.run)
        else:
            report = system.run()
        wall_s = time.perf_counter() - started
    finally:
        if probes is not None:
            probes.uninstall()
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    after = stats.speed_probe()

    problems = []
    stored = list(system.target.scan())
    if report.records_stored != n or len(stored) != n:
        problems.append(
            f"stored {report.records_stored} (scan {len(stored)}) of {n} records"
        )
    faults = report.faults
    if faults is not None and (
        faults.records_dead_lettered or faults.records_skipped
        or faults.records_discarded
    ):
        problems.append(f"records dead-lettered or dropped: {faults.as_dict()}")
    if report.enrichment_completeness != 1.0:
        problems.append(f"completeness {report.enrichment_completeness}")
    missing = sum(1 for t in committed if t is None)
    if missing:
        problems.append(f"{missing} records never committed")
    latencies = [
        (c - h) * 1e3 for h, c in zip(handed, committed) if c is not None
    ]
    memo = system.registry.enrichment_memo.stats()
    return Round(
        setup_s=setup_s,
        wall_s=wall_s,
        setup_slowdown=(before + between) / 2,
        slowdown=(between + after) / 2,
        records=n,
        report=report,
        digest=stats.digest(stored, "id"),
        latency_p50_ms=stats.percentile(latencies, 50),
        latency_p99_ms=stats.percentile(latencies, 99),
        backlog_max=stats.max_backlog(handed, [t for t in committed if t]),
        storage_stats=system.target.storage_stats(),
        memo_stats=memo,
        problems=problems,
        tracer=tracer,
    )
