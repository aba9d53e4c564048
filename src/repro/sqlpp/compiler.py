"""Compiling SQL++ queries into Hyracks jobs (the Figure 2 path).

Analytical queries over a single stored dataset compile into a partitioned
scan -> let/filter -> (group-by | sort | limit) -> project pipeline — the
same translation Figure 2 sketches for the country-count query.  Queries
outside that shape (joins between datasets in the outer FROM, nested
outer-FROM sources) are evaluated by the interpreter on the Cluster
Controller node, with their work charged through the work meter; this
mirrors AsterixDB evaluating a sequential plan section centrally.

Either way the *result is identical* — the compiler is a physical-plan
choice, which the test suite asserts by differential testing against the
interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SqlppAnalysisError
from ..hyracks.connectors import HashPartition, OneToOne
from ..hyracks.executor import JobResult
from ..hyracks.job import JobSpecification, OperatorDescriptor
from ..hyracks.operators import (
    AssignOperator,
    CollectSink,
    DatasetScanSource,
    DatasetWriteSink,
    FilterOperator,
    ListSource,
    SortOperator,
)
from ..hyracks.operators.sort_group import Aggregator, HashGroupByOperator
from .ast import Expr, SelectBlock, VarRef
from .evaluator import EvaluationContext, Env, Evaluator
from .plans import equality_key, has_top_level_aggregate, truthy


class CompiledQuery:
    """A query bound to an execution strategy."""

    def __init__(self, strategy: str, runner, plan: Optional[str] = None):
        self.strategy = strategy  # 'hyracks' | 'interpreter'
        self._runner = runner
        self.plan = plan or strategy

    def execute(self) -> List:
        return self._runner()


def explain_plan(block, catalog: Dict[str, object]) -> str:
    """Render the physical plan a parallelizable SELECT compiles to.

    Mirrors AsterixDB's logical-plan EXPLAIN at the granularity the paper's
    Figure 2 sketch uses: one line per operator, source first.
    """
    if not isinstance(block, SelectBlock):
        return "interpreter: non-select expression"
    lines: List[str] = []
    if len(block.from_terms) == 1 and isinstance(block.from_terms[0].source, VarRef):
        name = block.from_terms[0].source.name
        if name in catalog:
            dataset = catalog[name]
            lines.append(
                f"scan {name} ({dataset.num_partitions} partitions)"
            )
        else:
            lines.append(f"iterate {name}")
    else:
        sources = ", ".join(
            term.source.name if isinstance(term.source, VarRef) else "<expr>"
            for term in block.from_terms
        ) or "<constant>"
        lines.append(f"interpreter join over [{sources}]")
    if block.post_lets:
        lines.append(
            "assign " + ", ".join(let.var for let in block.post_lets)
        )
    if block.where is not None:
        lines.append("filter <where>")
    if block.group_keys:
        lines.append(f"hash group-by ({len(block.group_keys)} key(s))")
    if block.order_items:
        lines.append(f"sort ({len(block.order_items)} key(s))")
    if block.limit is not None:
        lines.append("limit")
    lines.append("project" if block.select_value is None else "project value")
    return " -> ".join(lines)


class QueryCompiler:
    """Chooses and builds the physical plan for a top-level query."""

    def __init__(self, cluster, catalog: Dict[str, object], registry=None):
        self.cluster = cluster
        self.catalog = catalog
        self.registry = registry

    def fresh_context(self) -> EvaluationContext:
        return EvaluationContext(self.catalog, functions=self.registry)

    # ------------------------------------------------------------- dispatch

    def compile(self, query: Expr) -> CompiledQuery:
        if isinstance(query, SelectBlock) and self._is_parallelizable(query):
            return CompiledQuery(
                "hyracks",
                lambda: self._run_hyracks(query),
                plan="hyracks: " + explain_plan(query, self.catalog),
            )
        return CompiledQuery(
            "interpreter",
            lambda: self._run_interpreter(query),
            plan="interpreter: " + explain_plan(query, self.catalog),
        )

    def _is_parallelizable(self, block: SelectBlock) -> bool:
        """Single stored-dataset FROM, no top-level LETs before SELECT."""
        if len(block.from_terms) != 1 or block.lets:
            return False
        source = block.from_terms[0].source
        if not (isinstance(source, VarRef) and source.name in self.catalog):
            return False
        if block.distinct:
            return False
        # Aggregates without GROUP BY need a global fold; keep those central.
        if not block.group_keys and has_top_level_aggregate(block):
            return False
        return True

    # ------------------------------------------------------- interpreter path

    def _run_interpreter(self, query: Expr) -> List:
        ctx = self.fresh_context()
        result = Evaluator(ctx).evaluate_query(query)
        return result if isinstance(result, list) else [result]

    # ----------------------------------------------------------- hyracks path

    def _run_hyracks(self, block: SelectBlock) -> List:
        ctx = self.fresh_context()
        evaluator = Evaluator(ctx)
        plan = ctx.plan_cache.plan_for(block, frozenset(), self.catalog)
        term = block.from_terms[0]
        dataset = self.catalog[term.source.name]
        var = term.var
        n = self.cluster.num_nodes

        def bind(record: dict) -> Optional[dict]:
            """Evaluate post-LETs into an env record for downstream exprs."""
            env = Env({var: record})
            for let_var, fn in plan.post_let_fns:
                env.vars[let_var] = fn(evaluator, env)
            return env.vars

        def where_ok(binding: dict) -> bool:
            return truthy(plan.where_fn(evaluator, Env(dict(binding))))

        spec = JobSpecification("query")
        scan = spec.add_operator(
            OperatorDescriptor(
                "scan", lambda c: DatasetScanSource(c, dataset), partitions=n
            )
        )
        assign = spec.add_operator(
            OperatorDescriptor("assign", lambda c: AssignOperator(c, bind), n)
        )
        spec.connect(scan, assign, OneToOne())
        upstream = assign
        if plan.where_fn is not None:
            flt = spec.add_operator(
                OperatorDescriptor("filter", lambda c: FilterOperator(c, where_ok), n)
            )
            spec.connect(upstream, flt, OneToOne())
            upstream = flt

        results: List = []
        grouped = bool(plan.group_keys)
        if grouped:
            upstream = self._attach_group_by(spec, upstream, plan, evaluator, n)
        sink_input = self._attach_order_limit_project(
            spec, upstream, plan, evaluator, grouped
        )
        sink = spec.add_operator(
            OperatorDescriptor("result", lambda c: CollectSink(c, results), 1)
        )
        spec.connect(sink_input, sink, OneToOne())
        self.cluster.controller.run_job(spec)
        return results

    def _attach_group_by(self, spec, upstream, plan, evaluator, n):
        key_fns = [fn for _expr, _alias, _default, fn in plan.group_keys]

        def key_fn(binding: dict):
            env = Env(dict(binding))
            return tuple(equality_key(fn(evaluator, env)) for fn in key_fns)

        def raw_keys(binding: dict):
            env = Env(dict(binding))
            return tuple(fn(evaluator, env) for fn in key_fns)

        collect = Aggregator(
            "__group__", lambda: [], lambda acc, record: acc + [record]
        )
        first_key = Aggregator(
            "__keys__",
            lambda: None,
            lambda acc, record: acc if acc is not None else raw_keys(record),
        )
        gby = spec.add_operator(
            OperatorDescriptor(
                "group-by",
                lambda c: HashGroupByOperator(
                    c, key_fn, ["__hash__"], [collect, first_key]
                ),
                partitions=n,
            )
        )
        spec.connect(upstream, gby, HashPartition(key_fn))
        return gby

    def _attach_order_limit_project(self, spec, upstream, plan, evaluator, grouped):
        n_out = 1 if (plan.order_items or plan.limit_fn is not None) else None

        def env_for(binding: dict) -> Env:
            if grouped:
                members = [Env(dict(member)) for member in binding["__group__"]]
                keys = binding["__keys__"] or ()
                return evaluator._group_env(plan, Env(), members, keys)
            return Env(dict(binding))

        def project(binding: dict):
            return evaluator._planned_project(plan, env_for(binding))

        if plan.order_items:

            def order_key(binding: dict):
                env = env_for(binding)
                # ORDER BY may reference SELECT output aliases, so the
                # sort key is computed against the projected row too.
                row = evaluator._planned_project(plan, env)
                return evaluator._planned_order_key(plan, env, row)

            sorter = spec.add_operator(
                OperatorDescriptor(
                    "order-by", lambda c: SortOperator(c, order_key), partitions=1
                )
            )
            spec.connect(upstream, sorter, OneToOne())
            upstream = sorter
        if plan.limit_fn is not None:
            limit_value = plan.limit_fn(evaluator, Env())
            from ..hyracks.operators import LimitOperator

            limiter = spec.add_operator(
                OperatorDescriptor(
                    "limit",
                    lambda c: LimitOperator(c, int(limit_value)),
                    partitions=1,
                )
            )
            spec.connect(upstream, limiter, OneToOne())
            upstream = limiter
        projector = spec.add_operator(
            OperatorDescriptor(
                "project",
                lambda c: AssignOperator(c, project),
                partitions=n_out or upstream.partitions,
            )
        )
        spec.connect(upstream, projector, OneToOne())
        return projector


def run_insert(
    cluster,
    catalog: Dict[str, object],
    dataset_name: str,
    rows: List[dict],
    upsert: bool = False,
) -> JobResult:
    """The insert job: hash-partition rows by primary key and store them."""
    if dataset_name not in catalog:
        raise SqlppAnalysisError(f"unknown dataset: {dataset_name}")
    dataset = catalog[dataset_name]
    from ..adm.schema import primary_key_of

    n = cluster.num_nodes
    spec = JobSpecification(f"insert-{dataset_name}")
    src = spec.add_operator(
        OperatorDescriptor("rows", lambda c: ListSource(c, rows), partitions=n)
    )
    sink = spec.add_operator(
        OperatorDescriptor(
            "store",
            lambda c: DatasetWriteSink(c, dataset, "upsert" if upsert else "insert"),
            partitions=n,
        )
    )
    spec.connect(
        src, sink, HashPartition(lambda r: primary_key_of(r, dataset.primary_key))
    )
    return cluster.controller.run_job(spec)
