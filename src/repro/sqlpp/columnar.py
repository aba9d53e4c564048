"""Columnar batch execution for predeployed plans.

The plan layer (plans.py) compiles a ``SelectBlock`` once into per-record
closures; this module goes one step further for the *top-level UDF body*
shape (no FROM, a chain of LETs, a projection list): it compiles the block
into a :class:`BlockKernel` that evaluates one whole ingestion batch at a
time over per-field column views, with

* vectorized record-level expressions (field access, comparisons,
  arithmetic, boolean logic, CASE, constructors, the charge-free builtin
  table ``VECTORIZABLE_BUILTINS``),
* equi-join subqueries executed as **one hash-probe pass per batch**
  against the evaluator's batch-cached (and, cross-batch, StateCache'd)
  build tables, with the inner block's shaping (SELECT VALUE / named
  projections / implicit GROUP BY aggregates / single-key ORDER BY /
  LIMIT) applied per match list,
* uncorrelated cacheable subqueries evaluated once per batch through
  ``Evaluator._cached_select`` and broadcast, and
* per-LET scalar fallback: any expression outside the supported subset
  keeps its compiled scalar closure and is evaluated column-wise over a
  pooled flat ``Env`` whose bound-name set is identical to the scalar
  chain's, so nested plan-cache keys (and therefore batch-cache tokens)
  match the record-at-a-time path exactly.

Byte-identity contract: stored output and every ``WorkMeter`` counter
total must equal the scalar planned path for the same frame.  All
meter-charging work either goes through the shared evaluator primitives
(``_hash_table`` / ``_cached_select`` — builds are idempotent within a
generation) or is charged as one aggregated per-batch increment whose
total equals the sum of the scalar per-record increments.  Expressions
whose scalar evaluation is *conditional* (AND/OR right sides, CASE
branches past the first condition) are only vectorized when charge-free,
so eager whole-column evaluation cannot change any counter.

Failure protocol: kernels never handle errors themselves.  Any exception
during a batch attempt (including :class:`KernelFallback` runtime guards)
aborts the attempt; the caller discards the scratch meter and re-runs the
frame through the scalar loop.  Build-side state installed by the aborted
attempt lives in the batch cache, so the re-run does not re-charge it —
totals stay identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..adm.values import MISSING
from ..errors import SqlppEvaluationError
from ..storage.index import IndexKind
from .analysis import split_conjuncts
from .ast import (
    ArrayConstructor,
    BinaryOp,
    Call,
    CaseExpr,
    Exists,
    Expr,
    FieldAccess,
    IndexAccess,
    Literal,
    MissingLiteral,
    ObjectConstructor,
    SelectBlock,
    Star,
    Subquery,
    UnaryOp,
    VarRef,
)
from .evaluator import Env
from .functions import AGGREGATE_NAMES, BUILTINS, VECTORIZABLE_BUILTINS
from .memo import canonical_probe_key
from .plans import (
    SelectPlan,
    aggregate_values,
    apply_binary,
    default_alias,
    find_access_path,
    sort_key,
    truthy,
)


class Unsupported(Exception):
    """Compile-time: the expression is outside the vectorizable subset."""


class KernelFallback(Exception):
    """Runtime: this batch cannot run vectorized (e.g. a B-tree index
    appeared on the probe field); the caller must re-run the frame through
    the scalar path."""


#: cached on ``SelectPlan.batch_kernel`` when compilation found the block
#: unsupported, so the verdict is not re-derived every batch
UNSUPPORTED = object()


class ColumnBatch:
    """Column views over one batch: variable name -> list of values."""

    __slots__ = ("n", "columns")

    def __init__(self, columns: Dict[str, list], n: int):
        self.columns = columns
        self.n = n


class _Scope:
    """Compile-time state for the record-level vector compiler."""

    __slots__ = ("known", "ctx", "catalog_names")

    def __init__(self, known, ctx, catalog_names):
        self.known = known  # ordered list: param + lets bound so far
        self.ctx = ctx
        self.catalog_names = catalog_names


# ------------------------------------------------ record-level vector kernels
#
# A kernel is ``fn(ev, cb) -> list`` producing one value per record.  The
# ``eager`` flag tracks whether the scalar path evaluates this position for
# *every* record; meter-charging kernels (subqueries) require it.


def compile_record_expr(expr: Expr, scope: _Scope, eager: bool) -> Callable:
    builder = _VEC_COMPILERS.get(type(expr))
    if builder is None:
        raise Unsupported(type(expr).__name__)
    return builder(expr, scope, eager)


def _vec_literal(expr: Literal, scope, eager):
    value = expr.value
    return lambda ev, cb: [value] * cb.n


def _vec_missing(expr: MissingLiteral, scope, eager):
    return lambda ev, cb: [MISSING] * cb.n


def _vec_varref(expr: VarRef, scope, eager):
    name = expr.name
    if name not in scope.known:
        # catalog datasets / unresolved names: only meaningful in FROM
        # clauses; let the scalar path produce its DatasetRef or error
        raise Unsupported(f"unknown column {name!r}")
    return lambda ev, cb: cb.columns[name]


def _vec_field(expr: FieldAccess, scope, eager):
    base_k = compile_record_expr(expr.base, scope, eager)
    field = expr.field

    def run(ev, cb):
        # MISSING/None/non-dict all project to MISSING, exactly as the
        # scalar closure does
        return [
            b.get(field, MISSING) if isinstance(b, dict) else MISSING
            for b in base_k(ev, cb)
        ]

    return run


def _index_one(base, index):
    if base is MISSING or index is MISSING:
        return MISSING
    if base is None or index is None:
        return None
    if not isinstance(base, list) or not isinstance(index, int):
        return MISSING
    if -len(base) <= index < len(base):
        return base[index]
    return MISSING


def _vec_index(expr: IndexAccess, scope, eager):
    base_k = compile_record_expr(expr.base, scope, eager)
    index_k = compile_record_expr(expr.index, scope, eager)

    def run(ev, cb):
        return [
            _index_one(b, i) for b, i in zip(base_k(ev, cb), index_k(ev, cb))
        ]

    return run


def _vec_unary(expr: UnaryOp, scope, eager):
    operand_k = compile_record_expr(expr.operand, scope, eager)
    if expr.op == "not":

        def run(ev, cb):
            return [
                v if (v is MISSING or v is None) else (not bool(v))
                for v in operand_k(ev, cb)
            ]

        return run
    if expr.op == "-":

        def run(ev, cb):
            return [
                v if (v is MISSING or v is None) else -v
                for v in operand_k(ev, cb)
            ]

        return run
    raise Unsupported(f"unary {expr.op!r}")


def _vec_binary(expr: BinaryOp, scope, eager):
    op = expr.op
    if op == "and" or op == "or":
        # Scalar short-circuits the right side; vectorized evaluation is
        # whole-column, so the right side must be charge-free (eager=False
        # rejects subquery kernels) — the selected value is identical.
        left_k = compile_record_expr(expr.left, scope, eager)
        right_k = compile_record_expr(expr.right, scope, False)
        if op == "and":

            def run(ev, cb):
                return [
                    truthy(r) if truthy(l) else False
                    for l, r in zip(left_k(ev, cb), right_k(ev, cb))
                ]

            return run

        def run(ev, cb):
            return [
                True if truthy(l) else truthy(r)
                for l, r in zip(left_k(ev, cb), right_k(ev, cb))
            ]

        return run
    left_k = compile_record_expr(expr.left, scope, eager)
    right_k = compile_record_expr(expr.right, scope, eager)
    if op == "=" or op == "!=":
        equals = op == "="

        def run(ev, cb):
            out = []
            for left, right in zip(left_k(ev, cb), right_k(ev, cb)):
                if left is MISSING or right is MISSING:
                    out.append(MISSING)
                elif left is None or right is None:
                    out.append(None)
                else:
                    out.append(
                        (left == right) if equals else (left != right)
                    )
            return out

        return run

    def run(ev, cb):
        return [
            apply_binary(op, left, right)
            for left, right in zip(left_k(ev, cb), right_k(ev, cb))
        ]

    return run


def _agg_one(lowered: str, value):
    if value is MISSING:
        return MISSING
    if value is None:
        return None
    if not isinstance(value, list):
        raise SqlppEvaluationError(
            f"{lowered}() outside GROUP BY requires an array argument"
        )
    cleaned = [v for v in value if v is not None and v is not MISSING]
    return aggregate_values(lowered, cleaned)


def _vec_call(expr: Call, scope, eager):
    name = expr.name
    lowered = name.lower()
    if expr.library is not None:
        # Java UDFs meter through the instance and read node-local
        # resources on instantiation — scalar path only.
        raise Unsupported(f"library call {expr.qualified_name}")
    if lowered in AGGREGATE_NAMES:
        # Array form only (no group context exists at record level).
        if not expr.args or isinstance(expr.args[0], Star):
            raise Unsupported(f"aggregate {name} without array argument")
        arg_k = compile_record_expr(expr.args[0], scope, eager)

        def run(ev, cb):
            return [_agg_one(lowered, v) for v in arg_k(ev, cb)]

        return run
    functions = scope.ctx.functions
    if functions is not None and functions.has(name):
        # Registry UDF: arbitrary nested evaluation — scalar path only.
        # (The kernel is cached per registry version, so a later
        # registration that shadows a builtin recompiles.)
        raise Unsupported(f"registry function {name}")
    builtin = BUILTINS.lookup(lowered)
    if builtin is None:
        raise Unsupported(f"unknown function {name}")
    if lowered not in VECTORIZABLE_BUILTINS:
        raise Unsupported(f"meter-charging builtin {name}")
    if not expr.args:
        raise Unsupported(f"zero-argument call {name}")
    arg_ks = tuple(compile_record_expr(arg, scope, eager) for arg in expr.args)

    def run(ev, cb):
        cols = [k(ev, cb) for k in arg_ks]
        out = []
        append = out.append
        try:
            for args in zip(*cols):
                append(builtin(None, *args))
        except (TypeError, ValueError, AttributeError) as exc:
            raise SqlppEvaluationError(f"{name}: {exc}") from exc
        return out

    return run


def _vec_case(expr: CaseExpr, scope, eager):
    # The first WHEN condition (and the operand) are always evaluated by
    # the scalar path; later conditions, all branch values, and the
    # default are conditional — they must be charge-free.
    when_ks = tuple(
        (
            compile_record_expr(cond, scope, eager if i == 0 else False),
            compile_record_expr(value, scope, False),
        )
        for i, (cond, value) in enumerate(expr.whens)
    )
    default_k = (
        compile_record_expr(expr.default, scope, False)
        if expr.default is not None
        else None
    )
    if expr.operand is not None:
        operand_k = compile_record_expr(expr.operand, scope, eager)

        def run(ev, cb):
            operand_col = operand_k(ev, cb)
            cond_cols = [ck(ev, cb) for ck, _vk in when_ks]
            value_cols = [vk(ev, cb) for _ck, vk in when_ks]
            default_col = default_k(ev, cb) if default_k is not None else None
            out = []
            for i in range(cb.n):
                operand = operand_col[i]
                for j in range(len(when_ks)):
                    if cond_cols[j][i] == operand:
                        out.append(value_cols[j][i])
                        break
                else:
                    out.append(
                        default_col[i] if default_col is not None else None
                    )
            return out

        return run

    def run(ev, cb):
        cond_cols = [ck(ev, cb) for ck, _vk in when_ks]
        value_cols = [vk(ev, cb) for _ck, vk in when_ks]
        default_col = default_k(ev, cb) if default_k is not None else None
        out = []
        for i in range(cb.n):
            for j in range(len(when_ks)):
                if truthy(cond_cols[j][i]):
                    out.append(value_cols[j][i])
                    break
            else:
                out.append(default_col[i] if default_col is not None else None)
        return out

    return run


def _vec_object(expr: ObjectConstructor, scope, eager):
    field_ks = tuple(
        (name, compile_record_expr(value, scope, eager))
        for name, value in expr.fields
    )

    def run(ev, cb):
        cols = [(name, k(ev, cb)) for name, k in field_ks]
        out = []
        for i in range(cb.n):
            row = {}
            for name, col in cols:
                value = col[i]
                if value is not MISSING:
                    row[name] = value
            out.append(row)
        return out

    return run


def _vec_array(expr: ArrayConstructor, scope, eager):
    item_ks = tuple(
        compile_record_expr(item, scope, eager) for item in expr.items
    )

    def run(ev, cb):
        if not item_ks:
            return [[] for _ in range(cb.n)]
        cols = [k(ev, cb) for k in item_ks]
        return [list(values) for values in zip(*cols)]

    return run


def _exists_one(value):
    if isinstance(value, list):
        return len(value) > 0
    return value is not MISSING and value is not None


def _vec_exists(expr: Exists, scope, eager):
    sub_k = compile_record_expr(expr.subquery, scope, eager)

    def run(ev, cb):
        return [_exists_one(v) for v in sub_k(ev, cb)]

    return run


def _vec_subquery(expr: Subquery, scope, eager):
    if not eager:
        # Subquery kernels charge meters (probe/group/sort counters or
        # once-per-generation builds); they may only run in positions the
        # scalar path evaluates for every record.
        raise Unsupported("subquery in a conditionally-evaluated position")
    inner = expr.select
    ctx = scope.ctx
    inner_bound = frozenset(scope.known)
    inner_plan = ctx.plan_cache.plan_for(inner, inner_bound, ctx.catalog)
    if inner_plan.cacheable:
        # Uncorrelated: one evaluation per batch generation, broadcast.
        # _cached_select keys by the plan token and handles the StateCache,
        # so charges and reuse are byte-identical to the scalar path.  The
        # dummy env only supplies the bound-name set for the plan-cache
        # key; cacheable blocks never read outer values.
        dummy_env = Env({name: None for name in inner_bound})

        def run(ev, cb):
            result = ev._cached_select(inner, dummy_env)
            return [result] * cb.n

        return run
    return _compile_probe_kernel(inner, inner_plan, scope)


_VEC_COMPILERS = {
    Literal: _vec_literal,
    MissingLiteral: _vec_missing,
    VarRef: _vec_varref,
    FieldAccess: _vec_field,
    IndexAccess: _vec_index,
    UnaryOp: _vec_unary,
    BinaryOp: _vec_binary,
    Call: _vec_call,
    CaseExpr: _vec_case,
    ObjectConstructor: _vec_object,
    ArrayConstructor: _vec_array,
    Exists: _vec_exists,
    Subquery: _vec_subquery,
    # Star, SelectBlock: unsupported at record level
}


# ----------------------------------------------------- match-level expressions
#
# Inside a probe subquery, shaping expressions run once per *match* and may
# reference only the FROM-term variable (outer references would need the
# per-record env).  Compiled to plain ``fn(match_record) -> value``; only
# charge-free constructs are allowed.


def compile_match_expr(expr: Expr, var: str) -> Callable:
    t = type(expr)
    if t is Literal:
        value = expr.value
        return lambda m: value
    if t is MissingLiteral:
        return lambda m: MISSING
    if t is VarRef:
        if expr.name != var:
            raise Unsupported(f"match expr references {expr.name!r}")
        return lambda m: m
    if t is FieldAccess:
        base_fn = compile_match_expr(expr.base, var)
        field = expr.field

        def run_field(m):
            base = base_fn(m)
            if isinstance(base, dict):
                return base.get(field, MISSING)
            return MISSING

        return run_field
    if t is IndexAccess:
        base_fn = compile_match_expr(expr.base, var)
        index_fn = compile_match_expr(expr.index, var)
        return lambda m: _index_one(base_fn(m), index_fn(m))
    if t is UnaryOp:
        operand_fn = compile_match_expr(expr.operand, var)
        if expr.op == "not":

            def run_not(m):
                value = operand_fn(m)
                if value is MISSING or value is None:
                    return value
                return not bool(value)

            return run_not
        if expr.op == "-":

            def run_neg(m):
                value = operand_fn(m)
                if value is MISSING or value is None:
                    return value
                return -value

            return run_neg
        raise Unsupported(f"unary {expr.op!r}")
    if t is BinaryOp:
        op = expr.op
        left_fn = compile_match_expr(expr.left, var)
        right_fn = compile_match_expr(expr.right, var)
        if op == "and":
            return lambda m: (
                truthy(right_fn(m)) if truthy(left_fn(m)) else False
            )
        if op == "or":
            return lambda m: (
                True if truthy(left_fn(m)) else truthy(right_fn(m))
            )
        return lambda m: apply_binary(op, left_fn(m), right_fn(m))
    if t is Call:
        if expr.library is not None:
            raise Unsupported(f"library call {expr.qualified_name}")
        lowered = expr.name.lower()
        if lowered in AGGREGATE_NAMES:
            if not expr.args or isinstance(expr.args[0], Star):
                raise Unsupported("aggregate without array argument")
            arg_fn = compile_match_expr(expr.args[0], var)
            return lambda m: _agg_one(lowered, arg_fn(m))
        builtin = BUILTINS.lookup(lowered)
        if builtin is None or lowered not in VECTORIZABLE_BUILTINS:
            raise Unsupported(f"function {expr.name}")
        if not expr.args:
            raise Unsupported(f"zero-argument call {expr.name}")
        arg_fns = tuple(compile_match_expr(arg, var) for arg in expr.args)
        name = expr.name

        def run_call(m):
            try:
                return builtin(None, *[fn(m) for fn in arg_fns])
            except (TypeError, ValueError, AttributeError) as exc:
                raise SqlppEvaluationError(f"{name}: {exc}") from exc

        return run_call
    if t is CaseExpr:
        when_fns = tuple(
            (compile_match_expr(cond, var), compile_match_expr(value, var))
            for cond, value in expr.whens
        )
        default_fn = (
            compile_match_expr(expr.default, var)
            if expr.default is not None
            else None
        )
        if expr.operand is not None:
            operand_fn = compile_match_expr(expr.operand, var)

            def run_case_op(m):
                operand = operand_fn(m)
                for cond_fn, value_fn in when_fns:
                    if cond_fn(m) == operand:
                        return value_fn(m)
                return default_fn(m) if default_fn is not None else None

            return run_case_op

        def run_case(m):
            for cond_fn, value_fn in when_fns:
                if truthy(cond_fn(m)):
                    return value_fn(m)
            return default_fn(m) if default_fn is not None else None

        return run_case
    if t is ObjectConstructor:
        field_fns = tuple(
            (name, compile_match_expr(value, var))
            for name, value in expr.fields
        )

        def run_object(m):
            out = {}
            for name, fn in field_fns:
                value = fn(m)
                if value is not MISSING:
                    out[name] = value
            return out

        return run_object
    if t is ArrayConstructor:
        item_fns = tuple(compile_match_expr(item, var) for item in expr.items)
        return lambda m: [fn(m) for fn in item_fns]
    raise Unsupported(type(expr).__name__)


# ------------------------------------------------------- probe subquery kernel


def _compile_probe_kernel(
    inner: SelectBlock, inner_plan: SelectPlan, scope: _Scope
) -> Callable:
    """One hash-probe pass per batch over a single-term equality subquery.

    Supported inner shape (anything else raises :class:`Unsupported`):
    exactly one FROM term with an equality access path, the WHERE being
    exactly the probe conjunct, no LETs, no DISTINCT; shaping limited to
    SELECT VALUE / named projections over the term variable, implicit
    GROUP BY with root-level aggregate projections, a single ORDER BY key
    over the term variable (SELECT VALUE rows only), and a literal LIMIT.
    """
    terms = inner_plan.terms
    if terms is None or len(terms) != 1:
        raise Unsupported("probe kernel needs exactly one FROM term")
    tp = terms[0]
    if not tp.is_dataset or tp.access_kind != "equality":
        raise Unsupported("no single-dataset equality access path")
    if inner_plan.let_fns or inner_plan.post_let_fns:
        raise Unsupported("inner LETs")
    if inner_plan.distinct:
        raise Unsupported("inner DISTINCT")
    if inner_plan.group_keys:
        raise Unsupported("explicit GROUP BY")
    conjuncts = split_conjuncts(inner.where)
    if len(conjuncts) != 1:
        raise Unsupported("WHERE is more than the probe conjunct")
    # Re-derive the probe expression AST (the plan only kept its closure).
    outer_bound = frozenset(scope.known) - scope.catalog_names
    path = find_access_path(
        tp.term, conjuncts, set(outer_bound), scope.catalog_names
    )
    if path is None or path[0] != "equality":
        raise Unsupported("access path no longer matches")
    _kind, field, probe_expr = path
    if field != tp.access_field:
        raise Unsupported("ambiguous access field")
    probe_k = compile_record_expr(probe_expr, scope, True)
    var = tp.var
    dataset_name = tp.dataset_name
    no_index = tp.no_index

    # --- shaping: compiled per match list ---------------------------------
    implicit_group = inner_plan.implicit_group
    block = inner_plan.block

    if implicit_group:
        if inner_plan.order_items or block.limit is not None:
            raise Unsupported("ORDER/LIMIT over an implicit group")
        shape = _compile_group_shape(block, var)
    else:
        shape = _compile_row_shape(inner_plan, block, var)

    token = inner_plan.token

    def run(ev, cb):
        ctx = ev.ctx
        dataset = ctx.catalog[dataset_name]
        if (
            not no_index
            and ctx.allow_index
            and dataset.index_on(field, IndexKind.BTREE) is not None
        ):
            # The scalar path would probe the live B-tree per record,
            # with different charges — this batch cannot vectorize.
            raise KernelFallback(f"B-tree on {dataset_name}.{field}")
        probe_col = probe_k(ev, cb)
        if ctx.memo is None:
            table = ev._hash_table(dataset, field)
            # one aggregated charge == n per-record `hash_probes += 1`
            ctx.meter.hash_probes += cb.n
            empty: List = []
            get = table.get
            out = []
            append = out.append
            for key in probe_col:
                if key is MISSING or key is None:
                    matches = empty
                elif key != key:
                    # NaN probe: dict lookup could identity-match the stored
                    # key, but the scalar WHERE recheck (NaN = NaN) rejects it
                    matches = empty
                else:
                    matches = get(key, empty)
                append(matches)
            return shape(ev, out)
        return run_memoized(ev, cb, dataset, probe_col)

    def run_memoized(ev, cb, dataset, probe_col):
        """The probe pass with the key-level memo in front of it.

        Every record whose canonical key is already shaped — in this batch
        (L1 dict) or in a prior batch under the same dataset version (L2
        memo) — reuses the shaped row list and is charged through the
        priced ``memo_hits`` / ``memo_reused_records`` counters; only the
        remaining misses acquire the hash table (an all-hit batch skips
        even the build/StateCache lookup), pay their per-record
        ``hash_probes``, and run the compiled shaping, so miss charges are
        computed by exactly the unmemoized code.  With zero hits the
        charges and output are identical to the plain path.  NULL/MISSING/
        NaN probes never memoize (the scalar recheck semantics make them
        per-record empties) and stay probe-charged misses.
        """
        ctx = ev.ctx
        memo = ctx.memo
        meter = ctx.meter
        version_key = ((dataset_name, dataset.version),)
        l1: Dict = {}
        l1_get = l1.get
        slots: List = [None] * cb.n
        miss_indices: List[int] = []
        miss_keys: List = []
        for i, key in enumerate(probe_col):
            if key is MISSING or key is None or key != key:
                miss_indices.append(i)
                miss_keys.append(key)
                continue
            ck = canonical_probe_key(key)
            rows = l1_get(ck)
            if rows is None:
                entry = memo.get(("probe", token, ck), version_key)
                if entry is None:
                    miss_indices.append(i)
                    miss_keys.append(key)
                    continue
                rows = entry.value
                l1[ck] = rows
            meter.memo_hits += 1
            meter.memo_reused_records += len(rows)
            slots[i] = rows
        if miss_indices:
            table = ev._hash_table(dataset, field)
            meter.hash_probes += len(miss_indices)
            empty: List = []
            get = table.get
            out = []
            for key in miss_keys:
                if key is MISSING or key is None or key != key:
                    out.append(empty)
                else:
                    out.append(get(key, empty))
            shaped = shape(ev, out)
            memo_put = memo.put
            for slot, key, rows in zip(miss_indices, miss_keys, shaped):
                slots[slot] = rows
                if key is MISSING or key is None or key != key:
                    continue
                ck = canonical_probe_key(key)
                l1[ck] = rows
                memo_put(("probe", token, ck), version_key, rows, len(rows))
        return slots

    return run


def _compile_group_shape(block: SelectBlock, var: str) -> Callable:
    """Implicit-group shaping: one aggregate row per record's match list."""
    if block.select_value is not None:
        spec = _aggregate_spec(block.select_value, var)

        def shape_value(ev, match_lists):
            total = 0
            out = []
            for matches in match_lists:
                total += len(matches)
                out.append([_run_aggregate(spec, matches)])
            ev.ctx.meter.group_items += total
            return out

        return shape_value
    specs = []
    for position, proj in enumerate(block.projections, start=1):
        if isinstance(proj.expr, Star):
            raise Unsupported("star projection in a group")
        name = proj.alias or default_alias(proj.expr, fallback=f"${position}")
        specs.append((name, _aggregate_spec(proj.expr, var)))

    def shape(ev, match_lists):
        total = 0
        out = []
        for matches in match_lists:
            total += len(matches)
            row = {}
            for name, spec in specs:
                value = _run_aggregate(spec, matches)
                if value is not MISSING:
                    row[name] = value
            out.append([row])
        ev.ctx.meter.group_items += total
        return out

    return shape


def _aggregate_spec(expr: Expr, var: str) -> Tuple:
    """(aggregate_name, arg_fn_or_None_for_count_star)."""
    if not (
        isinstance(expr, Call)
        and expr.library is None
        and expr.name.lower() in AGGREGATE_NAMES
    ):
        raise Unsupported("group projection is not a root-level aggregate")
    lowered = expr.name.lower()
    if expr.args and isinstance(expr.args[0], Star):
        return (lowered, None)
    if not expr.args:
        raise Unsupported(f"aggregate {expr.name} without argument")
    return (lowered, compile_match_expr(expr.args[0], var))


def _run_aggregate(spec: Tuple, matches: List):
    lowered, arg_fn = spec
    if arg_fn is None:
        return aggregate_values(lowered, [1] * len(matches))
    values = []
    for m in matches:
        value = arg_fn(m)
        if value is not MISSING and value is not None:
            values.append(value)
    return aggregate_values(lowered, values)


def _compile_row_shape(
    plan: SelectPlan, block: SelectBlock, var: str
) -> Callable:
    """Per-match projection + optional single-key ORDER BY + literal LIMIT."""
    if block.select_value is not None:
        project = compile_match_expr(block.select_value, var)
    else:
        if plan.order_items:
            # dict rows can shadow ORDER BY names via _order_env; the
            # scalar path must handle those
            raise Unsupported("ORDER BY over named projections")
        proj_fns = []
        for position, proj in enumerate(block.projections, start=1):
            if isinstance(proj.expr, Star):
                raise Unsupported("star projection over a match")
            name = proj.alias or default_alias(
                proj.expr, fallback=f"${position}"
            )
            proj_fns.append((name, compile_match_expr(proj.expr, var)))

        def project(m):
            out = {}
            for name, fn in proj_fns:
                value = fn(m)
                if value is not MISSING:
                    out[name] = value
            return out

    order_fn = None
    descending = False
    if plan.order_items:
        if len(plan.order_items) != 1:
            raise Unsupported("multi-key ORDER BY")
        item = block.order_items[0]
        order_fn = compile_match_expr(item.expr, var)
        descending = item.descending

    limit = None
    if block.limit is not None:
        if not (
            isinstance(block.limit, Literal)
            and isinstance(block.limit.value, int)
            and block.limit.value >= 0
        ):
            raise Unsupported("non-literal LIMIT")
        limit = block.limit.value

    if order_fn is None and limit is not None:

        def shape_limited(ev, match_lists):
            return [
                [project(m) for m in matches[:limit]]
                for matches in match_lists
            ]

        return shape_limited
    if order_fn is None:

        def shape_plain(ev, match_lists):
            return [[project(m) for m in matches] for matches in match_lists]

        return shape_plain

    def shape(ev, match_lists):
        out = []
        append = out.append
        sort_total = 0
        for matches in match_lists:
            rows = [project(m) for m in matches]
            sort_total += len(rows)
            if rows:
                for row in rows:
                    if isinstance(row, dict):
                        # _order_env would rebind row keys — scalar only
                        raise KernelFallback("dict rows under ORDER BY")
                pairs = [
                    (sort_key(order_fn(m)), row)
                    for m, row in zip(matches, rows)
                ]
                pairs.sort(key=_item0, reverse=descending)
                rows = [row for _key, row in pairs]
            if limit is not None:
                rows = rows[:limit]
            append(rows)
        ev.ctx.meter.sort_items += sort_total
        return out

    return shape


def _item0(pair):
    return pair[0]


# -------------------------------------------------------------- block kernels


class BlockKernel:
    """A compiled whole-batch executor for one top-level UDF body."""

    __slots__ = (
        "param",
        "steps",  # tuple of (var, is_vector, fn) for lets + post_lets
        "where_step",  # (is_vector, fn) or None
        "select_value_step",  # (is_vector, fn) or None
        "projection_steps",  # tuple of (name_or_None, is_vector, fn)
        "fallback_lets",  # scalar-fallback column count (for stats)
        "_env",  # pooled flat env for scalar-fallback columns
    )

    def __init__(self):
        self.param = None
        self.steps = ()
        self.where_step = None
        self.select_value_step = None
        self.projection_steps = ()
        self.fallback_lets = 0
        self._env = Env({})

    # ------------------------------------------------------------- execution

    def _scalar_column(self, ev, fn, cb: ColumnBatch, bound: Tuple[str, ...]):
        """Evaluate a compiled scalar closure column-wise.

        The pooled env is rebound per record with exactly the names the
        scalar chain would have bound at this point, so ``bound_names()``
        — and therefore every nested plan-cache key — matches the
        record-at-a-time path.
        """
        env = self._env
        env_vars = env.vars
        columns = cb.columns
        out = []
        append = out.append
        for i in range(cb.n):
            env_vars.clear()
            for name in bound:
                env_vars[name] = columns[name][i]
            append(fn(ev, env))
        return out

    def run(self, ev, records: List[dict]) -> List:
        """Evaluate the whole batch; returns the flattened output rows."""
        n = len(records)
        columns: Dict[str, list] = {self.param: records}
        cb = ColumnBatch(columns, n)
        bound: Tuple[str, ...] = (self.param,)
        for var, is_vector, fn in self.steps:
            if is_vector:
                columns[var] = fn(ev, cb)
            else:
                columns[var] = self._scalar_column(ev, fn, cb, bound)
            bound = bound + (var,)
        keep = None
        if self.where_step is not None:
            is_vector, fn = self.where_step
            col = (
                fn(ev, cb)
                if is_vector
                else self._scalar_column(ev, fn, cb, bound)
            )
            keep = [truthy(value) for value in col]
        if self.select_value_step is not None:
            is_vector, fn = self.select_value_step
            col = (
                fn(ev, cb)
                if is_vector
                else self._scalar_column(ev, fn, cb, bound)
            )
            if keep is None:
                return list(col)
            return [value for value, ok in zip(col, keep) if ok]
        proj_cols = []
        for name, is_vector, fn in self.projection_steps:
            col = (
                fn(ev, cb)
                if is_vector
                else self._scalar_column(ev, fn, cb, bound)
            )
            proj_cols.append((name, col))
        out = []
        append = out.append
        for i in range(n):
            if keep is not None and not keep[i]:
                continue
            row: Dict[str, object] = {}
            for name, col in proj_cols:
                value = col[i]
                if name is None:  # ``v.*`` expansion
                    if isinstance(value, dict):
                        row.update(value)
                    continue
                if value is not MISSING:
                    row[name] = value
            append(row)
        return out


def compile_block_kernel(
    plan: SelectPlan, params: Tuple[str, ...], ctx
) -> BlockKernel:
    """Compile ``plan`` (a top-level UDF body) into a :class:`BlockKernel`.

    Raises :class:`Unsupported` when the block has FROM terms, grouping,
    ordering, LIMIT, or DISTINCT at the top level — those shapes keep the
    scalar path.  Individual LET/projection expressions outside the vector
    subset fall back per column, not per block.
    """
    if len(params) != 1:
        raise Unsupported("kernels require unary functions")
    if plan.terms is not None:
        raise Unsupported("top-level FROM")
    if plan.has_group or plan.order_items or plan.distinct:
        raise Unsupported("top-level GROUP/ORDER/DISTINCT")
    if plan.limit_fn is not None:
        raise Unsupported("top-level LIMIT")
    kernel = BlockKernel()
    kernel.param = params[0]
    block = plan.block
    known: List[str] = [params[0]]
    steps = []
    fallbacks = 0
    lets = tuple(zip(plan.let_fns, block.lets)) + tuple(
        zip(plan.post_let_fns, block.post_lets)
    )
    for (var, scalar_fn), let in lets:
        try:
            vec = compile_record_expr(
                let.expr, _Scope(list(known), ctx, plan.catalog_names), True
            )
            steps.append((var, True, vec))
        except Unsupported:
            steps.append((var, False, scalar_fn))
            fallbacks += 1
        known.append(var)
    kernel.steps = tuple(steps)
    scope = _Scope(list(known), ctx, plan.catalog_names)
    if plan.where_fn is not None:
        try:
            kernel.where_step = (True, compile_record_expr(block.where, scope, True))
        except Unsupported:
            kernel.where_step = (False, plan.where_fn)
            fallbacks += 1
    if plan.select_value_fn is not None:
        try:
            kernel.select_value_step = (
                True,
                compile_record_expr(block.select_value, scope, True),
            )
        except Unsupported:
            kernel.select_value_step = (False, plan.select_value_fn)
            fallbacks += 1
    else:
        proj_steps = []
        for (name, scalar_fn), proj in zip(plan.projections, block.projections):
            expr = proj.expr.base if isinstance(proj.expr, Star) else proj.expr
            try:
                proj_steps.append(
                    (name, True, compile_record_expr(expr, scope, True))
                )
            except Unsupported:
                proj_steps.append((name, False, scalar_fn))
                fallbacks += 1
        kernel.projection_steps = tuple(proj_steps)
    kernel.fallback_lets = fallbacks
    return kernel


def kernel_for(
    plan: SelectPlan, params: Tuple[str, ...], ctx, registry_version: int
):
    """The cached batch kernel for ``plan`` (or :data:`UNSUPPORTED`).

    Cached on the plan keyed by registry version: a new function or Java
    registration can change how a ``Call`` resolves without invalidating
    the plan cache, so kernels recompile when the version moves.
    """
    cached = plan.batch_kernel
    if cached is not None and cached[0] == registry_version:
        return cached[1]
    try:
        kernel = compile_block_kernel(plan, params, ctx)
    except Unsupported:
        kernel = UNSUPPORTED
    plan.batch_kernel = (registry_version, kernel)
    return kernel
