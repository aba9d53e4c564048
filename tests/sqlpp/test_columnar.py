"""Columnar kernel compilation: supported subset and fallback triggers.

Every construct outside the vectorizable subset must either fail kernel
compilation for the whole block (:class:`Unsupported`, surfaced as the
``UNSUPPORTED`` sentinel through :func:`kernel_for`), fall back for just
that column (``fallback_lets``), or abort at run time
(:class:`KernelFallback`) — never silently produce different results.
"""

from __future__ import annotations

import pytest

from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_batch_invoker
from repro.sqlpp import EvaluationContext, Evaluator, parse_function
from repro.sqlpp.columnar import (
    UNSUPPORTED,
    KernelFallback,
    Unsupported,
    compile_block_kernel,
    kernel_for,
)
from repro.storage import IndexKind


def _compile(ctx, source):
    definition = parse_function(source)
    plan = ctx.plan_cache.plan_for(
        definition.body, frozenset(definition.params), ctx.catalog
    )
    return compile_block_kernel(plan, tuple(definition.params), ctx), plan


def _ctx(small_catalog, registry):
    return EvaluationContext(small_catalog, functions=registry)


# ------------------------------------------------------- whole-block shapes


WHOLE_BLOCK_UNSUPPORTED = [
    (
        "non_unary",
        "CREATE FUNCTION f(a, b) { SELECT a.*, b AS other }",
        "unary",
    ),
    (
        "top_level_from",
        """CREATE FUNCTION f(t) {
            SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country
        }""",
        "FROM",
    ),
    (
        "top_level_distinct",
        "CREATE FUNCTION f(t) { SELECT DISTINCT t.country AS c }",
        "GROUP/ORDER/DISTINCT",
    ),
]


@pytest.mark.parametrize(
    "source,match",
    [(source, match) for _key, source, match in WHOLE_BLOCK_UNSUPPORTED],
    ids=[key for key, _source, _match in WHOLE_BLOCK_UNSUPPORTED],
)
def test_whole_block_shapes_stay_scalar(small_catalog, registry, source, match):
    ctx = _ctx(small_catalog, registry)
    with pytest.raises(Unsupported, match=match):
        _compile(ctx, source)


def test_kernel_for_caches_unsupported_sentinel(small_catalog, registry):
    ctx = _ctx(small_catalog, registry)
    definition = parse_function(WHOLE_BLOCK_UNSUPPORTED[1][1])
    plan = ctx.plan_cache.plan_for(
        definition.body, frozenset(definition.params), ctx.catalog
    )
    params = tuple(definition.params)
    assert kernel_for(plan, params, ctx, registry.version) is UNSUPPORTED
    # Cached on the plan: the second lookup returns without recompiling.
    assert plan.batch_kernel == (registry.version, UNSUPPORTED)
    assert kernel_for(plan, params, ctx, registry.version) is UNSUPPORTED


def test_registry_version_bump_recompiles_kernel(small_catalog, registry):
    ctx = _ctx(small_catalog, registry)
    kernel, plan = _compile(
        ctx,
        "CREATEFN".replace(
            "CREATEFN",
            "CREATE FUNCTION f(t) { LET x = lower(t.text) SELECT t.*, x }",
        ),
    )
    params = ("t",)
    first = kernel_for(plan, params, ctx, registry.version)
    assert first is kernel_for(plan, params, ctx, registry.version)
    registry.register_sqlpp(
        "CREATE FUNCTION unrelatedBump(q) { SELECT q.* }"
    )
    second = kernel_for(plan, params, ctx, registry.version)
    assert second is not first  # version moved, kernel recompiled


# ----------------------------------------------------- per-column fallbacks


PER_COLUMN_FALLBACKS = [
    (
        "java_library_call",
        "LET x = udflib#remove_special(t.text)",
    ),
    (
        "metered_builtin",
        'LET x = edit_distance(t.text, "abc")',
    ),
    (
        "registry_function",
        "LET x = enrichTweetQ1(t)",
    ),
    (
        "unknown_function",
        "LET x = no_such_function(t.text)",
    ),
    (
        "zero_argument_call",
        "LET x = coalesce()",
    ),
    (
        "unknown_column",
        "LET x = unbound_name",
    ),
    (
        "subquery_in_conditional_position",
        """LET x = t.id > 100 OR EXISTS (
            SELECT VALUE s FROM SafetyRatings s
            WHERE s.country_code = t.country)""",
    ),
    (
        "multi_conjunct_probe_where",
        """LET x = (SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country AND s.safety_rating = "3")""",
    ),
    (
        "inner_lets",
        """LET x = (SELECT VALUE r FROM SafetyRatings s
            LET r = s.safety_rating
            WHERE s.country_code = t.country)""",
    ),
    (
        "inner_distinct",
        """LET x = (SELECT DISTINCT VALUE s.safety_rating
            FROM SafetyRatings s WHERE s.country_code = t.country)""",
    ),
    (
        "explicit_group_by",
        """LET x = (SELECT s.country_code AS c, count(*) AS n
            FROM SafetyRatings s WHERE s.country_code = t.country
            GROUP BY s.country_code)""",
    ),
    (
        "multi_key_order_by",
        """LET x = (SELECT VALUE s.population FROM ReligiousPopulations s
            WHERE s.country_name = t.country
            ORDER BY s.population DESC, s.religion_name)""",
    ),
    (
        "order_by_over_named_projections",
        """LET x = (SELECT s.safety_rating AS r FROM SafetyRatings s
            WHERE s.country_code = t.country ORDER BY s.safety_rating)""",
    ),
    (
        "non_literal_limit",
        """LET x = (SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country LIMIT t.id)""",
    ),
    (
        "star_projection_over_match",
        """LET x = (SELECT s.* FROM SafetyRatings s
            WHERE s.country_code = t.country)""",
    ),
]


@pytest.mark.parametrize(
    "let_clause",
    [clause for _key, clause in PER_COLUMN_FALLBACKS],
    ids=[key for key, _clause in PER_COLUMN_FALLBACKS],
)
def test_unsupported_construct_falls_back_per_column(
    small_catalog, registry, let_clause
):
    ctx = _ctx(small_catalog, registry)
    kernel, _plan = _compile(
        ctx,
        "CREATE FUNCTION f(t) { "
        + let_clause
        + ", supported = lower(t.text) SELECT t.*, x, supported }",
    )
    # Exactly the offending LET fell back; the rest stays vectorized.
    assert kernel.fallback_lets == 1
    by_var = {var: vectorized for var, vectorized, _fn in kernel.steps}
    assert by_var["x"] is False
    assert by_var["supported"] is True


# ------------------------------------------------------- runtime fallbacks


def test_dict_rows_under_order_by_abort_at_runtime(
    small_catalog, registry, sample_tweet
):
    ctx = _ctx(small_catalog, registry)
    kernel, _plan = _compile(
        ctx,
        """CREATE FUNCTION f(t) {
            LET x = (SELECT VALUE s FROM SafetyRatings s
                     WHERE s.country_code = t.country
                     ORDER BY s.safety_rating)
            SELECT t.*, x
        }""",
    )
    assert kernel.fallback_lets == 0  # compiles: rows might not be dicts
    with pytest.raises(KernelFallback, match="dict rows under ORDER BY"):
        kernel.run(Evaluator(ctx), [dict(sample_tweet)])


def test_btree_index_created_after_compile_aborts_at_runtime(
    small_catalog, registry, sample_tweet
):
    ctx = _ctx(small_catalog, registry)
    kernel, _plan = _compile(
        ctx,
        """CREATE FUNCTION f(t) {
            LET x = (SELECT VALUE s.safety_rating FROM SafetyRatings s
                     WHERE s.country_code = t.country)
            SELECT t.*, x
        }""",
    )
    rows = kernel.run(Evaluator(ctx), [dict(sample_tweet)])
    assert rows and rows[0]["x"] == ["3"]

    # The scalar path would now probe the B-tree per record with different
    # charges, so the compiled hash-probe kernel must refuse the batch.
    small_catalog["SafetyRatings"].create_index(
        "by_cc", "country_code", IndexKind.BTREE
    )
    with pytest.raises(KernelFallback, match="B-tree"):
        kernel.run(Evaluator(ctx), [dict(sample_tweet)])


# --------------------------------------------------------- batch invoker


def test_batch_invoker_declines_java_functions(registry):
    attached = [
        AttachedFunction("enrichTweetQ1"),
        AttachedFunction("remove_special", language="java", library="udflib"),
    ]
    assert make_batch_invoker(attached, registry) is None
    assert make_batch_invoker([], registry) is None


def test_batch_invoker_counts_unsupported_bodies(
    small_catalog, registry, sample_tweet
):
    registry.register_sqlpp(
        """CREATE FUNCTION colUnsupported(t) {
            SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country
        }"""
    )
    ctx = _ctx(small_catalog, registry)
    invoker = make_batch_invoker([AttachedFunction("colUnsupported")], registry)
    before = ctx.plan_cache.scalar_fallbacks
    assert invoker([dict(sample_tweet)], ctx) is None
    assert ctx.plan_cache.scalar_fallbacks == before + 1
    assert ctx.plan_cache.vectorized_batches == 0
