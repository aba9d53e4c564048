"""Golden pins for SELECT evaluation over the nine paper UDFs.

Each paper UDF runs over a fixed mini-stream that crosses one batch
boundary, once without and once with a cross-batch ``StateCache``.  One
SHA-256 covers the enriched records plus every ``WorkMeter`` counter on
all three meters, so any change to rows, to per-record probe charges or
to build/reuse charges moves the digest.  The values were recorded while
the tree-walking SELECT interpreter still existed and matched the
compiled plans exactly; they now hold that behaviour for the plans alone.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.hyracks.cost import WorkMeter
from repro.sqlpp import EvaluationContext
from repro.sqlpp.state_cache import StateCache

PAPER_UDFS = [
    "enrichTweetQ1",
    "enrichTweetQ2",
    "enrichTweetQ3",
    "annotateTweetQ4",
    "enrichTweetQ5",
    "enrichTweetQ5Naive",
    "enrichTweetQ6",
    "enrichTweetQ7",
    "enrichTweetQ8",
]

#: (fn, with_state_cache) -> SHA-256 of records + all meter counters
PINNED = {
    ("enrichTweetQ1", False): (
        "c55ff0063b5c87930eb2a55e77f447ba8b609c456accd4d3b63b74aedf25346d"
    ),
    ("enrichTweetQ1", True): (
        "9e7433b8e582c3f37b7c8cf835b56ff478b9dc1340db86ba9669d8d10a2b80bd"
    ),
    ("enrichTweetQ2", False): (
        "c114486bca807ca0776dd531547fe46f8f31419096fb6e1255f7c02e0ae681ec"
    ),
    ("enrichTweetQ2", True): (
        "d6710cbf80049bc4d5ae585a6e747d90ee4d4aab089892cbf8c22a47b08c112f"
    ),
    ("enrichTweetQ3", False): (
        "ac3cebc0b1c11de270e7ede2d98898545c998af3a2ba33e98d978e95c427b2aa"
    ),
    ("enrichTweetQ3", True): (
        "451f415bfa4dc595f9a6d6746b222063435544c1ce2cc9b6cee5bb7fe811f5a0"
    ),
    ("annotateTweetQ4", False): (
        "592ebed977795f2fe9ab6d73968d6943514030e5bf81c3fa3028af241c77a584"
    ),
    ("annotateTweetQ4", True): (
        "dae7d3ebffd9773dac5e47356b0994fe880a78a4cae8e68051f46a922b058527"
    ),
    ("enrichTweetQ5", False): (
        "8658cc5ee01143e237db76795572588d5a8566975b16440491e0fa2ad89f6462"
    ),
    ("enrichTweetQ5", True): (
        "8658cc5ee01143e237db76795572588d5a8566975b16440491e0fa2ad89f6462"
    ),
    ("enrichTweetQ5Naive", False): (
        "f90ca8d3f6d14b9b3ff92b83fc0e5c8f25e12aaa956872ae04e1bb50f3c08597"
    ),
    ("enrichTweetQ5Naive", True): (
        "07969d072c505d6c27697ca623315336fc7362692a7997cd3c814c6c9ec131c7"
    ),
    ("enrichTweetQ6", False): (
        "25158216234ce09d2479a9308232eb8bff225d4aaa6f25a81ee178774c380eff"
    ),
    ("enrichTweetQ6", True): (
        "deab26413c541e901784496e5350fcb420db48ac1c5735594fceed8bb35fbfa9"
    ),
    ("enrichTweetQ7", False): (
        "d43fc3c96ae2318b2b6843e0fa4fadfc668b7866157b2e4417c72f217806765f"
    ),
    ("enrichTweetQ7", True): (
        "b5a69453573df14929acf7a9272d7c8a8ff4b6a93a2e8cedbb932fad2c823714"
    ),
    ("enrichTweetQ8", False): (
        "ba0cad1a3a69b6de9f8fc1ef235ed7a3c1230281d15e92a7415056eb4e21d0ff"
    ),
    ("enrichTweetQ8", True): (
        "cac85320482ca150e0ae2ab4d75675b96a288e12113a25350c25343782c6ffed"
    ),
}


def _tweet_sample(sample_tweet):
    """A fixed mini-stream exercising hits, misses, and absent fields."""
    variants = [
        {},
        {"country": "FR", "latitude": 8.4, "longitude": 8.9},
        {"country": "DE", "user": {"screen_name": "jon_smyth", "name": "name3"}},
        {"country": "Atlantis", "latitude": 55.0, "longitude": 55.0},
        {"latitude": 0.2, "longitude": 9.7, "user": {"screen_name": "x", "name": "y"}},
    ]
    return [
        dict(sample_tweet, id=index, **overrides)
        for index, overrides in enumerate(variants)
    ]


def _digest(catalog, registry, fn_name, tweets, with_state_cache):
    ctx = EvaluationContext(catalog, functions=registry)
    if with_state_cache:
        ctx.state_cache = StateCache(budget_bytes=8 << 20)
    outputs = []
    for position, tweet in enumerate(tweets):
        if position == 3:  # cross a batch boundary mid-stream
            ctx.refresh_batch()
        outputs.append(registry.invoke(fn_name, [tweet], ctx))
    counters = [
        (label, name, getattr(meter, name))
        for label, meter in (
            ("meter", ctx.meter),
            ("shared_meter", ctx.shared_meter),
            ("replicated_meter", ctx.replicated_meter),
        )
        for name in WorkMeter._COUNTERS
    ]
    return hashlib.sha256(repr((outputs, counters)).encode()).hexdigest()


@pytest.mark.parametrize("with_state_cache", [False, True])
@pytest.mark.parametrize("fn_name", PAPER_UDFS)
def test_select_results_and_charges_are_pinned(
    small_catalog, registry, sample_tweet, fn_name, with_state_cache
):
    tweets = _tweet_sample(sample_tweet)
    digest = _digest(small_catalog, registry, fn_name, tweets, with_state_cache)
    assert digest == PINNED[(fn_name, with_state_cache)]
