"""Tests for the section 6.2 deployment features: synthesis timeout
and the plan-cache-style rewrite cache."""

import time

import pytest

from repro.core import SiaConfig, synthesize
from repro.predicates import Col, Column, Comparison, INTEGER, Lit, pand
from repro.rewrite import RewriteCache
from repro.sql import parse_query
from repro.tpch import TPCH_SCHEMA

A1 = Column("t", "a1", INTEGER)
A2 = Column("t", "a2", INTEGER)
B1 = Column("t", "b1", INTEGER)


def hard_predicate():
    """The 2-column motivating predicate: typically runs many iterations."""
    return pand(
        [
            Comparison(Col(A2) - Col(B1), "<", Lit.integer(20)),
            Comparison(
                Col(A1) - Col(A2), "<", (Col(A2) - Col(B1)) + Lit.integer(10)
            ),
            Comparison(Col(B1), "<", Lit.integer(0)),
        ]
    )


def test_timeout_caps_wall_clock():
    config = SiaConfig(timeout_ms=300, seed=0)
    start = time.perf_counter()
    outcome = synthesize(hard_predicate(), {A1, A2}, config)
    elapsed_ms = (time.perf_counter() - start) * 1000
    # Generous slack: one iteration may still be in flight at expiry.
    assert elapsed_ms < 10_000
    assert outcome.status in ("valid", "failed", "optimal")
    if outcome.status == "valid":
        assert outcome.predicate is not None


def test_timeout_never_yields_invalid_predicate():
    from repro.predicates import eval_pred_py

    config = SiaConfig(timeout_ms=200, seed=1)
    outcome = synthesize(hard_predicate(), {A1, A2}, config)
    if not outcome.is_valid or outcome.predicate is None:
        return
    # Validity spot check on known-feasible restrictions.
    for a1, a2 in [(0, 0), (28, 0), (46, 18), (-50, -10)]:
        assert eval_pred_py(outcome.predicate, {A1: a1, A2: a2}) is True


def test_budget_covers_initial_sampling():
    """The clock starts with the call: a 1 ms budget is spent by QE and
    the initial samples, so no CEGIS iteration runs."""
    outcome = synthesize(hard_predicate(), {A1, A2}, SiaConfig(timeout_ms=1, seed=0))
    assert outcome.timed_out
    assert outcome.iterations == 0
    assert outcome.status == "failed"
    assert outcome.predicate is None


def test_no_timeout_by_default():
    assert SiaConfig().timeout_ms is None


# ----------------------------------------------------------------------
SCHEMA = {name: dict(cols) for name, cols in TPCH_SCHEMA.items()}
SQL = (
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
    "AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'"
)


def test_cache_hit_skips_synthesis():
    cache = RewriteCache(config=SiaConfig(max_iterations=6))
    query = parse_query(SQL, SCHEMA)

    start = time.perf_counter()
    first = cache.rewrite(query, "lineitem")
    first_ms = (time.perf_counter() - start) * 1000

    start = time.perf_counter()
    second = cache.rewrite(parse_query(SQL, SCHEMA), "lineitem")
    second_ms = (time.perf_counter() - start) * 1000

    assert second is first
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert second_ms < max(first_ms / 5, 5.0)


def test_cache_normalizes_query_text():
    cache = RewriteCache(config=SiaConfig(max_iterations=6))
    messy = SQL.replace(" AND", "   AND").replace("SELECT *", "SELECT   *")
    cache.rewrite(parse_query(SQL, SCHEMA), "lineitem")
    cache.rewrite(parse_query(messy, SCHEMA), "lineitem")
    assert cache.stats.hits == 1


def test_cache_distinguishes_target_tables():
    cache = RewriteCache(config=SiaConfig(max_iterations=6))
    query = parse_query(SQL, SCHEMA)
    cache.rewrite(query, "lineitem")
    cache.rewrite(query, "orders")
    assert cache.stats.misses == 2


def test_cache_eviction():
    cache = RewriteCache(config=SiaConfig(max_iterations=2), capacity=1)
    q1 = parse_query(SQL, SCHEMA)
    q2 = parse_query(SQL + " AND l_commitdate - o_orderdate < 99", SCHEMA)
    cache.rewrite(q1, "lineitem")
    cache.rewrite(q2, "lineitem")
    assert cache.stats.evictions == 1
    assert len(cache) == 1
