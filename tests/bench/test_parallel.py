"""Efficacy driver: the process pool must be invisible in the results
-- same records in the same order as an in-process run, solver
counters aggregated across workers, and no shared mutable state (the
parent's rewrite cache never sees worker-side traffic)."""

import json
from concurrent.futures import Future

import pytest

from repro.bench import harness, parallel
from repro.bench.fullscale import run as fullscale_run
from repro.bench.harness import record_to_json
from repro.bench.parallel import (
    CRASH_ENV,
    ParallelRunResult,
    default_workers,
    parallel_efficacy_records,
)
from repro.bench.schedule import expected_costs
from repro.core import SiaConfig
from repro.rewrite import RewriteCache
from repro.sql import parse_query
from repro.tpch import TPCH_SCHEMA, generate_workload

# TC (transitive closure) is solver-free per cell and runs in
# milliseconds; the SIA variants take minutes per query and belong to
# the benchmark proper, not the test suite.
FAST = dict(num_queries=2, seed=9, techniques=("TC",))

# A slice whose SIA cells learn real predicates (1-D optimal, 2-D at the
# iteration cap) in about ten seconds without a deadline: parity must
# hold for solver-backed cells, not only for solver-free TC.
PARITY = dict(num_queries=1, seed=4, techniques=("SIA", "TC"))


def _cell(payload):
    """A checkpoint cell minus its wall-clock fields and the workload
    seed the checkpoint adds."""
    return {
        k: v for k, v in payload.items() if not k.endswith("_ms") and k != "seed"
    }


def _cells(records):
    """Everything about the records that must not depend on where or
    how they ran, the learned predicate's SQL included, as checkpoint
    lines would hold it."""
    return [_cell(json.loads(json.dumps(record_to_json(r)))) for r in records]


@pytest.fixture(scope="module")
def sequential():
    return parallel_efficacy_records(workers=1, **FAST)


def test_default_workers_is_positive():
    assert default_workers() >= 1


def test_sequential_run_shape(sequential):
    assert isinstance(sequential, ParallelRunResult)
    assert sequential.workers == 1
    assert sequential.records
    # Ascending query index, stable within-query cell order.
    indices = [record.query_index for record in sequential.records]
    assert indices == sorted(indices)


def test_parallel_merge_matches_sequential_order(tmp_path, monkeypatch):
    """One loop, one answer: ``efficacy_records``, the fullscale
    checkpoint and the driver at 1 and 2 workers produce identical
    cells, SIA predicates included."""
    monkeypatch.delenv("REPRO_BENCH_PARALLEL", raising=False)
    monkeypatch.setattr(harness, "_EFFICACY_CACHE", {})
    expected = _cells(harness.efficacy_records(**PARITY))
    assert any(c["technique"] == "SIA" and c["predicate"] for c in expected)

    out = tmp_path / "cells.jsonl"
    fullscale_run(
        PARITY["num_queries"], PARITY["seed"], out,
        techniques=PARITY["techniques"],
    )
    checkpoint = [_cell(json.loads(line)) for line in out.read_text().splitlines()]
    assert checkpoint == expected

    for workers in (1, 2):
        result = parallel_efficacy_records(workers=workers, **PARITY)
        assert result.workers == workers
        assert _cells(result.records) == expected


def test_counters_are_aggregated(sequential):
    assert isinstance(sequential.counters, dict)
    assert all(isinstance(v, int) for v in sequential.counters.values())


def test_parent_metrics_registry_is_isolated_from_workers():
    """What pool workers record in their metrics registries stays in
    the workers: the parent's registry does not move."""
    from repro.obs.metrics import GLOBAL_METRICS

    before = GLOBAL_METRICS.snapshot()
    parallel_efficacy_records(workers=2, **FAST)
    delta = GLOBAL_METRICS.delta_since(before)
    assert delta.get("counters", {}) == {}
    assert delta.get("timers", {}) == {}


def test_pool_stats_shape(sequential):
    pool = sequential.pool
    assert pool["workers"] == 1
    assert pool["restarts"] == 0
    assert 0.0 <= pool["utilization"] <= 1.0
    assert pool["busy_ms"] <= pool["wall_ms"]


def test_killed_worker_requeues_query_exactly_once(
    sequential, tmp_path, monkeypatch
):
    """A worker death restarts the pool once for the queries without
    results: one crash leaves the records identical to a clean run; a
    query that crashes every pool raises, naming it, and never turns
    into placeholder cells in the records or the checkpoint."""
    crash_index = sequential.records[0].query_index
    monkeypatch.setenv(CRASH_ENV, str(crash_index))
    result = parallel_efficacy_records(workers=2, **FAST)
    assert result.pool["restarts"] == 1
    assert _cells(result.records) == _cells(sequential.records)

    monkeypatch.setenv(CRASH_ENV, f"{crash_index}:2")
    named = rf"queries \[[^\]]*\b{crash_index}\b[^\]]*\] have no results"
    with pytest.raises(RuntimeError, match=named):
        parallel_efficacy_records(workers=2, **FAST)

    out = tmp_path / "cells.jsonl"
    with pytest.raises(RuntimeError, match=named):
        fullscale_run(
            FAST["num_queries"], FAST["seed"], out,
            techniques=FAST["techniques"], workers=2,
        )
    written = [_cell(json.loads(line)) for line in out.read_text().splitlines()]
    survivors = [
        cell
        for cell in _cells(sequential.records)
        if cell["query_index"] != crash_index
    ]
    assert written in ([], survivors)


def test_deadline_expiry_records_partial_result():
    """An expired per-cell budget yields a *recorded* partial result
    (section 6.2 cooperative timeout), never an exception or a missing
    cell."""
    result = parallel_efficacy_records(
        num_queries=1,
        seed=9,
        techniques=("SIA",),
        workers=1,
        deadline_ms=1.0,
    )
    assert len(result.records) == 7  # every subset produced a record
    for record in result.records:
        assert record.technique == "SIA"
        assert isinstance(record.valid, bool)
        assert isinstance(record.optimal, bool)
    assert result.pool["deadline_ms"] == 1.0


def test_uneven_pool_preserves_merge_order():
    """More queries than workers (3 on 2): results arrive in completion
    order, the merge stays query-ordered."""
    uneven = dict(num_queries=3, seed=9, techniques=("TC",))
    seq = parallel_efficacy_records(workers=1, **uneven)
    par = parallel_efficacy_records(workers=2, **uneven)
    assert _cells(par.records) == _cells(seq.records)
    assert par.pool["restarts"] == 0


def test_pool_submits_longest_expected_first(monkeypatch):
    """The pool receives queries in descending expected cost (ties by
    position), which is the order free workers take them in."""
    queries = generate_workload(6, seed=11)
    costs = expected_costs(queries)
    submitted = []

    class RecordingPool:
        def __init__(self, **kwargs):
            pass

        def submit(self, fn, wq, *args):
            submitted.append(wq.index)
            future = Future()
            future.set_result(
                parallel._Batch(
                    index=wq.index, records=[], counters={},
                    busy_ms=0.0,
                )
            )
            return future

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    parallel_efficacy_records(
        num_queries=6, seed=11, techniques=("TC",), workers=2
    )
    ranked = sorted(range(len(queries)), key=lambda pos: (-costs[pos], pos))
    assert submitted == [queries[pos].index for pos in ranked]
    assert len(set(costs)) > 1  # the order is not the identity by accident


def test_pool_uses_spawn_context(monkeypatch):
    """Every pool the driver builds runs on an explicit spawn context:
    fork would clone the parent's warm registries into the workers and
    their reported deltas would ride on inherited state."""
    start_methods = []
    real_pool = parallel.ProcessPoolExecutor

    def recording_pool(*args, **kwargs):
        start_methods.append(kwargs["mp_context"].get_start_method())
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording_pool)
    result = parallel_efficacy_records(workers=2, **FAST)
    assert result.records
    assert start_methods
    assert all(method == "spawn" for method in start_methods)


def test_worker_env_parity(monkeypatch):
    """Propagated knobs cross the process boundary through the explicit
    initializer: every worker that ran a query reports exactly the
    parent's values.  The crash knob names a query outside the run, so
    it crosses the boundary without killing any worker."""
    monkeypatch.setenv(CRASH_ENV, "999")
    result = parallel_efficacy_records(workers=2, **FAST)
    assert 1 <= len(result.worker_env) <= 2
    for snapshot in result.worker_env.values():
        assert snapshot == {CRASH_ENV: "999"}


def test_parent_rewrite_cache_is_isolated_from_workers():
    """Worker processes must not mutate parent-side caches: the rewrite
    cache's hit/miss/eviction accounting reflects only parent traffic."""
    schema = {name: dict(cols) for name, cols in TPCH_SCHEMA.items()}
    sql = (
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
        "AND o_orderdate < DATE '1994-01-01'"
    )
    cache = RewriteCache(config=SiaConfig(max_iterations=2, seed=3), capacity=1)
    cache.rewrite(parse_query(sql, schema), "lineitem")
    parallel_efficacy_records(workers=2, **FAST)
    assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (0, 1, 0)
    cache.rewrite(parse_query(sql, schema), "lineitem")
    assert cache.stats.hits == 1
    other = parse_query(sql + " AND o_orderdate < DATE '1995-01-01'", schema)
    cache.rewrite(other, "lineitem")
    assert cache.stats.evictions == 1
    assert len(cache) == 1
