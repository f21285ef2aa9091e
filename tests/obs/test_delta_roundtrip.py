"""Counter/metric delta round-trips across fork and spawn workers.

The parallel driver's aggregation contract: each worker snapshots its
process-local registries before the batch, ships ``delta_since`` after,
and the parent folds the deltas -- summing counter increments and
``merge_delta``-ing metric deltas in batch order.  These tests drive
real child processes under every available start method and assert the
folded totals equal exactly the work the children performed, even when
a fork child inherits warm parent registries.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.obs.metrics import GLOBAL_METRICS, merge_delta
from repro.smt.stats import GLOBAL_COUNTERS

START_METHODS = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]


def _worker(index: int, conn) -> None:
    """Child entry: do known registry work, ship the deltas back.

    Top-level on purpose -- spawn pickles the callable by qualified
    name, so it must be importable from the ``tests`` package.
    """
    counters_before = GLOBAL_COUNTERS.snapshot()
    metrics_before = GLOBAL_METRICS.snapshot()

    GLOBAL_COUNTERS.checks += index + 1
    GLOBAL_COUNTERS.pivots += 10
    GLOBAL_METRICS.counter("roundtrip.jobs").inc(index + 1)
    GLOBAL_METRICS.timer("roundtrip.size").record(float(index))

    conn.send(
        (
            GLOBAL_COUNTERS.delta_since(counters_before),
            GLOBAL_METRICS.delta_since(metrics_before),
        )
    )
    conn.close()


@pytest.mark.parametrize("method", START_METHODS)
def test_delta_roundtrip(method):
    ctx = multiprocessing.get_context(method)

    # Pre-warm the parent registries.  A fork child inherits this
    # warmth; its per-child snapshot must fence it out of the delta.
    GLOBAL_COUNTERS.checks += 100
    GLOBAL_METRICS.counter("roundtrip.jobs").inc(100)

    workers = 3
    pipes = [ctx.Pipe(duplex=False) for _ in range(workers)]
    procs = [
        ctx.Process(target=_worker, args=(i, child_end))
        for i, (_recv, child_end) in enumerate(pipes)
    ]
    for proc in procs:
        proc.start()
    deltas = [recv.recv() for recv, _child in pipes]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    counter_total: dict[str, int] = {}
    metric_total: dict = {}
    for counter_delta, metric_delta in deltas:
        for name, value in counter_delta.items():
            if value:
                counter_total[name] = counter_total.get(name, 0) + value
        merge_delta(metric_total, metric_delta)

    # Exactly the children's own work: sum(1..3) checks, 10 pivots
    # each, and no trace of the parent's 100-unit pre-warm.
    assert counter_total["checks"] == 6
    assert counter_total["pivots"] == 30
    assert counter_total.get("solvers_constructed", 0) == 0
    assert metric_total["counters"]["roundtrip.jobs"] == 6

    timer = metric_total["timers"]["roundtrip.size"]
    assert timer["count"] == 3
    assert sorted(timer["values"]) == [0.0, 1.0, 2.0]
    assert timer["max"] == 2.0


@pytest.mark.parametrize("method", START_METHODS)
def test_fork_inherits_spawn_does_not(method):
    """The start methods differ in inherited warmth; deltas hide it."""
    ctx = multiprocessing.get_context(method)
    GLOBAL_COUNTERS.restarts += 7
    recv, child_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_snapshot_worker, args=(child_end,))
    proc.start()
    child_snapshot = recv.recv()
    proc.join(timeout=60)
    assert proc.exitcode == 0

    if method == "fork":
        # The fork child saw the parent's warm value...
        assert child_snapshot["restarts"] >= 7
    else:
        # ...while a spawn child re-imported a cold registry.
        assert child_snapshot["restarts"] == 0


def _snapshot_worker(conn) -> None:
    conn.send(GLOBAL_COUNTERS.snapshot())
    conn.close()
