"""Metrics registry: summaries, retention cap, deltas, ordered merge."""

from repro.obs.clock import ManualClock, set_clock
from repro.obs.metrics import (
    MetricsRegistry,
    merge_delta,
    summarize_values,
)
from repro.obs.metrics import _VALUE_CAP


def test_counter_is_monotone():
    registry = MetricsRegistry()
    registry.counter("hits").inc()
    registry.counter("hits").inc(4)
    assert registry.counter("hits").value == 5


def test_histogram_summary_percentiles():
    """A timer summarizes its retained values by nearest rank."""
    registry = MetricsRegistry()
    timer = registry.timer("t")
    for value in range(1, 101):  # 1..100
        timer.record(float(value))
    summary = timer.summary()
    assert summary["count"] == 100
    assert summary["total"] == 5050.0
    assert summary["p50"] == 50.0
    assert summary["p95"] == 95.0
    assert summary["max"] == 100.0


def test_retention_cap_keeps_count_and_total_exact():
    registry = MetricsRegistry()
    timer = registry.timer("t")
    for _ in range(_VALUE_CAP + 10):
        timer.record(1.0)
    assert len(timer.values) == _VALUE_CAP
    assert timer.count == _VALUE_CAP + 10
    assert timer.total == float(_VALUE_CAP + 10)


def test_timer_reads_the_injectable_clock():
    clock = ManualClock()
    previous = set_clock(clock)
    try:
        registry = MetricsRegistry()
        with registry.timer("t").time():
            clock.advance(0.125)
        assert registry.timer("t").summary()["max"] == 125.0
    finally:
        set_clock(previous)


def test_summarize_values_empty_and_observed_max():
    assert summarize_values([]) == {"p50": 0.0, "p95": 0.0, "max": 0.0}
    # observed max (exact past the cap) overrides the retained max
    assert summarize_values([1.0, 2.0], 9.0)["max"] == 9.0


def test_delta_since_only_reports_changes():
    registry = MetricsRegistry()
    registry.counter("a").inc(2)
    registry.timer("t").record(10.0)
    snap = registry.snapshot()
    registry.counter("a").inc(3)
    registry.counter("b").inc(1)
    registry.timer("t").record(20.0)
    delta = registry.delta_since(snap)
    assert delta["counters"] == {"a": 3, "b": 1}
    assert delta["timers"]["t"]["count"] == 1
    assert delta["timers"]["t"]["total"] == 20.0
    assert delta["timers"]["t"]["values"] == [20.0]


def test_delta_is_pure_json():
    import json

    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.timer("t").record(1.5)
    delta = registry.delta_since({})
    assert json.loads(json.dumps(delta)) == delta


def test_merge_delta_is_order_dependent_and_additive():
    worker1 = {
        "counters": {"a": 1},
        "timers": {"t": {"count": 1, "total": 10.0, "values": [10.0], "max": 10.0}},
    }
    worker2 = {
        "counters": {"a": 2, "b": 5},
        "timers": {"t": {"count": 2, "total": 7.0, "values": [3.0, 4.0], "max": 4.0}},
    }
    total: dict = {}
    merge_delta(total, worker1)
    merge_delta(total, worker2)
    assert total["counters"] == {"a": 3, "b": 5}
    assert total["timers"]["t"]["count"] == 3
    assert total["timers"]["t"]["total"] == 17.0
    assert total["timers"]["t"]["values"] == [10.0, 3.0, 4.0]
    assert total["timers"]["t"]["max"] == 10.0
    # Same deltas, opposite order: same totals, different value order.
    other: dict = {}
    merge_delta(other, worker2)
    merge_delta(other, worker1)
    assert other["timers"]["t"]["values"] == [3.0, 4.0, 10.0]
    assert other["counters"] == total["counters"]
    assert other["timers"]["t"]["count"] == total["timers"]["t"]["count"]


def test_reset_clears_every_table():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.timer("t").record(1.0)
    registry.reset()
    assert registry.summary() == {"counters": {}, "timers": {}}

