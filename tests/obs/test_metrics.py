"""Metrics registry: summaries, retention cap, deltas."""

from repro.obs.clock import Clock, set_clock
from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry, summarize_values
from repro.obs.metrics import _VALUE_CAP
from repro.smt import LE, Atom, LinExpr, Var
from repro.smt.session import SmtSession


class _StepClock(Clock):
    """Advances 125 ms on every reading."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        self._now += 0.125
        return self._now


def test_timer_reads_the_injectable_clock():
    """The registry's one timer, ``smt.session_check_ms``, is measured
    on the installed clock: a check reads it once on entry and once on
    exit."""
    session = SmtSession()
    session.assert_base(Atom(LinExpr.var(Var("x")) - 10, LE))
    snap = GLOBAL_METRICS.snapshot()
    previous = set_clock(_StepClock())
    try:
        session.check()
    finally:
        set_clock(previous)
    delta = GLOBAL_METRICS.delta_since(snap)["timers"]["smt.session_check_ms"]
    # ``total`` stays exact once a long run has filled the value cap.
    assert delta["count"] == 1
    assert delta["total"] == 125.0


def test_histogram_summary_percentiles():
    """A timer summarizes its retained values by nearest rank."""
    registry = MetricsRegistry()
    timer = registry.timer("t")
    for value in range(1, 101):  # 1..100
        timer.record(float(value))
    summary = summarize_values(timer.values, timer.max)
    assert timer.count == 100
    assert timer.total == 5050.0
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


def test_summarize_values_empty_and_observed_max():
    assert summarize_values([]) == {"p50": 0.0, "p95": 0.0, "max": 0.0}
    # observed max (exact past the cap) overrides the retained max
    assert summarize_values([1.0, 2.0], 9.0)["max"] == 9.0


def test_delta_since_only_reports_changes():
    registry = MetricsRegistry()
    registry.timer("t").record(10.0)
    registry.timer("idle").record(5.0)
    snap = registry.snapshot()
    registry.timer("t").record(20.0)
    delta = registry.delta_since(snap)
    assert set(delta["timers"]) == {"t"}
    assert delta["timers"]["t"]["count"] == 1
    assert delta["timers"]["t"]["total"] == 20.0
    assert delta["timers"]["t"]["values"] == [20.0]


def test_delta_is_pure_json():
    import json

    registry = MetricsRegistry()
    registry.timer("t").record(1.5)
    delta = registry.delta_since({})
    assert json.loads(json.dumps(delta)) == delta
