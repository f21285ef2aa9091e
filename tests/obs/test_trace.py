"""Span tracer: nesting, attributes, counter deltas, wire format."""

import io
import json

from repro.obs.clock import ManualClock, set_clock
from repro.obs.trace import (
    TRACE_VERSION,
    Tracer,
    get_tracer,
    set_tracer,
)


def _records(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def _spans(sink: io.StringIO) -> dict[str, dict]:
    return {
        r["name"]: r for r in _records(sink) if r["type"] == "span"
    }


def test_meta_line_is_written_first():
    sink = io.StringIO()
    Tracer(sink, trace_id="t1", clock=ManualClock())
    first = _records(sink)[0]
    assert first == {"type": "meta", "trace_id": "t1", "version": TRACE_VERSION}


def test_nesting_follows_context_managers():
    sink = io.StringIO()
    clock = ManualClock()
    tracer = Tracer(sink, trace_id="t", clock=clock)
    with tracer.span("outer"):
        clock.advance(0.010)
        with tracer.span("inner"):
            clock.advance(0.005)
        clock.advance(0.001)
    spans = _spans(sink)
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None
    # Children close (and are emitted) before their parents.
    names = [r["name"] for r in _records(sink) if r["type"] == "span"]
    assert names == ["inner", "outer"]


def test_span_durations_come_from_the_injected_clock():
    sink = io.StringIO()
    clock = ManualClock(50.0)
    tracer = Tracer(sink, trace_id="t", clock=clock)
    with tracer.span("work"):
        clock.advance(0.25)  # 250 ms
    span = _spans(sink)["work"]
    assert span["t1"] - span["t0"] == 250.0


def test_attributes_via_kwargs_and_set():
    sink = io.StringIO()
    tracer = Tracer(sink, trace_id="t", clock=ManualClock())
    with tracer.span("s", phase="learn") as span:
        span.set(valid=True, count=3)
    attrs = _spans(sink)["s"]["attrs"]
    assert attrs == {"phase": "learn", "valid": True, "count": 3}


def test_counter_deltas_recorded_as_ctr_attrs():
    counters = {"checks": 0, "pivots": 10}
    sink = io.StringIO()
    tracer = Tracer(
        sink,
        trace_id="t",
        clock=ManualClock(),
        counter_source=lambda: dict(counters),
    )
    with tracer.span("phase-span", counters=True):
        counters["checks"] += 4  # pivots unchanged: no attr
    attrs = _spans(sink)["phase-span"]["attrs"]
    assert attrs == {"ctr.checks": 4}


def test_exception_marks_the_span_and_still_emits_it():
    sink = io.StringIO()
    tracer = Tracer(sink, trace_id="t", clock=ManualClock())
    try:
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    span = _spans(sink)["doomed"]
    assert span["attrs"]["error"] == "RuntimeError"


def test_non_scalar_attrs_are_coerced_to_repr():
    sink = io.StringIO()
    tracer = Tracer(sink, trace_id="t", clock=ManualClock())
    with tracer.span("s", payload=("a", "b")):
        pass
    assert _spans(sink)["s"]["attrs"]["payload"] == "('a', 'b')"


def test_default_tracer_measures_but_writes_and_snapshots_nothing():
    tracer = get_tracer()
    assert isinstance(tracer, Tracer)
    assert tracer.trace_id == ""
    assert tracer.smt_spans is False
    # A clock installed after import still applies.
    clock = ManualClock()
    previous = set_clock(clock)
    try:
        with tracer.span("work", counters=True, phase="learn") as span:
            clock.advance(0.25)
            span.set(extra=1)
    finally:
        set_clock(previous)
    assert (span.t1 - span.t0) * 1000.0 == 250.0
    assert not any(key.startswith("ctr.") for key in span.attrs)
    Tracer().close()  # a no-op without a sink


def test_sinkless_tracer_never_calls_the_counter_source():
    calls = []
    tracer = Tracer(counter_source=lambda: calls.append(1) or {})
    with tracer.span("s", counters=True):
        pass
    assert calls == []


def test_outermost_phase_span_claims_its_subtree():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root") as root:
        with tracer.span("plain"):
            with tracer.span("outer", phase="generate_samples"):
                clock.advance(0.004)
                with tracer.span("inner", phase="generate_samples"):
                    clock.advance(0.002)
        with tracer.span("learn", phase="learn"):
            clock.advance(0.001)
    assert root.phase_ms == {"generate_samples": 6.0, "learn": 1.0}


def test_set_tracer_swaps_the_global():
    sink = io.StringIO()
    tracer = Tracer(sink, trace_id="t", clock=ManualClock())
    previous = set_tracer(tracer)
    try:
        assert get_tracer() is tracer
    finally:
        set_tracer(previous)
    assert get_tracer() is previous


def test_closed_tracer_stops_writing():
    sink = io.StringIO()
    tracer = Tracer(sink, trace_id="t", clock=ManualClock())
    tracer.close()
    with tracer.span("late"):
        pass
    assert all(r["type"] == "meta" for r in _records(sink))
