"""Trace replay: forest linking, phase attribution, rendering."""

import io
import json

from repro.obs.clock import ManualClock
from repro.obs.replay import (
    UNTRACED,
    attribution_rows,
    load_trace,
    render_flamegraph,
    render_phase_table,
    replay_to_json,
)
from repro.obs.trace import Tracer


def _write_trace(tmp_path, build):
    """Run ``build(tracer, clock)`` and return the trace path."""
    sink = io.StringIO()
    clock = ManualClock()
    tracer = Tracer(sink, trace_id="fixed", clock=clock)
    build(tracer, clock)
    path = tmp_path / "trace.jsonl"
    path.write_text(sink.getvalue())
    return path


def _cegis_like(tracer, clock):
    with tracer.span("synthesize"):
        with tracer.span("cegis.generate_samples", phase="generate_samples"):
            clock.advance(0.040)
        for index in (1, 2):
            with tracer.span("cegis.iteration", index=index):
                with tracer.span("cegis.learn", phase="learn"):
                    clock.advance(0.030)
                with tracer.span("cegis.verify", phase="verify"):
                    clock.advance(0.010)
                    # nested phase span: must NOT double-charge
                    with tracer.span("inner.check", phase="verify"):
                        clock.advance(0.005)
        clock.advance(0.020)  # untraced residue


def test_forest_linking_and_wall_clock(tmp_path):
    replay = load_trace(_write_trace(tmp_path, _cegis_like))
    assert replay.trace_id == "fixed"
    assert len(replay.roots) == 1
    assert replay.roots[0].name == "synthesize"
    assert replay.wall_ms == 150.0


def test_phase_attribution_ignores_nested_phase_spans(tmp_path):
    replay = load_trace(_write_trace(tmp_path, _cegis_like))
    phases = replay.phase_totals()
    assert phases["generate_samples"]["total_ms"] == 40.0
    assert phases["learn"]["total_ms"] == 60.0
    assert phases["learn"]["count"] == 2
    # verify spans are 15ms each; the nested verify span inside is
    # covered by its parent, not charged again
    assert phases["verify"]["total_ms"] == 30.0


def test_attribution_rows_sum_to_wall_clock(tmp_path):
    replay = load_trace(_write_trace(tmp_path, _cegis_like))
    rows = attribution_rows(replay)
    assert round(sum(row["total_ms"] for row in rows), 4) == replay.wall_ms
    residue = next(row for row in rows if row["phase"] == UNTRACED)
    assert residue["total_ms"] == 20.0
    assert abs(sum(row["share"] for row in rows) - 1.0) < 0.01


def test_counter_attrs_aggregate_per_phase(tmp_path):
    def build(tracer, clock):
        counters = {"pivots": 0}
        tracer._counter_source = lambda: dict(counters)
        with tracer.span("a", phase="verify", counters=True):
            counters["pivots"] += 7
            clock.advance(0.001)
        with tracer.span("b", phase="verify", counters=True):
            counters["pivots"] += 5
            clock.advance(0.001)

    replay = load_trace(_write_trace(tmp_path, build))
    assert replay.phase_totals()["verify"]["counters"] == {"pivots": 12}


def test_orphans_survive_torn_traces(tmp_path):
    path = _write_trace(tmp_path, _cegis_like)
    lines = path.read_text().splitlines()
    # Drop the root span line (last emitted) and tear the final line.
    torn = [line for line in lines if '"name": "synthesize"' not in line]
    torn.append('{"type": "span", "id": 99')
    path.write_text("\n".join(torn))
    replay = load_trace(path)
    assert replay.malformed_lines == 1
    # Children of the missing root are promoted to roots, not dropped.
    assert {root.name for root in replay.roots} >= {"cegis.iteration"}
    assert replay.phase_totals()["learn"]["total_ms"] == 60.0


def test_legacy_event_lines_are_skipped(tmp_path):
    path = _write_trace(tmp_path, _cegis_like)
    # Older traces carry point events (SAT restarts) between spans.
    event = {"type": "event", "trace_id": "fixed", "span": 3,
             "name": "sat.restart", "t": 13.0, "attrs": {"conflicts": 12}}
    lines = path.read_text().splitlines()
    lines.insert(2, json.dumps(event))
    path.write_text("\n".join(lines) + "\n")
    replay = load_trace(path)
    assert replay.malformed_lines == 0
    assert replay.wall_ms == 150.0
    assert replay.phase_totals()["learn"]["total_ms"] == 60.0


def test_render_phase_table_mentions_every_phase(tmp_path):
    replay = load_trace(_write_trace(tmp_path, _cegis_like))
    table = render_phase_table(replay)
    for phase in ("generate_samples", "learn", "verify", UNTRACED):
        assert phase in table
    assert "wall-clock 150.0 ms" in table


def test_render_flamegraph_depth_limit(tmp_path):
    replay = load_trace(_write_trace(tmp_path, _cegis_like))
    full = render_flamegraph(replay)
    assert "inner.check" in full
    shallow = render_flamegraph(replay, depth=2)
    assert "inner.check" not in shallow
    assert "synthesize" in shallow


def test_replay_to_json_round_trips(tmp_path):
    replay = load_trace(_write_trace(tmp_path, _cegis_like))
    payload = replay_to_json(replay)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["wall_ms"] == 150.0
    assert payload["trace_id"] == "fixed"
    assert set(payload["phases"]) == {
        "generate_samples",
        "learn",
        "verify",
        UNTRACED,
    }


def test_empty_trace_is_not_an_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    replay = load_trace(path)
    assert replay.spans == {}
    assert replay.wall_ms == 0.0
    assert "no phase spans" in render_phase_table(replay)
    assert render_flamegraph(replay) == "empty trace"
