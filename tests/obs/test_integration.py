"""Observability end to end: a real CEGIS run under a live tracer.

Runs the paper's motivating synthesis with a file tracer installed and
replays the trace, checking the invariants ``repro trace`` relies on:
every CEGIS phase shows up, counter deltas land on phase spans, and
the per-phase totals stay within the trace wall-clock.
"""

import json

from repro.core import synthesize
from repro.obs import install_file_tracer
from repro.obs.replay import attribution_rows, load_trace
from repro.predicates import Col, Column, Comparison, INTEGER, Lit, pand

A1 = Column("t", "a1", INTEGER)
A2 = Column("t", "a2", INTEGER)
B1 = Column("t", "b1", INTEGER)


def _motivating_pred():
    return pand(
        [
            Comparison(Col(A2) - Col(B1), "<", Lit.integer(20)),
            Comparison(
                Col(A1) - Col(A2), "<", (Col(A2) - Col(B1)) + Lit.integer(10)
            ),
            Comparison(Col(B1), "<", Lit.integer(0)),
        ]
    )


def test_traced_synthesis_replays_with_full_attribution(tmp_path):
    path = tmp_path / "cegis.jsonl"
    with install_file_tracer(path, trace_id="itest") as tracer:
        assert tracer.trace_id == "itest"
        outcome = synthesize(_motivating_pred(), {A2})
    assert outcome.is_valid

    replay = load_trace(path)
    assert replay.trace_id == "itest"
    roots = {root.name for root in replay.roots}
    assert "synthesize" in roots

    phases = replay.phase_totals()
    assert "generate_samples" in phases
    assert "learn" in phases
    assert "verify" in phases

    # Counter deltas ride on the phase spans: sample generation and
    # verification both drive the solver.
    assert phases["verify"]["counters"].get("checks", 0) > 0
    assert phases["generate_samples"]["counters"].get("checks", 0) > 0

    # Attribution sums exactly to wall-clock (residue row by design),
    # and no phase claims more than the whole run.
    rows = attribution_rows(replay)
    total = sum(row["total_ms"] for row in rows)
    assert abs(total - replay.wall_ms) < 1e-6
    assert all(row["total_ms"] <= replay.wall_ms + 1e-6 for row in rows)

    # The root span records the outcome for trace-only debugging.
    root = replay.roots[0]
    assert root.attrs["status"] == outcome.status
    assert root.attrs["iterations"] == outcome.iterations


def test_tracer_restored_and_file_complete_after_exit(tmp_path):
    from repro.obs.trace import Tracer, get_tracer

    default = get_tracer()
    assert isinstance(default, Tracer) and default.trace_id == ""
    path = tmp_path / "t.jsonl"
    with install_file_tracer(path):
        synthesize(_motivating_pred(), {B1})
    assert get_tracer() is default
    lines = path.read_text().splitlines()
    assert all(json.loads(line) for line in lines)
    assert json.loads(lines[0])["type"] == "meta"


def test_smt_spans_flag_adds_per_check_spans(tmp_path):
    quiet = tmp_path / "quiet.jsonl"
    with install_file_tracer(quiet, smt_spans=False):
        synthesize(_motivating_pred(), {A2})
    verbose = tmp_path / "verbose.jsonl"
    with install_file_tracer(verbose, smt_spans=True):
        synthesize(_motivating_pred(), {A2})
    quiet_names = {span.name for span in load_trace(quiet).spans.values()}
    verbose_names = {span.name for span in load_trace(verbose).spans.values()}
    assert "smt.check" not in quiet_names
    assert "smt.check" in verbose_names


def test_sink_closed_when_tracer_construction_fails(tmp_path, monkeypatch):
    # If Tracer(...) raises, the file install_file_tracer opened must be
    # closed and the previously installed tracer must stay in place.
    import io

    import pytest

    import repro.obs as obs
    from repro.obs.trace import Tracer, get_tracer, set_tracer

    opened = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    def failing_tracer(*args, **kwargs):
        raise RuntimeError("tracer construction failed")

    monkeypatch.setattr(obs, "open", recording_open, raising=False)
    monkeypatch.setattr(obs, "Tracer", failing_tracer)
    previous = Tracer(io.StringIO())
    original = set_tracer(previous)
    try:
        with pytest.raises(RuntimeError, match="construction failed"):
            with install_file_tracer(tmp_path / "t.jsonl"):
                pass
        assert len(opened) == 1
        assert opened[0].closed
        assert get_tracer() is previous
    finally:
        set_tracer(original)
