"""One timing source: ``SynthesisOutcome.timings`` are the CEGIS phase
spans' own durations, so Table 3, the fullscale checkpoint and
``repro trace`` agree, and turning tracing on changes no time."""

import io

from repro.bench.parallel import parallel_efficacy_records
from repro.core import synthesize
from repro.core.result import OPTIMAL, Timings
from repro.obs import Clock, Tracer, install_file_tracer, set_clock, set_tracer
from repro.obs.replay import TraceReplay, load_trace
from repro.predicates import Col, Column, Comparison, INTEGER, Lit, pand
from repro.smt.stats import GLOBAL_COUNTERS

A = Column("t", "a", INTEGER)
B = Column("t", "b", INTEGER)
A1 = Column("t", "a1", INTEGER)
A2 = Column("t", "a2", INTEGER)
B1 = Column("t", "b1", INTEGER)

#: The trace rounds each span end to 1e-4 ms.
ROUNDING_MS = 1e-4


class StepClock(Clock):
    """Advances a fixed step on every reading."""

    def __init__(self, step: float) -> None:
        self._now = 0.0
        self._step = step

    def now(self) -> float:
        self._now += self._step
        return self._now


def _stage_totals(root) -> tuple[Timings, int]:
    """Stage totals of the outermost phase spans under ``root``, by the
    replay's own rule, and how many spans they sum."""
    phases = TraceReplay(roots=list(root.children)).phase_totals()
    totals = Timings.from_phases(
        {phase: entry["total_ms"] for phase, entry in phases.items()}
    )
    return totals, sum(entry["count"] for entry in phases.values())


def _finite_pred():
    return pand(
        [
            Comparison(Col(A), ">=", Lit.integer(1)),
            Comparison(Col(A), "<=", Lit.integer(3)),
            Comparison(Col(B), "<", Lit.integer(5)),
        ]
    )


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


def test_finite_domain_generation_counts_enumeration_once(tmp_path):
    path = tmp_path / "finite.jsonl"
    with install_file_tracer(path):
        outcome = synthesize(_finite_pred(), {A})
    assert outcome.status == OPTIMAL

    replay = load_trace(path)
    (root,) = [node for node in replay.roots if node.name == "synthesize"]
    names = {node.name for node in root.children}
    assert {"cegis.generate_samples", "cegis.enumerate_true"} <= names
    expected, spans = _stage_totals(root)
    assert abs(outcome.timings.generation_ms - expected.generation_ms) <= (
        ROUNDING_MS * (spans + 1)
    )
    assert outcome.timings.generation_ms <= root.duration_ms + ROUNDING_MS


def _stepped_timings(make_tracer) -> Timings:
    """The motivating synthesis under a clock stepping 1 ms per read;
    ``make_tracer`` (called after the clock is installed) or the
    default tracer."""
    previous_clock = set_clock(StepClock(0.001))
    tracer = make_tracer() if make_tracer is not None else None
    previous_tracer = set_tracer(tracer) if tracer is not None else None
    try:
        return synthesize(_motivating_pred(), {A2}).timings
    finally:
        if tracer is not None:
            set_tracer(previous_tracer)
        set_clock(previous_clock)


def test_timings_identical_with_tracing_on_and_off():
    untraced = _stepped_timings(None)
    traced = _stepped_timings(
        lambda: Tracer(io.StringIO(), counter_source=GLOBAL_COUNTERS.snapshot)
    )
    assert untraced.total_ms > 0
    assert traced == untraced


def test_efficacy_cells_carry_their_synthesize_stage_totals(tmp_path):
    path = tmp_path / "cells.jsonl"
    with install_file_tracer(path):
        result = parallel_efficacy_records(
            workers=1,
            num_queries=1,
            seed=4,
            techniques=("SIA",),
            deadline_ms=300,
        )
    replay = load_trace(path)
    cells = sorted(
        (node for node in replay.spans.values() if node.name == "bench.cell"),
        key=lambda node: node.t0,
    )
    assert len(cells) == len(result.records) > 0
    for record, cell in zip(result.records, cells):
        (root,) = [child for child in cell.children if child.name == "synthesize"]
        expected, spans = _stage_totals(root)
        tolerance = ROUNDING_MS * (spans + 1)
        assert abs(record.generation_ms - expected.generation_ms) <= tolerance
        assert abs(record.learning_ms - expected.learning_ms) <= tolerance
        assert abs(record.validation_ms - expected.validation_ms) <= tolerance

