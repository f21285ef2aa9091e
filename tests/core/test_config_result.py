"""Tests for configuration and result bookkeeping."""

import pytest

from repro.core import SIA_DEFAULT, SIA_V1, SIA_V2, SiaConfig
from repro.core.result import (
    OPTIMAL,
    PHASE_STAGE,
    SynthesisOutcome,
    Timings,
    TRIVIAL,
    VALID,
)
from repro.obs import ManualClock, get_tracer, set_clock


def test_table1_configurations():
    """The paper's Table 1, verbatim."""
    assert SIA_DEFAULT.max_iterations == 41
    assert SIA_DEFAULT.initial_true_samples == 10
    assert SIA_DEFAULT.initial_false_samples == 10
    assert SIA_DEFAULT.samples_per_iteration == 5
    assert SIA_V1.max_iterations == 1
    assert SIA_V1.initial_true_samples == 110
    assert SIA_V2.initial_true_samples == 220
    assert SIA_V2.initial_false_samples == 220


def test_with_seed():
    config = SIA_DEFAULT.with_seed(99)
    assert config.seed == 99
    assert config.max_iterations == SIA_DEFAULT.max_iterations
    assert SIA_DEFAULT.seed == 0  # frozen original untouched


def test_config_is_frozen():
    import dataclasses

    import pytest

    with pytest.raises(dataclasses.FrozenInstanceError):
        SIA_DEFAULT.max_iterations = 5


def test_timings_from_phases_sums_each_stage():
    timings = Timings.from_phases(
        {
            "qe": 1.0,
            "generate_samples": 2.0,
            "counter_f": 3.0,
            "counter_t": 4.0,
            "learn": 5.0,
            "verify": 6.0,
            "minimize": 7.0,
        }
    )
    assert timings == Timings(
        generation_ms=10.0, learning_ms=5.0, validation_ms=13.0
    )
    assert timings.total_ms == (
        timings.generation_ms + timings.learning_ms + timings.validation_ms
    )
    assert set(PHASE_STAGE.values()) == {"generation", "learning", "validation"}


def test_default_tracer_phase_spans_fill_timings():
    # The sink-less default tracer reads the clock installed *now*, and
    # a phase span closed by an exception still counts.
    clock = ManualClock()
    previous = set_clock(clock)
    try:
        tracer = get_tracer()
        with tracer.span("synthesize") as root:
            with tracer.span("gen", phase="generate_samples"):
                clock.advance(0.010)
            with tracer.span("learn", phase="learn"):
                clock.advance(0.004)
            try:
                with tracer.span("verify", phase="verify"):
                    clock.advance(0.002)
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
    finally:
        set_clock(previous)
    timings = Timings.from_phases(root.phase_ms)
    assert timings.generation_ms == pytest.approx(10.0)
    assert timings.learning_ms == pytest.approx(4.0)
    assert timings.validation_ms == pytest.approx(2.0)


def test_outcome_flags():
    assert SynthesisOutcome(status=OPTIMAL).is_optimal
    assert SynthesisOutcome(status=OPTIMAL).is_valid
    assert SynthesisOutcome(status=VALID).is_valid
    assert not SynthesisOutcome(status=VALID).is_optimal
    assert not SynthesisOutcome(status=TRIVIAL).is_valid


def test_outcome_repr():
    outcome = SynthesisOutcome(status=VALID, iterations=3)
    assert "valid" in repr(outcome)
    assert "iters=3" in repr(outcome)
