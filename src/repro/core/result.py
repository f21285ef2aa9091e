"""Synthesis outcomes, statistics and per-iteration traces.

The timing breakdown follows Table 3 of the paper:

* generation time -- obtaining initial samples and counter-example
  samples from the solver (including the quantifier-elimination work
  for the unsatisfaction region),
* learning time -- Learn (Alg. 2): SVM training over two or more
  columns, the exact closed-form choice over one,
* validation time -- checking validity of a learned predicate and
  optimality of a valid one with the solver.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from ..obs.clock import now
from ..predicates import Pred
from ..smt import Var

Point = dict[Var, Fraction]

# Outcome statuses
OPTIMAL = "optimal"  # counter-example search proved optimality
VALID = "valid"  # valid but iteration budget hit before optimality
TRIVIAL = "trivial"  # only the trivial predicate TRUE exists
FAILED = "failed"  # could not synthesize a valid predicate
UNSUPPORTED = "unsupported"  # predicate outside Sia's fragment


@dataclass
class Timings:
    """Milliseconds spent per pipeline stage."""

    generation_ms: float = 0.0
    learning_ms: float = 0.0
    validation_ms: float = 0.0

    @contextmanager
    def track(self, stage: str):
        # The injectable clock keeps these breakdowns deterministic
        # under ManualClock in tests (and SIA010-compliant).
        start = now()
        try:
            yield
        finally:
            elapsed = (now() - start) * 1000.0
            attr = f"{stage}_ms"
            setattr(self, attr, getattr(self, attr) + elapsed)

    @property
    def total_ms(self) -> float:
        return self.generation_ms + self.learning_ms + self.validation_ms


@dataclass
class IterationTrace:
    """One pass of the learning loop (for Figure 4-style rendering)."""

    index: int
    learned: str  # human-readable learned predicate
    valid: bool
    new_true: list[Point] = field(default_factory=list)
    new_false: list[Point] = field(default_factory=list)


@dataclass
class SynthesisOutcome:
    """Everything Alg. 1 produces, plus bookkeeping for the benchmarks."""

    status: str
    predicate: Pred | None = None  # SQL IR of the synthesized predicate
    detail: str = ""
    iterations: int = 0
    true_samples: int = 0
    false_samples: int = 0
    timings: Timings = field(default_factory=Timings)
    trace: list[IterationTrace] = field(default_factory=list)
    optimal_exact: bool = True  # QE exactness caveat (DESIGN.md section 6)
    target_columns: tuple[str, ...] = ()
    #: The cooperative deadline (section 6.2) expired: the outcome is a
    #: *partial* result -- best predicate found so far, truncated
    #: timings.  Downstream aggregates must not mix these silently.
    timed_out: bool = False

    @property
    def is_valid(self) -> bool:
        return self.status in (OPTIMAL, VALID)

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def __repr__(self) -> str:
        head = f"SynthesisOutcome({self.status}"
        if self.predicate is not None:
            head += f", {self.predicate!r}"
        return head + f", iters={self.iterations})"
