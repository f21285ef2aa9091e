"""Tests for training-sample generation (section 5.3)."""

import random

from repro.core import SIA_DEFAULT, Sampler, SiaConfig, enumerate_all, not_old_formula
from repro.core.samples import IncrementalEnumerator, box_formula
from repro.obs import Clock, set_clock
from repro.smt import LinExpr, Var, compare, conj, is_satisfiable

X = Var("x")
Y = Var("y")
ex, ey = LinExpr.var(X), LinExpr.var(Y)
c = LinExpr.const_expr


def make_sampler(seed=0, deadline=None, **overrides):
    config = SiaConfig(seed=seed, **overrides)
    return Sampler(config, random.Random(seed), deadline)


class StepClock(Clock):
    """Advances 1 ms on every reading."""

    def __init__(self) -> None:
        self.readings = 0

    def now(self) -> float:
        self.readings += 1
        return self.readings / 1000.0


def test_samples_satisfy_base_formula():
    base = conj([compare(ex + ey, "<", c(10)), compare(ex, ">", ey)])
    sampler = make_sampler()
    result = sampler.sample(base, [X, Y], 12)
    assert len(result.points) == 12
    for point in result.points:
        assert point[X] + point[Y] < 10
        assert point[X] > point[Y]


def test_samples_are_distinct():
    base = compare(ex, ">=", c(0))
    result = make_sampler().sample(base, [X], 20)
    values = [point[X] for point in result.points]
    assert len(set(values)) == 20


def test_samples_respect_existing_exclusions():
    base = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(5))])
    existing = [{X: v} for v in (0, 1, 2)]
    result = make_sampler().sample(base, [X], 3, existing=existing)
    new_values = {int(point[X]) for point in result.points}
    assert new_values == {3, 4, 5}


def test_exhaustion_reported():
    base = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(2))])
    result = make_sampler().sample(base, [X], 10)
    assert result.exhausted
    assert {int(p[X]) for p in result.points} == {0, 1, 2}


def test_deadline_stops_between_draws_and_never_claims_exhaustion():
    # The same finite set test_exhaustion_reported exhausts.  The
    # request's span reads 1 ms and the first deadline check 2 ms; the
    # first draw's solver checks then read the clock past 2.5 ms, so
    # the second draw never starts.
    base = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(2))])
    clock = StepClock()
    previous = set_clock(clock)
    try:
        result = make_sampler(deadline=0.0025).sample(base, [X], 10)
    finally:
        set_clock(previous)
    assert len(result.points) == 1
    assert not result.exhausted


def test_deadline_in_the_future_draws_the_same_samples():
    base = conj([compare(ex + ey, "<", c(50))])
    plain = make_sampler(seed=7).sample(base, [X, Y], 8).points
    bounded = make_sampler(seed=7, deadline=float("inf")).sample(base, [X, Y], 8)
    assert bounded.points == plain


def test_unsat_base_yields_empty_exhausted():
    base = conj([compare(ex, "<", c(0)), compare(ex, ">", c(0))])
    result = make_sampler().sample(base, [X], 5)
    assert result.exhausted
    assert result.points == []


def test_solutions_outside_box_still_found():
    """If the only models lie beyond the sampling box, the sampler
    must relax the box rather than declare exhaustion."""
    box = SIA_DEFAULT.sample_box
    base = compare(ex, ">", c(box * 10))
    result = make_sampler().sample(base, [X], 3)
    assert len(result.points) == 3
    assert all(point[X] > box * 10 for point in result.points)


def test_random_box_diversity_beats_sequential():
    base = compare(ex, ">=", c(-SIA_DEFAULT.sample_box))
    diverse = make_sampler(seed=3).sample(base, [X], 15).points
    sequential = make_sampler(seed=3, sampling_strategy="sequential").sample(
        base, [X], 15
    ).points
    spread = lambda pts: max(p[X] for p in pts) - min(p[X] for p in pts)  # noqa: E731
    assert spread(diverse) > spread(sequential)


def test_determinism_given_seed():
    base = conj([compare(ex + ey, "<", c(50))])
    a = make_sampler(seed=7).sample(base, [X, Y], 8).points
    b = make_sampler(seed=7).sample(base, [X, Y], 8).points
    assert a == b


def test_not_old_formula_blocks_points():
    points = [{X: 1, Y: 2}]
    formula = not_old_formula(points, [X, Y])
    fixed = conj([compare(ex, "=", c(1)), compare(ey, "=", c(2))])
    assert not is_satisfiable(conj([formula, fixed]))
    other = conj([compare(ex, "=", c(1)), compare(ey, "=", c(3))])
    assert is_satisfiable(conj([formula, other]))


def test_box_formula():
    formula = box_formula([X], 5)
    assert is_satisfiable(conj([formula, compare(ex, "=", c(5))]))
    assert not is_satisfiable(conj([formula, compare(ex, "=", c(6))]))


def test_enumerate_all_complete():
    base = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(4))])
    result = enumerate_all(base, [X], 100)
    assert result.exhausted
    assert sorted(int(p[X]) for p in result.points) == [0, 1, 2, 3, 4]


def test_enumerate_all_limit():
    base = compare(ex, ">=", c(0))
    result = enumerate_all(base, [X], 7)
    assert not result.exhausted
    assert len(result.points) == 7


def test_incremental_enumerator_add():
    base = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(10))])
    enum = IncrementalEnumerator(base, [X], [], SIA_DEFAULT)
    first = enum.next([])
    assert first is not None
    enum.add(compare(ex, ">=", c(9)))
    seen = [first]
    values = set()
    while True:
        point = enum.next(seen)
        if point is None:
            break
        seen.append(point)
        values.add(int(point[X]))
    assert values <= {9, 10}
    assert 9 in values or 10 in values
