"""Regression tests for the incremental bound-ordering lemmas.

The lemmas are pure accelerators: they must never change
satisfiability, across any interleaving of checks and additions.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    NE,
    SAT,
    UNSAT,
    Atom,
    LinExpr,
    Solver,
    Var,
    compare,
    conj,
    disj,
)
from repro.smt.solver import _weakest_incompatible

X = Var("x")
Y = Var("y")
ex, ey = LinExpr.var(X), LinExpr.var(Y)
c = LinExpr.const_expr


def paired_solvers():
    return Solver(ordering_lemmas=True), Solver(ordering_lemmas=False)


def test_many_bounds_same_variable_agree():
    constraints = [
        compare(ex, ">=", c(0)),
        compare(ex, "<=", c(50)),
        compare(ex, ">", c(10)),
        compare(ex, "<", c(12)),
    ]
    for solver in paired_solvers():
        solver.add(conj(constraints))
        assert solver.check() == SAT
        assert solver.model().int_value(X) == 11


def test_contradictory_bounds_agree():
    constraints = [compare(ex, "<", c(10)), compare(ex, ">", c(10))]
    for solver in paired_solvers():
        solver.add(conj(constraints))
        assert solver.check() == UNSAT


def test_equality_atom_lemmas():
    formula = conj(
        [
            compare(ex, "=", c(7)),
            disj([compare(ex, "<", c(3)), compare(ex, ">", c(5))]),
        ]
    )
    for solver in paired_solvers():
        solver.add(formula)
        assert solver.check() == SAT
        assert solver.model().int_value(X) == 7


def test_two_conflicting_equalities():
    formula = conj([compare(ex, "=", c(7)), compare(ex, "=", c(8))])
    for solver in paired_solvers():
        solver.add(formula)
        assert solver.check() == UNSAT


def test_incremental_additions_between_checks():
    for solver in paired_solvers():
        solver.add(conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(5))]))
        assert solver.check() == SAT
        solver.add(compare(ex, ">=", c(4)))
        assert solver.check() == SAT
        assert solver.model().int_value(X) >= 4
        solver.add(compare(ex, "<", c(4)))
        assert solver.check() == UNSAT


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    num_bounds=st.integers(min_value=1, max_value=12),
)
def test_random_interval_systems_agree(seed, num_bounds):
    rng = random.Random(seed)
    parts = []
    for _ in range(num_bounds):
        var_expr = ex if rng.random() < 0.5 else ey
        op = rng.choice(["<", "<=", ">", ">=", "="])
        parts.append(compare(var_expr, op, c(rng.randint(-10, 10))))
    formula = conj(parts)
    with_lemmas, without = paired_solvers()
    with_lemmas.add(formula)
    without.add(formula)
    assert with_lemmas.check() == without.check()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_enumeration_with_notold_agrees(seed):
    """The NotOld pattern (the lemmas' raison d'etre) yields the same
    model count with and without them."""
    rng = random.Random(seed)
    lo, hi = sorted(rng.sample(range(-10, 10), 2))
    base = conj([compare(ex, ">=", c(lo)), compare(ex, "<=", c(hi))])

    def count_models(flag):
        solver = Solver(ordering_lemmas=flag)
        solver.add(base)
        seen = 0
        while solver.check() == SAT and seen <= 25:
            value = solver.model().value(X)
            solver.add(Atom(LinExpr.var(X) - value, NE))
            seen += 1
        return seen

    assert count_models(True) == count_models(False) == hi - lo + 1


def _incompatible(upper, upper_strict, lower, lower_strict):
    """``x < upper`` (or ``<=``) contradicts ``x > lower`` (or ``>=``)."""
    return upper < lower or (upper == lower and (upper_strict or lower_strict))


def _linear_weakest(other, side, bound, strict):
    """Reference: scan the opposite chain from strongest to weakest."""
    weakest = None
    for entry in other:
        if side == "upper":
            clash = _incompatible(bound, strict, entry[2], entry[3])
        else:
            clash = _incompatible(entry[2], entry[3], bound, strict)
        if not clash:
            break
        weakest = entry
    return weakest


def test_weakest_incompatible_bisect_matches_linear_scan():
    rng = random.Random(0)
    for _ in range(3000):
        side = rng.choice(["upper", "lower"])
        # A handful of bound values, halves included, so ties between
        # the new bound and the opposite chain (and within it) are common.
        values = [
            Fraction(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(4)
        ]
        other = []
        for index in range(rng.randint(0, 12)):
            value, other_strict = rng.choice(values), rng.random() < 0.5
            # The opposite chain's strength key, as Solver._insert_bound
            # builds it: uppers ascend, lowers descend, strict first.
            k0 = -value if side == "upper" else value
            other.append((k0, not other_strict, value, other_strict, index))
        other.sort(key=lambda entry: (entry[0], entry[1]))
        bound, strict = rng.choice(values), rng.random() < 0.5
        found = _weakest_incompatible(other, side, bound, strict)
        assert found is _linear_weakest(other, side, bound, strict)
