"""Unit tests for integer tightening, branch-and-bound and hard LRA inputs."""

from fractions import Fraction

import pytest

from repro.analysis.certify import audit_proof
from repro.smt import (
    EQ,
    LE,
    LT,
    UNSAT,
    Atom,
    LinExpr,
    REAL,
    TheoryConflict,
    Var,
    conj,
)
from repro.smt.session import certified_solver
from repro.smt.theory import check_conjunction, tighten

X = Var("x")
Y = Var("y")
R = Var("r", REAL)
ex = LinExpr.var(X)
ey = LinExpr.var(Y)
er = LinExpr.var(R)


def test_tighten_strict_to_nonstrict():
    # x < 3  =>  x <= 2, represented as x - 2 <= 0
    atom = tighten(Atom(ex - 3, LT))
    assert atom.op == LE
    assert atom.expr == ex - 2


def test_tighten_fractional_bound():
    # 2x <= 5  =>  x <= 2
    atom = tighten(Atom(ex * 2 - 5, LE))
    assert atom.expr == ex - 2


def test_tighten_divides_content():
    # 4x - 6y <= 7  =>  2x - 3y <= 3
    atom = tighten(Atom(ex * 4 - ey * 6 - 7, LE))
    assert atom.expr.coeff(X) == 2
    assert atom.expr.coeff(Y) == -3
    assert atom.expr.const == -3


def test_tighten_infeasible_equality():
    # 2x = 1 has no integer solution.
    assert tighten(Atom(ex * 2 - 1, EQ)) is False


def test_tighten_feasible_equality():
    atom = tighten(Atom(ex * 2 - ey * 4 - 6, EQ))
    assert atom.expr.coeff(X) == 1
    assert atom.expr.coeff(Y) == -2
    assert atom.expr.const == -3


def test_tighten_leaves_reals_alone():
    atom = Atom(er - Fraction(1, 2), LT)
    assert tighten(atom) == atom


def test_tighten_constant_folds():
    assert tighten(Atom(LinExpr.const_expr(-1), LE)) is True
    assert tighten(Atom(LinExpr.const_expr(1), LE)) is False


def test_integer_model():
    model = check_conjunction([(Atom(ex * 2 - 5, LE), "a"), (Atom(1 - ex, LE), "b")])
    assert model[X].denominator == 1
    assert 1 <= model[X] <= 2


def test_branch_and_bound_finds_integer_point():
    # 3 <= 2x <= 3.9 has rational but no integer solutions.
    with pytest.raises(TheoryConflict):
        check_conjunction(
            [
                (Atom(3 - ex * 2, LE), "lo"),
                (Atom(ex * 2 - Fraction(39, 10), LE), "hi"),
            ]
        )


def test_branch_core_excludes_branch_tags():
    try:
        check_conjunction(
            [
                (Atom(3 - ex * 2, LE), "lo"),
                (Atom(ex * 2 - Fraction(39, 10), LE), "hi"),
                (Atom(ey - 100, LE), "unrelated"),
            ]
        )
    except TheoryConflict as conflict:
        assert conflict.core <= {"lo", "hi"}
    else:  # pragma: no cover
        pytest.fail("expected conflict")


def test_mixed_int_real():
    model = check_conjunction(
        [
            (Atom(er - ex, LT), "r_lt_x"),
            (Atom(ex - er - Fraction(1, 2), LT), "x_near_r"),
            (Atom(3 - ex, LE), "x_ge_3"),
        ]
    )
    assert model[X].denominator == 1
    assert model[R] < model[X] < model[R] + Fraction(1, 2)


def test_unsat_core_is_relevant():
    try:
        check_conjunction(
            [
                (Atom(ex - 1, LE), "a"),
                (Atom(2 - ex, LE), "b"),
                (Atom(ey - 7, LE), "noise"),
            ]
        )
    except TheoryConflict as conflict:
        assert "noise" not in conflict.core
    else:  # pragma: no cover
        pytest.fail("expected conflict")


def test_equalities_and_inequalities_combined():
    model = check_conjunction(
        [
            (Atom(ex + ey - 10, EQ), "sum"),
            (Atom(ex - ey, LT), "x_lt_y"),
            (Atom(1 - ex, LE), "x_ge_1"),
        ]
    )
    assert model[X] + model[Y] == 10
    assert model[X] < model[Y]
    assert model[X] >= 1


# ----------------------------------------------------------------------
# Numerically hard inputs: coefficient ratios, gaps and pivot
# coefficients that a machine-float tableau rounds away.  The exact
# simplex decides each one and certifies every conflict.
# ----------------------------------------------------------------------
RX = LinExpr.var(Var("rx", REAL))
RY = LinExpr.var(Var("ry", REAL))


def _assert_certified_unsat(atoms):
    tagged = [(atom, i + 1) for i, atom in enumerate(atoms)]
    with pytest.raises(TheoryConflict) as raised:
        check_conjunction(tagged)
    conflict = raised.value
    assert set(conflict.core) <= {tag for _, tag in tagged}
    assert conflict.cert is not None
    for entry in conflict.cert.entries:
        assert isinstance(entry.coeff, Fraction)
    solver = certified_solver([conj(atoms)])
    assert solver.proof_log is not None
    assert solver.proof_log.result == UNSAT
    assert audit_proof(solver.proof_log, origin="theory") == []


def test_huge_coefficient_ratio_is_unsat():
    # rx >= 1, ry >= 1, rx + 10^18 ry <= 10^18: infeasible, but in
    # floats 10^18 + 1 rounds to 10^18.
    _assert_certified_unsat(
        [
            Atom(1 - RX, LE),
            Atom(1 - RY, LE),
            Atom(RX + RY * 10**18 - 10**18, LE),
        ]
    )


def test_sliver_below_float_epsilon_is_unsat():
    # rx + ry <= 5 and rx + ry >= 5 + 10^-12: the bounds do not touch.
    gap = Fraction(1, 10**12)
    _assert_certified_unsat(
        [Atom(RX + RY - 5, LE), Atom((5 + gap) - (RX + RY), LE)]
    )


def test_near_degenerate_pivot_is_sat():
    # rx + ry / 10^13 >= 2 with rx <= 1 is feasible only by pushing ry
    # through a pivot on a 10^-13 coefficient.
    atoms = [
        Atom(2 - (RX + RY * Fraction(1, 10**13)), LE),
        Atom(RX - 1, LE),
    ]
    model = check_conjunction([(atom, i + 1) for i, atom in enumerate(atoms)])
    assert all(atom.holds(atom.expr.evaluate(model)) for atom in atoms)
    assert all(isinstance(value, Fraction) for value in model.values())
