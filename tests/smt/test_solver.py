"""Integration tests for the DPLL(T) solver facade."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    EQ,
    LE,
    REAL,
    SAT,
    UNSAT,
    Atom,
    BVar,
    LinExpr,
    Not,
    SmtSession,
    Solver,
    SolverError,
    Var,
    all_models,
    compare,
    conj,
    disj,
    get_model,
    implies,
    is_satisfiable,
    negate,
)

X = Var("x")
Y = Var("y")
Z = Var("z")
ex, ey, ez = LinExpr.var(X), LinExpr.var(Y), LinExpr.var(Z)
c = LinExpr.const_expr


def test_trivial_sat_unsat():
    assert is_satisfiable(compare(ex, "<", c(10)))
    assert not is_satisfiable(conj([compare(ex, "<", c(0)), compare(ex, ">", c(0))]))


def test_model_satisfies_formula():
    formula = conj(
        [
            compare(ex + ey, "<=", c(10)),
            compare(ex, ">", ey),
            compare(ey, ">=", c(2)),
        ]
    )
    model = get_model(formula)
    assert model is not None
    assert model.satisfies(formula)
    assert model.value(X) > model.value(Y) >= 2


def test_integer_sort_respected():
    formula = conj([compare(ex * 2, "=", c(5))])
    assert not is_satisfiable(formula)
    r = Var("real_x", REAL)
    formula_real = compare(LinExpr.var(r) * 2, "=", c(5))
    model = get_model(formula_real)
    assert model is not None
    assert model.value(r) == Fraction(5, 2)


def test_disjunction_picks_feasible_branch():
    formula = conj(
        [
            disj([compare(ex, "<", c(0)), compare(ex, ">", c(100))]),
            compare(ex, ">=", c(-3)),
        ]
    )
    model = get_model(formula)
    assert model is not None
    value = model.value(X)
    assert value in range(-3, 0) or value > 100 or (-3 <= value < 0)


def test_negated_equality_split():
    formula = conj([Not(compare(ex, "=", c(5))), compare(ex, ">=", c(5)), compare(ex, "<=", c(6))])
    model = get_model(formula)
    assert model is not None
    assert model.value(X) == 6


def test_negation_of_conjunction():
    p = conj([compare(ex, ">", c(0)), compare(ex, "<", c(10))])
    formula = conj([negate(p), compare(ex, "=", c(5))])
    assert not is_satisfiable(formula)


def test_boolean_vars_mix():
    flag = BVar("flag")
    formula = conj(
        [
            disj([flag, compare(ex, ">", c(0))]),
            disj([Not(flag), compare(ex, "<", c(0))]),
        ]
    )
    model = get_model(formula)
    assert model is not None
    assert model.satisfies(formula)


def test_implies():
    p = conj([compare(ex, ">", c(5)), compare(ex, "<", c(8))])
    weaker = compare(ex, ">", c(0))
    stronger = compare(ex, ">", c(6))
    assert implies(p, weaker)
    assert not implies(p, stronger)


def test_incremental_not_old_loop():
    solver = Solver()
    solver.add(conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(3))]))
    seen = set()
    while solver.check() == SAT:
        value = solver.model().int_value(X)
        assert value not in seen
        seen.add(value)
        solver.add(Not(compare(ex, "=", c(value))))
    assert seen == {0, 1, 2, 3}


def test_all_models_enumeration():
    formula = conj([compare(ex, ">=", c(1)), compare(ex, "<=", c(4))])
    models = list(all_models(formula, [X]))
    values = sorted(m.int_value(X) for m in models)
    assert values == [1, 2, 3, 4]


def test_all_models_respects_limit():
    formula = compare(ex, ">=", c(0))
    models = list(all_models(formula, [X], limit=5))
    assert len(models) == 5
    assert len({m.int_value(X) for m in models}) == 5


def test_unsat_after_exhaustion():
    solver = Solver()
    solver.add(compare(ex, "=", c(7)))
    assert solver.check() == SAT
    solver.add(Not(compare(ex, "=", c(7))))
    assert solver.check() == UNSAT


def test_motivating_predicate_samples():
    """Section 3.2: the running example must be satisfiable and its
    models must satisfy all three conditions."""
    a1, a2, b1 = Var("a1"), Var("a2"), Var("b1")
    e1, e2, e3 = LinExpr.var(a1), LinExpr.var(a2), LinExpr.var(b1)
    p = conj(
        [
            compare(e2 - e3, "<", c(20)),
            compare(e1 - e2, "<", e2 - e3 + 10),
            compare(e3, "<", c(0)),
        ]
    )
    model = get_model(p)
    assert model is not None
    assert model.satisfies(p)


def test_three_valued_style_pair_encoding():
    """A (value, isnull) pair encoding: null columns block atom truth."""
    is_null = BVar("x_null")
    atom_true = conj([Not(is_null), compare(ex, ">", c(0))])
    # Tuple where x is null can never make the lifted atom true.
    assert not is_satisfiable(conj([is_null, atom_true]))
    assert is_satisfiable(conj([Not(is_null), atom_true]))


@settings(max_examples=30, deadline=None)
@given(
    bound=st.integers(min_value=-20, max_value=20),
    gap=st.integers(min_value=0, max_value=10),
)
def test_interval_satisfiability(bound, gap):
    lower = compare(ex, ">=", c(bound))
    upper = compare(ex, "<=", c(bound + gap))
    assert is_satisfiable(conj([lower, upper]))
    impossible = conj([compare(ex, "<", c(bound)), compare(ex, ">", c(bound + gap))])
    assert not is_satisfiable(impossible)


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(min_value=-5, max_value=5),
    b=st.integers(min_value=-5, max_value=5),
    k=st.integers(min_value=-30, max_value=30),
)
def test_random_conjunction_model_soundness(a, b, k):
    formula = conj(
        [
            compare(ex * (a if a else 1) + ey * (b if b else 1), "<=", c(k)),
            compare(ex, ">=", c(-10)),
            compare(ey, ">=", c(-10)),
            compare(ex, "<=", c(10)),
            compare(ey, "<=", c(10)),
        ]
    )
    model = get_model(formula)
    grid_sat = any(
        formula.evaluate({X: xv, Y: yv})
        for xv in range(-10, 11)
        for yv in range(-10, 11)
    )
    if model is None:
        assert not grid_sat
    else:
        assert model.satisfies(formula)
        assert grid_sat


def test_equality_atoms():
    formula = conj([compare(ex + ey, "=", c(10)), compare(ex - ey, "=", c(4))])
    model = get_model(formula)
    assert model is not None
    assert model.value(X) == 7
    assert model.value(Y) == 3


def test_model_requires_a_sat_verdict():
    """``model()`` raises instead of returning a stale or empty model:
    before any check, and after a check that answered UNSAT."""
    at_most_5 = Atom(LinExpr.var(X) - 5, LE)
    at_least_6 = Atom(LinExpr.const_expr(6) - LinExpr.var(X), LE)
    solver = Solver()
    with pytest.raises(SolverError):
        solver.model()
    solver.add(at_most_5)
    assert solver.check() == SAT
    assert solver.model().value(X) <= 5
    solver.add(at_least_6)
    assert solver.check() == UNSAT
    with pytest.raises(SolverError):
        solver.model()
    # The one-shot helper checks the verdict before it reads the model.
    assert get_model(conj([at_most_5, at_least_6])) is None

    session = SmtSession()
    with pytest.raises(SolverError):
        session.model()
    session.assert_base(at_most_5)
    assert session.check([at_least_6]) == UNSAT
    with pytest.raises(SolverError):
        session.model()

