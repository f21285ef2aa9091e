"""Tests for rationalization and hyperplane predicates."""

import datetime as dt
from fractions import Fraction

import numpy as np
import pytest

from repro.errors import SynthesisError
from repro.learn import (
    DisjunctivePredicate,
    Hyperplane,
    rationalize_weights,
)
from repro.predicates import (
    DATE,
    INTEGER,
    Col,
    Column,
    Comparison,
    Lit,
    LinearizationContext,
    eval_pred_py,
    lower_predicate,
    pand,
)
from repro.smt import Var, get_model, is_satisfiable, conj, negate


def test_rationalize_simple():
    weights, bias = rationalize_weights(np.array([0.5, -0.25]), 1.0)
    assert weights == [2, -1]
    assert bias == 4


def test_rationalize_snaps_noise_to_zero():
    weights, bias = rationalize_weights(np.array([1.0, 1e-12]), 0.0)
    assert weights == [1, 0]
    assert bias == 0


def test_rationalize_gcd_reduction():
    weights, bias = rationalize_weights(np.array([4.0, 8.0]), 12.0)
    assert weights == [1, 2]
    assert bias == 3


def test_rationalize_all_zero():
    weights, bias = rationalize_weights(np.array([0.0, 0.0]), 0.0)
    assert weights == [0, 0]
    assert bias == 0


def test_hyperplane_rejects_all_zero_weights():
    with pytest.raises(SynthesisError):
        Hyperplane(((Var("x"), 0),), 5)


def test_hyperplane_formula_and_accepts():
    x, y = Var("x"), Var("y")
    plane = Hyperplane(((x, 2), (y, 1)), 50)  # 2x + y + 50 > 0
    assert plane.accepts({x: 0, y: 0})
    assert not plane.accepts({x: -30, y: 0})
    formula = plane.formula()
    assert is_satisfiable(formula)
    model = get_model(formula)
    assert plane.accepts({x: model.value(x), y: model.value(y)})


def test_hyperplane_formula_matches_accepts_on_grid():
    x, y = Var("x"), Var("y")
    plane = Hyperplane(((x, 1), (y, -1)), 29)  # a1 - a2 + 29 > 0 (paper fig 4)
    from repro.smt import LinExpr, compare

    for xv in range(-40, 10, 7):
        for yv in range(-40, 10, 7):
            fixed = conj(
                [
                    compare(LinExpr.var(x), "=", LinExpr.const_expr(xv)),
                    compare(LinExpr.var(y), "=", LinExpr.const_expr(yv)),
                ]
            )
            assert is_satisfiable(conj([plane.formula(), fixed])) == plane.accepts(
                {x: xv, y: yv}
            )


def test_hyperplane_to_pred_integer_columns():
    a = Column("t", "a", INTEGER)
    b = Column("t", "b", INTEGER)
    base = pand(
        [
            Comparison(Col(a), "<", Lit.integer(10)),
            Comparison(Col(b), ">", Lit.integer(0)),
        ]
    )
    _, ctx = lower_predicate(base)
    plane = Hyperplane(((ctx.var(a), 2), (ctx.var(b), -3)), 7)
    pred = plane.to_pred(ctx)
    # 2a - 3b + 7 > 0 at (a,b)=(1,1): 6 > 0 -> True; (0,3): -2 -> False
    assert eval_pred_py(pred, {a: 1, b: 1}) is True
    assert eval_pred_py(pred, {a: 0, b: 3}) is False


def test_hyperplane_to_pred_date_columns_roundtrip():
    ship = Column("lineitem", "l_shipdate", DATE)
    commit = Column("lineitem", "l_commitdate", DATE)
    base = pand(
        [
            Comparison(Col(ship), "<", Lit.date("1993-06-01")),
            Comparison(Col(commit), ">", Lit.date("1993-01-01")),
        ]
    )
    _, ctx = lower_predicate(base)
    plane = Hyperplane(((ctx.var(ship), 1), (ctx.var(commit), -1)), 29)
    pred = plane.to_pred(ctx)
    # In var space: ship_days - commit_days + 29 > 0.
    row = {ship: dt.date(1993, 5, 1), commit: dt.date(1993, 5, 10)}
    # diff = -9 days; -9 + 29 = 20 > 0
    assert eval_pred_py(pred, row) is True
    row2 = {ship: dt.date(1993, 3, 1), commit: dt.date(1993, 5, 10)}
    # diff = -70; -70 + 29 < 0
    assert eval_pred_py(pred, row2) is False


def test_to_pred_consistent_with_formula():
    """The SQL rendering and the SMT formula agree pointwise."""
    a = Column("t", "a", INTEGER)
    b = Column("t", "b", INTEGER)
    base = Comparison(Col(a) - Col(b), "<", Lit.integer(5))
    _, ctx = lower_predicate(base)
    plane = Hyperplane(((ctx.var(a), 3), (ctx.var(b), 2)), -4)
    pred = plane.to_pred(ctx)
    for av in (-5, 0, 1, 7):
        for bv in (-5, 0, 2):
            assert (eval_pred_py(pred, {a: av, b: bv}) is True) == plane.accepts(
                {ctx.var(a): av, ctx.var(b): bv}
            )


def test_disjunction():
    x = Var("x")
    p1 = Hyperplane(((x, 1),), -10)  # x > 10
    p2 = Hyperplane(((x, -1),), -10)  # x < -10
    dis = DisjunctivePredicate((p1, p2))
    assert dis.accepts({x: 20})
    assert dis.accepts({x: -20})
    assert not dis.accepts({x: 0})
    assert is_satisfiable(dis.formula())
    assert not is_satisfiable(
        conj([dis.formula(), negate(p1.formula()), negate(p2.formula())])
    )
    assert dis.variables == (x,)


def test_disjunction_requires_planes():
    with pytest.raises(SynthesisError):
        DisjunctivePredicate(())


def test_str_rendering():
    x, y = Var("t.a"), Var("t.b")
    plane = Hyperplane(((x, 2), (y, 1)), 50)
    assert str(plane) == "2*a + b + 50 > 0"
