"""Unit tests for linear expressions and variables."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.smt import INT, REAL, LinExpr, Var, linear_combination

X = Var("x")
Y = Var("y")
Z = Var("z", REAL)


def test_var_sorts():
    assert X.is_int
    assert not Z.is_int
    with pytest.raises(ValueError):
        Var("w", "complex")


def test_var_structural_identity():
    assert Var("x") == Var("x")
    assert Var("x") != Var("x", REAL)
    assert len({Var("a"), Var("a"), Var("b")}) == 2


def test_linexpr_zero_coefficients_dropped():
    expr = LinExpr({X: 1, Y: 0}, 3)
    assert expr.variables() == {X}
    assert expr.coeff(Y) == 0


def test_linexpr_arithmetic():
    expr = LinExpr.var(X) * 2 + LinExpr.var(Y) - 5
    assert expr.coeff(X) == 2
    assert expr.coeff(Y) == 1
    assert expr.const == -5
    doubled = expr * 2
    assert doubled.coeff(X) == 4
    assert doubled.const == -10
    halved = doubled / 2
    assert halved == expr


def test_linexpr_sub_and_neg():
    a = LinExpr.var(X) + 3
    b = LinExpr.var(X) - 1
    diff = a - b
    assert diff.is_constant
    assert diff.const == 4
    assert (-a).coeff(X) == -1


def test_linexpr_rsub():
    expr = 10 - LinExpr.var(X)
    assert expr.coeff(X) == -1
    assert expr.const == 10


def test_linexpr_evaluate():
    expr = LinExpr({X: 2, Y: -1}, 7)
    assert expr.evaluate({X: 3, Y: 4}) == 2 * 3 - 4 + 7


def test_linexpr_substitute():
    expr = LinExpr({X: 2, Y: 1}, 0)
    replaced = expr.substitute(X, LinExpr.var(Y) + 1)
    # 2*(y+1) + y = 3y + 2
    assert replaced.coeff(Y) == 3
    assert replaced.const == 2
    assert X not in replaced.coeffs


def test_linexpr_substitute_absent_var_is_identity():
    expr = LinExpr({Y: 1})
    assert expr.substitute(X, LinExpr.const_expr(5)) is expr


def test_scaled_integral():
    expr = LinExpr({X: Fraction(1, 2), Y: Fraction(2, 3)}, Fraction(1, 6))
    scaled = expr.scaled_integral()
    assert scaled.coeff(X) == 3
    assert scaled.coeff(Y) == 4
    assert scaled.const == 1


def test_content():
    expr = LinExpr({X: 4, Y: -6}, 3)
    assert expr.content() == 2
    assert LinExpr.const_expr(5).content() == 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        LinExpr.var(X) / 0


def test_immutability():
    expr = LinExpr.var(X)
    with pytest.raises(AttributeError):
        expr.const = Fraction(1)


def test_linear_combination():
    expr = linear_combination([(2, X), (3, X), (-1, Y)], 4)
    assert expr.coeff(X) == 5
    assert expr.coeff(Y) == -1
    assert expr.const == 4


def test_repr_smoke():
    expr = LinExpr({X: 2, Y: -1}, 7)
    text = repr(expr)
    assert "x" in text and "y" in text


coeff_st = st.integers(min_value=-20, max_value=20)
vals_st = st.integers(min_value=-100, max_value=100)


@given(a=coeff_st, b=coeff_st, c=coeff_st, x=vals_st, y=vals_st)
def test_evaluate_is_linear(a, b, c, x, y):
    expr = LinExpr({X: a, Y: b}, c)
    assert expr.evaluate({X: x, Y: y}) == a * x + b * y + c


@given(a=coeff_st, b=coeff_st, k=st.integers(min_value=-10, max_value=10))
def test_scale_distributes(a, b, k):
    expr = LinExpr({X: a}, b)
    scaled = expr * k
    assert scaled.evaluate({X: 7}) == k * expr.evaluate({X: 7})


@given(a=coeff_st, b=coeff_st, c=coeff_st, d=coeff_st)
def test_addition_commutes(a, b, c, d):
    e1 = LinExpr({X: a}, b)
    e2 = LinExpr({Y: c}, d)
    assert e1 + e2 == e2 + e1


def test_int_plus_expr():
    expr = 5 + LinExpr.var(X)
    assert expr.const == 5


def test_hash_consistency():
    e1 = LinExpr({X: 2, Y: 3}, 1)
    e2 = LinExpr({Y: 3, X: 2}, 1)
    assert e1 == e2
    assert hash(e1) == hash(e2)


def test_linexpr_does_not_alias_the_callers_map():
    """An expression owns its coefficient map: neither the caller's
    dict nor another interned expression shares it, so no later write
    to one can change the other."""
    coeffs = {X: Fraction(2), Y: Fraction(3)}
    expr = LinExpr(coeffs, 1)
    coeffs[X] = Fraction(7)
    assert expr.coeff(X) == 2
    assert expr.coeffs is not coeffs
    shifted = expr + 1
    assert shifted.coeffs is not expr.coeffs
    assert shifted.coeffs == expr.coeffs
