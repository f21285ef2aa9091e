"""Invariant-checker tests: well-formed trees pass; trees corrupted by
bypassing the constructors are caught with the right rule ID."""

from fractions import Fraction

from repro.analysis import check_formula, check_pred
from repro.predicates import Col, Column, Comparison, Lit, PNot, pand
from repro.predicates.expr import INTEGER, PAnd
from repro.smt import Atom, LE, LinExpr, Var, conj, disj, le, lt, negate
from repro.smt.formula import And

X = Var("x")
Y = Var("y")
COL_X = Col(Column("t", "x", INTEGER))
COL_Y = Col(Column("t", "y", INTEGER))


def _rules(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Clean trees
# ----------------------------------------------------------------------
def test_wellformed_formula_is_clean():
    formula = conj(
        [
            le(LinExpr.var(X), LinExpr.const_expr(5)),
            disj(
                [
                    lt(LinExpr.var(Y), LinExpr.var(X)),
                    negate(le(LinExpr.var(Y), LinExpr.const_expr(0))),
                ]
            ),
        ]
    )
    assert check_formula(formula) == []


def test_wellformed_pred_is_clean():
    pred = pand(
        [
            Comparison(COL_X, "<", Lit.integer(5)),
            PNot(Comparison(COL_Y, ">=", COL_X)),
        ]
    )
    assert check_pred(pred) == []


def test_shared_immutable_subtrees_are_allowed():
    # Formulas are DAGs by design: the same atom under two parents is
    # legitimate sharing, not aliasing.
    atom = le(LinExpr.var(X), LinExpr.const_expr(5))
    formula = disj([conj([atom, lt(LinExpr.var(Y), LinExpr.var(X))]), negate(atom)])
    assert check_formula(formula) == []


# ----------------------------------------------------------------------
# Corrupted trees (constructors bypassed on purpose)
#
# Formula nodes are hash-consed: the constructors return canonical
# shared instances, so mutating one in place would poison the intern
# table for every later test (and every later formula in the process).
# Corruption therefore happens on *detached* clones built with
# object.__new__, which never enter the intern tables.
# ----------------------------------------------------------------------
def _detached_expr(expr):
    clone = object.__new__(LinExpr)
    object.__setattr__(clone, "coeffs", dict(expr.coeffs))
    object.__setattr__(clone, "const", expr.const)
    object.__setattr__(clone, "_hash", expr._hash)
    object.__setattr__(clone, "_neg", None)
    return clone


def _detached_atom(atom):
    clone = object.__new__(Atom)
    object.__setattr__(clone, "expr", _detached_expr(atom.expr))
    object.__setattr__(clone, "op", atom.op)
    # Interned atoms carry their hash and negation memo from __new__,
    # which a detached clone skips.
    object.__setattr__(clone, "_hash", atom._hash)
    object.__setattr__(clone, "_neg", None)
    return clone


def _detached_and(args):
    args = tuple(args)
    clone = object.__new__(And)
    object.__setattr__(clone, "args", args)
    object.__setattr__(clone, "_hash", hash(("And", args)))
    return clone



def test_arity_violation_is_caught():
    starved = And([le(LinExpr.var(X), LinExpr.const_expr(5))])
    assert "SIA101" in _rules(check_formula(starved))
    starved_pred = PAnd((Comparison(COL_X, "<", Lit.integer(5)),))
    assert "SIA101" in _rules(check_pred(starved_pred))


def test_unknown_atom_operator_is_caught():
    atom = _detached_atom(Atom(LinExpr.var(X), LE))
    object.__setattr__(atom, "op", "LIKE")
    assert "SIA101" in _rules(check_formula(atom))


def test_float_coefficient_is_caught():
    atom = _detached_atom(Atom(LinExpr.var(X), LE))
    object.__setattr__(atom.expr, "coeffs", {X: 0.5})
    assert "SIA102" in _rules(check_formula(atom))


def test_float_constant_term_is_caught():
    atom = _detached_atom(Atom(LinExpr.var(X), LE))
    object.__setattr__(atom.expr, "const", 0.25)
    assert "SIA102" in _rules(check_formula(atom))


def test_bool_coefficient_is_caught():
    atom = _detached_atom(Atom(LinExpr.var(X), LE))
    object.__setattr__(atom.expr, "coeffs", {X: True})
    assert "SIA102" in _rules(check_formula(atom))


def test_mistyped_literal_is_caught():
    lit = Lit.integer(5)
    object.__setattr__(lit, "value", 5.0)
    pred = Comparison(COL_X, "<", lit)
    assert "SIA102" in _rules(check_pred(pred))


def test_aliased_coefficient_map_is_caught():
    a1 = _detached_atom(Atom(LinExpr({X: 1}, 0), LE))
    a2 = _detached_atom(Atom(LinExpr({X: 2}, 1), LE))
    object.__setattr__(a2.expr, "coeffs", a1.expr.coeffs)
    formula = _detached_and([a1, a2])
    assert "SIA103" in _rules(check_formula(formula))


def test_cycle_is_caught():
    inner = PNot(Comparison(COL_X, "<", Lit.integer(5)))
    object.__setattr__(inner, "arg", inner)
    assert "SIA104" in _rules(check_pred(inner))


def test_formula_cycle_is_caught():
    node = _detached_and(
        [
            le(LinExpr.var(X), LinExpr.const_expr(5)),
            le(LinExpr.var(Y), LinExpr.const_expr(5)),
        ]
    )
    object.__setattr__(node, "args", (node, le(LinExpr.var(X), LinExpr.const_expr(5))))
    assert "SIA104" in _rules(check_formula(node))


def test_foreign_object_is_caught():
    polluted = _detached_and([le(LinExpr.var(X), LinExpr.const_expr(5)), "not a formula"])
    assert "SIA102" in _rules(check_formula(polluted))


def test_exact_fraction_coefficients_are_clean():
    atom = Atom(LinExpr({X: Fraction(1, 3), Y: 2}, Fraction(-7, 2)), LE)
    assert check_formula(atom) == []
