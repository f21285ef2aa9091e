"""The IR nodes are compact values: no instance ``__dict__``, and
attribute assignment and deletion raise.

Formula and predicate nodes are hash-consed or shared between trees, so
an in-place update to one would silently change every formula that
references it.  Every concrete node class must appear in ``SAMPLES``;
a new node class fails :func:`test_every_concrete_node_class_is_sampled`
until it is added here.
"""

import sys

import pytest

from repro.predicates import (
    Col,
    Column,
    Comparison,
    FALSE_PRED,
    INTEGER,
    Lit,
    TRUE_PRED,
)
from repro.predicates.expr import Arith, Expr, IsNull, PAnd, PNot, POr, Pred
from repro.smt import FALSE, TRUE, And, Atom, BVar, LE, LinExpr, Not, Or, Var
from repro.smt.formula import Formula

X = Var("x")
ATOM = Atom(LinExpr.var(X) - 5, LE)
B = BVar("b")
A_COL = Col(Column("t", "a", INTEGER))
CMP = Comparison(A_COL, "<", Lit.integer(5))

SAMPLES = [
    X,
    LinExpr.var(X),
    TRUE,
    FALSE,
    ATOM,
    B,
    Not(B),
    And([ATOM, B]),
    Or([ATOM, B]),
    A_COL,
    Lit.integer(5),
    Arith("+", A_COL, Lit.integer(1)),
    TRUE_PRED,
    FALSE_PRED,
    CMP,
    PAnd((CMP, IsNull(A_COL))),
    POr((CMP, IsNull(A_COL))),
    PNot(CMP),
    IsNull(A_COL),
]


def _concrete_subclasses(base):
    out = set()
    for sub in base.__subclasses__():
        # ``dataclass(slots=True)`` rebuilds the class; the pre-slots
        # original stays alive in ``__subclasses__`` but is not the
        # class its module exports.
        module = sys.modules.get(sub.__module__)
        if not sub.__module__.startswith("repro.") or (
            getattr(module, sub.__name__, None) is not sub
        ):
            continue
        if sub.__subclasses__():
            out |= _concrete_subclasses(sub)
        else:
            out.add(sub)
    return out


def test_every_concrete_node_class_is_sampled():
    concrete = (
        _concrete_subclasses(Formula)
        | _concrete_subclasses(Pred)
        | _concrete_subclasses(Expr)
    )
    sampled = {type(node) for node in SAMPLES}
    assert concrete <= sampled, sorted(c.__name__ for c in concrete - sampled)


@pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
def test_node_has_no_instance_dict(node):
    assert not hasattr(node, "__dict__")


@pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
def test_node_rejects_attribute_assignment(node):
    fields = [
        name
        for cls in type(node).__mro__
        for name in getattr(cls, "__slots__", ())
        if not name.startswith("__")
    ]
    assert fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    # A new name is refused too; the frozen ``__setattr__`` that
    # ``dataclass(slots=True)`` generates may raise TypeError for it,
    # because its ``super()`` call names the pre-slots class.
    with pytest.raises((AttributeError, TypeError)):
        setattr(node, "extra", None)
