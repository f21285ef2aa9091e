"""Hash-consing invariants for terms and formulas.

Two properties carry the identity-keyed caches (memoized CNF, NNF,
linearization): structural equality must imply object identity, and the
intern tables must hold nodes weakly so one long process serving many
sessions does not accumulate dead queries' vocabularies.
"""

import gc
import pickle
from fractions import Fraction

from repro.smt import Atom, LE, LT, LinExpr, Var, conj, disj
from repro.smt.formula import _NNF_CACHE, And, BVar, Not, Or, to_nnf
from repro.smt.session import SmtSession
from repro.smt.solver import SAT
from repro.smt.terms import INT, REAL


def test_var_structural_equality_implies_identity():
    assert Var("a") is Var("a")
    assert Var("a", REAL) is Var("a", REAL)
    assert Var("a") is not Var("a", REAL)
    assert Var("a") is not Var("b")


def test_linexpr_structural_equality_implies_identity():
    x = Var("ix")
    assert LinExpr({x: 2}, 3) is LinExpr({x: Fraction(2)}, Fraction(3))
    # Zero coefficients normalise away before interning.
    assert LinExpr({x: 0}, 3) is LinExpr.const_expr(3)
    assert LinExpr({x: 1}) is LinExpr.var(x)


def test_arithmetic_returns_canonical_instances():
    x = LinExpr.var(Var("ix"))
    assert (x + 5) - 5 is x
    assert (x * 2) / 2 is x
    assert -(-x) is x


def test_formula_nodes_intern():
    x = LinExpr.var(Var("ix"))
    assert Atom(x, LE) is Atom(x, LE)
    assert BVar("ib") is BVar("ib")
    assert Not(BVar("ib")) is Not(BVar("ib"))
    a, b = Atom(x, LE), Atom(x - 1, LT)
    assert conj([a, b]) is conj([a, b])
    assert disj([a, b]) is disj([a, b])
    # And/Or with identical args are distinct nodes.
    assert And([a, b]) is not Or([a, b])


def test_nnf_is_memoized_on_identity():
    x = LinExpr.var(Var("ix"))
    formula = Not(conj([Atom(x, LE), BVar("ib")]))
    assert to_nnf(formula) is to_nnf(formula)


def test_pickle_round_trip_reinterns():
    x = LinExpr.var(Var("ix"))
    formula = conj([Atom(x - 4, LE), disj([Not(BVar("ib")), Atom(x, LT)])])
    revived = pickle.loads(pickle.dumps(formula))
    assert revived is formula


def test_intern_tables_do_not_leak_across_sessions():
    def build():
        vars_ = [Var(f"__leak_{i}") for i in range(40)]
        return [Atom(LinExpr({v: 1}, i), LE) for i, v in enumerate(vars_)]

    atoms = build()
    assert sum(1 for name, _ in Var._intern if name.startswith("__leak_")) == 40
    del atoms
    gc.collect()
    assert not [name for name, _ in Var._intern if name.startswith("__leak_")]
    leaked_exprs = [
        key
        for key in LinExpr._intern
        for var, _ in key[0]
        if var.name.startswith("__leak_")
    ]
    assert not leaked_exprs


def test_nnf_cache_does_not_pin_its_inputs():
    """An atom already in NNF is its own NNF; caching that result must
    not keep the atom (and its LinExpr) alive once nothing else does."""

    def normalize():
        vars_ = [Var(f"__nnf_leak_{i}") for i in range(40)]
        atoms = [Atom(LinExpr({v: 1}, i), LE) for i, v in enumerate(vars_)]
        for atom in atoms:
            assert to_nnf(atom) is atom
        # A second call is served from the cache.
        assert all(to_nnf(atom) is atom for atom in atoms)

    gc.collect()
    cache_before, atoms_before = len(_NNF_CACHE), len(Atom._intern)
    normalize()
    gc.collect()
    assert len(_NNF_CACHE) <= cache_before
    assert len(Atom._intern) <= atoms_before
    assert not [name for name, _ in Var._intern if name.startswith("__nnf_leak_")]


def test_negation_cache_does_not_pin_dead_atoms():
    """A theory round caches the negation of every atom it sees false;
    retracting the atom's scope and compacting must drop those entries,
    so a long session's cache holds live atoms only.

    (The intern table cannot show this: the solver keeps every atom it
    ever registered, in both polarities, in its atom and suppression
    tables.  The cache is checked directly.)"""
    session = SmtSession()
    cache = session._solver._negations
    base = LinExpr.var(Var("__neg_live"))
    session.assert_base(disj([Atom(base, LE), Atom(3 - base, LE)]))
    assert session.check(assumptions=[Not(Atom(base, LE))]) == SAT
    live = set(cache)
    assert live
    scope = session.push(label="dies")
    dying = set()
    for i in range(20):
        x = LinExpr.var(Var(f"__neg_leak_{i}"))
        below, above = Atom(x - i, LE), Atom(i + 5 - x, LE)
        scope.add(disj([below, above]))
        # Assumed false, ``below`` reaches the theory round negated.
        assert session.check(assumptions=[Not(below)]) == SAT
        dying.add(below)
    assert dying <= set(cache)
    scope.retract()
    session.close()
    assert live <= set(cache)
    assert dying.isdisjoint(cache)
    assert session.check() == SAT


def test_interned_nodes_hash_consistently():
    x = Var("ix")
    e1 = LinExpr({x: 1}, 2)
    e2 = LinExpr({x: Fraction(1)}, Fraction(2))
    assert hash(e1) == hash(e2) and e1 == e2
    assert len({e1, e2}) == 1
