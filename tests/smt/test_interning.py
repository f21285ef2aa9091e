"""Hash-consing invariants for terms and formulas.

Two properties carry the identity-keyed caches (memoized CNF, NNF,
linearization): structural equality must imply object identity, and the
intern tables must hold nodes weakly so one long process serving many
sessions does not accumulate dead queries' vocabularies.  The negation
memos on Atom and LinExpr must be weak too: a memo that kept a
complement alive would change which object is canonical.
"""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from repro.smt import Atom, LE, LT, LinExpr, Var, conj, disj
from repro.smt.formula import (
    _NNF_CACHE,
    EQ,
    NE,
    And,
    BVar,
    Not,
    Or,
    compare,
    to_nnf,
)
from repro.smt.session import SmtSession
from repro.smt.simplex import _describe_atom, _exact_bounds
from repro.smt.solver import SAT
from repro.smt.terms import INT, REAL, linear_combination
from repro.smt.theory import tighten


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


def test_negation_memo_does_not_pin_retracted_atoms():
    """A theory round negates every atom it sees false, and the memos
    on Atom and LinExpr keep that complement.  Once the session that
    used a retracted scope is gone, neither the atoms nor their
    negations may survive a collection: the memos are weak."""
    session = SmtSession()
    base = LinExpr.var(Var("__neg_live"))
    session.assert_base(disj([Atom(base, LE), Atom(3 - base, LE)]))
    assert session.check(assumptions=[Not(Atom(base, LE))]) == SAT
    scope = session.push(label="dies")
    dying = []
    for i in range(20):
        x = LinExpr.var(Var(f"__neg_leak_{i}"))
        below, above = Atom(x - i, LE), Atom(i + 5 - x, LE)
        scope.add(disj([below, above]))
        # Assumed false, ``below`` reaches the theory round negated.
        assert session.check(assumptions=[Not(below)]) == SAT
        dying.append(weakref.ref(below))
        dying.append(weakref.ref(below.negated()))
    scope.retract()
    session.close()
    assert session.check() == SAT
    del session, scope, x, below, above
    # The theory layer's per-atom lru caches hold atoms by design (they
    # are bounded); empty them so only the memos could keep one alive.
    for cache in (_describe_atom, _exact_bounds, tighten):
        cache.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in dying)
    assert not [name for name, _ in Var._intern if name.startswith("__neg_leak_")]


def test_memos_do_not_pin_terms():
    def negate_all():
        vars_ = [Var(f"__memo_leak_{i}") for i in range(40)]
        for i, v in enumerate(vars_):
            expr = LinExpr({v: 1}, i)
            assert -(-expr) is expr
            atom = Atom(expr, LE)
            assert atom.negated().negated() is atom
            assert Atom(expr, EQ).negated() is Atom(expr, NE)

    negate_all()
    gc.collect()
    assert not [name for name, _ in Var._intern if name.startswith("__memo_leak_")]
    assert not [
        key
        for key in LinExpr._intern
        for var, _ in key[0]
        if var.name.startswith("__memo_leak_")
    ]
    assert not [
        atom
        for atom in Atom._intern.values()
        for var in atom.expr.coeffs
        if var.name.startswith("__memo_leak_")
    ]


def test_memo_does_not_keep_complement_alive():
    """A live node must not pin its memoized complement: if it did, the
    complement's LinExpr would stay canonical longer than it does
    without the memo, and later equal expressions would take its
    coefficient order (the simplex's Bland order)."""
    x = LinExpr.var(Var("__memo_live"))
    expr = 3 * x - 2
    atom = Atom(expr, LE)
    minus, negated = weakref.ref(-expr), weakref.ref(atom.negated())
    gc.collect()
    assert minus() is None and negated() is None
    # Rebuilt on demand, and memoized again.
    assert -expr is -expr
    assert atom.negated() is atom.negated()


def test_memoized_nodes_pickle():
    x = LinExpr.var(Var("ix"))
    atom = Atom(x - 4, LE)
    expr = 2 * x + 1
    negated, minus = atom.negated(), -expr
    assert atom.negated() is negated and -expr is minus
    for node in (atom, negated, expr, minus, conj([atom, Atom(minus, LT)])):
        assert pickle.loads(pickle.dumps(node)) is node
    # The memo is not part of the pickled value; a revived node keeps
    # answering with the canonical complement.
    assert pickle.loads(pickle.dumps(atom)).negated() is negated


def test_hash_matches_equality_across_construction_paths():
    x = Var("ix")
    assert Var("ix") is x
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert hash(pickle.loads(pickle.dumps(x))) == hash(x)

    e = LinExpr({x: 2}, 3)
    paths = [
        LinExpr({x: Fraction(2)}, Fraction(3)),
        LinExpr({x: Fraction(4, 2)}, Fraction(6, 2)),
        LinExpr.var(x) * 2 + 3,
        linear_combination([(1, x), (1, x)], 3),
        -(-e),
        (e * Fraction(1, 2)) * 2,
        LinExpr({x: 2, Var("iy"): 0}, 3),
        pickle.loads(pickle.dumps(e)),
    ]
    for other in paths:
        assert other is e and other == e and hash(other) == hash(e)

    half = LinExpr({x: Fraction(1, 2)}, Fraction(-1, 3))
    assert LinExpr({x: Fraction(2, 4)}, Fraction(-2, 6)) is half
    assert hash((half * 2) / 2) == hash(half)

    atom = Atom(e, LE)
    for other in (
        Atom(LinExpr({x: Fraction(2)}, 3), LE),
        Atom(-e, LT).negated(),
        atom.negated().negated(),
        compare(LinExpr.var(x) * 2, "<=", LinExpr.const_expr(-3)),
    ):
        assert other is atom and other == atom and hash(other) == hash(atom)


def test_hash_survives_reinterning():
    """A hash is a function of the value, not of the first object that
    carried it: a node collected and rebuilt hashes the same."""

    def hashes():
        v = Var("__rehash")
        e = LinExpr({v: Fraction(3, 2)}, 7)
        return hash(v), hash(e), hash(Atom(e, LT))

    first = hashes()
    gc.collect()
    assert not [name for name, _ in Var._intern if name == "__rehash"]
    assert hashes() == first


def test_probe_keeps_scalar_type_checks():
    x = Var("ix")
    LinExpr({x: 1})
    with pytest.raises(TypeError):
        LinExpr({x: 1.0})
    with pytest.raises(TypeError):
        LinExpr({x: 1}, 0.5)
    with pytest.raises(ValueError):
        Var("ix", "float")
    with pytest.raises(ValueError):
        Atom(LinExpr.var(x), "<>")


def test_interned_nodes_hash_consistently():
    x = Var("ix")
    e1 = LinExpr({x: 1}, 2)
    e2 = LinExpr({x: Fraction(1)}, Fraction(2))
    assert hash(e1) == hash(e2) and e1 == e2
    assert len({e1, e2}) == 1
