"""Additional property tests: delta-rationals and model concretization."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.smt import LE, LT, Atom, LinExpr, REAL, Var
from repro.smt.simplex import (
    DeltaRational,
    Simplex,
    TheoryConflict,
    concrete_model,
    concretize_delta,
)

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=16)


@given(a=fracs, b=fracs, c=fracs, d=fracs)
def test_delta_rational_ordering_is_lexicographic(a, b, c, d):
    x = DeltaRational(a, b)
    y = DeltaRational(c, d)
    assert (x < y) == ((a, b) < (c, d))
    assert (x <= y) == ((a, b) <= (c, d))


@given(a=fracs, b=fracs, c=fracs, d=fracs, k=fracs)
def test_delta_rational_arithmetic(a, b, c, d, k):
    x = DeltaRational(a, b)
    y = DeltaRational(c, d)
    total = x + y
    assert total.real == a + c and total.k == b + d
    diff = x - y
    assert diff.real == a - c and diff.k == b - d
    scaled = x.scale(k)
    assert scaled.real == a * k and scaled.k == b * k


@settings(max_examples=50, deadline=None)
@given(
    bounds=st.lists(
        st.tuples(
            st.sampled_from(["<", "<="]),
            st.integers(min_value=-40, max_value=40),
            st.booleans(),  # upper or lower
        ),
        min_size=1,
        max_size=10,
    )
)
# Non-strict bounds only: no value carries a delta coefficient.
@example(bounds=[("<=", 3, True), ("<=", -2, False)])
def test_concretized_models_satisfy_strict_bounds(bounds):
    """Whatever mix of strict/non-strict one-variable bounds is
    feasible, the concrete model (after substituting delta) satisfies
    every original constraint exactly, and equals the substitution of
    the concretized delta even where no delta is needed."""
    x = Var("x", REAL)
    ex = LinExpr.var(x)
    simplex = Simplex()
    atoms = []
    try:
        for index, (op, value, is_upper) in enumerate(bounds):
            expr = ex - value if is_upper else value - ex
            atom = Atom(expr, LT if op == "<" else LE)
            atoms.append(atom)
            simplex.assert_atom(atom, index)
        assignment = simplex.check()
    except TheoryConflict:
        return
    strict = [a.expr for a in atoms if a.op == LT]
    model = concrete_model(assignment, strict)
    delta = concretize_delta(assignment, strict)
    assert model == {
        var: value.real + value.k * delta for var, value in assignment.items()
    }
    for atom in atoms:
        value = atom.expr.evaluate({x: model[x]})
        assert atom.holds(value), (atom, model[x])


@settings(max_examples=30, deadline=None)
@given(
    uppers=st.lists(st.integers(-30, 30), min_size=1, max_size=5),
    lowers=st.lists(st.integers(-30, 30), min_size=1, max_size=5),
)
def test_interval_feasibility_matches_arithmetic(uppers, lowers):
    """x <= min(uppers) and x >= max(lowers): feasible iff they meet."""
    x = Var("x", REAL)
    ex = LinExpr.var(x)
    simplex = Simplex()
    try:
        for i, u in enumerate(uppers):
            simplex.assert_atom(Atom(ex - u, LE), ("u", i))
        for i, l in enumerate(lowers):
            simplex.assert_atom(Atom(l - ex, LE), ("l", i))
        simplex.check()
        feasible = True
    except TheoryConflict:
        feasible = False
    assert feasible == (max(lowers) <= min(uppers))
