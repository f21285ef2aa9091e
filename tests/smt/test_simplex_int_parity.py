"""The int-or-Fraction simplex against the all-``Fraction`` reference.

`reference_simplex` is the simplex as it was before integral scalars
became ``int``, kept here verbatim in substance: every row coefficient,
bound, Farkas multiplier and delta-rational part is a ``Fraction``.
`Simplex` stores integral values as ``int`` instead.  The two must do
the same pivots and return the same assignment, conflict core and
Farkas witness on every conjunction, and so must `check_conjunction`
(branch and bound included) with either tableau underneath.  Models and
Farkas coefficients must leave both as ``Fraction``, never ``int`` or
``float``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.smt import EQ, INT, LE, LT, REAL, Atom, LinExpr, Var
from repro.smt import theory
from repro.smt.simplex import (
    DeltaRational,
    Simplex,
    TheoryConflict,
    concrete_model,
    concretize_delta,
)
from repro.smt.stats import GLOBAL_COUNTERS
from repro.smt.theory import SolverBudgetError, check_conjunction

# ----------------------------------------------------------------------
# The reference: the all-Fraction simplex
# ----------------------------------------------------------------------
_ZERO = Fraction(0)


class RefDeltaRational:
    __slots__ = ("real", "k")

    def __init__(self, real: Fraction, k: Fraction = _ZERO) -> None:
        self.real = real
        self.k = k

    def __add__(self, other):
        return RefDeltaRational(self.real + other.real, self.k + other.k)

    def __sub__(self, other):
        return RefDeltaRational(self.real - other.real, self.k - other.k)

    def scale(self, factor):
        return RefDeltaRational(self.real * factor, self.k * factor)

    def __lt__(self, other):
        return (self.real, self.k) < (other.real, other.k)

    def __le__(self, other):
        return (self.real, self.k) <= (other.real, other.k)

    def __gt__(self, other):
        return (self.real, self.k) > (other.real, other.k)

    def __ge__(self, other):
        return (self.real, self.k) >= (other.real, other.k)


REF_ZERO = RefDeltaRational(Fraction(0))


def _dr(real, k=0):
    return RefDeltaRational(Fraction(real), Fraction(k))


def _describe_atom(atom):
    expr = atom.expr
    if expr.is_constant:
        return ("const", atom.holds(expr.const))
    scale = Fraction(1)
    if len(expr.coeffs) == 1:
        (var,) = expr.coeffs
        scale = expr.coeffs[var]
    rhs = -expr.const / scale if scale != 1 else -expr.const
    return ("bound", scale, rhs, atom.op == LT)


def _exact_bounds(atom):
    _, scale, rhs, strict = _describe_atom(atom)
    key = frozenset(atom.expr.coeffs.items())
    if atom.op == EQ:
        inv = Fraction(1) / scale
        return key, (_dr(rhs), inv), (_dr(rhs), -inv)
    if scale > 0:
        return key, (_dr(rhs, -1 if strict else 0), Fraction(1) / scale), None
    return key, None, (_dr(rhs, 1 if strict else 0), Fraction(-1) / scale)


@dataclass(slots=True)
class _Bound:
    value: RefDeltaRational
    tag: object
    mu: Fraction
    expr: LinExpr
    op: str


def _merge_farkas(uses):
    merged = {}
    for weight, bound in uses:
        coeff = weight * bound.mu
        prior = merged.get(bound.tag)
        if prior is not None:
            coeff = prior[0] + coeff
        merged[bound.tag] = (coeff, bound.expr, bound.op)
    return tuple((coeff, tag, expr, op) for tag, (coeff, expr, op) in merged.items())


def _const_refutation(atom, tag):
    sign = Fraction(-1) if atom.op == EQ and atom.expr.const < 0 else Fraction(1)
    return (sign, tag, atom.expr, atom.op)


class ReferenceSimplex:
    """The all-``Fraction`` tableau; same interface as `Simplex`."""

    #: Tableaux built since the last reset: more than one per
    #: `check_conjunction` call means branch and bound split.
    built = 0

    def __init__(self) -> None:
        ReferenceSimplex.built += 1
        self._order = {}
        self._slack_count = 0
        self._slack_of_form = {}
        self.rows = {}
        self.lower = {}
        self.upper = {}
        self.beta = {}

    def _intern(self, var):
        if var not in self._order:
            self._order[var] = len(self._order)
            self.beta[var] = REF_ZERO
        return var

    def _slack_for(self, expr, key):
        slack = self._slack_of_form.get(key)
        if slack is not None:
            return slack
        if len(expr.coeffs) == 1:
            (var,) = expr.coeffs
            self._intern(var)
            self._slack_of_form[key] = var
            return var
        self._slack_count += 1
        slack = Var(f"__slack{self._slack_count}", "real")
        self._intern(slack)
        row = {}
        for var, coeff in expr.coeffs.items():
            self._intern(var)
            row[var] = coeff
        self.rows[slack] = row
        total = REF_ZERO
        for var, coeff in row.items():
            total = total + self.beta[var].scale(coeff)
        self.beta[slack] = total
        self._slack_of_form[key] = slack
        return slack

    def assert_atom(self, atom, tag):
        descriptor = _describe_atom(atom)
        if descriptor[0] == "const":
            if not descriptor[1]:
                raise TheoryConflict(
                    frozenset([tag]), farkas=(_const_refutation(atom, tag),)
                )
            return
        key, upper, lower = _exact_bounds(atom)
        expr = atom.expr
        slack = self._slack_for(expr, key)
        if upper is not None:
            self._assert_upper(slack, _Bound(upper[0], tag, upper[1], expr, atom.op))
        if lower is not None:
            self._assert_lower(slack, _Bound(lower[0], tag, lower[1], expr, atom.op))

    def _assert_upper(self, var, new):
        value = new.value
        low = self.lower.get(var)
        if low is not None and value < low.value:
            raise TheoryConflict(
                frozenset([new.tag, low.tag]),
                farkas=_merge_farkas([(Fraction(1), new), (Fraction(1), low)]),
            )
        up = self.upper.get(var)
        if up is not None and up.value <= value:
            return
        self.upper[var] = new
        if var not in self.rows and self.beta[var] > value:
            self._update(var, value)

    def _assert_lower(self, var, new):
        value = new.value
        up = self.upper.get(var)
        if up is not None and up.value < value:
            raise TheoryConflict(
                frozenset([new.tag, up.tag]),
                farkas=_merge_farkas([(Fraction(1), new), (Fraction(1), up)]),
            )
        low = self.lower.get(var)
        if low is not None and low.value >= value:
            return
        self.lower[var] = new
        if var not in self.rows and self.beta[var] < value:
            self._update(var, value)

    def _update(self, nonbasic, value):
        delta = value - self.beta[nonbasic]
        for basic, row in self.rows.items():
            coeff = row.get(nonbasic)
            if coeff:
                self.beta[basic] = self.beta[basic] + delta.scale(coeff)
        self.beta[nonbasic] = value

    def _pivot_and_update(self, basic, nonbasic, value):
        row = self.rows[basic]
        a = row[nonbasic]
        theta = (value - self.beta[basic]).scale(Fraction(1) / a)
        self.beta[basic] = value
        self.beta[nonbasic] = self.beta[nonbasic] + theta
        for other_basic, other_row in self.rows.items():
            if other_basic is basic:
                continue
            coeff = other_row.get(nonbasic)
            if coeff:
                self.beta[other_basic] = self.beta[other_basic] + theta.scale(coeff)
        self._pivot(basic, nonbasic)

    def _pivot(self, basic, nonbasic):
        GLOBAL_COUNTERS.pivots += 1
        row = self.rows.pop(basic)
        a = row.pop(nonbasic)
        new_row = {basic: Fraction(1) / a}
        for var, coeff in row.items():
            new_row[var] = -coeff / a
        self.rows[nonbasic] = new_row
        for other_basic in list(self.rows):
            if other_basic is nonbasic:
                continue
            other_row = self.rows[other_basic]
            coeff = other_row.pop(nonbasic, None)
            if coeff is None or coeff == 0:
                continue
            for var, sub_coeff in new_row.items():
                merged = other_row.get(var, Fraction(0)) + coeff * sub_coeff
                if merged == 0:
                    other_row.pop(var, None)
                else:
                    other_row[var] = merged

    def check(self):
        while True:
            violating = self._find_violating_basic()
            if violating is None:
                return {
                    var: self.beta[var]
                    for var in self._order
                    if not var.name.startswith("__slack")
                }
            basic, needs_increase = violating
            target = (
                self.lower[basic].value if needs_increase else self.upper[basic].value
            )
            entering = self._find_entering(basic, needs_increase)
            if entering is None:
                raise self._conflict(basic, needs_increase)
            self._pivot_and_update(basic, entering, target)

    def _find_violating_basic(self):
        best = None
        for basic in self.rows:
            value = self.beta[basic]
            low = self.lower.get(basic)
            if low is not None and value < low.value:
                cand = (self._order[basic], basic, True)
                if best is None or cand[0] < best[0]:
                    best = cand
                continue
            up = self.upper.get(basic)
            if up is not None and value > up.value:
                cand = (self._order[basic], basic, False)
                if best is None or cand[0] < best[0]:
                    best = cand
        if best is None:
            return None
        return best[1], best[2]

    def _find_entering(self, basic, needs_increase):
        row = self.rows[basic]
        best = None
        for nonbasic, coeff in row.items():
            if coeff == 0:
                continue
            if needs_increase:
                movable = (coeff > 0 and self._can_increase(nonbasic)) or (
                    coeff < 0 and self._can_decrease(nonbasic)
                )
            else:
                movable = (coeff > 0 and self._can_decrease(nonbasic)) or (
                    coeff < 0 and self._can_increase(nonbasic)
                )
            if movable:
                cand = (self._order[nonbasic], nonbasic)
                if best is None or cand[0] < best[0]:
                    best = cand
        return None if best is None else best[1]

    def _can_increase(self, var):
        up = self.upper.get(var)
        return up is None or self.beta[var] < up.value

    def _can_decrease(self, var):
        low = self.lower.get(var)
        return low is None or self.beta[var] > low.value

    def _conflict(self, basic, needs_increase):
        row = self.rows[basic]
        uses = []
        if needs_increase:
            uses.append((Fraction(1), self.lower[basic]))
            for nonbasic, coeff in row.items():
                if coeff > 0:
                    uses.append((coeff, self.upper[nonbasic]))
                elif coeff < 0:
                    uses.append((-coeff, self.lower[nonbasic]))
        else:
            uses.append((Fraction(1), self.upper[basic]))
            for nonbasic, coeff in row.items():
                if coeff > 0:
                    uses.append((coeff, self.lower[nonbasic]))
                elif coeff < 0:
                    uses.append((-coeff, self.upper[nonbasic]))
        return TheoryConflict(
            frozenset(bound.tag for _, bound in uses),
            farkas=_merge_farkas(uses),
        )


def reference_concretize_delta(assignment, strict_exprs, nonstrict_exprs=()):
    bound = Fraction(1)
    for strict, exprs in ((True, strict_exprs), (False, nonstrict_exprs)):
        for expr in exprs:
            real = expr.const
            k = Fraction(0)
            for var, coeff in expr.coeffs.items():
                value = assignment[var]
                real += coeff * value.real
                k += coeff * value.k
            if k > 0:
                limit = -real / k
                if limit <= 0:
                    raise AssertionError("atom infeasible at concretization")
                bound = min(bound, limit / 2 if strict else limit)
    return bound


def reference_concrete_model(assignment, strict_exprs, nonstrict_exprs=()):
    if not any(value.k for value in assignment.values()):
        return {var: value.real for var, value in assignment.items()}
    delta = reference_concretize_delta(assignment, strict_exprs, nonstrict_exprs)
    return {var: value.real + value.k * delta for var, value in assignment.items()}


# ----------------------------------------------------------------------
# Running either tableau
# ----------------------------------------------------------------------
def run_tableau(tableau, model_of, atoms):
    """Assert ``atoms`` (tag = index) and check.  Returns the outcome
    and the pivots it took: ``("sat", {var: (real, k)}, concrete)`` or
    ``("unsat", core, farkas)``."""
    pivots = GLOBAL_COUNTERS.pivots
    simplex = tableau()
    try:
        for index, atom in enumerate(atoms):
            simplex.assert_atom(atom, index)
        assignment = simplex.check()
    except TheoryConflict as conflict:
        outcome = ("unsat", conflict.core, conflict.farkas)
    else:
        strict = [atom.expr for atom in atoms if atom.op == LT]
        nonstrict = [atom.expr for atom in atoms if atom.op == LE]
        outcome = (
            "sat",
            {var: (value.real, value.k) for var, value in assignment.items()},
            model_of(assignment, strict, nonstrict),
        )
    return outcome, GLOBAL_COUNTERS.pivots - pivots


def reference_simplex(atoms):
    """`run_tableau` on the all-``Fraction`` reference."""
    return run_tableau(ReferenceSimplex, reference_concrete_model, atoms)


#: Branch-and-bound budget: unbounded integer slivers would otherwise
#: spend the default 4000 nodes on each of both tableaux.
MAX_NODES = 64


def run_conjunction(atoms):
    """`check_conjunction` (tightening, branch and bound) on the
    current tableau: the outcome, with the certificate's ``repr``, and
    the pivots it took."""
    pivots = GLOBAL_COUNTERS.pivots
    try:
        model = check_conjunction(
            [(atom, i) for i, atom in enumerate(atoms)], max_nodes=MAX_NODES
        )
    except TheoryConflict as conflict:
        outcome = ("unsat", conflict.core, repr(conflict.cert))
    except SolverBudgetError:
        outcome = ("budget",)
    else:
        outcome = ("sat", model)
    return outcome, GLOBAL_COUNTERS.pivots - pivots


def reference_conjunction(atoms):
    """`run_conjunction` with the reference tableau under the theory."""
    with mock.patch.object(theory, "Simplex", ReferenceSimplex), mock.patch.object(
        theory, "concrete_model", reference_concrete_model
    ):
        return run_conjunction(atoms)


def assert_fraction_values(values):
    assert all(type(value) is Fraction for value in values), values


def assert_same_tableau(atoms):
    got, got_pivots = run_tableau(Simplex, concrete_model, atoms)
    want, want_pivots = reference_simplex(atoms)
    assert got == want
    assert got_pivots == want_pivots
    if got[0] == "sat":
        assert_fraction_values(got[2].values())
    else:
        assert_fraction_values([coeff for coeff, *_ in got[2]])


def assert_same_conjunction(atoms):
    got, got_pivots = run_conjunction(atoms)
    want, want_pivots = reference_conjunction(atoms)
    assert got == want
    assert got_pivots == want_pivots
    if got[0] == "sat":
        assert_fraction_values(got[1].values())


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
M = Var("pi", INT)
N = Var("pj", INT)
X = Var("px", REAL)
Y = Var("py", REAL)

coeffs = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([64, -64, Fraction(1, 3), Fraction(-2, 3), Fraction(5, 2)]),
)
consts = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=6),
)


@st.composite
def atoms(draw, variables):
    chosen = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True))
    expr = LinExpr({var: draw(coeffs) for var in chosen}, draw(consts))
    return Atom(expr, draw(st.sampled_from([LE, LT, EQ])))


def conjunction(variables):
    return st.lists(atoms(variables), min_size=1, max_size=7)


def A(coeff_map, const, op):
    return Atom(LinExpr(coeff_map, const), op)


#: A 64:1 hyperplane cut by a strict bound and a 1/3-scaled equality.
HYPERPLANE = [
    A({X: 64, Y: -1}, -3, LE),
    A({X: -64, Y: 1}, 0, LT),
    A({X: Fraction(1, 3), Y: 1}, -7, EQ),
    A({X: -1}, Fraction(-1, 2), LE),
]
#: Negative scales: -2x <= 5 and -3y < -4 are lower bounds.
NEGATIVE_SCALES = [
    A({X: -2}, -5, LE),
    A({Y: -3}, 4, LT),
    A({X: 1, Y: 1}, -1, LE),
]
#: i + j = 3 and i - j = 0 have only the rational point (3/2, 3/2):
#: branch and bound refutes both sides of the split.
SPLIT_UNSAT = [A({M: 1, N: 1}, -3, EQ), A({M: 1, N: -1}, 0, EQ)]
#: 2i + 3j = 7 with j >= 0 and i <= 3 relaxes to a fractional point;
#: the integer point (2, 1) exists, so branch and bound finds it.
SPLIT_SAT = [A({M: 2, N: 3}, -7, EQ), A({N: -1}, 0, LE), A({M: 1}, -3, LE)]


@settings(max_examples=300, deadline=None)
@given(atoms=conjunction([X, Y, M, N]))
@example(atoms=HYPERPLANE)
@example(atoms=NEGATIVE_SCALES)
@example(atoms=SPLIT_UNSAT)
@example(atoms=SPLIT_SAT)
def test_simplex_matches_reference(atoms):
    assert_same_tableau(atoms)


@settings(max_examples=200, deadline=None)
@given(atoms=conjunction([M, N, X]))
@example(atoms=HYPERPLANE)
@example(atoms=NEGATIVE_SCALES)
@example(atoms=SPLIT_UNSAT)
@example(atoms=SPLIT_SAT)
def test_check_conjunction_matches_reference(atoms):
    assert_same_conjunction(atoms)


def test_examples_cover_branch_and_bound_and_both_verdicts():
    for atoms, verdict in (
        (SPLIT_UNSAT, "unsat"),
        (SPLIT_SAT, "sat"),
        (HYPERPLANE, "sat"),
        (NEGATIVE_SCALES, "sat"),
    ):
        ReferenceSimplex.built = 0
        outcome, _ = reference_conjunction(atoms)
        assert outcome[0] == verdict
        split = ReferenceSimplex.built > 1
        assert split == (atoms in (SPLIT_UNSAT, SPLIT_SAT))
    assert "SplitCert" in reference_conjunction(SPLIT_UNSAT)[0][2]


def test_integral_tableau_holds_ints_and_hands_out_fractions():
    atoms = SPLIT_SAT + [A({M: 1, N: 1}, -10, LT)]
    simplex = Simplex()
    for index, atom in enumerate(atoms):
        simplex.assert_atom(atom, index)
    assignment = simplex.check()
    scalars = [coeff for row in simplex.rows.values() for coeff in row.values()]
    scalars += [part for value in simplex.beta.values() for part in (value.real, value.k)]
    assert not [s for s in scalars if type(s) is Fraction and s.denominator == 1]
    assert not [s for s in scalars if type(s) is float]
    model = concrete_model(assignment, [atoms[3].expr], [atoms[2].expr])
    assert_fraction_values(model.values())


def test_concretize_delta_of_int_parts_is_a_fraction():
    # x = 3 + delta with x < 4: the cap is -(3 - 4) / 1 halved.
    assignment = {X: DeltaRational(3, 1)}
    delta = concretize_delta(assignment, [LinExpr({X: 1}, -4)])
    assert type(delta) is Fraction and delta == Fraction(1, 2)
    # k = 3: an int division here would give a float.
    assignment = {X: DeltaRational(1, 3)}
    delta = concretize_delta(assignment, [], [LinExpr({X: 1}, -2)])
    assert type(delta) is Fraction and delta == Fraction(1, 3)
    model = concrete_model(assignment, [], [LinExpr({X: 1}, -2)])
    assert_fraction_values(model.values())
