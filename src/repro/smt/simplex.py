"""General simplex for linear rational arithmetic with strict bounds.

This follows the classic Dutertre--de Moura construction used inside
DPLL(T) solvers: every distinct linear form gets a *slack* variable,
asserted constraints become bounds on slack variables, and a
Bland's-rule pivoting loop either finds an assignment within all bounds
or reports a minimal-ish infeasible set of constraint tags.

Strict inequalities are handled symbolically with *delta-rationals*
``r + k * delta`` where ``delta`` is an infinitesimal; a concrete
positive value for ``delta`` is computed after a satisfying assignment
is found (:func:`concretize_delta`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from .formula import EQ, LE, LT, Atom
from .stats import GLOBAL_COUNTERS
from .terms import LinExpr, Var

Tag = Hashable

_ZERO = Fraction(0)


class DeltaRational:
    """A value ``real + k * delta`` for an infinitesimal ``delta > 0``.

    A value class: instances are never mutated after construction.
    """

    __slots__ = ("real", "k")

    def __init__(self, real: Fraction, k: Fraction = _ZERO) -> None:
        self.real = real
        self.k = k

    def __eq__(self, other: object) -> bool:
        if type(other) is not DeltaRational:
            return NotImplemented
        return self.real == other.real and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.real, self.k))

    def __add__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real + other.real, self.k + other.k)

    def __sub__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real - other.real, self.k - other.k)

    def scale(self, factor: Fraction) -> "DeltaRational":
        return DeltaRational(self.real * factor, self.k * factor)

    def __lt__(self, other: "DeltaRational") -> bool:
        return (self.real, self.k) < (other.real, other.k)

    def __le__(self, other: "DeltaRational") -> bool:
        return (self.real, self.k) <= (other.real, other.k)

    def __gt__(self, other: "DeltaRational") -> bool:
        return (self.real, self.k) > (other.real, other.k)

    def __ge__(self, other: "DeltaRational") -> bool:
        return (self.real, self.k) >= (other.real, other.k)

    def __repr__(self) -> str:
        if self.k == 0:
            return str(self.real)
        return f"{self.real}{'+' if self.k > 0 else '-'}{abs(self.k)}d"


DR_ZERO = DeltaRational(Fraction(0))


def _dr(real: Fraction | int, k: Fraction | int = 0) -> DeltaRational:
    return DeltaRational(Fraction(real), Fraction(k))


@functools.lru_cache(maxsize=262_144)
def _describe_atom(
    atom: Atom,
) -> tuple[str, bool] | tuple[str, Fraction, Fraction, bool]:
    """Per-atom assertion preprocessing, memoised across Simplex
    instances (the DPLL(T) loop rebuilds the tableau every round, but
    the exact-rational normalisation of each atom never changes).

    Returns ``("const", holds)`` for constant atoms, else
    ``("bound", scale, rhs, strict)`` where the constraint is
    ``slack_form op rhs`` after dividing by ``scale``.
    """
    expr = atom.expr
    if expr.is_constant:
        return ("const", atom.holds(expr.const))
    if atom.op not in (LE, LT, EQ):
        raise ValueError(f"simplex cannot assert op {atom.op!r} directly")
    scale = Fraction(1)
    if len(expr.coeffs) == 1:
        (var,) = expr.coeffs
        scale = expr.coeffs[var]
    rhs = -expr.const / scale if scale != 1 else -expr.const
    return ("bound", scale, rhs, atom.op == LT)


#: One bound an atom asserts on its slack: ``(value, mu)`` as stored in
#: :class:`_Bound`.
_BoundSpec = tuple[DeltaRational, Fraction]


@functools.lru_cache(maxsize=262_144)
def _exact_bounds(
    atom: Atom,
) -> tuple[frozenset[tuple[Var, Fraction]], _BoundSpec | None, _BoundSpec | None]:
    """The slack key, upper bound and lower bound for a
    non-constant atom, memoised like :func:`_describe_atom` so a round
    does not rebuild the same delta-rationals for every atom."""
    _, scale, rhs, strict = _describe_atom(atom)
    key = frozenset(atom.expr.coeffs.items())
    if atom.op == EQ:
        inv = Fraction(1) / scale
        return key, (_dr(rhs), inv), (_dr(rhs), -inv)
    if scale > 0:
        return key, (_dr(rhs, -1 if strict else 0), Fraction(1) / scale), None
    # Dividing by a negative scale flips the inequality.
    return key, None, (_dr(rhs, 1 if strict else 0), Fraction(-1) / scale)


class TheoryConflict(Exception):
    """An asserted constraint set is infeasible; carries the core tags.

    ``farkas`` justifies the conflict as a rational combination: a list
    of ``(coeff, tag, expr, op)`` tuples such that ``sum(coeff * expr)``
    cancels every variable and violates the combined comparison (see
    :mod:`repro.smt.proof`).  ``cert`` is the composed certificate tree
    attached by the theory layer (:mod:`repro.smt.theory`).
    """

    def __init__(
        self,
        core: frozenset[Tag],
        *,
        farkas: tuple[tuple[Fraction, Tag, LinExpr, str], ...] | None = None,
        cert: object | None = None,
    ) -> None:
        super().__init__(f"theory conflict: {sorted(map(str, core))}")
        self.core = core
        self.farkas = farkas
        self.cert = cert


@dataclass(slots=True)
class _Bound:
    """An asserted bound plus the data to rebuild its Farkas witness.

    ``mu`` is the positive-for-inequalities scalar such that the bound's
    defining inequality, rewritten over the original variables, equals
    ``mu * expr`` -- an upper bound ``v <= rhs`` is ``expr / scale <= 0``
    and a lower bound ``v >= rhs`` is ``-expr / scale <= 0``.
    """

    value: DeltaRational
    tag: Tag
    mu: Fraction
    expr: LinExpr
    op: str


class Simplex:
    """Feasibility checker for conjunctions of linear constraints.

    Usage::

        s = Simplex()
        s.assert_atom(Atom(expr, LE), tag="c1")
        model = s.check()          # {Var: DeltaRational} or TheoryConflict

    Constraints are expressed as atoms ``expr op 0`` with op in
    ``<=, <, =``.  Asserted-false atoms must be negated by the caller
    before being fed here.
    """

    def __init__(self) -> None:
        self._order: dict[Var, int] = {}  # Bland's rule ordering
        self._slack_count = 0
        self._slack_of_form: dict[frozenset[tuple[Var, Fraction]], Var] = {}
        # rows: basic -> {nonbasic: coeff}; basic = sum coeff * nonbasic
        self.rows: dict[Var, dict[Var, Fraction]] = {}
        self.lower: dict[Var, _Bound] = {}
        self.upper: dict[Var, _Bound] = {}
        self.beta: dict[Var, DeltaRational] = {}

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def _intern(self, var: Var) -> Var:
        if var not in self._order:
            self._order[var] = len(self._order)
            self.beta[var] = DR_ZERO
        return var

    def _slack_for(
        self, expr: LinExpr, key: frozenset[tuple[Var, Fraction]]
    ) -> Var:
        """Slack variable for the homogeneous part of ``expr`` (whose
        coefficient items are ``key``).

        Two constraints over the same linear form (up to the constant)
        share a slack variable, which is what lets the tableau detect
        their interaction.
        """
        slack = self._slack_of_form.get(key)
        if slack is not None:
            return slack
        if len(expr.coeffs) == 1:
            # A single-variable form c*x needs no slack row: bounds are
            # asserted directly on x after dividing by c.
            (var,) = expr.coeffs
            self._intern(var)
            self._slack_of_form[key] = var
            return var
        self._slack_count += 1
        slack = Var(f"__slack{self._slack_count}", "real")
        self._intern(slack)
        row: dict[Var, Fraction] = {}
        for var, coeff in expr.coeffs.items():
            self._intern(var)
            row[var] = coeff
        self.rows[slack] = row
        self.beta[slack] = self._row_value(row)
        self._slack_of_form[key] = slack
        return slack

    def _row_value(self, row: Mapping[Var, Fraction]) -> DeltaRational:
        total = DR_ZERO
        for var, coeff in row.items():
            total = total + self.beta[var].scale(coeff)
        return total

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def assert_atom(self, atom: Atom, tag: Tag) -> None:
        """Assert ``atom.expr atom.op 0``.  Raises TheoryConflict."""
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

    def _assert_upper(self, var: Var, new: _Bound) -> None:
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

    def _assert_lower(self, var: Var, new: _Bound) -> None:
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

    # ------------------------------------------------------------------
    # Pivoting
    # ------------------------------------------------------------------
    def _update(self, nonbasic: Var, value: DeltaRational) -> None:
        delta = value - self.beta[nonbasic]
        for basic, row in self.rows.items():
            coeff = row.get(nonbasic)
            if coeff:
                self.beta[basic] = self.beta[basic] + delta.scale(coeff)
        self.beta[nonbasic] = value

    def _pivot_and_update(self, basic: Var, nonbasic: Var, value: DeltaRational) -> None:
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

    def _pivot(self, basic: Var, nonbasic: Var) -> None:
        """Swap roles of ``basic`` (leaves) and ``nonbasic`` (enters basis)."""
        GLOBAL_COUNTERS.pivots += 1
        row = self.rows.pop(basic)
        a = row.pop(nonbasic)
        # nonbasic = (basic - sum(other coeffs)) / a
        new_row: dict[Var, Fraction] = {basic: Fraction(1) / a}
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

    # ------------------------------------------------------------------
    # Main check loop
    # ------------------------------------------------------------------
    def check(self) -> dict[Var, DeltaRational]:
        """Find an assignment within all bounds or raise TheoryConflict."""
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

    def _find_violating_basic(self) -> tuple[Var, bool] | None:
        best: tuple[int, Var, bool] | None = None
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

    def _find_entering(self, basic: Var, needs_increase: bool) -> Var | None:
        """Bland's rule: smallest-index nonbasic that can move ``basic``."""
        row = self.rows[basic]
        best: tuple[int, Var] | None = None
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

    def _can_increase(self, var: Var) -> bool:
        up = self.upper.get(var)
        return up is None or self.beta[var] < up.value

    def _can_decrease(self, var: Var) -> bool:
        low = self.lower.get(var)
        return low is None or self.beta[var] > low.value

    def _conflict(self, basic: Var, needs_increase: bool) -> TheoryConflict:
        """Conflict core plus its Farkas witness.

        The violated row reads ``basic = sum(coeff * nonbasic)``.  The
        witness combines each blocking bound's defining inequality with
        the weight the row assigns it: weight 1 on the violated bound of
        ``basic``, ``|coeff|`` on the bound of each nonbasic -- the row
        identity makes the variable parts cancel, which the independent
        auditor re-verifies over the original atom expressions.
        """
        row = self.rows[basic]
        uses: list[tuple[Fraction, _Bound]] = []
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


def _merge_farkas(
    uses: Iterable[tuple[Fraction, _Bound]],
) -> tuple[tuple[Fraction, Tag, LinExpr, str], ...]:
    """Aggregate weighted bound uses into per-tag Farkas coefficients.

    An equality atom can appear through both of its bounds in one
    conflict; its signed contributions are summed (any sign is valid
    for an ``=`` constraint).
    """
    merged: dict[Tag, tuple[Fraction, LinExpr, str]] = {}
    for weight, bound in uses:
        coeff = weight * bound.mu
        prior = merged.get(bound.tag)
        if prior is not None:
            coeff = prior[0] + coeff
        merged[bound.tag] = (coeff, bound.expr, bound.op)
    return tuple(
        (coeff, tag, expr, op) for tag, (coeff, expr, op) in merged.items()
    )


def _const_refutation(
    atom: Atom, tag: Tag
) -> tuple[Fraction, Tag, LinExpr, str]:
    """Farkas entry refuting a constant atom that evaluates to false."""
    sign = Fraction(-1) if atom.op == EQ and atom.expr.const < 0 else Fraction(1)
    return (sign, tag, atom.expr, atom.op)


def concretize_delta(
    assignment: Mapping[Var, DeltaRational],
    strict_exprs: Iterable[LinExpr],
    nonstrict_exprs: Iterable[LinExpr] = (),
) -> Fraction:
    """A concrete positive value for delta validating all asserted atoms.

    Given a delta-rational assignment that satisfies every asserted
    constraint symbolically, every ``expr < 0`` atom evaluates to
    ``r + k*delta`` with either ``r < 0`` or (``r == 0`` and ``k < 0``),
    and any delta below ``min(-r/k)`` over atoms with ``k > 0`` keeps it
    negative.  Non-strict ``expr <= 0`` atoms with ``r < 0 < k`` impose
    the same cap (``delta <= -r/k``): ignoring them can push the
    concrete point past a competing weak bound.  Also capped at 1.
    """
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
                # real + k*delta (<|<=) 0 requires delta (<|<=) -real/k.
                limit = -real / k
                if limit <= 0:
                    # delta must be positive, so a zero cap is already
                    # a symbolic violation.
                    raise AssertionError("atom infeasible at concretization")
                bound = min(bound, limit / 2 if strict else limit)
    return bound


def concrete_model(
    assignment: Mapping[Var, DeltaRational],
    strict_exprs: Iterable[LinExpr],
    nonstrict_exprs: Iterable[LinExpr] = (),
) -> dict[Var, Fraction]:
    """Substitute a concrete delta into a delta-rational assignment.

    With no delta coefficient anywhere (every pure-integer round after
    tightening) the real parts are the model and no delta is needed.
    """
    if not any(value.k for value in assignment.values()):
        return {var: value.real for var, value in assignment.items()}
    delta = concretize_delta(assignment, strict_exprs, nonstrict_exprs)
    return {var: value.real + value.k * delta for var, value in assignment.items()}
