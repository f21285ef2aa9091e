"""Float-arithmetic simplex: the fast, unsound first tier.

This is the same Dutertre--de Moura tableau as :mod:`repro.smt.simplex`
-- identical pivoting structure, Bland's rule, delta-rationals for
strict bounds -- but every cell is a machine ``float`` and every bound
test is epsilon-guarded.  Its verdicts are **advisory only**: the
two-tier orchestrator (:mod:`repro.smt.backend`) re-confirms every
float verdict in exact Fraction arithmetic before anything downstream
sees it, so this module may be aggressively fast and occasionally
wrong without ever compromising soundness.  No value produced here
reaches :mod:`repro.smt.proof` or :mod:`repro.analysis.certify`.

Epsilon policy (see docs/INTERNALS.md, "Two-tier numeric core"):

* Bound comparisons are *lenient*: a value within ``eps`` of a bound
  counts as satisfying it, so rounding noise biases the float tier
  toward SAT -- the cheap-to-confirm direction (a candidate model
  check is linear; refuting a bogus conflict costs a full exact solve).
* ``eps`` is absolute plus relative (``ABS_EPS + REL_EPS * |value|``)
  so the guard survives the huge-coefficient tableaux the CEGIS
  workload produces.
* Pivot elements smaller than ``PIVOT_EPS`` in magnitude are treated
  as zero: dividing by them would amplify rounding error past any
  useful epsilon.
* Non-finite cells (overflow to ``inf``/``nan``) and pivot-count
  blowups abandon the tier entirely (:class:`FloatTierGiveUp`) rather
  than risk a non-terminating loop -- Bland's rule only guarantees
  termination under *exact* comparisons.

Each asserted bound keeps its exact :class:`~repro.smt.simplex
.DeltaRational` value alongside the float image, so the orchestrator
can snap a float model back onto exact bound values when confirming a
SAT candidate.
"""
# sia: allow-float -- this entire module is the sanctioned float tier:
# machine-float tableau cells and epsilon guards are its whole point.
# The lint layer carves it out of the exact zone (FLOAT_TIER_ZONE in
# repro.analysis.lint); every other smt/ module stays exact.

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

from .formula import Atom
from .simplex import DeltaRational, _describe_atom, _exact_bounds
from .stats import GLOBAL_COUNTERS
from .terms import LinExpr, Var

Tag = Hashable

__all__ = [
    "ABS_EPS",
    "REL_EPS",
    "PIVOT_EPS",
    "FloatConflict",
    "FloatTierGiveUp",
    "FloatDelta",
    "FloatSimplex",
]

#: Absolute comparison slack.
ABS_EPS = 1e-9
#: Relative comparison slack (scales with operand magnitude).
REL_EPS = 1e-9
#: Pivot elements below this magnitude are treated as structural zeros.
PIVOT_EPS = 1e-11
#: Pivots per check before the tier gives up (termination guard).
_MAX_PIVOTS = 100_000


class FloatConflict(Exception):
    """The float tier *suspects* the asserted set is infeasible.

    ``core`` is the suspected Farkas row set (constraint tags).  This
    is advisory: the exact tier re-derives (or refutes) the certificate
    from Fractions before UNSAT is reported anywhere.
    """

    def __init__(self, core: frozenset[Tag]) -> None:
        super().__init__(f"float-tier conflict: {sorted(map(str, core))}")
        self.core = core


class FloatTierGiveUp(Exception):
    """The float tier abandoned the check (overflow / pivot blowup)."""


class FloatDelta:
    """Float image of a delta-rational: ``real + k * delta``.

    A value class: instances are never mutated after construction.
    """

    __slots__ = ("real", "k")

    def __init__(self, real: float, k: float = 0.0) -> None:
        self.real = real
        self.k = k

    def __eq__(self, other: object) -> bool:
        if type(other) is not FloatDelta:
            return NotImplemented
        return self.real == other.real and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.real, self.k))

    def __add__(self, other: "FloatDelta") -> "FloatDelta":
        return FloatDelta(self.real + other.real, self.k + other.k)

    def __sub__(self, other: "FloatDelta") -> "FloatDelta":
        return FloatDelta(self.real - other.real, self.k - other.k)

    def scale(self, factor: float) -> "FloatDelta":
        return FloatDelta(self.real * factor, self.k * factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.k == 0.0:
            return str(self.real)
        return f"{self.real}{'+' if self.k > 0 else '-'}{abs(self.k)}d"


FD_ZERO = FloatDelta(0.0)


def _eps(a: float, b: float) -> float:
    return ABS_EPS + REL_EPS * max(abs(a), abs(b))


def _lt(a: FloatDelta, b: FloatDelta) -> bool:
    """``a < b`` with lenient (eps-guarded) tie handling."""
    eps = _eps(a.real, b.real)
    if a.real < b.real - eps:
        return True
    if a.real > b.real + eps:
        return False
    return a.k < b.k - ABS_EPS


def _gt(a: FloatDelta, b: FloatDelta) -> bool:
    return _lt(b, a)


def _fd(value: DeltaRational) -> FloatDelta:
    return FloatDelta(float(value.real), float(value.k))


@dataclass(slots=True)
class _FloatBound:
    """A bound in both float image and exact form.

    ``exact`` is the precise :class:`DeltaRational` the bound was
    asserted with; the orchestrator snaps candidate models onto it.
    """

    value: FloatDelta
    exact: DeltaRational
    tag: Tag


class FloatSimplex:
    """Epsilon-guarded float clone of :class:`repro.smt.simplex.Simplex`.

    Structurally identical to the exact implementation: slack variables
    per distinct linear form, bounds on slacks, Bland's-rule pivoting.
    Raises :class:`FloatConflict` (advisory) instead of
    ``TheoryConflict`` and :class:`FloatTierGiveUp` when numerics or
    the pivot budget make the run untrustworthy.
    """

    def __init__(self) -> None:
        self._order: dict[Var, int] = {}
        self._slack_count = 0
        self._slack_of_form: dict[frozenset[tuple[Var, Fraction]], Var] = {}
        self.rows: dict[Var, dict[Var, float]] = {}
        self.lower: dict[Var, _FloatBound] = {}
        self.upper: dict[Var, _FloatBound] = {}
        self.beta: dict[Var, FloatDelta] = {}

    # ------------------------------------------------------------------
    # Variable management (mirrors Simplex)
    # ------------------------------------------------------------------
    def _intern(self, var: Var) -> Var:
        if var not in self._order:
            self._order[var] = len(self._order)
            self.beta[var] = FD_ZERO
        return var

    def _slack_for(
        self, expr: LinExpr, key: frozenset[tuple[Var, Fraction]]
    ) -> Var:
        slack = self._slack_of_form.get(key)
        if slack is not None:
            return slack
        if len(expr.coeffs) == 1:
            (var,) = expr.coeffs
            self._intern(var)
            self._slack_of_form[key] = var
            return var
        self._slack_count += 1
        slack = Var(f"__fslack{self._slack_count}", "real")
        self._intern(slack)
        row: dict[Var, float] = {}
        for var, coeff in expr.coeffs.items():
            self._intern(var)
            row[var] = float(coeff)
        self.rows[slack] = row
        self.beta[slack] = self._row_value(row)
        self._slack_of_form[key] = slack
        return slack

    def _row_value(self, row: Mapping[Var, float]) -> FloatDelta:
        total = FD_ZERO
        for var, coeff in row.items():
            total = total + self.beta[var].scale(coeff)
        return total

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def assert_atom(self, atom: Atom, tag: Tag) -> None:
        """Assert ``atom.expr atom.op 0``; may raise FloatConflict."""
        descriptor = _describe_atom(atom)
        if descriptor[0] == "const":
            if not descriptor[1]:
                raise FloatConflict(frozenset([tag]))
            return
        # The exact tier's memoised slack key and bound values: the
        # float tier asserts the same bounds, in float images.
        key, upper, lower = _exact_bounds(atom)
        slack = self._slack_for(atom.expr, key)
        if upper is not None:
            exact = upper[0]
            self._assert_upper(slack, _FloatBound(_fd(exact), exact, tag))
        if lower is not None:
            exact = lower[0]
            self._assert_lower(slack, _FloatBound(_fd(exact), exact, tag))

    def _assert_upper(self, var: Var, new: _FloatBound) -> None:
        value = new.value
        low = self.lower.get(var)
        if low is not None and _lt(value, low.value):
            raise FloatConflict(frozenset([new.tag, low.tag]))
        up = self.upper.get(var)
        if up is not None and not _gt(up.value, value):
            return
        self.upper[var] = new
        if var not in self.rows and _gt(self.beta[var], value):
            self._update(var, value)

    def _assert_lower(self, var: Var, new: _FloatBound) -> None:
        value = new.value
        up = self.upper.get(var)
        if up is not None and _lt(up.value, value):
            raise FloatConflict(frozenset([new.tag, up.tag]))
        low = self.lower.get(var)
        if low is not None and not _lt(low.value, value):
            return
        self.lower[var] = new
        if var not in self.rows and _lt(self.beta[var], value):
            self._update(var, value)

    # ------------------------------------------------------------------
    # Pivoting (mirrors Simplex, float cells)
    # ------------------------------------------------------------------
    def _update(self, nonbasic: Var, value: FloatDelta) -> None:
        delta = value - self.beta[nonbasic]
        for basic, row in self.rows.items():
            coeff = row.get(nonbasic)
            if coeff:
                self.beta[basic] = self.beta[basic] + delta.scale(coeff)
        self.beta[nonbasic] = value

    def _pivot_and_update(
        self, basic: Var, nonbasic: Var, value: FloatDelta
    ) -> None:
        row = self.rows[basic]
        a = row[nonbasic]
        theta = (value - self.beta[basic]).scale(1.0 / a)
        self.beta[basic] = value
        self.beta[nonbasic] = self.beta[nonbasic] + theta
        for other_basic, other_row in self.rows.items():
            if other_basic is basic:
                continue
            coeff = other_row.get(nonbasic)
            if coeff:
                self.beta[other_basic] = self.beta[other_basic] + theta.scale(
                    coeff
                )
        self._pivot(basic, nonbasic)

    def _pivot(self, basic: Var, nonbasic: Var) -> None:
        GLOBAL_COUNTERS.float_pivots += 1
        row = self.rows.pop(basic)
        a = row.pop(nonbasic)
        new_row: dict[Var, float] = {basic: 1.0 / a}
        for var, coeff in row.items():
            new_row[var] = -coeff / a
        self.rows[nonbasic] = new_row
        for other_basic in list(self.rows):
            if other_basic is nonbasic:
                continue
            other_row = self.rows[other_basic]
            coeff = other_row.pop(nonbasic, None)
            if coeff is None or coeff == 0.0:
                continue
            for var, sub_coeff in new_row.items():
                merged = other_row.get(var, 0.0) + coeff * sub_coeff
                if abs(merged) <= PIVOT_EPS:
                    other_row.pop(var, None)
                else:
                    other_row[var] = merged

    # ------------------------------------------------------------------
    # Main check loop
    # ------------------------------------------------------------------
    def check(self) -> dict[Var, FloatDelta]:
        """Advisory feasibility run; see module docstring for caveats."""
        pivots = 0
        while True:
            violating = self._find_violating_basic()
            if violating is None:
                return {
                    var: self.beta[var]
                    for var in self._order
                    if not var.name.startswith("__fslack")
                }
            if pivots >= _MAX_PIVOTS:
                raise FloatTierGiveUp("float-tier pivot budget exhausted")
            pivots += 1
            basic, needs_increase = violating
            target = (
                self.lower[basic].value
                if needs_increase
                else self.upper[basic].value
            )
            entering = self._find_entering(basic, needs_increase)
            if entering is None:
                raise self._conflict(basic, needs_increase)
            self._pivot_and_update(basic, entering, target)

    def _find_violating_basic(self) -> tuple[Var, bool] | None:
        best: tuple[int, Var, bool] | None = None
        for basic in self.rows:
            value = self.beta[basic]
            if not (math.isfinite(value.real) and math.isfinite(value.k)):
                raise FloatTierGiveUp("non-finite tableau value")
            low = self.lower.get(basic)
            if low is not None and _lt(value, low.value):
                cand = (self._order[basic], basic, True)
                if best is None or cand[0] < best[0]:
                    best = cand
                continue
            up = self.upper.get(basic)
            if up is not None and _gt(value, up.value):
                cand = (self._order[basic], basic, False)
                if best is None or cand[0] < best[0]:
                    best = cand
        if best is None:
            return None
        return best[1], best[2]

    def _find_entering(self, basic: Var, needs_increase: bool) -> Var | None:
        """Bland's rule with structural-zero guard on tiny pivots."""
        row = self.rows[basic]
        best: tuple[int, Var] | None = None
        for nonbasic, coeff in row.items():
            if abs(coeff) <= PIVOT_EPS:
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
        return up is None or _lt(self.beta[var], up.value)

    def _can_decrease(self, var: Var) -> bool:
        low = self.lower.get(var)
        return low is None or _gt(self.beta[var], low.value)

    def _conflict(self, basic: Var, needs_increase: bool) -> FloatConflict:
        """Suspected conflict core: the violated row's blocking bounds.

        Unlike the exact tier this carries **no Farkas weights** --
        float coefficients cannot justify anything.  The tag set names
        the constraints the exact tier should re-derive a certificate
        from; a tiny-pivot entry without the matching bound is simply
        skipped (the advisory core may be incomplete, the exact
        confirmation catches that).
        """
        row = self.rows[basic]
        tags: set[Tag] = set()
        anchor = self.lower.get(basic) if needs_increase else self.upper.get(
            basic
        )
        if anchor is not None:
            tags.add(anchor.tag)
        for nonbasic, coeff in row.items():
            if abs(coeff) <= PIVOT_EPS:
                continue
            wants_upper = (coeff > 0) == needs_increase
            bound = (
                self.upper.get(nonbasic)
                if wants_upper
                else self.lower.get(nonbasic)
            )
            if bound is not None:
                tags.add(bound.tag)
        return FloatConflict(frozenset(tags))

    # ------------------------------------------------------------------
    # Exact-snapping support for the orchestrator
    # ------------------------------------------------------------------
    def exact_bound_values(self, var: Var) -> list[DeltaRational]:
        """Exact values of the bounds asserted on ``var`` (snap targets)."""
        out: list[DeltaRational] = []
        low = self.lower.get(var)
        if low is not None:
            out.append(low.exact)
        up = self.upper.get(var)
        if up is not None and (low is None or up.exact != low.exact):
            out.append(up.exact)
        return out
