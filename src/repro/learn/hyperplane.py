"""Exact learned predicates: hyperplanes and their disjunctions.

Section 5.4 ("Predicate Construction"): each linear SVM model becomes
the arithmetic predicate ``sum(w_i * col_i) + b > 0``; the disjunction
of models maps to a disjunction of such predicates.  Coefficients here
are exact integers (see :mod:`repro.learn.rationalize`), so the
predicate can be fed to the solver and rendered back to SQL.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import math

from ..errors import SynthesisError
from ..predicates import (
    DATE,
    TIMESTAMP,
    Arith,
    Col,
    Comparison,
    Expr,
    Lit,
    Pred,
    por,
)
from ..predicates.expr import literal_for_column
from ..predicates.normalize import LinearizationContext
from ..smt import LT, Atom, Formula, LinExpr, Var, disj


@dataclass(frozen=True)
class Hyperplane:
    """The predicate ``sum(w_i * var_i) + bias > 0`` (integer coeffs)."""

    coeffs: tuple[tuple[Var, int], ...]
    bias: int

    def __post_init__(self) -> None:
        if all(weight == 0 for _, weight in self.coeffs):
            raise SynthesisError("degenerate hyperplane: all weights zero")

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(var for var, weight in self.coeffs if weight != 0)

    def linexpr(self) -> LinExpr:
        cached = _LINEXPR_CACHE.get(self)
        if cached is not None:
            return cached
        expr = LinExpr.const_expr(self.bias)
        for var, weight in self.coeffs:
            if weight:
                expr = expr + LinExpr.var(var) * weight
        # Idempotent memo insert: interning makes both racers compute
        # the identical LinExpr, so losing one insert is harmless.
        _LINEXPR_CACHE[self] = expr
        return expr

    def formula(self) -> Formula:
        # w.x + b > 0  <=>  -(w.x + b) < 0.  Term/formula interning
        # makes the result the *same object* across calls, so the
        # solver-side identity caches (CNF definitions, NNF) hit.
        return Atom(-self.linexpr(), LT)

    def accepts(self, point: Mapping[Var, Fraction | int]) -> bool:
        total = Fraction(self.bias)
        for var, weight in self.coeffs:
            total += weight * Fraction(point[var])
        return total > 0

    def to_pred(self, ctx: LinearizationContext) -> Pred:
        """Render back to SQL IR through the column mapping of ``ctx``.

        Single-column hyperplanes simplify to plain bound comparisons
        (``l_shipdate <= DATE '1993-06-19'``), matching the shape of
        the paper's rewritten queries and keeping the engine's filter
        cost low; multi-column ones render as ``terms > const``.
        """
        active = [(var, weight) for var, weight in self.coeffs if weight != 0]
        if len(active) == 1:
            simplified = self._single_column_pred(active[0], ctx)
            if simplified is not None:
                return simplified
        expr: Expr | None = None
        for var, weight in active:
            term = _column_term(var, ctx)
            if weight != 1:
                term = Arith("*", Lit.integer(weight), term)
            expr = term if expr is None else Arith("+", expr, term)
        if expr is None:  # pragma: no cover - prevented by __post_init__
            raise SynthesisError("hyperplane with no terms")
        return Comparison(expr, ">", Lit.integer(-self.bias))

    def _single_column_pred(
        self, term: tuple[Var, int], ctx: LinearizationContext
    ) -> Pred | None:
        """``w*v + b > 0`` over one column as a direct bound."""
        var, weight = term
        column = ctx.column_of_var.get(var)
        if column is None:
            return None
        bound = -Fraction(self.bias) / weight  # v > bound (w>0) or v < bound
        if weight > 0:
            if var.is_int:
                # v > bound  <=>  v >= floor(bound) + 1
                value = ctx.decode_value(Fraction(math.floor(bound) + 1), column)
                return Comparison(Col(column), ">=", literal_for_column(column, value))
            return Comparison(
                Col(column), ">", literal_for_column(column, ctx.decode_value(bound, column))
            )
        if var.is_int:
            # v < bound  <=>  v <= ceil(bound) - 1
            value = ctx.decode_value(Fraction(math.ceil(bound) - 1), column)
            return Comparison(Col(column), "<=", literal_for_column(column, value))
        return Comparison(
            Col(column), "<", literal_for_column(column, ctx.decode_value(bound, column))
        )

    def __str__(self) -> str:
        parts = []
        for var, weight in self.coeffs:
            if weight == 0:
                continue
            name = var.name.split(".")[-1]
            if weight == 1:
                parts.append(name)
            elif weight == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{weight}*{name}")
        if self.bias:
            parts.append(str(self.bias))
        return " + ".join(parts).replace("+ -", "- ") + " > 0"


#: Memoized linearization, keyed weakly on the (frozen, hashable)
#: hyperplane so entries die with their planes.  The CEGIS loop calls
#: ``formula()`` on the same planes once per iteration (candidate
#: formulas, pruning probes, counter-example bases).
_LINEXPR_CACHE: "weakref.WeakKeyDictionary[Hyperplane, LinExpr]" = (
    weakref.WeakKeyDictionary()
)


def _column_term(var: Var, ctx: LinearizationContext) -> Expr:
    """SQL expression whose integer encoding equals ``var``."""
    column = ctx.column_of_var.get(var)
    if column is None:
        packed = ctx.packed_expr_of_var.get(var)
        if packed is None:
            raise SynthesisError(f"variable {var} has no column mapping")
        return packed
    if column.ctype == DATE:
        # The variable holds days since the context origin.
        return Arith("-", Col(column), Lit.date(ctx.date_origin))
    if column.ctype == TIMESTAMP:
        return Arith("-", Col(column), Lit.timestamp(ctx.ts_origin))
    return Col(column)


@dataclass(frozen=True)
class DisjunctivePredicate:
    """Disjunction of hyperplanes -- the output shape of Learn (Alg. 2)."""

    planes: tuple[Hyperplane, ...]

    def __post_init__(self) -> None:
        if not self.planes:
            raise SynthesisError("empty disjunction")

    def formula(self) -> Formula:
        return disj([plane.formula() for plane in self.planes])

    def accepts(self, point: Mapping[Var, Fraction | int]) -> bool:
        return any(plane.accepts(point) for plane in self.planes)

    def to_pred(self, ctx: LinearizationContext) -> Pred:
        return por([plane.to_pred(ctx) for plane in self.planes])

    @property
    def variables(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for plane in self.planes:
            for var in plane.variables:
                seen.setdefault(var)
        return tuple(seen)

    def __str__(self) -> str:
        return " OR ".join(str(plane) for plane in self.planes)

