"""Typed SQL expression and predicate IR.

This is the surface the synthesizer, the rewriter and the execution
engine all share.  It mirrors the grammar of section 4.1:

.. code-block:: text

    P := E CP E | P L P | NOT P
    E := Column | Const | E OP E
    CP := > | < | = | <= | >= | <>
    OP := + | - | * | /
    L := AND | OR

Types follow section 4.1/5.2: INTEGER, DOUBLE, DATE and TIMESTAMP are
supported; TEXT is not.  DATE/TIMESTAMP arithmetic follows SQL
conventions: ``DATE - DATE`` is an INTEGER day count, ``DATE +/-
INTEGER`` shifts by days, and similarly for TIMESTAMP with seconds.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from ..errors import TypeCheckError

# ----------------------------------------------------------------------
# Column types
# ----------------------------------------------------------------------
INTEGER = "INTEGER"
DOUBLE = "DOUBLE"
DATE = "DATE"
TIMESTAMP = "TIMESTAMP"

COLUMN_TYPES = (INTEGER, DOUBLE, DATE, TIMESTAMP)
_TEMPORAL = (DATE, TIMESTAMP)
_NUMERIC = (INTEGER, DOUBLE)

PyValue = Union[int, float, Fraction, _dt.date, _dt.datetime]


@dataclass(frozen=True, order=True)
class Column:
    """A fully-qualified column reference."""

    table: str
    name: str
    ctype: str = INTEGER

    def __post_init__(self) -> None:
        if self.ctype not in COLUMN_TYPES:
            raise TypeCheckError(
                f"unsupported column type {self.ctype!r} for {self.table}.{self.name}"
            )

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}"

    def __repr__(self) -> str:
        return self.qualified


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of arithmetic expressions."""

    __slots__ = ()

    @property
    def etype(self) -> str:
        raise NotImplementedError

    def columns(self) -> set[Column]:
        out: set[Column] = set()
        _collect_expr_columns(self, out)
        return out

    def __add__(self, other: "Expr") -> "Arith":
        return Arith("+", self, other)

    def __sub__(self, other: "Expr") -> "Arith":
        return Arith("-", self, other)

    def __mul__(self, other: "Expr") -> "Arith":
        return Arith("*", self, other)

    def __truediv__(self, other: "Expr") -> "Arith":
        return Arith("/", self, other)


@dataclass(frozen=True, slots=True)
class Col(Expr):
    """A column occurrence in an expression."""

    column: Column

    @property
    def etype(self) -> str:
        return self.column.ctype

    def __repr__(self) -> str:
        return self.column.qualified


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    """A literal constant.

    ``value`` is an ``int`` or :class:`~fractions.Fraction` for numeric
    types, a :class:`datetime.date` for DATE, or a
    :class:`datetime.datetime` for TIMESTAMP.  Floats are converted to
    exact fractions at construction time so the SMT pipeline stays
    exact.
    """

    value: PyValue
    ltype: str

    def __post_init__(self) -> None:
        if self.ltype not in COLUMN_TYPES:
            raise TypeCheckError(f"unsupported literal type {self.ltype!r}")
        if isinstance(self.value, float):
            object.__setattr__(self, "value", Fraction(self.value).limit_denominator(10**9))

    @property
    def etype(self) -> str:
        return self.ltype

    def __repr__(self) -> str:
        return f"{self.value}"

    # Convenience constructors ----------------------------------------
    @staticmethod
    def integer(value: int) -> "Lit":
        return Lit(int(value), INTEGER)

    @staticmethod
    def double(value: float | Fraction) -> "Lit":
        return Lit(value, DOUBLE)

    @staticmethod
    def date(value: _dt.date | str) -> "Lit":
        if isinstance(value, str):
            value = _dt.date.fromisoformat(value)
        return Lit(value, DATE)

    @staticmethod
    def timestamp(value: _dt.datetime | str) -> "Lit":
        if isinstance(value, str):
            value = _dt.datetime.fromisoformat(value)
        return Lit(value, TIMESTAMP)


_ARITH_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True, slots=True)
class Arith(Expr):
    """A binary arithmetic expression with SQL date-aware typing."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise TypeCheckError(f"unknown arithmetic operator {self.op!r}")
        self.etype  # force the type check at construction

    @property
    def etype(self) -> str:
        lt, rt = self.left.etype, self.right.etype
        if lt in _NUMERIC and rt in _NUMERIC:
            return DOUBLE if DOUBLE in (lt, rt) else INTEGER
        if lt in _TEMPORAL or rt in _TEMPORAL:
            return _temporal_type(self.op, lt, rt)
        raise TypeCheckError(f"cannot apply {self.op!r} to {lt} and {rt}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _temporal_type(op: str, lt: str, rt: str) -> str:
    """SQL-style typing for date/timestamp arithmetic."""
    for temporal in _TEMPORAL:
        if lt == temporal and rt == temporal:
            if op == "-":
                return INTEGER  # day / second difference
            raise TypeCheckError(f"cannot apply {op!r} to two {temporal} values")
        if lt == temporal and rt == INTEGER:
            if op in ("+", "-"):
                return temporal
            raise TypeCheckError(f"cannot apply {op!r} to {temporal} and INTEGER")
        if lt == INTEGER and rt == temporal:
            if op == "+":
                return temporal
            raise TypeCheckError(f"cannot apply {op!r} to INTEGER and {temporal}")
    raise TypeCheckError(f"cannot apply {op!r} to {lt} and {rt}")


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
_COMPARE_OPS = ("<", "<=", ">", ">=", "=", "!=", "<>")


class Pred:
    """Base class of predicates."""

    __slots__ = ()

    def columns(self) -> set[Column]:
        out: set[Column] = set()
        _collect_pred_columns(self, out)
        return out

    def conjuncts(self) -> Iterator["Pred"]:
        """Top-level conjuncts (self if not a conjunction)."""
        if isinstance(self, PAnd):
            for arg in self.args:
                yield from arg.conjuncts()
        else:
            yield self

    def __and__(self, other: "Pred") -> "Pred":
        return pand([self, other])

    def __or__(self, other: "Pred") -> "Pred":
        return por([self, other])

    def __invert__(self) -> "Pred":
        return PNot(self)


class _PConst(Pred):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("predicates are immutable")

    def __delattr__(self, *a: object) -> None:
        raise AttributeError("predicates are immutable")

    def __reduce__(self) -> str:
        # Copies and unpickled constants are the module's singletons.
        return "TRUE_PRED" if self.value else "FALSE_PRED"

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE_PRED = _PConst(True)
FALSE_PRED = _PConst(False)


@dataclass(frozen=True, slots=True)
class Comparison(Pred):
    """``left op right`` with op in ``< <= > >= = != <>``."""

    left: Expr
    op: str
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARE_OPS:
            raise TypeCheckError(f"unknown comparison operator {self.op!r}")
        if self.op == "<>":
            object.__setattr__(self, "op", "!=")
        lt, rt = self.left.etype, self.right.etype
        comparable = (lt in _NUMERIC and rt in _NUMERIC) or lt == rt
        if not comparable:
            raise TypeCheckError(f"cannot compare {lt} with {rt}")

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


class _PNAry(Pred):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Pred, ...]) -> None:
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("predicates are immutable")

    def __delattr__(self, *a: object) -> None:
        raise AttributeError("predicates are immutable")

    def __reduce__(self):
        return (type(self), (self.args,))

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.args == other.args

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.args))


class PAnd(_PNAry):
    """Conjunction of predicates."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.args)) + ")"


class POr(_PNAry):
    """Disjunction of predicates."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True, slots=True)
class PNot(Pred):
    arg: Pred

    def __repr__(self) -> str:
        return f"NOT ({self.arg!r})"


@dataclass(frozen=True, slots=True)
class IsNull(Pred):
    """``expr IS [NOT] NULL`` -- used by the engine, not by synthesis."""

    expr: Expr
    negated: bool = False

    def __repr__(self) -> str:
        return f"{self.expr!r} IS {'NOT ' if self.negated else ''}NULL"


def pand(args: list[Pred]) -> Pred:
    """Conjunction with flattening/folding."""
    flat: list[Pred] = []
    for arg in args:
        if arg is TRUE_PRED:
            continue
        if arg is FALSE_PRED:
            return FALSE_PRED
        if isinstance(arg, PAnd):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return TRUE_PRED
    if len(flat) == 1:
        return flat[0]
    return PAnd(tuple(flat))


def por(args: list[Pred]) -> Pred:
    """Disjunction with flattening/folding."""
    flat: list[Pred] = []
    for arg in args:
        if arg is FALSE_PRED:
            continue
        if arg is TRUE_PRED:
            return TRUE_PRED
        if isinstance(arg, POr):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return FALSE_PRED
    if len(flat) == 1:
        return flat[0]
    return POr(tuple(flat))


# ----------------------------------------------------------------------
# Traversals
# ----------------------------------------------------------------------
def _collect_expr_columns(expr: Expr, out: set[Column]) -> None:
    if isinstance(expr, Col):
        out.add(expr.column)
    elif isinstance(expr, Arith):
        _collect_expr_columns(expr.left, out)
        _collect_expr_columns(expr.right, out)


def _collect_pred_columns(pred: Pred, out: set[Column]) -> None:
    if isinstance(pred, Comparison):
        _collect_expr_columns(pred.left, out)
        _collect_expr_columns(pred.right, out)
    elif isinstance(pred, (PAnd, POr)):
        for arg in pred.args:
            _collect_pred_columns(arg, out)
    elif isinstance(pred, PNot):
        _collect_pred_columns(pred.arg, out)
    elif isinstance(pred, IsNull):
        _collect_expr_columns(pred.expr, out)


def literal_for_column(column: Column, value: PyValue) -> Lit:
    """A literal typed to match ``column`` (dates stay dates, etc.)."""
    if column.ctype == DATE:
        assert isinstance(value, _dt.date)
        return Lit(value, DATE)
    if column.ctype == TIMESTAMP:
        assert isinstance(value, _dt.datetime)
        return Lit(value, TIMESTAMP)
    if column.ctype == DOUBLE:
        return Lit(value, DOUBLE)
    return Lit(int(value), INTEGER)


def walk_comparisons(pred: Pred) -> Iterator[Comparison]:
    """All comparison leaves of a predicate tree."""
    if isinstance(pred, Comparison):
        yield pred
    elif isinstance(pred, (PAnd, POr)):
        for arg in pred.args:
            yield from walk_comparisons(arg)
    elif isinstance(pred, PNot):
        yield from walk_comparisons(pred.arg)
