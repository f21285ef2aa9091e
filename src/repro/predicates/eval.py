"""Predicate evaluation: exact scalar (3VL) and vectorised numpy.

Two evaluators share the IR:

* :func:`eval_pred_py` -- exact three-valued evaluation of one tuple,
  using Fractions and real ``datetime.date`` objects.  Used by tests
  and the selectivity measurements (Table 4), where exactness matters.

* :func:`eval_pred_numpy` -- vectorised evaluation over whole columns
  for the execution engine.  DATE columns are int64 day counts since
  the global epoch and TIMESTAMP columns int64 seconds; NULLs travel in
  boolean masks alongside the data (Kleene truth/null pairs).
"""

from __future__ import annotations

import datetime as _dt
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from ..errors import UnsupportedPredicateError
from . import dates
from .expr import (
    DATE,
    TIMESTAMP,
    Arith,
    Col,
    Column,
    Comparison,
    Expr,
    FALSE_PRED,
    IsNull,
    Lit,
    PAnd,
    PNot,
    POr,
    Pred,
    TRUE_PRED,
)

# ----------------------------------------------------------------------
# Scalar, exact, three-valued
# ----------------------------------------------------------------------
ScalarValue = Fraction | int | _dt.date | _dt.datetime | None


def eval_expr_py(expr: Expr, row: Mapping[Column, ScalarValue]) -> ScalarValue:
    """Exact evaluation of an expression for one tuple (None = NULL)."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Col):
        return row[expr.column]
    if isinstance(expr, Arith):
        left = eval_expr_py(expr.left, row)
        right = eval_expr_py(expr.right, row)
        if left is None or right is None:
            return None
        return _apply_scalar(expr.op, left, right)
    raise UnsupportedPredicateError(f"cannot evaluate {expr!r}")


def _apply_scalar(op: str, left: ScalarValue, right: ScalarValue):
    l_temporal = isinstance(left, (_dt.date, _dt.datetime))
    r_temporal = isinstance(right, (_dt.date, _dt.datetime))
    if l_temporal or r_temporal:
        return _apply_temporal(op, left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        return None  # SQL would error; we treat x/0 as NULL (documented)
    return Fraction(left) / Fraction(right)


def _apply_temporal(op: str, left, right):
    l_temporal = isinstance(left, (_dt.date, _dt.datetime))
    r_temporal = isinstance(right, (_dt.date, _dt.datetime))
    if l_temporal and r_temporal:
        if op != "-":
            raise UnsupportedPredicateError(f"{op!r} on two temporal values")
        delta = left - right
        if isinstance(left, _dt.datetime):
            return int(delta.total_seconds())
        return delta.days
    if l_temporal:
        shift = _as_shift(left, right)
        if op == "+":
            return left + shift
        if op == "-":
            return left - shift
    elif op == "+":
        return right + _as_shift(right, left)
    raise UnsupportedPredicateError(f"{op!r} between temporal and numeric")


def _as_shift(temporal, amount) -> _dt.timedelta:
    amount = int(amount)
    if isinstance(temporal, _dt.datetime):
        return _dt.timedelta(seconds=amount)
    return _dt.timedelta(days=amount)


def eval_pred_py(pred: Pred, row: Mapping[Column, ScalarValue]) -> bool | None:
    """Three-valued evaluation of one tuple: True, False, or None."""
    if pred is TRUE_PRED:
        return True
    if pred is FALSE_PRED:
        return False
    if isinstance(pred, Comparison):
        left = eval_expr_py(pred.left, row)
        right = eval_expr_py(pred.right, row)
        if left is None or right is None:
            return None
        return _compare_scalar(pred.op, left, right)
    if isinstance(pred, PAnd):
        saw_null = False
        for arg in pred.args:
            value = eval_pred_py(arg, row)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True
    if isinstance(pred, POr):
        saw_null = False
        for arg in pred.args:
            value = eval_pred_py(arg, row)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False
    if isinstance(pred, PNot):
        value = eval_pred_py(pred.arg, row)
        return None if value is None else not value
    if isinstance(pred, IsNull):
        value = eval_expr_py(pred.expr, row)
        result = value is None
        return not result if pred.negated else result
    raise UnsupportedPredicateError(f"cannot evaluate {pred!r}")


def _compare_scalar(op: str, left, right) -> bool:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "=":
        return left == right
    return left != right


# ----------------------------------------------------------------------
# Vectorised numpy evaluation
# ----------------------------------------------------------------------
# resolve(column) -> (values ndarray, null mask ndarray or None)
Resolver = Callable[[Column], tuple[np.ndarray, np.ndarray | None]]

# Internally, expression values may be numpy arrays OR python scalars
# (literals broadcast for free), and null masks may be None (no NULLs).
_Values = "np.ndarray | int | float"
_Nulls = "np.ndarray | None"


def _or_nulls(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def eval_expr_numpy(expr: Expr, resolve: Resolver, length: int):
    """Vectorised expression evaluation -> (values, null mask or None).

    Temporal values are int64 offsets from the global epoch.  Literals
    stay python scalars (numpy broadcasting makes materialising
    constant arrays pointless), and a ``None`` mask means "no NULLs".

    Arithmetic over int64 columns and int64-range integer literals is
    folded into ``sum(k * col) + c`` and summed into one accumulator
    (:func:`_linear_form`); int64 arithmetic is a ring modulo 2**64, so
    the folded values equal the node-by-node ones bit for bit,
    wrap-around included.  DOUBLE, ``/``, column x column and literals
    outside int64 take the node-by-node path below.
    """
    if isinstance(expr, Lit):
        return _encode_literal_epoch(expr), None
    if isinstance(expr, Col):
        return resolve(expr.column)
    if isinstance(expr, Arith):
        form = _linear_form(expr)
        if form is not None and form[0]:
            folded = _eval_linear(*form, resolve, length)
            if folded is not None:
                return folded
        left, left_null = eval_expr_numpy(expr.left, resolve, length)
        right, right_null = eval_expr_numpy(expr.right, resolve, length)
        nulls = _or_nulls(left_null, right_null)
        if expr.op == "+":
            return left + right, nulls
        if expr.op == "-":
            return left - right, nulls
        if expr.op == "*":
            return left * right, nulls
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.true_divide(left, right)
        bad = ~np.isfinite(values)
        if isinstance(bad, np.ndarray):
            # Division by zero yields SQL NULL; the 0.0 placeholder is
            # masked by the null flags and never reaches the solver.
            values = np.where(bad, 0.0, values)  # sia: allow-float
            nulls = _or_nulls(nulls, bad)
        elif bad:  # scalar division by zero
            values = 0.0  # sia: allow-float -- masked by nulls below
            nulls = np.ones(length, dtype=bool)
        return values, nulls
    raise UnsupportedPredicateError(f"cannot evaluate {expr!r}")


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _linear_form(expr: Expr) -> tuple[dict[Column, int], int] | None:
    """``expr`` as exact ``({column: k}, c)`` meaning ``sum(k * col) + c``.

    Every column the expression names is a key, also one whose
    coefficients cancel to 0, so its NULLs still count.  None when the
    expression has a ``/``, multiplies two column terms, or has a
    non-integer literal; and when a literal-only subexpression that
    meets a column term falls outside int64, where the node-by-node
    path raises rather than wraps.
    """
    if isinstance(expr, Lit):
        value = _encode_literal_epoch(expr)
        return ({}, value) if type(value) is int else None
    if isinstance(expr, Col):
        return {expr.column: 1}, 0
    if not isinstance(expr, Arith) or expr.op == "/":
        return None
    left = _linear_form(expr.left)
    if left is None:
        return None
    right = _linear_form(expr.right)
    if right is None:
        return None
    (left_terms, left_const), (right_terms, right_const) = left, right
    if left_terms and right_terms:
        if expr.op == "*":
            return None
    elif left_terms and not _INT64_MIN <= right_const <= _INT64_MAX:
        return None
    elif right_terms and not _INT64_MIN <= left_const <= _INT64_MAX:
        return None
    if expr.op == "*":
        if right_terms:
            left_terms, left_const, right_const = right_terms, right_const, left_const
        return (
            {column: k * right_const for column, k in left_terms.items()},
            left_const * right_const,
        )
    sign = 1 if expr.op == "+" else -1
    terms = dict(left_terms)
    for column, k in right_terms.items():
        terms[column] = terms.get(column, 0) + sign * k
    return terms, left_const + sign * right_const


def _wrap_int64(value: int) -> int:
    """``value`` modulo 2**64, as a signed int64."""
    return (value - _INT64_MIN) % 2**64 + _INT64_MIN


def _eval_linear(
    terms: dict[Column, int], const: int, resolve: Resolver, length: int
):
    """``sum(k * col) + c`` in one int64 accumulator -> (values, nulls).

    None if a column is not stored as int64; the caller then evaluates
    node by node.  A lone ``1 * col`` comes back as the column itself,
    as a bare :class:`Col` does.
    """
    nulls = None
    scaled = []
    for column, k in terms.items():
        values, column_nulls = resolve(column)
        if values.dtype != np.int64:
            return None
        nulls = _or_nulls(nulls, column_nulls)
        k = _wrap_int64(k)
        if k:
            scaled.append((k, values))
    const = _wrap_int64(const)
    if not scaled:
        return np.full(length, const, dtype=np.int64), nulls
    k, values = scaled[0]
    if k == 1:
        acc, owned = values, False  # borrowed until the first write
    else:
        acc, owned = np.multiply(values, k), True
    for k, values in scaled[1:]:
        out = acc if owned else None
        if k == 1:
            acc = np.add(acc, values, out=out)
        elif k == -1:
            acc = np.subtract(acc, values, out=out)
        else:
            acc = np.add(acc, np.multiply(values, k), out=out)
        owned = True
    if const:
        acc = np.add(acc, const, out=acc if owned else None)
    return acc, nulls


def _encode_literal_epoch(lit: Lit):
    if lit.ltype == DATE:
        return dates.date_to_days(lit.value)
    if lit.ltype == TIMESTAMP:
        return dates.timestamp_to_seconds(lit.value)
    value = lit.value
    if isinstance(value, Fraction):
        # sia: allow-float -- vectorised engine evaluation boundary:
        # numpy execution is float-native; the exact pipeline never
        # reads these values back.
        return int(value) if value.denominator == 1 else float(value)
    return value


def eval_pred_numpy(
    pred: Pred, resolve: Resolver, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised 3VL evaluation -> (truth mask, null mask).

    A tuple passes a WHERE filter iff ``truth & ~null`` -- by
    construction ``truth`` is already False wherever ``null`` is True.
    """
    if pred is TRUE_PRED:
        return np.ones(length, dtype=bool), np.zeros(length, dtype=bool)
    if pred is FALSE_PRED:
        return np.zeros(length, dtype=bool), np.zeros(length, dtype=bool)
    if isinstance(pred, Comparison):
        left, left_null = eval_expr_numpy(pred.left, resolve, length)
        right, right_null = eval_expr_numpy(pred.right, resolve, length)
        nulls = _or_nulls(left_null, right_null)
        truth = _compare_numpy(pred.op, left, right)
        if not isinstance(truth, np.ndarray):  # both sides constant
            truth = np.full(length, bool(truth))
        if nulls is None:
            return truth, np.zeros(length, dtype=bool)
        return truth & ~nulls, nulls
    if isinstance(pred, PAnd):
        truth = np.ones(length, dtype=bool)
        false = np.zeros(length, dtype=bool)
        for arg in pred.args:
            t, n = eval_pred_numpy(arg, resolve, length)
            false |= ~t & ~n
            truth &= t
        nulls = ~truth & ~false
        return truth, nulls
    if isinstance(pred, POr):
        truth = np.zeros(length, dtype=bool)
        false = np.ones(length, dtype=bool)
        for arg in pred.args:
            t, n = eval_pred_numpy(arg, resolve, length)
            truth |= t
            false &= ~t & ~n
        nulls = ~truth & ~false
        return truth, nulls
    if isinstance(pred, PNot):
        t, n = eval_pred_numpy(pred.arg, resolve, length)
        return ~t & ~n, n
    if isinstance(pred, IsNull):
        _, nulls = eval_expr_numpy(pred.expr, resolve, length)
        if nulls is None:
            nulls = np.zeros(length, dtype=bool)
        # A fresh array either way: callers may AND into the truth mask.
        truth = ~nulls if pred.negated else nulls.copy()
        return truth, np.zeros(length, dtype=bool)
    raise UnsupportedPredicateError(f"cannot evaluate {pred!r}")


def _compare_numpy(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "=":
        return left == right
    return left != right


def selectivity(pred: Pred, resolve: Resolver, length: int) -> float:
    """Fraction of tuples a predicate accepts (TRUE under 3VL)."""
    if length == 0:
        return 1.0  # sia: allow-float -- statistics output, not solver input
    truth, _ = eval_pred_numpy(pred, resolve, length)
    # sia: allow-float -- selectivity is a statistic consumed by the
    # optimizer, outside the exact verification path
    return float(np.count_nonzero(truth)) / float(length)
