"""Table statistics and cardinality estimation.

A light version of what a real optimizer keeps: per-column equi-width
histograms plus null fractions, and a selectivity estimator over the
predicate IR.  The optimizer uses it to order joins by estimated
cardinality before execution, and the benchmark scheduler
(:mod:`repro.bench.schedule`) to rank workload queries by expected
synthesis cost from a synthetic sketch, without touching a table.

Estimation rules are the textbook ones: histograms answer range
predicates; equality gets 1/ndv; AND multiplies, OR adds with the
inclusion-exclusion correction; unknown shapes fall back to fixed
default selectivities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..predicates import (
    Col,
    Column,
    Comparison,
    FALSE_PRED,
    IsNull,
    Lit,
    PAnd,
    PNot,
    POr,
    Pred,
    TRUE_PRED,
)
from ..predicates.eval import _encode_literal_epoch
from .table import Table

DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_COMPLEX_SELECTIVITY = 1.0 / 3.0


@dataclass
class ColumnStats:
    """Equi-width histogram sketch of one column."""

    count: int
    null_fraction: float
    min_value: float
    max_value: float
    distinct: int
    bucket_edges: np.ndarray  # len B+1
    bucket_counts: np.ndarray  # len B

    @classmethod
    def from_array(
        cls, values: np.ndarray, nulls: np.ndarray | None, *, buckets: int = 32
    ) -> "ColumnStats":
        total = len(values)
        if nulls is not None:
            valid = values[~nulls]
            null_fraction = 1.0 - len(valid) / max(total, 1)
        else:
            valid = values
            null_fraction = 0.0
        if len(valid) == 0:
            return cls(total, null_fraction, 0.0, 0.0, 0, np.zeros(2), np.zeros(1))
        lo = float(valid.min())
        hi = float(valid.max())
        counts, edges = np.histogram(valid.astype(np.float64), bins=buckets)
        distinct = int(min(len(np.unique(valid)), 10**7))
        return cls(total, null_fraction, lo, hi, distinct, edges, counts)

    # ------------------------------------------------------------------
    def fraction_below(self, value: float, *, inclusive: bool) -> float:
        """Estimated fraction of non-null values ``< value`` (or <=)."""
        if self.count == 0 or self.bucket_counts.sum() == 0:
            return 0.5
        if value < self.min_value:
            return 0.0
        if value > self.max_value:
            return 1.0
        total = float(self.bucket_counts.sum())
        acc = 0.0
        for i, count in enumerate(self.bucket_counts):
            lo, hi = self.bucket_edges[i], self.bucket_edges[i + 1]
            if value >= hi:
                acc += count
            elif value > lo:
                width = hi - lo
                partial = (value - lo) / width if width > 0 else 0.5
                acc += count * partial
                break
            else:
                break
        fraction = acc / total
        if inclusive and self.distinct:
            fraction = min(1.0, fraction + 1.0 / self.distinct)
        return float(np.clip(fraction, 0.0, 1.0))

    def fraction_equal(self) -> float:
        if self.distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        return min(1.0, 1.0 / self.distinct)


@dataclass
class TableStats:
    """Statistics for one table."""

    table: str
    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: Table, *, buckets: int = 32) -> "TableStats":
        stats = cls(table.name, table.num_rows)
        for name, values in table.columns.items():
            stats.columns[name] = ColumnStats.from_array(
                values, table.nulls.get(name), buckets=buckets
            )
        return stats

    def column(self, column: Column) -> ColumnStats | None:
        return self.columns.get(column.name)


def estimate_selectivity(pred: Pred, stats: TableStats) -> float:
    """Estimated fraction of rows a predicate keeps (clamped [0, 1])."""
    if pred is TRUE_PRED:
        return 1.0
    if pred is FALSE_PRED:
        return 0.0
    if isinstance(pred, PAnd):
        result = 1.0
        for arg in pred.args:
            result *= estimate_selectivity(arg, stats)
        return result
    if isinstance(pred, POr):
        result = 0.0
        for arg in pred.args:
            part = estimate_selectivity(arg, stats)
            result = result + part - result * part
        return result
    if isinstance(pred, PNot):
        return 1.0 - estimate_selectivity(pred.arg, stats)
    if isinstance(pred, IsNull):
        fractions = [
            (stats.column(c).null_fraction if stats.column(c) else 0.0)
            for c in pred.columns()
        ]
        any_null = max(fractions, default=0.0)
        return 1.0 - any_null if pred.negated else any_null
    if isinstance(pred, Comparison):
        return _estimate_comparison(pred, stats)
    return DEFAULT_COMPLEX_SELECTIVITY


def _estimate_comparison(pred: Comparison, stats: TableStats) -> float:
    """col OP literal uses the histogram; anything else gets defaults."""
    if isinstance(pred.left, Col) and isinstance(pred.right, Lit):
        column, literal, op = pred.left.column, pred.right, pred.op
    elif isinstance(pred.right, Col) and isinstance(pred.left, Lit):
        column, literal = pred.right.column, pred.left
        op = _mirror(pred.op)
    else:
        if pred.op == "=":
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    col_stats = stats.column(column)
    if col_stats is None:
        return DEFAULT_RANGE_SELECTIVITY
    value = float(_encode_literal_epoch(literal))
    not_null = 1.0 - col_stats.null_fraction
    if op == "=":
        return col_stats.fraction_equal() * not_null
    if op == "!=":
        return (1.0 - col_stats.fraction_equal()) * not_null
    if op == "<":
        return col_stats.fraction_below(value, inclusive=False) * not_null
    if op == "<=":
        return col_stats.fraction_below(value, inclusive=True) * not_null
    if op == ">":
        return (1.0 - col_stats.fraction_below(value, inclusive=True)) * not_null
    # >=
    return (1.0 - col_stats.fraction_below(value, inclusive=False)) * not_null


def _mirror(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]


def estimate_rows(pred: Pred, stats: TableStats) -> int:
    """Estimated surviving row count after filtering."""
    return int(round(stats.row_count * estimate_selectivity(pred, stats)))
