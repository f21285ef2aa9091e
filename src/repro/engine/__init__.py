"""Columnar relational execution engine with a pushdown optimizer.

Stands in for PostgreSQL in the paper's runtime experiments (DESIGN.md,
substitution table): the mechanism Sia exploits -- pushing synthesized
single-table predicates below the join -- is reproduced by
:func:`build_plan`'s pushdown pass plus the hash-join executor whose
cost scales with input cardinalities.

Importing the package sets glibc's malloc thresholds once for the
process (:mod:`.allocator`), so that executions reuse the heap their
predecessors freed instead of faulting fresh pages in.
"""

from .allocator import keep_freed_arrays_mapped
from .catalog import Catalog
from .executor import execute
from .optimizer import build_plan, push_filter_below_aggregate, split_where
from .plan import (
    Aggregate,
    AggSpec,
    Filter,
    HashJoin,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
)
from .statistics import ColumnStats, TableStats, estimate_rows, estimate_selectivity
from .stats import ExecutionStats, OperatorStats
from .table import Relation, Table

keep_freed_arrays_mapped()

__all__ = [
    "Aggregate",
    "AggSpec",
    "Catalog",
    "ColumnStats",
    "ExecutionStats",
    "Filter",
    "HashJoin",
    "Limit",
    "OperatorStats",
    "PlanNode",
    "Project",
    "Relation",
    "Scan",
    "Sort",
    "Table",
    "TableStats",
    "build_plan",
    "estimate_rows",
    "estimate_selectivity",
    "execute",
    "push_filter_below_aggregate",
    "split_where",
]
