"""Plan execution over columnar relations.

All operators are vectorised numpy (no Python-level row loops). The
equi-join matches unique integer build keys through a direct-address
table over the build side's key span: one gather per probe row. Keys it
cannot take -- non-integer, repeated on the build side, or a span wider
than :data:`DENSE_SPAN_FACTOR` times the build side -- fall back to the
sort-and-searchsorted idiom. Both give the same rows in the same order.
A filter evaluates its conjuncts one at a time, each over the rows the
earlier ones kept (:data:`SELECTION_FACTOR`). Every operator records
rows-in/rows-out in :class:`ExecutionStats`.
"""

from __future__ import annotations


import numpy as np

from ..obs.clock import now as _now
from ..errors import PlanError
from ..predicates import Column, Pred, eval_pred_numpy
from .catalog import Catalog
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
from .stats import ExecutionStats
from .table import Relation, relation_from_arrays


def execute(plan: PlanNode, catalog: Catalog) -> tuple[Relation, ExecutionStats]:
    """Run a plan; returns the output relation and operator statistics."""
    stats = ExecutionStats()
    start = _now()
    relation = _run(plan, catalog, stats)
    stats.elapsed_ms = (_now() - start) * 1000.0
    stats.note_bytes(relation.nbytes)
    return relation, stats


def _run(plan: PlanNode, catalog: Catalog, stats: ExecutionStats) -> Relation:
    if isinstance(plan, Scan):
        t0 = _now()
        relation = catalog.get(plan.table).to_relation()
        stats.record(
            f"Scan({plan.table})",
            relation.num_rows,
            relation.num_rows,
            (_now() - t0) * 1000.0,
        )
        return relation
    if isinstance(plan, Filter):
        child = _run(plan.child, catalog, stats)
        t0 = _now()
        out = _filter(child, plan.predicate)
        stats.record(
            f"Filter({plan.predicate!r})",
            child.num_rows,
            out.num_rows,
            (_now() - t0) * 1000.0,
        )
        return out
    if isinstance(plan, HashJoin):
        left = _run(plan.left, catalog, stats)
        right = _run(plan.right, catalog, stats)
        t0 = _now()
        out = _hash_join(left, right, plan)
        stats.note_bytes(left.nbytes + right.nbytes + out.nbytes)
        stats.record(
            f"HashJoin({plan.left_key.qualified}={plan.right_key.qualified})",
            left.num_rows + right.num_rows,
            out.num_rows,
            (_now() - t0) * 1000.0,
        )
        return out
    if isinstance(plan, Project):
        child = _run(plan.child, catalog, stats)
        t0 = _now()
        out = child.project(list(plan.columns))
        stats.record(
            "Project",
            child.num_rows,
            out.num_rows,
            (_now() - t0) * 1000.0,
        )
        return out
    if isinstance(plan, Aggregate):
        child = _run(plan.child, catalog, stats)
        t0 = _now()
        out = _aggregate(child, plan)
        stats.record(
            "Aggregate",
            child.num_rows,
            out.num_rows,
            (_now() - t0) * 1000.0,
        )
        return out
    if isinstance(plan, Sort):
        child = _run(plan.child, catalog, stats)
        t0 = _now()
        # np.lexsort sorts by the LAST key first: feed keys reversed.
        arrays = []
        for column, ascending in reversed(plan.keys):
            values = child.column(column)
            arrays.append(values if ascending else -values)
        order = np.lexsort(arrays) if arrays else np.arange(child.num_rows)
        out = child.take(order)
        stats.record(
            "Sort", child.num_rows, out.num_rows, (_now() - t0) * 1000.0
        )
        return out
    if isinstance(plan, Limit):
        child = _run(plan.child, catalog, stats)
        t0 = _now()
        out = child.take(np.arange(min(plan.count, child.num_rows)))
        stats.record(
            f"Limit({plan.count})",
            child.num_rows,
            out.num_rows,
            (_now() - t0) * 1000.0,
        )
        return out
    raise PlanError(f"unknown plan node {type(plan).__name__}")


# ----------------------------------------------------------------------
#: A Filter ANDs its top-level conjuncts into one mask over its input
#: until at most 1/SELECTION_FACTOR of the rows survive; then it keeps
#: only the survivors' row numbers, and every later conjunct reads its
#: columns gathered through that selection.  A sweep over the
#: plan-cache shapes (docs/INTERNALS.md, "Engine filters") put the cut
#: at 4: compacting after every conjunct pays a gather per column on
#: filters that keep most rows, and a later cut evaluates selective
#: conjuncts at full length.
SELECTION_FACTOR = 4


def _filter(relation: Relation, predicate: Pred) -> Relation:
    """The rows of ``relation`` on which ``predicate`` is TRUE, in order.

    Conjuncts run in plan order, each over the rows every earlier one
    left TRUE (see :data:`SELECTION_FACTOR`).
    """
    mask = None
    for conjunct in predicate.conjuncts():
        truth, _ = eval_pred_numpy(
            conjunct, relation.resolver(), relation.num_rows
        )
        if mask is None:
            mask = truth
        else:
            mask &= truth
        if np.count_nonzero(mask) * SELECTION_FACTOR <= relation.num_rows:
            relation = relation.filter(mask)
            mask = None
    return relation if mask is None else relation.filter(mask)


# ----------------------------------------------------------------------
#: The dense equi-join path allocates one 8-byte slot per key in the
#: build side's [min, max] span. It runs only when that span is at most
#: this many times the build side's non-NULL keys: at 4, the table takes
#: no more memory than a hash table of (key, row) pairs at load factor
#: one half. Sparser, repeated or non-integer build keys take the
#: sort-and-searchsorted path.
DENSE_SPAN_FACTOR = 4

_INT64 = np.iinfo(np.int64)


def _hash_join(left: Relation, right: Relation, node: HashJoin) -> Relation:
    """Inner equi-join; rows come out in probe order, and each probe
    row's matches in build-row order (the stable-sort order)."""
    # Build on the smaller input (standard practice; also what makes a
    # pushed-down filter pay off on the probe side).
    if right.num_rows < left.num_rows:
        swapped = HashJoin(node.right, node.left, node.right_key, node.left_key)
        return _hash_join(right, left, swapped)
    build_valid, build_keys = _valid_keys(left, node.left_key)
    probe_valid, probe_keys = _valid_keys(right, node.right_key)

    if len(build_keys) == 0 or len(probe_keys) == 0:
        build_rows = probe_rows = np.empty(0, dtype=np.intp)
    else:
        matched = _dense_match(build_keys, probe_keys)
        if matched is None:
            matched = _sorted_match(build_keys, probe_keys)
        build_rows, probe_rows = matched

    if build_valid is not None:
        build_rows = build_valid[build_rows]
    if probe_valid is not None:
        probe_rows = probe_valid[probe_rows]
    return left.take(build_rows).merge(right.take(probe_rows))


def _valid_keys(
    relation: Relation, key: Column
) -> tuple[np.ndarray | None, np.ndarray]:
    """The non-NULL key values, with their row numbers (None: all rows)."""
    values, nulls = relation.values_and_nulls(key)
    if nulls is None:
        return None, values
    valid = np.flatnonzero(~nulls)
    return valid, values[valid]


def _dense_match(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Match through a direct-address table over the build key span.

    Returns None when a key column is not integer, a build key repeats,
    or the span is wider than :data:`DENSE_SPAN_FACTOR` times the build
    keys.
    """
    if not (_int64_safe(build_keys) and _int64_safe(probe_keys)):
        return None
    build_keys = build_keys.astype(np.int64, copy=False)
    probe_keys = probe_keys.astype(np.int64, copy=False)
    # One empty slot on each side of [low, high] catches the probe keys
    # outside it, so the probe needs no range mask.
    floor, ceiling = int(build_keys.min()) - 1, int(build_keys.max()) + 1
    span = ceiling - floor + 1
    if (
        span > DENSE_SPAN_FACTOR * len(build_keys)
        or floor < _INT64.min
        or ceiling > _INT64.max
    ):
        return None
    build_slots = build_keys - floor
    probe_slots = np.clip(probe_keys, floor, ceiling)
    probe_slots -= floor

    slot_row = np.full(span, -1, dtype=np.intp)
    slot_row[build_slots] = np.arange(len(build_keys))
    if np.count_nonzero(slot_row >= 0) < len(build_keys):
        return None
    build_rows = slot_row[probe_slots]
    hit = build_rows >= 0
    if hit.all():
        return build_rows, np.arange(len(probe_keys))
    probe_rows = np.flatnonzero(hit)
    return build_rows[probe_rows], probe_rows


def _int64_safe(keys: np.ndarray) -> bool:
    return keys.dtype.kind in "iu" and np.can_cast(keys.dtype, np.int64)


def _sorted_match(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort-and-searchsorted match, for keys the dense path cannot take."""
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    hi = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = hi - lo
    probe_rows = np.repeat(np.arange(len(probe_keys)), counts)
    # Flattened [lo_i, hi_i) ranges without a Python loop.
    offsets = np.cumsum(counts) - counts
    within = np.arange(len(probe_rows)) - offsets[probe_rows]
    return order[lo[probe_rows] + within], probe_rows


# ----------------------------------------------------------------------
def _aggregate(child: Relation, node: Aggregate) -> Relation:
    if node.group_by:
        key_arrays = [child.column(col) for col in node.group_by]
        keys = np.stack(key_arrays, axis=1) if key_arrays else None
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        group_count = len(uniq)
    else:
        inverse = np.zeros(child.num_rows, dtype=np.int64)
        group_count = 1 if child.num_rows else 0
        uniq = None

    data = {}
    for i, col in enumerate(node.group_by):
        data[col] = (uniq[:, i], None)

    from ..predicates import DOUBLE, INTEGER

    for spec in node.aggregates:
        values = _apply_agg(spec, child, inverse, group_count)
        out_type = INTEGER if spec.func == "COUNT" else DOUBLE
        name = spec.func.lower() + ("" if spec.column is None else f"_{spec.column.name}")
        data[Column("__agg__", name, out_type)] = (values, None)
    return relation_from_arrays(data, group_count)


def _apply_agg(
    spec: AggSpec, child: Relation, inverse: np.ndarray, groups: int
) -> np.ndarray:
    if spec.func == "COUNT":
        return np.bincount(inverse, minlength=groups).astype(np.int64)
    values = child.column(spec.column).astype(np.float64)
    if spec.func == "SUM":
        return np.bincount(inverse, weights=values, minlength=groups)
    if spec.func == "AVG":
        sums = np.bincount(inverse, weights=values, minlength=groups)
        counts = np.bincount(inverse, minlength=groups)
        return np.divide(sums, np.maximum(counts, 1))
    out = np.full(groups, np.inf if spec.func == "MIN" else -np.inf)
    if spec.func == "MIN":
        np.minimum.at(out, inverse, values)
    else:
        np.maximum.at(out, inverse, values)
    return out
