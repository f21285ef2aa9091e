"""Plan execution over columnar relations.

All operators are vectorised numpy (no Python-level row loops). The
equi-join matches unique integer build keys through a direct-address
table over the build side's key span: one gather per probe row. Keys it
cannot take -- non-integer, repeated on the build side, or a span wider
than :data:`DENSE_SPAN_FACTOR` times the build side -- fall back to one
binary search per probe key into the sorted distinct build keys. Both
give the same rows in the same order, and a probe side whose every row
matches once is passed through without a gather. A filter evaluates its
conjuncts one at a time, most selective on a sample first
(:data:`FILTER_SAMPLE_ROWS`), each over the rows the earlier ones kept
(:data:`SELECTION_FACTOR`). Aggregates and sorts follow SQL on NULLs.
Every operator records rows-in/rows-out in :class:`ExecutionStats`.
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
        out = child.take(_sort_order(child, plan.keys))
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


#: A Filter with two or more top-level conjuncts over more than this
#: many rows first evaluates each conjunct on a strided sample of this
#: many rows, and then runs them fewest sampled TRUE rows first, ties in
#: plan order.  Only the order changes: the result is the AND of all of
#: them either way.  A sweep over the plan-cache shapes
#: (docs/INTERNALS.md, "Engine filters") put it at 512.
FILTER_SAMPLE_ROWS = 512


def _filter(relation: Relation, predicate: Pred) -> Relation:
    """The rows of ``relation`` on which ``predicate`` is TRUE, in order.

    Conjuncts run most selective first (see :data:`FILTER_SAMPLE_ROWS`),
    each over the rows every earlier one left TRUE (see
    :data:`SELECTION_FACTOR`).
    """
    conjuncts = list(predicate.conjuncts())
    if len(conjuncts) > 1 and relation.num_rows > FILTER_SAMPLE_ROWS:
        conjuncts = _most_selective_first(relation, conjuncts)
    mask = None
    for conjunct in conjuncts:
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


def _most_selective_first(relation: Relation, conjuncts: list[Pred]) -> list[Pred]:
    """``conjuncts`` by their TRUE rows on a strided sample, fewest first;
    a stable sort, so ties keep plan order."""
    step = -(-relation.num_rows // FILTER_SAMPLE_ROWS)
    sample = relation.take(np.arange(0, relation.num_rows, step))
    passed = [
        np.count_nonzero(
            eval_pred_numpy(conjunct, sample.resolver(), sample.num_rows)[0]
        )
        for conjunct in conjuncts
    ]
    order = sorted(range(len(conjuncts)), key=passed.__getitem__)
    return [conjuncts[i] for i in order]


# ----------------------------------------------------------------------
#: The dense equi-join path allocates one 8-byte slot per key in the
#: build side's [min, max] span. It runs only when that span is at most
#: this many times the build side's non-NULL keys: at 4, the table takes
#: no more memory than a hash table of (key, row) pairs at load factor
#: one half. Sparser, repeated or non-integer build keys take the sorted
#: path (:func:`_sorted_match`).
DENSE_SPAN_FACTOR = 4

_INT64 = np.iinfo(np.int64)


def _hash_join(left: Relation, right: Relation, node: HashJoin) -> Relation:
    """Inner equi-join; rows come out in probe order, and each probe
    row's matches in build-row order (the stable-sort order).  When every
    probe row matches exactly one build row and no probe key is NULL,
    the probe side is ``right`` itself, its lazy columns unchanged."""
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
    if probe_rows is None:  # every probe key matched one build row
        probe_rows = probe_valid
    elif probe_valid is not None:
        probe_rows = probe_valid[probe_rows]
    probe = right if probe_rows is None else right.take(probe_rows)
    return left.take(build_rows).merge(probe)


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
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Match through a direct-address table over the build key span.

    Returns the matched build and probe positions, the probe positions
    None when every probe key matched ("all, in order"); or None when a
    key column is not integer, a build key repeats, or the span is
    wider than :data:`DENSE_SPAN_FACTOR` times the build keys.
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
        return build_rows, None
    probe_rows = np.flatnonzero(hit)
    return build_rows[probe_rows], probe_rows


def _int64_safe(keys: np.ndarray) -> bool:
    return keys.dtype.kind in "iu" and np.can_cast(keys.dtype, np.int64)


def _sorted_match(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort-and-search match, for keys the dense path cannot take.

    The stably sorted build keys fall into runs of equal keys; each
    probe key takes one binary search into the runs' distinct keys.
    Returns positions as :func:`_dense_match` does.
    """
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    run_start = np.empty(len(sorted_keys), dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    distinct = sorted_keys[starts]
    run = np.searchsorted(distinct, probe_keys)
    np.minimum(run, len(distinct) - 1, out=run)
    hit = distinct[run] == probe_keys
    if len(starts) == len(sorted_keys):  # unique keys: runs of one row
        if hit.all():
            return order[run], None
        probe_rows = np.flatnonzero(hit)
        return order[run[probe_rows]], probe_rows
    counts = np.diff(starts, append=len(sorted_keys))[run]
    counts[~hit] = 0
    probe_rows = np.repeat(np.arange(len(probe_keys)), counts)
    # Flattened [start, start + count) ranges without a Python loop.
    offsets = np.cumsum(counts) - counts
    within = np.arange(len(probe_rows)) - offsets[probe_rows]
    return order[starts[run[probe_rows]] + within], probe_rows


# ----------------------------------------------------------------------
def _sort_order(
    child: Relation, keys: tuple[tuple[Column, bool], ...]
) -> np.ndarray:
    """Row order for ``ORDER BY keys``: stable, so ties keep input order.

    A NULL sorts above every value, as in Postgres: last under ASC,
    first under DESC.
    """
    # np.lexsort sorts by the LAST key first: feed keys reversed, each
    # key's values before its NULL flag, which outranks them.
    arrays = []
    for column, ascending in reversed(keys):
        values, nulls = child.values_and_nulls(column)
        if nulls is not None:
            values = np.where(nulls, 0, values)  # NULLs tie with each other
        if not ascending:
            # ~x = -x - 1 reverses integers without negation's overflow
            # at the int64 minimum (and reverses unsigned ones at all).
            values = ~values if values.dtype.kind in "iub" else -values
        arrays.append(values)
        if nulls is not None:
            arrays.append(nulls if ascending else ~nulls)
    return np.lexsort(arrays) if arrays else np.arange(child.num_rows)


def _aggregate(child: Relation, node: Aggregate) -> Relation:
    data = {}
    if node.group_by:
        # Each key column becomes codes, the ranks of its values, so keys
        # of different dtypes never meet in one array; a NULL takes the
        # code after the last value: the NULLs form one group, last.
        codes, distincts = [], []
        for col in node.group_by:
            values, nulls = child.values_and_nulls(col)
            distinct, code = np.unique(values, return_inverse=True)
            if nulls is not None:
                code = np.where(nulls, len(distinct), code)
            codes.append(code)
            distincts.append(distinct)
        uniq, inverse = np.unique(
            np.stack(codes, axis=1), axis=0, return_inverse=True
        )
        group_count = len(uniq)
        for col, distinct, code in zip(node.group_by, distincts, uniq.T):
            nulls = code == len(distinct)
            values = distinct[np.minimum(code, len(distinct) - 1)]
            data[col] = (values, nulls if nulls.any() else None)
    else:
        # Without GROUP BY there is one group, also over no rows.
        inverse = np.zeros(child.num_rows, dtype=np.int64)
        group_count = 1

    from ..predicates import DOUBLE, INTEGER

    for spec in node.aggregates:
        out_type = INTEGER if spec.func == "COUNT" else DOUBLE
        name = spec.func.lower() + ("" if spec.column is None else f"_{spec.column.name}")
        data[Column("__agg__", name, out_type)] = _apply_agg(
            spec, child, inverse, group_count
        )
    return relation_from_arrays(data, group_count)


def _apply_agg(
    spec: AggSpec, child: Relation, inverse: np.ndarray, groups: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """One aggregate per group, as (values, NULL mask).

    NULL inputs are skipped, as in SQL: ``COUNT(col)`` counts the
    non-NULL values, and SUM, AVG, MIN and MAX are NULL over a group
    that has none.
    """
    if spec.column is None:  # COUNT(*)
        return np.bincount(inverse, minlength=groups).astype(np.int64), None
    values, nulls = child.values_and_nulls(spec.column)
    if nulls is not None:
        known = ~nulls
        values, inverse = values[known], inverse[known]
    counts = np.bincount(inverse, minlength=groups)
    if spec.func == "COUNT":
        return counts.astype(np.int64), None
    values = values.astype(np.float64)
    if spec.func in ("SUM", "AVG"):
        # (bincount of no values is int64, whatever the weights' dtype)
        out = np.bincount(inverse, weights=values, minlength=groups).astype(
            np.float64, copy=False
        )
        if spec.func == "AVG":
            out /= np.maximum(counts, 1)
    else:
        out = np.full(groups, np.inf if spec.func == "MIN" else -np.inf)
        reduce = np.minimum if spec.func == "MIN" else np.maximum
        reduce.at(out, inverse, values)
    empty = counts == 0
    if not empty.any():
        return out, None
    out[empty] = 0.0
    return out, empty
