"""The efficacy workload driver: one loop, in-process or one process pool.

The Table-2/3 efficacy experiment is embarrassingly parallel: every
(query, column subset, technique) cell is an independent synthesis
run.  :func:`parallel_efficacy_records` is the only loop that produces
those cells; :func:`repro.bench.harness.efficacy_records`,
:func:`repro.bench.fullscale.run` and ``repro bench`` all call it.

* **In-process at ``workers <= 1``.**  Queries run in index order in
  the calling process, and records keep their ``Pred`` predicates.
* **One longest-first pool otherwise.**  A spawn-context
  ``ProcessPoolExecutor`` receives one task per query, submitted in
  descending :func:`~repro.bench.schedule.expected_costs` order.  The
  executor hands queued tasks out first-in first-out, so a free worker
  always takes the longest query not yet started: LPT list scheduling
  without shards or stealing.
* **Deadlines.**  ``deadline_ms`` threads a per-cell
  ``SiaConfig.timeout_ms`` budget through the harness: an expired cell
  yields a *recorded partial result* (section 6.2 semantics).
* **Crashes.**  If a worker dies, the pool is restarted once for the
  queries whose results have not arrived; results already in hand are
  kept.  A second death raises :class:`RuntimeError` naming the
  queries still missing.  A crash never becomes a placeholder cell.

Records do not depend on the worker count: each cell's synthesis RNG
is seeded from its ``SiaConfig`` alone, all cells of one query run
consecutively in one process in canonical order, and batches are
merged by ascending query index, never arrival order.  Every record
carries its own :data:`~repro.smt.stats.GLOBAL_COUNTERS` delta.  Pool
workers ship their records with ``predicate`` rendered to
``predicate_sql`` (``Pred`` trees do not cross the process boundary),
together with their per-query :data:`~repro.smt.stats.GLOBAL_COUNTERS`
delta.

Environment knobs (the crash knob :data:`CRASH_ENV`) cross the
process boundary through the pool's explicit initializer -- never
through start-method inheritance -- and every task reports the
environment its worker applied so tests can assert parity.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from ..obs.clock import now as _now
from ..obs.trace import get_tracer
from ..smt.stats import GLOBAL_COUNTERS
from ..tpch import WorkloadQuery, generate_workload
from .harness import (
    TECHNIQUES,
    EfficacyRecord,
    _ground_truth_possible,
    _run_sia_variant,
    _run_transitive_closure,
    bench_queries,
    bench_seed,
    column_subsets,
    record_from_json,
    record_to_json,
)
from .schedule import expected_costs

#: Test-only fault injection for pool workers.  ``"<query>"`` makes the
#: worker handed that query exit hard on the first pool's attempt;
#: ``"<query>:<n>"`` does so on each of the first ``n`` attempts.
CRASH_ENV = "REPRO_BENCH_CRASH_QUERY"

#: Environment keys propagated into every worker through the explicit
#: initializer (never via start-method inheritance alone).
PROPAGATED_ENV = (CRASH_ENV,)

#: Pools started per run: the first one plus one restart after a crash.
_POOL_ATTEMPTS = 2

#: A cell already computed: (query index, subset column names, technique).
CellKey = tuple[int, tuple[str, ...], str]


@dataclass
class ParallelRunResult:
    """Merged records plus aggregated solver counters."""

    records: list[EfficacyRecord] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    workers: int = 1
    #: Run statistics: workers, pool restarts, busy time, utilization.
    pool: dict = field(default_factory=dict)
    #: Propagated-environment snapshot each pool worker reported
    #: (worker pid -> {env key: value or None}); empty in-process.
    worker_env: dict[int, dict] = field(default_factory=dict)


@dataclass
class _Batch:
    """Everything one query's cells produced, shipped as one result."""

    index: int
    records: list[EfficacyRecord]
    counters: dict[str, int]
    busy_ms: float
    #: (pid, applied environment) of the pool worker that ran it.
    worker: tuple[int, dict] | None = None


def _query_batch(
    wq: WorkloadQuery,
    techniques: tuple[str, ...],
    deadline_ms: float | None,
    skip: frozenset[CellKey],
    *,
    on_cell: Callable[[EfficacyRecord], None] | None = None,
) -> _Batch:
    """Every cell of one query not in ``skip``, in canonical order.

    Each record gets its cell's nonzero solver-counter delta;
    ``on_cell`` sees each record as soon as it exists.
    """
    tracer = get_tracer()
    start = _now()
    before = GLOBAL_COUNTERS.snapshot()
    records: list[EfficacyRecord] = []
    with tracer.span("bench.query", index=wq.index, counters=True):
        for subset in column_subsets():
            subset_names = tuple(col.name for col in subset)
            pending = [
                t for t in techniques if (wq.index, subset_names, t) not in skip
            ]
            if not pending:
                continue
            with tracer.span(
                "bench.ground_truth",
                phase="ground_truth",
                subset=",".join(str(col) for col in subset),
            ):
                possible = _ground_truth_possible(wq, subset)
            for technique in pending:
                cell_before = GLOBAL_COUNTERS.snapshot()
                with tracer.span("bench.cell", technique=technique):
                    if technique == "TC":
                        record = _run_transitive_closure(wq, subset)
                    else:
                        record = _run_sia_variant(
                            wq, subset, technique, deadline_ms=deadline_ms
                        )
                record.possible = possible
                record.counters = {
                    name: value
                    for name, value in GLOBAL_COUNTERS.delta_since(
                        cell_before
                    ).items()
                    if value
                }
                records.append(record)
                if on_cell is not None:
                    on_cell(record)
    return _Batch(
        index=wq.index,
        records=records,
        counters=GLOBAL_COUNTERS.delta_since(before),
        busy_ms=(_now() - start) * 1000.0,
    )


# ----------------------------------------------------------------------
# Pool worker side (top-level functions so spawn can pickle them)
# ----------------------------------------------------------------------
def _init_worker(overrides: dict[str, str]) -> None:
    """Pool initializer: applies exactly the parent's environment snapshot.

    Keys present in ``overrides`` are set, propagated keys absent from
    it are cleared.  Spawn children *do* inherit the parent's
    environment on every platform this repo targets, but the contract
    must not depend on start-method details.
    """
    for key in PROPAGATED_ENV:
        value = overrides.get(key)
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def _crash_requested(index: int, attempt: int) -> bool:
    """Whether :data:`CRASH_ENV` asks this task to kill its worker."""
    query, _, attempts = os.environ.get(CRASH_ENV, "").partition(":")
    return query == str(index) and attempt < int(attempts or 1)


def _pool_task(
    wq: WorkloadQuery,
    techniques: tuple[str, ...],
    deadline_ms: float | None,
    skip: frozenset[CellKey],
    attempt: int,
) -> _Batch:
    """One query's batch inside a pool worker."""
    if _crash_requested(wq.index, attempt):
        os._exit(3)  # fault injection, see CRASH_ENV
    batch = _query_batch(wq, techniques, deadline_ms, skip)
    batch.records = [record_from_json(record_to_json(r)) for r in batch.records]
    batch.worker = (
        os.getpid(),
        {key: os.environ.get(key) for key in PROPAGATED_ENV},
    )
    return batch


def default_workers() -> int:
    """Worker count when none is requested (all cores, at least 1)."""
    return max(os.cpu_count() or 1, 1)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _run_pool(
    queries: list[WorkloadQuery],
    techniques: tuple[str, ...],
    deadline_ms: float | None,
    skip: frozenset[CellKey],
    workers: int,
    deliver: Callable[[_Batch], None],
) -> int:
    """Run ``queries`` on a longest-first pool; returns pool restarts."""
    # Spawn, never the platform default: fork would clone the parent's
    # warm registries (interned terms, counters) into every worker, and
    # the deltas workers report would ride on inherited state instead
    # of starting from zero.
    context = multiprocessing.get_context("spawn")
    overrides = {
        key: os.environ[key] for key in PROPAGATED_ENV if key in os.environ
    }
    costs = expected_costs(queries)
    todo = [
        queries[pos]
        for pos in sorted(range(len(queries)), key=lambda pos: (-costs[pos], pos))
    ]
    arrived: set[int] = set()
    for attempt in range(_POOL_ATTEMPTS):
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(todo)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(overrides,),
        )
        try:
            # The executor hands queued tasks out in submission order.
            pending = {
                pool.submit(
                    _pool_task, wq, techniques, deadline_ms, skip, attempt
                )
                for wq in todo
            }
            # After a worker death the executor fails every unfinished
            # future at once, so the loop still drains; results that
            # arrived before the crash are delivered and kept.
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    if isinstance(future.exception(), BrokenProcessPool):
                        continue
                    batch = future.result()
                    deliver(batch)
                    arrived.add(batch.index)
        finally:
            pool.shutdown(cancel_futures=True)
        todo = [wq for wq in todo if wq.index not in arrived]
        if not todo:
            return attempt
    missing = sorted(wq.index for wq in todo)
    raise RuntimeError(
        f"parallel driver: a worker died in {_POOL_ATTEMPTS} pools in a row; "
        f"queries {missing} have no results"
    )


def parallel_efficacy_records(
    *,
    num_queries: int | None = None,
    seed: int | None = None,
    techniques: tuple[str, ...] = TECHNIQUES,
    workers: int | None = None,
    deadline_ms: float | None = None,
    skip: frozenset[CellKey] = frozenset(),
    on_cell: Callable[[EfficacyRecord], None] | None = None,
) -> ParallelRunResult:
    """Synthesis attempts for every (query, subset, technique) cell.

    Returns the records in ascending query index, subsets and
    techniques in their canonical enumeration order, together with the
    summed solver-counter deltas.  In-process records keep
    their ``Pred`` predicates; pool records carry ``predicate_sql``
    instead (``predicate`` is ``None``).

    ``deadline_ms`` caps each SIA cell's synthesis wall-clock; expired
    cells come back as recorded partial results (best valid predicate
    so far, section 6.2), never exceptions.  Cells in ``skip`` are not
    run (the resumable fullscale runner passes its checkpoint).
    ``on_cell`` receives each record as soon as the calling process
    has it: per cell in-process, per finished query from a pool.
    """
    num_queries = num_queries if num_queries is not None else bench_queries()
    seed = seed if seed is not None else bench_seed()
    workers = workers if workers is not None else default_workers()
    queries = generate_workload(num_queries, seed=seed)
    batches: dict[int, _Batch] = {}

    def deliver(batch: _Batch) -> None:
        batches[batch.index] = batch
        if on_cell is not None and batch.worker is not None:
            for record in batch.records:
                on_cell(record)

    pool_stats: dict = {"workers": max(workers, 1), "restarts": 0}
    start = _now()
    if workers > 1 and queries:
        pool_stats["restarts"] = _run_pool(
            queries, techniques, deadline_ms, skip, workers, deliver
        )
    else:
        for wq in queries:
            deliver(
                _query_batch(wq, techniques, deadline_ms, skip, on_cell=on_cell)
            )
    wall_ms = (_now() - start) * 1000.0
    busy_ms = sum(batch.busy_ms for batch in batches.values())
    pool_stats["busy_ms"] = round(busy_ms, 1)
    pool_stats["wall_ms"] = round(wall_ms, 1)
    pool_stats["utilization"] = round(
        min(busy_ms / max(pool_stats["workers"] * wall_ms, 1e-9), 1.0), 4
    )
    if deadline_ms is not None:
        pool_stats["deadline_ms"] = deadline_ms

    # Merge in ascending query index, never arrival order, so records
    # and aggregates are identical for any worker count.
    ordered = [batches[index] for index in sorted(batches)]
    counters: dict[str, int] = {}
    worker_env: dict[int, dict] = {}
    for batch in ordered:
        for name, value in batch.counters.items():
            counters[name] = counters.get(name, 0) + value
        if batch.worker is not None:
            pid, env = batch.worker
            worker_env[pid] = env
    return ParallelRunResult(
        records=[record for batch in ordered for record in batch.records],
        counters=counters,
        workers=workers,
        pool=pool_stats,
        worker_env=worker_env,
    )
