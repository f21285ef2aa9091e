"""Shared experiment driver for the paper's tables and figures.

All benchmarks draw from two cached record sets:

* :func:`efficacy_records` -- one synthesis attempt per (query, column
  subset, technique), backing Table 2, Table 3, Figure 7 and Figure 8.
* :func:`runtime_records` -- one rewrite + original/rewritten execution
  per query and scale factor, backing Figure 9 and Table 4.

Scale knobs (environment variables):

=====================  =======  ==========================================
REPRO_BENCH_QUERIES    8        workload size (paper: 200)
REPRO_BENCH_SEED       42       workload seed
REPRO_BENCH_SF_SMALL   0.005    small scale factor (paper: 1)
REPRO_BENCH_SF_LARGE   0.02     large scale factor (paper: 10)
REPRO_BENCH_PARALLEL   0        efficacy worker processes (0/1 = in-process)
=====================  =======  ==========================================

The defaults keep the whole benchmark suite in the minutes range; set
``REPRO_BENCH_QUERIES=200`` for the paper-scale run (about an hour).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass, field, replace
from statistics import mean

from ..obs.clock import now as _now
from ..core import (
    SIA_DEFAULT,
    SIA_V1,
    SIA_V2,
    SiaConfig,
    Synthesizer,
    TransitiveClosure,
)
from ..core.verify import unsat_proven
from ..engine import Catalog, build_plan, execute
from ..predicates import Column, Pred, lower_predicate, selectivity
from ..rewrite import rewrite_query
from ..smt import conj, is_satisfiable
from ..smt.qe import unsat_region
from ..sql.printer import render_pred
from ..tpch import LINEITEM_DATES, WorkloadQuery, generate_catalog, generate_workload

TECHNIQUES = ("SIA", "TC", "SIA_v1", "SIA_v2")

_CONFIGS: dict[str, SiaConfig] = {
    "SIA": SIA_DEFAULT,
    "SIA_v1": SIA_V1,
    "SIA_v2": SIA_V2,
}


def env_int(name: str, default: int) -> int:
    """Integer knob from the environment."""
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    """Float knob from the environment."""
    return float(os.environ.get(name, default))


def bench_queries() -> int:
    """Workload size for the benchmark suite (paper: 200)."""
    return env_int("REPRO_BENCH_QUERIES", 8)


def bench_seed() -> int:
    """Workload seed for the benchmark suite."""
    return env_int("REPRO_BENCH_SEED", 42)


def sf_small() -> float:
    """Small engine scale factor (stands in for the paper's SF 1)."""
    return env_float("REPRO_BENCH_SF_SMALL", 0.005)


def sf_large() -> float:
    """Large engine scale factor (stands in for the paper's SF 10)."""
    return env_float("REPRO_BENCH_SF_LARGE", 0.02)


def column_subsets() -> list[tuple[Column, ...]]:
    """All non-empty subsets of the three lineitem date columns."""
    out: list[tuple[Column, ...]] = []
    for size in (1, 2, 3):
        out.extend(itertools.combinations(LINEITEM_DATES, size))
    return out


# ----------------------------------------------------------------------
# Efficacy records (Tables 2/3, Figures 7/8)
# ----------------------------------------------------------------------
@dataclass
class EfficacyRecord:
    query_index: int
    subset: tuple[str, ...]
    n_cols: int
    technique: str
    possible: bool
    valid: bool
    optimal: bool
    iterations: int = 0
    true_samples: int = 0
    false_samples: int = 0
    generation_ms: float = 0.0
    learning_ms: float = 0.0
    validation_ms: float = 0.0
    predicate: Pred | None = None
    #: SQL rendering of ``predicate``, preserved across JSON transit
    #: (checkpoint lines, worker payloads) where the ``Pred`` tree
    #: itself is not shipped.
    predicate_sql: str | None = None
    #: The cell's synthesis deadline expired (section 6.2): verdict and
    #: timings describe a truncated run.  Flows through checkpoint
    #: lines and reports so aggregates can keep partial cells out of
    #: timing averages.
    partial: bool = False
    #: The cell's nonzero :data:`~repro.smt.stats.GLOBAL_COUNTERS`
    #: delta (solver effort per tier, attributable per cell).
    counters: dict[str, int] = field(default_factory=dict)


_EFFICACY_CACHE: dict[tuple, list[EfficacyRecord]] = {}


def record_to_json(record: EfficacyRecord) -> dict:
    """JSON encoding of a record (one checkpoint line):
    ``predicate`` becomes its SQL rendering."""
    payload = asdict(record)
    del payload["predicate_sql"]  # folded into the "predicate" key
    payload["predicate"] = (
        render_pred(record.predicate)
        if record.predicate is not None
        else record.predicate_sql
    )
    return payload


def record_from_json(payload: dict) -> EfficacyRecord:
    """Inverse of :func:`record_to_json`; the SQL lands in
    ``predicate_sql`` and ``predicate`` is ``None``."""
    payload = dict(payload)
    payload["subset"] = tuple(payload["subset"])
    # Checkpoints written before these fields existed lack the keys.
    payload.setdefault("partial", False)
    payload.setdefault("counters", {})
    payload["predicate_sql"] = payload["predicate"]
    payload["predicate"] = None
    return EfficacyRecord(**payload)


def _ground_truth_possible(wq: WorkloadQuery, subset: tuple[Column, ...]) -> bool:
    """Whether any non-trivial valid predicate over ``subset`` exists:
    the unsatisfaction region must be non-empty (Lemma 4)."""
    if not set(subset) <= wq.predicate.columns():
        return False
    formula, ctx = lower_predicate(wq.predicate)
    target_vars = {ctx.var_of_column[c] for c in subset if c in ctx.var_of_column}
    if len(target_vars) != len(subset):
        return False
    region = unsat_region(formula, target_vars)
    try:
        return is_satisfiable(region.formula)
    except Exception:
        return False


def _run_sia_variant(
    wq: WorkloadQuery,
    subset: tuple[Column, ...],
    technique: str,
    *,
    deadline_ms: float | None = None,
) -> EfficacyRecord:
    """One synthesis cell.  ``deadline_ms`` caps the CEGIS wall-clock
    via ``SiaConfig.timeout_ms`` (cooperative, section 6.2): an expired
    run still returns a record carrying the best predicate found."""
    config = _CONFIGS[technique]
    if deadline_ms is not None:
        config = replace(config, timeout_ms=deadline_ms)
    outcome = Synthesizer(config).synthesize(wq.predicate, set(subset))
    return EfficacyRecord(
        query_index=wq.index,
        subset=tuple(c.name for c in subset),
        n_cols=len(subset),
        technique=technique,
        possible=False,  # filled by the caller
        valid=outcome.is_valid,
        optimal=outcome.is_optimal,
        iterations=outcome.iterations,
        true_samples=outcome.true_samples,
        false_samples=outcome.false_samples,
        generation_ms=outcome.timings.generation_ms,
        learning_ms=outcome.timings.learning_ms,
        validation_ms=outcome.timings.validation_ms,
        predicate=outcome.predicate,
        partial=outcome.timed_out,
    )


def _run_transitive_closure(
    wq: WorkloadQuery, subset: tuple[Column, ...]
) -> EfficacyRecord:
    start = _now()
    derived = TransitiveClosure(wq.predicate).derive(set(subset))
    generation_ms = (_now() - start) * 1000.0
    record = EfficacyRecord(
        query_index=wq.index,
        subset=tuple(c.name for c in subset),
        n_cols=len(subset),
        technique="TC",
        possible=False,
        valid=derived is not None,
        optimal=False,
        generation_ms=generation_ms,
        predicate=derived,
    )
    if derived is not None:
        start = _now()
        record.optimal = _tc_is_optimal(wq, subset, derived)
        record.validation_ms = (_now() - start) * 1000.0
    return record


def _tc_is_optimal(
    wq: WorkloadQuery, subset: tuple[Column, ...], derived: Pred
) -> bool:
    formula, ctx = lower_predicate(wq.predicate)
    target_vars = {ctx.var_of_column[c] for c in subset}
    region = unsat_region(formula, target_vars)
    derived_formula, _ = lower_predicate(derived, ctx)
    return unsat_proven(conj([region.formula, derived_formula]), 2000)


def efficacy_records(
    *,
    num_queries: int | None = None,
    seed: int | None = None,
    techniques: tuple[str, ...] = TECHNIQUES,
) -> list[EfficacyRecord]:
    """Synthesis attempts for every (query, subset, technique).

    Runs :func:`repro.bench.parallel.parallel_efficacy_records` on
    ``REPRO_BENCH_PARALLEL`` workers (0/1 = in-process); record order
    is identical either way.
    """
    from .parallel import parallel_efficacy_records

    num_queries = num_queries if num_queries is not None else bench_queries()
    seed = seed if seed is not None else bench_seed()
    key = (num_queries, seed, techniques)
    cached = _EFFICACY_CACHE.get(key)
    if cached is None:
        cached = parallel_efficacy_records(
            num_queries=num_queries,
            seed=seed,
            techniques=techniques,
            workers=env_int("REPRO_BENCH_PARALLEL", 0),
        ).records
        _EFFICACY_CACHE[key] = cached
    return cached


# ----------------------------------------------------------------------
# Aggregations for Tables 2/3 and Figures 7/8
# ----------------------------------------------------------------------
def table2_rows(records: list[EfficacyRecord]) -> list[list[object]]:
    """# possible / per-technique # valid and # optimal, by column count."""
    rows = []
    for n_cols in (1, 2, 3):
        subset_records = [r for r in records if r.n_cols == n_cols]
        possible_keys = {
            (r.query_index, r.subset) for r in subset_records if r.possible
        }
        row: list[object] = [_COL_LABEL[n_cols], len(possible_keys)]
        for technique in TECHNIQUES:
            tech = [
                r
                for r in subset_records
                if r.technique == technique and r.possible
            ]
            row.append(sum(1 for r in tech if r.valid))
            row.append(sum(1 for r in tech if r.optimal))
        rows.append(row)
    return rows


_COL_LABEL = {1: "one", 2: "two", 3: "three"}


def table3_rows(records: list[EfficacyRecord]) -> list[list[object]]:
    """Average generation/learning/validation ms per column count.

    Partial cells (expired deadlines) are excluded: their timings are
    truncated at the budget, and averaging them in would silently bias
    the per-phase costs downward.
    """
    rows = []
    for n_cols in (1, 2, 3):
        row: list[object] = [_COL_LABEL[n_cols]]
        for technique in ("SIA", "SIA_v1", "SIA_v2"):
            tech = [
                r
                for r in records
                if r.n_cols == n_cols and r.technique == technique
                and r.possible and not r.partial
            ]
            if tech:
                row.extend(
                    [
                        mean(r.generation_ms for r in tech),
                        mean(r.learning_ms for r in tech),
                        mean(r.validation_ms for r in tech),
                    ]
                )
            else:
                row.extend(["-", "-", "-"])
        rows.append(row)
    return rows


def fig7_rows(records: list[EfficacyRecord]) -> tuple[list[list[object]], list[str]]:
    """Iterations-to-optimal distribution for SIA, by column count."""
    edges = (1, 10, 20, 30, 40)
    labels = ["1", "2-10", "11-20", "21-30", "31-40", "41+"]
    rows = []
    for n_cols in (1, 2, 3):
        optimal = [
            r.iterations
            for r in records
            if r.technique == "SIA" and r.n_cols == n_cols and r.optimal
        ]
        from .report import histogram

        counts = histogram(optimal, edges)
        avg = mean(optimal) if optimal else 0.0
        rows.append([_COL_LABEL[n_cols], len(optimal), f"{avg:.1f}"] + counts)
    return rows, labels


def fig8_rows(records: list[EfficacyRecord]) -> tuple[list[list[object]], list[str]]:
    """Distribution of final TRUE/FALSE sample counts for SIA."""
    edges = (25, 50, 100, 150, 200)
    labels = ["<=25", "26-50", "51-100", "101-150", "151-200", ">200"]
    from .report import histogram

    rows = []
    for kind, getter in (
        ("TRUE", lambda r: r.true_samples),
        ("FALSE", lambda r: r.false_samples),
    ):
        for n_cols in (1, 2, 3):
            values = [
                getter(r)
                for r in records
                if r.technique == "SIA" and r.n_cols == n_cols and r.valid
            ]
            rows.append([kind, _COL_LABEL[n_cols]] + histogram(values, edges))
    return rows, labels


# ----------------------------------------------------------------------
# Runtime records (Figure 9, Table 4)
# ----------------------------------------------------------------------
@dataclass
class RuntimeRecord:
    query_index: int
    rewritten: bool
    selectivity: float = 1.0
    original_ms: float = 0.0
    rewritten_ms: float = 0.0
    original_tuples: int = 0
    rewritten_tuples: int = 0
    original_rows: int = 0
    rewritten_rows: int = 0

    @property
    def time_speedup(self) -> float:
        if self.rewritten_ms <= 0:
            return 1.0
        return self.original_ms / self.rewritten_ms

    @property
    def tuple_speedup(self) -> float:
        """Hardware-independent proxy: join-input tuples saved.

        Predicate pushdown acts exactly here (fewer tuples enter the
        join), so this ratio isolates the paper's mechanism from
        engine-specific constant factors.
        """
        if self.rewritten_tuples <= 0:
            return 1.0
        return self.original_tuples / self.rewritten_tuples


_RUNTIME_CACHE: dict[tuple, list[RuntimeRecord]] = {}
_CATALOG_CACHE: dict[tuple, Catalog] = {}


def catalog_for(scale_factor: float, seed: int = 0) -> Catalog:
    """Cached TPC-H catalog per (scale factor, seed)."""
    key = (scale_factor, seed)
    if key not in _CATALOG_CACHE:
        _CATALOG_CACHE[key] = generate_catalog(scale_factor, seed=seed)
    return _CATALOG_CACHE[key]


def runtime_records(
    *,
    scale_factor: float,
    num_queries: int | None = None,
    seed: int | None = None,
    repeats: int = 3,
) -> list[RuntimeRecord]:
    """Original vs rewritten execution for every rewritable query."""
    num_queries = num_queries if num_queries is not None else bench_queries()
    seed = seed if seed is not None else bench_seed()
    key = (scale_factor, num_queries, seed)
    cached = _RUNTIME_CACHE.get(key)
    if cached is not None:
        return cached

    catalog = catalog_for(scale_factor)
    lineitem = catalog.get("lineitem").to_relation()
    records: list[RuntimeRecord] = []
    for wq in generate_workload(num_queries, seed=seed):
        result = rewrite_query(wq.query, "lineitem")
        if not result.succeeded:
            records.append(RuntimeRecord(wq.index, rewritten=False))
            continue
        sel = selectivity(
            result.outcome.predicate, lineitem.resolver(), lineitem.num_rows
        )
        plan_orig = build_plan(wq.query)
        plan_rew = build_plan(result.rewritten)
        orig_ms, orig_tuples, orig_rows = _measure(plan_orig, catalog, repeats)
        rew_ms, rew_tuples, rew_rows = _measure(plan_rew, catalog, repeats)
        if orig_rows != rew_rows:
            raise AssertionError(
                f"semantics changed for query {wq.index}: "
                f"{orig_rows} vs {rew_rows} rows"
            )
        records.append(
            RuntimeRecord(
                query_index=wq.index,
                rewritten=True,
                selectivity=sel,
                original_ms=orig_ms,
                rewritten_ms=rew_ms,
                original_tuples=orig_tuples,
                rewritten_tuples=rew_tuples,
                original_rows=orig_rows,
                rewritten_rows=rew_rows,
            )
        )
    _RUNTIME_CACHE[key] = records
    return records


def _measure(plan, catalog: Catalog, repeats: int) -> tuple[float, int, int]:
    best_ms = float("inf")
    tuples = rows = 0
    for _ in range(repeats):
        relation, stats = execute(plan, catalog)
        best_ms = min(best_ms, stats.elapsed_ms)
        tuples = stats.join_input_tuples
        rows = relation.num_rows
    return best_ms, tuples, rows


def fig9_summary(records: list[RuntimeRecord]) -> dict[str, int]:
    """The counts the paper reads off the Figure 9 scatter plots."""
    done = [r for r in records if r.rewritten]
    return {
        "rewritten": len(done),
        "faster": sum(1 for r in done if r.time_speedup > 1.0),
        "faster_2x": sum(1 for r in done if r.time_speedup >= 2.0),
        "slower": sum(1 for r in done if r.time_speedup < 1.0),
        "slower_2x": sum(1 for r in done if r.time_speedup <= 0.5),
        "cost_faster": sum(1 for r in done if r.tuple_speedup > 1.0),
        "cost_faster_2x": sum(1 for r in done if r.tuple_speedup >= 2.0),
    }


def table4_rows(records: list[RuntimeRecord]) -> list[list[object]]:
    """Average synthesized-predicate selectivity per outcome class."""
    done = [r for r in records if r.rewritten]
    classes = {
        "faster": [r for r in done if r.time_speedup > 1.0],
        "2x faster": [r for r in done if r.time_speedup >= 2.0],
        "slower": [r for r in done if r.time_speedup < 1.0],
        "2x slower": [r for r in done if r.time_speedup <= 0.5],
    }
    rows = []
    for label, subset in classes.items():
        avg = mean(r.selectivity for r in subset) if subset else float("nan")
        rows.append([label, len(subset), avg if subset else "-"])
    return rows
