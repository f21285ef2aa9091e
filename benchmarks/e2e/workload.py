"""One workload of the end-to-end benchmark, measured in its own process.

``run.py`` starts this file once per set-up probe, measured run or
profiling run, and reads the one JSON object it prints::

    python3 benchmarks/e2e/workload.py --workload adhoc --seed 13 --seconds 25
    python3 benchmarks/e2e/workload.py --workload adhoc --seed 13 --mode traced \
        --trace-file adhoc.jsonl

The program under test receives only SQL strings.  Each request goes
through the public entry point of every layer -- ``parse_query`` ->
``RewriteCache.rewrite`` -> ``render_query`` -> ``build_plan`` ->
``execute`` -- and each call is timed from outside.  ``test_smoke.py``
calls the same functions in-process.
"""

import time

#: Set-up is timed from the process's first statement, before repro loads.
PROCESS_T0 = time.perf_counter()

import argparse
import datetime as dt
import io
import json
import math
import os
import random
import re
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np

from repro.engine import build_plan, execute
from repro.obs import GLOBAL_METRICS, Tracer, get_tracer, now, set_tracer
from repro.obs.replay import load_trace
from repro.predicates import selectivity
from repro.rewrite import FULL_SET, PER_COLUMN, RewriteCache
from repro.smt.stats import GLOBAL_COUNTERS
from repro.sql.binder import parse_query
from repro.sql.printer import render_query
from repro.tpch import generate_catalog, generate_workload
from repro.tpch.queries import get_query
from repro.tpch.workload import schema

TARGET_TABLE = "lineitem"

# ----------------------------------------------------------------------
# Workloads and their inputs
# ----------------------------------------------------------------------
#: The query templates are section 6.3 queries of this generator seed.
#: A run's ``--seed`` draws the ad-hoc constants, the request order, the
#: Zipf draws and the data, while the synthesis work -- which follows a
#: template's shape far more than its constants -- stays comparable.
#: Generator seeds differ by up to 10x in synthesis time over 25
#: queries, and some stall in generation (README.md, "Seed hazards").
TEMPLATE_SEED = 13

#: Ad-hoc constants: each literal moves by up to this many days (date
#: literals) or units (integer literals), in the direction that weakens
#: its comparison.  A weaker conjunction of a satisfiable predicate is
#: satisfiable, so no draw needs a solver check.
DATE_SLACK_DAYS = 30
INT_SLACK = 3

_COMPARISON = re.compile(r" (<=|>=|<|>|=) ")
_DATE_LITERAL = re.compile(r"DATE '(\d{4}-\d{2}-\d{2})'")
_INT_LITERAL = re.compile(r"(?:^|(?<=\+ ))-?\d+$")
#: The sign of a right-hand-side change that weakens each comparison.
_WEAKER = {"<": 1, "<=": 1, ">": -1, ">=": -1, "=": 0}


@dataclass(frozen=True)
class Workload:
    """A mix of query templates and how requests are drawn from it.

    A ``plan_cache`` workload keeps one ``RewriteCache`` for the run and
    draws template ``k`` with weight ``1/(k+1)``, so each shape is
    synthesized once and then served from the cache.  The others send
    every template once per pass, each pass with a fresh cache, so every
    request is a cache miss.  With ``fresh_constants`` every request
    carries newly drawn constants (``loosen``), so no two requests of a
    run send the same SQL; without it the templates keep their
    generated constants and each pass repeats the same queries.
    """

    name: str
    templates: tuple[int, ...]
    strategy: str
    scale_factor: float
    plan_cache: bool = False
    fresh_constants: bool = False

    def weights(self) -> list[float]:
        if self.plan_cache:
            return [1.0 / (rank + 1) for rank in range(len(self.templates))]
        return [1.0] * len(self.templates)


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Thirteen non-trivial queries among the generator's first 60
        # whose iteration count moves by at most one when their
        # constants move -- 1 to 7 CEGIS iterations, 50 to 500 ms --
        # plus its first four trivial ones, under half of the mix so the
        # median lands on the synthesis path.  A pass takes 1.2 to 2.9 s,
        # so a run sends every template about 14 times, with new
        # constants each time.
        Workload(
            "adhoc",
            (3, 7, 17, 18, 23, 25, 27, 31, 39, 47, 48, 53, 57, 1, 4, 9, 10),
            PER_COLUMN,
            0.01,
            fresh_constants=True,
        ),
        # The generator's first 16 queries: the section 6.2 plan-cache
        # deployment at SF 0.1, where the engine does most of the work.
        Workload("plan_cache", tuple(range(16)), PER_COLUMN, 0.1, plan_cache=True),
        # The three queries among the generator's first 200 over exactly
        # two lineitem date columns whose full-set synthesis converges
        # (1 to 7 iterations, ~1.5 s for all three); every other one runs
        # to the 41-iteration cap, ~9 s each, too long to repeat within
        # a run.  Their constants stay: in two dimensions moving them by
        # a few days swings a synthesis between 1 and 18 iterations.
        Workload("fullset_2col", (123, 168, 184), FULL_SET, 0.01),
    )
}


def loosen(sql: str, rng: random.Random) -> str:
    """``sql`` with fresh constants, each moved toward a weaker predicate.

    The generator writes ``SELECT ... WHERE a AND b AND ...`` with every
    literal on the right of its comparison, so raising it weakens ``<``
    and ``<=``, lowering it weakens ``>`` and ``>=``, and ``=`` keeps
    its literal."""
    head, where = sql.split(" WHERE ", 1)
    atoms = []
    for atom in where.split(" AND "):
        comparison = _COMPARISON.search(atom)
        sign = _WEAKER[comparison.group(1)]
        lhs, rhs = atom[: comparison.end()], atom[comparison.end() :]

        def shift_date(match: re.Match) -> str:
            day = dt.date.fromisoformat(match.group(1))
            day += dt.timedelta(days=sign * rng.randint(0, DATE_SLACK_DAYS))
            return f"DATE '{day.isoformat()}'"

        def shift_int(match: re.Match) -> str:
            return str(int(match.group(0)) + sign * rng.randint(0, INT_SLACK))

        rhs = _INT_LITERAL.sub(shift_int, _DATE_LITERAL.sub(shift_date, rhs))
        atoms.append(lhs + rhs)
    return f"{head} WHERE {' AND '.join(atoms)}"


def trace_slice(workload: Workload) -> int:
    """Requests of a profiling run: three passes, or the first 120 plan-
    cache draws.  A fixed slice, so its counts repeat exactly for a seed."""
    return 120 if workload.plan_cache else 3 * len(workload.templates)


def request_stream(workload: Workload, queries: list[str], rng: random.Random):
    """Endless ``(pass, template index, sql)`` requests: Zipf draws for
    the plan-cache workload, otherwise passes over every template in a
    fresh order."""
    order = list(range(len(queries)))
    if workload.plan_cache:
        weights = workload.weights()
        while True:
            index = rng.choices(order, weights=weights)[0]
            yield 0, index, queries[index]
    pass_no = 0
    while True:
        rng.shuffle(order)
        for index in order:
            sql = queries[index]
            yield pass_no, index, loosen(sql, rng) if workload.fresh_constants else sql
        pass_no += 1


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Env:
    """Everything a run needs besides the requests themselves."""

    workload: Workload
    catalog: object
    schema: dict
    queries: list[str]
    rng: random.Random
    dbgen_s: float
    workload_gen_s: float


def set_up(workload: Workload, seed: int) -> Env:
    """Data, the templates' SQL text and one warm-up request (the
    motivating query, which is in no workload), so lazy imports and
    first-use costs are paid before timing starts."""
    tables = schema()
    t0 = now()
    catalog = generate_catalog(workload.scale_factor, seed=seed)
    t1 = now()
    generated = generate_workload(max(workload.templates) + 1, seed=TEMPLATE_SEED)
    queries = [generated[index].sql for index in workload.templates]
    t2 = now()
    warm = parse_query(get_query("q_motivating").sql, tables)
    result = RewriteCache().rewrite(warm, TARGET_TABLE)
    execute(build_plan(result.rewritten or warm), catalog)
    return Env(workload, catalog, tables, queries, random.Random(seed), t1 - t0, t2 - t1)


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One request's timings (ms) and what the layers did with it."""

    template: int
    pass_no: int
    sql: str
    total_ms: float = 0.0
    parse_ms: float = 0.0
    rewrite_ms: float = 0.0
    render_ms: float = 0.0
    plan_ms: float = 0.0
    exec_ms: float = 0.0
    hit: bool = False
    out_sql: str = ""
    outcome: object = None  # the synthesis outcome, on a cache miss
    operators: dict = field(default_factory=dict)
    tuples: int = 0
    peak_bytes: int = 0
    error: str | None = None

    @property
    def optimize_ms(self) -> float:
        """SQL text in -> rewritten SQL text out."""
        return self.parse_ms + self.rewrite_ms + self.render_ms


@dataclass
class Shape:
    """A distinct rewritten query and the original it came from."""

    original: object
    result: object
    requests: list[Request] = field(default_factory=list)


@dataclass
class Run:
    requests: list[Request]
    shapes: dict[str, Shape]
    caches: list[RewriteCache]


def serve(env: Env, cache: RewriteCache, request: Request, shapes: dict) -> None:
    """Send one request through every layer, timing each call."""
    tracer = get_tracer()
    with tracer.span("request", template=request.template, pass_no=request.pass_no):
        t0 = now()
        with tracer.span("sql.parse", phase="sql.parse"):
            bound = parse_query(request.sql, env.schema)
        t1 = now()
        misses = cache.stats.misses
        with tracer.span("rewrite.cache"):
            result = cache.rewrite(bound, TARGET_TABLE)
        t2 = now()
        query = result.rewritten or bound
        with tracer.span("sql.render", phase="sql.render"):
            out_sql = render_query(query)
        t3 = now()
        with tracer.span("engine.plan", phase="engine.plan"):
            plan = build_plan(query)
        t4 = now()
        with tracer.span("engine.execute", phase="engine.execute"):
            _rows, stats = execute(plan, env.catalog)
        t5 = now()
    request.parse_ms = (t1 - t0) * 1000.0
    request.rewrite_ms = (t2 - t1) * 1000.0
    request.render_ms = (t3 - t2) * 1000.0
    request.plan_ms = (t4 - t3) * 1000.0
    request.exec_ms = (t5 - t4) * 1000.0
    request.hit = cache.stats.misses == misses
    if not request.hit:
        request.outcome = result.outcome
    request.out_sql = out_sql
    for op in stats.operators:
        kind = op.label.split("(", 1)[0].lower()
        request.operators[kind] = request.operators.get(kind, 0.0) + op.elapsed_ms
    request.tuples = stats.tuples_processed
    request.peak_bytes = stats.peak_bytes
    if result.rewritten is not None:
        shapes.setdefault(out_sql, Shape(bound, result)).requests.append(request)


def run_requests(
    env: Env, *, seconds: float | None = None, requests: int | None = None
) -> Run:
    """The closed loop: one client, the next request sent when the last
    returns.  Stops after ``requests`` requests, or once ``seconds``
    have elapsed; a pass-based workload stops only between passes,
    always finishes its first and starts another only if the last one
    says it fits."""
    workload = env.workload
    caches = [RewriteCache(strategy=workload.strategy)]
    done: list[Request] = []
    shapes: dict[str, Shape] = {}
    start = pass_start = now()
    for pass_no, template, sql in request_stream(workload, env.queries, env.rng):
        new_pass = bool(done) and pass_no != done[-1].pass_no
        if requests is not None:
            if len(done) >= requests:
                break
        elif workload.plan_cache:
            if now() - start >= seconds:
                break
        elif new_pass:
            clock = now()
            if clock - start + (clock - pass_start) > seconds:
                break
            pass_start = clock
        if new_pass:
            caches.append(RewriteCache(strategy=workload.strategy))
        request = Request(template, pass_no, sql)
        t0 = now()
        try:
            serve(env, caches[-1], request, shapes)
        except Exception as exc:  # a failed request is counted, not fatal
            request.error = f"{type(exc).__name__}: {exc}"
        request.total_ms = (now() - t0) * 1000.0
        done.append(request)
    return Run(done, shapes, caches)


# ----------------------------------------------------------------------
# Checks outside the timed loop
# ----------------------------------------------------------------------
def _row_keys(relation) -> list[np.ndarray]:
    keys = []
    for column in sorted(relation.data, key=lambda c: c.qualified):
        values, nulls = relation.values_and_nulls(column)
        if nulls is not None:
            keys.append(nulls.astype(np.int8))
            values = np.where(nulls, 0, values)
        keys.append(values)
    return keys


def same_rows(left, right) -> bool:
    """Whether two relations hold equal row multisets over all columns."""
    if left.num_rows != right.num_rows or set(left.data) != set(right.data):
        return False
    if left.num_rows == 0:
        return True
    keys_left, keys_right = _row_keys(left), _row_keys(right)
    order_left = np.lexsort(keys_left[::-1])
    order_right = np.lexsort(keys_right[::-1])
    return all(
        np.array_equal(a[order_left], b[order_right])
        for a, b in zip(keys_left, keys_right)
    )


@dataclass
class ShapeCheck:
    """Original vs rewritten execution of one distinct rewritten shape."""

    speedup: float = 1.0
    original_join_tuples: int = 0
    rewritten_join_tuples: int = 0
    selectivity: float = 1.0
    error: str | None = None


def check_shape(env: Env, out_sql: str, shape: Shape, lineitem) -> ShapeCheck:
    """SQL round-trip, same rows, and best-of-3 original vs rewritten
    ``execute`` time with the runs alternating."""
    check = ShapeCheck()
    if render_query(parse_query(out_sql, env.schema)) != out_sql:
        check.error = "rewritten SQL does not round-trip through parse and render"
    plans = (build_plan(shape.original), build_plan(shape.result.rewritten))
    best = [math.inf, math.inf]
    outputs = [None, None]
    for _ in range(3):
        for side, plan in enumerate(plans):
            t0 = now()
            outputs[side] = execute(plan, env.catalog)
            best[side] = min(best[side], now() - t0)
    (original, original_stats), (rewritten, rewritten_stats) = outputs
    if check.error is None and not same_rows(original, rewritten):
        check.error = (
            f"rewritten query returns other rows ({rewritten.num_rows} "
            f"rows, original {original.num_rows})"
        )
    check.speedup = best[0] / best[1]
    check.original_join_tuples = original_stats.join_input_tuples
    check.rewritten_join_tuples = rewritten_stats.join_input_tuples
    check.selectivity = selectivity(
        shape.result.outcome.predicate, lineitem.resolver(), lineitem.num_rows
    )
    return check


def check_shapes(env: Env, shapes: dict) -> list[ShapeCheck]:
    """Check every distinct rewritten shape; a failed check fails every
    request that returned it."""
    lineitem = env.catalog.get(TARGET_TABLE).to_relation()
    checks = []
    for out_sql, shape in shapes.items():
        try:
            check = check_shape(env, out_sql, shape, lineitem)
        except Exception as exc:  # e.g. a rewrite that no longer binds
            check = ShapeCheck(error=f"{type(exc).__name__}: {exc}")
        if check.error is not None:
            for request in shape.requests:
                request.error = request.error or check.error
        checks.append(check)
    return checks


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: The gated end-to-end metrics (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "e2e_p50_ms": "ms",
    "optimize_p50_ms": "ms",
    "exec_speedup_geomean": "x",
    "rewritten_frac": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile, ``0 < share <= 1``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def weighted_median(pairs: list[tuple[float, float]]) -> float | None:
    """Nearest-rank median of ``(value, weight)`` pairs; None if empty."""
    ordered = sorted(pairs)
    half = sum(weight for _, weight in ordered) / 2.0
    running = 0.0
    for value, weight in ordered:
        running += weight
        if running >= half:
            return value
    return None


def median(values) -> float | None:
    """The median, or None when there is nothing to summarize."""
    values = list(values)
    return statistics.median(values) if values else None


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def best_per_template(run: Run, workload: Workload, latency) -> dict[int, float]:
    """Each template's best latency over its successful requests: for
    the plan-cache workload its cache hits, otherwise all its requests,
    every pass having a fresh cache."""
    best: dict[int, float] = {}
    for request in run.requests:
        if request.error is None and request.hit == workload.plan_cache:
            value = latency(request)
            best[request.template] = min(value, best.get(request.template, value))
    return best


def end_to_end(env: Env, run: Run, checks: list[ShapeCheck], setup_s: float):
    """The metrics a user sees: ``(gated, extra)`` dicts of
    ``name -> (value, unit)``.

    Timings are taken per template first -- its best of the requests it
    got, because this machine's speed swings by up to 2x for tens of
    seconds at a time, and over ten seeds a best-of-k spreads half as
    much as a median (README.md, "Noise") -- and then over the weighted
    mix: its median, and its throughput in requests per second of
    request time.  So runs of any length and seed measure the same mix.
    A timing with no successful request to measure is None."""
    requests = run.requests
    weights = env.workload.weights()
    e2e = best_per_template(run, env.workload, lambda r: r.total_ms)
    optimize = best_per_template(run, env.workload, lambda r: r.optimize_ms)
    mix = [(e2e[t], optimize[t], weights[t]) for t in sorted(e2e)]
    ok = [r for r in requests if r.error is None]
    rewritten = {r.template for r in ok if r.out_sql in run.shapes}
    asked = {r.template for r in ok}
    speedups = [check.speedup for check in checks if check.error is None]
    e2e_all = [r.total_ms for r in ok]
    tail = (len(e2e_all) - 10) / len(e2e_all) if len(e2e_all) > 10 else None
    outcomes = [r.outcome for r in ok if r.outcome is not None and r.outcome.is_valid]
    gated = {
        "setup_s": setup_s,
        "queries_per_s": sum(w for *_, w in mix) / sum(e * w for e, _, w in mix) * 1000.0
        if mix else None,
        "e2e_p50_ms": weighted_median([(e, w) for e, _, w in mix]),
        "optimize_p50_ms": weighted_median([(o, w) for _, o, w in mix]),
        "exec_speedup_geomean": geomean(speedups) if speedups else None,
        "rewritten_frac": len(rewritten) / len(asked) if asked else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "requests": (len(requests), "count"),
        "passes": (1 + max((r.pass_no for r in requests), default=0), "count"),
        "templates_measured": (len(mix), "count"),
        "tail_percentile": (100.0 * tail if tail else None, "%"),
        "e2e_tail_ms": (percentile(e2e_all, tail) if tail else None, "ms"),
        "optimize_tail_ms": (
            percentile([r.optimize_ms for r in ok], tail) if tail else None, "ms"
        ),
        "slower_frac": (
            sum(1 for s in speedups if s <= 1 / 1.10) / max(1, len(speedups)),
            "ratio",
        ),
        "optimal_frac": (
            sum(1 for o in outcomes if o.is_optimal) / max(1, len(outcomes)), "ratio"
        ),
        "error_frac": (
            sum(1 for r in requests if r.error) / max(1, len(requests)), "ratio"
        ),
        "cache_hits": (sum(cache.stats.hits for cache in run.caches), "count"),
    }
    return {k: (v, END_TO_END[k]) for k, v in gated.items()}, extra


#: Traced layer rows: span ``phase`` attribute or name -> layer.  A
#: span's self time is its duration minus what its children cover, and
#: is charged to its layer, or its parent's when it has none (sampler
#: and verifier spans inside a CEGIS phase).  The request span's own
#: self time is the untraced residue.
LAYER_OF_SPAN = {
    "request": "untraced",
    "sql.parse": "sql.parse",
    "rewrite.cache": "rewrite",
    "synthesize": "core.synthesize",
    "cegis.iteration": "core.iteration",
    "qe": "core.qe",
    "generate_samples": "core.generate_samples",
    "learn": "core.learn",
    "verify": "core.verify",
    "counter_t": "core.counter_t",
    "counter_f": "core.counter_f",
    "minimize": "core.minimize",
    "sql.render": "sql.render",
    "engine.plan": "engine.plan",
    "engine.execute": "engine.execute",
}

#: The per-layer metrics (BENCHMARK.json ``per_layer``), name -> unit.
PER_LAYER = {
    "tpch.dbgen_s": "s",
    "tpch.workload_gen_s": "s",
    "sql.parse_p50_ms": "ms",
    "sql.parse_sum_ms": "ms",
    "sql.render_p50_ms": "ms",
    "rewrite.cache_hits": "count",
    "rewrite.cache_misses": "count",
    "rewrite.cache_hit_rate": "ratio",
    "rewrite.miss_p50_ms": "ms",
    "rewrite.miss_sum_ms": "ms",
    "rewrite.syntheses_per_miss": "count",
    "core.synthesize_count": "count",
    "core.synthesize_sum_ms": "ms",
    "core.synthesize_p50_ms": "ms",
    "core.generation_ms": "ms",
    "core.learning_ms": "ms",
    "core.validation_ms": "ms",
    "core.iterations": "count",
    "core.true_samples": "count",
    "core.false_samples": "count",
    "core.valid_candidate_ratio": "ratio",
    "core.optimal_ratio": "ratio",
    "learn.calls": "count",
    "learn.ms_per_call": "ms",
    "smt.checks": "count",
    "smt.solvers_constructed": "count",
    "smt.session_checks": "count",
    "smt.warm_share": "ratio",
    "smt.sessions_created": "count",
    "smt.sessions_reused": "count",
    "smt.pivots": "count",
    "smt.float_pivots": "count",
    "smt.float_pivot_share": "ratio",
    "smt.tier_fallbacks": "count",
    "smt.tier_disagreements": "count",
    "smt.clauses_learned": "count",
    "smt.restarts": "count",
    "smt.session_check_count": "count",
    "smt.session_check_sum_ms": "ms",
    "smt.session_check_p50_ms": "ms",
    "smt.session_check_p95_ms": "ms",
    "smt.tier.float_ms": "ms",
    "smt.tier.exact_ms": "ms",
    "predicates.selectivity_mean": "ratio",
    "engine.plan_p50_ms": "ms",
    "engine.exec_p50_ms": "ms",
    "engine.exec_sum_ms": "ms",
    "engine.scan_ms": "ms",
    "engine.filter_ms": "ms",
    "engine.join_ms": "ms",
    "engine.join_input_reduction": "x",
    "engine.tuples_processed": "count",
    "engine.peak_bytes": "B",
    # CounterT never runs on the 1-D workloads -- every learned candidate
    # verifies -- so its self time is printed in the table but is not a
    # metric: a time that reads 0 on every run measures nothing.
    **{
        f"trace.{layer}_ms": "ms"
        for layer in dict.fromkeys(LAYER_OF_SPAN.values())
        if layer != "core.counter_t"
    },
    "trace.request_wall_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def self_times(replay) -> dict[str, float]:
    """Self time (ms) per layer over every span of a trace."""
    rows: dict[str, float] = {}
    stack = [(root, "untraced") for root in replay.roots]
    while stack:
        node, parent_layer = stack.pop()
        layer = LAYER_OF_SPAN.get(node.phase or node.name, parent_layer)
        covered = sum(
            max(0.0, min(child.t1, node.t1) - max(child.t0, node.t0))
            for child in node.children
        )
        rows[layer] = rows.get(layer, 0.0) + node.duration_ms - covered
        stack.extend((child, layer) for child in node.children)
    return rows


def per_layer(env: Env, run: Run, checks, counters: dict, timers: dict, replay) -> dict:
    """The per-layer metrics of a traced run, ``name -> value``; a
    median with no successful request to summarize is None."""
    requests = [r for r in run.requests if r.error is None]
    misses = [r for r in requests if not r.hit]
    spans = list(replay.spans.values())

    def named(name):
        return [node for node in spans if node.name == name]

    synth = named("synthesize")
    learns = named("cegis.learn")
    verifies = named("cegis.verify")
    timer = timers.get("timers", {}).get
    session = timer("smt.session_check_ms", {})
    session_values = session.get("values") or [0.0]
    layers = self_times(replay)
    cache_stats = [cache.stats for cache in run.caches]
    hits = sum(s.hits for s in cache_stats)
    lookups = hits + sum(s.misses for s in cache_stats)
    ok_checks = [c for c in checks if c.error is None]
    values = {
        "tpch.dbgen_s": env.dbgen_s,
        "tpch.workload_gen_s": env.workload_gen_s,
        "sql.parse_p50_ms": median(r.parse_ms for r in requests),
        "sql.parse_sum_ms": sum(r.parse_ms for r in requests),
        "sql.render_p50_ms": median(r.render_ms for r in requests),
        "rewrite.cache_hits": hits,
        "rewrite.cache_misses": lookups - hits,
        "rewrite.cache_hit_rate": hits / max(1, lookups),
        "rewrite.miss_p50_ms": median(r.rewrite_ms for r in misses),
        "rewrite.miss_sum_ms": sum(r.rewrite_ms for r in misses),
        "rewrite.syntheses_per_miss": len(synth) / max(1, len(misses)),
        "core.synthesize_count": len(synth),
        "core.synthesize_sum_ms": sum(n.duration_ms for n in synth),
        "core.synthesize_p50_ms": median(n.duration_ms for n in synth),
        "core.generation_ms": sum(r.outcome.timings.generation_ms for r in misses),
        "core.learning_ms": sum(r.outcome.timings.learning_ms for r in misses),
        "core.validation_ms": sum(r.outcome.timings.validation_ms for r in misses),
        "core.iterations": sum(n.attrs.get("iterations", 0) for n in synth),
        "core.true_samples": sum(n.attrs.get("true_samples", 0) for n in synth),
        "core.false_samples": sum(n.attrs.get("false_samples", 0) for n in synth),
        "core.valid_candidate_ratio": sum(1 for n in verifies if n.attrs.get("valid"))
        / max(1, len(verifies)),
        "core.optimal_ratio": sum(1 for n in synth if n.attrs.get("status") == "optimal")
        / max(1, len(synth)),
        "learn.calls": len(learns),
        "learn.ms_per_call": sum(n.duration_ms for n in learns) / max(1, len(learns)),
        **{f"smt.{name}": counters[name] for name in (
            "checks", "solvers_constructed", "session_checks", "sessions_created",
            "sessions_reused", "pivots", "float_pivots", "tier_fallbacks",
            "tier_disagreements", "clauses_learned", "restarts",
        )},
        "smt.warm_share": counters["session_checks"] / max(1, counters["checks"]),
        "smt.float_pivot_share": counters["float_pivots"]
        / max(1, counters["float_pivots"] + counters["pivots"]),
        "smt.session_check_count": session.get("count", 0),
        "smt.session_check_sum_ms": session.get("total", 0.0),
        "smt.session_check_p50_ms": percentile(session_values, 0.50),
        "smt.session_check_p95_ms": percentile(session_values, 0.95),
        "smt.tier.float_ms": timer("smt.tier.float_ms", {}).get("total", 0.0),
        "smt.tier.exact_ms": timer("smt.tier.exact_ms", {}).get("total", 0.0),
        "predicates.selectivity_mean": statistics.fmean(c.selectivity for c in ok_checks)
        if ok_checks else None,
        "engine.plan_p50_ms": median(r.plan_ms for r in requests),
        "engine.exec_p50_ms": median(r.exec_ms for r in requests),
        "engine.exec_sum_ms": sum(r.exec_ms for r in requests),
        "engine.scan_ms": sum(r.operators.get("scan", 0.0) for r in requests),
        "engine.filter_ms": sum(r.operators.get("filter", 0.0) for r in requests),
        "engine.join_ms": sum(r.operators.get("hashjoin", 0.0) for r in requests),
        "engine.join_input_reduction": sum(c.original_join_tuples for c in ok_checks)
        / max(1, sum(c.rewritten_join_tuples for c in ok_checks)),
        "engine.tuples_processed": sum(r.tuples for r in requests),
        "engine.peak_bytes": max((r.peak_bytes for r in requests), default=None),
        **{f"trace.{layer}_ms": layers.get(layer, 0.0)
           for layer in dict.fromkeys(LAYER_OF_SPAN.values())},
        "trace.request_wall_ms": sum(r.total_ms for r in run.requests),
    }
    return values


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------
def replay_of(text: str):
    """``load_trace`` over trace text held in memory: an anonymous
    in-memory file stands in for the path, so nothing touches disk."""
    fd = os.memfd_create("trace")
    with open(fd, "w", encoding="utf-8", closefd=False) as handle:
        handle.write(text)
    os.lseek(fd, 0, os.SEEK_SET)
    return load_trace(fd)


def measure(
    workload: Workload,
    seed: int,
    *,
    seconds: float | None = None,
    requests: int | None = None,
    traced: bool = False,
    trace_file: Path | None = None,
) -> dict:
    """Set up, run the timed loop, check the answers; the JSON report.

    ``traced`` runs the loop under an in-memory tracer, makes the
    report's metrics the per-layer ones, and writes the spans to
    ``trace_file`` when one is given."""
    env = set_up(workload, seed)
    setup_s = now() - PROCESS_T0
    counters0, timers0 = GLOBAL_COUNTERS.snapshot(), GLOBAL_METRICS.snapshot()
    sink = io.StringIO()
    tracer = previous = None
    if traced:
        tracer = Tracer(sink, counter_source=GLOBAL_COUNTERS.snapshot)
        previous = set_tracer(tracer)
    try:
        run = run_requests(env, seconds=seconds, requests=requests)
    finally:
        if tracer is not None:
            set_tracer(previous)
            tracer.close()
    counters = GLOBAL_COUNTERS.delta_since(counters0)
    timers = GLOBAL_METRICS.delta_since(timers0)
    checks = check_shapes(env, run.shapes)
    gated, extra = end_to_end(env, run, checks, setup_s)
    failed = [r for r in run.requests if r.error]
    best = best_per_template(run, workload, lambda r: r.total_ms)
    report = {
        "attempted": len(run.requests),
        "failed": len(failed),
        "errors": sorted({r.error for r in failed})[:5],
        "metrics": gated,
        "extra": extra,
        # Best SQL-to-rows ms per template, keyed by generator index.
        "template_best_ms": {workload.templates[t]: ms for t, ms in sorted(best.items())},
    }
    if traced:
        if trace_file is not None:
            trace_file.write_text(sink.getvalue(), encoding="utf-8")
        replay = replay_of(sink.getvalue())
        values = per_layer(env, run, checks, counters, timers, replay)
        report["metrics"] = {
            name: (values[name], PER_LAYER[name])
            for name in PER_LAYER
            if name in values
        }
        report["extra"] = {**extra, **gated}
        report["layers"] = sorted(self_times(replay).items(), key=lambda row: -row[1])
        report["request_wall_ms"] = values["trace.request_wall_ms"]
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "profile", "traced"), default="measure"
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        set_up(workload, args.seed)
        report = {"setup_s": now() - PROCESS_T0}
    elif args.mode in ("profile", "traced"):
        report = measure(
            workload,
            args.seed,
            requests=trace_slice(workload),
            traced=args.mode == "traced",
            trace_file=args.trace_file,
        )
    else:
        report = measure(workload, args.seed, seconds=args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
