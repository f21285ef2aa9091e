"""Microbenchmarks of the SMT substrate.

Not a paper artefact -- these track the performance of the solver
components that every experiment sits on (sample generation is >70% of
Sia's total time in Table 3, and it is pure solver work).

Two entry points share the workload bodies below:

* ``pytest benchmarks/bench_smt_micro.py`` runs them under
  pytest-benchmark for interactive comparison;
* ``python benchmarks/bench_smt_micro.py`` times them standalone and
  writes ``BENCH_smt_micro.json`` at the repo root (median/p95 per
  benchmark plus the :data:`repro.smt.stats.GLOBAL_COUNTERS` delta),
  including the process-pool workload driver's wall-clock.
"""

import argparse
import random

from repro.obs.clock import now
from repro.smt import (
    NE,
    SAT,
    Atom,
    LinExpr,
    SmtSession,
    Solver,
    Var,
    compare,
    conj,
    disj,
    is_satisfiable,
)
from repro.smt.qe import unsat_region
from repro.smt.sat import SatSolver
from repro.smt.stats import GLOBAL_COUNTERS

X = Var("x")
Y = Var("y")
B = Var("b")
ex, ey, eb = LinExpr.var(X), LinExpr.var(Y), LinExpr.var(B)
c = LinExpr.const_expr


def _random_3sat_clauses() -> list[list[int]]:
    rng = random.Random(7)
    return [
        [rng.choice([-1, 1]) * rng.randint(1, 60) for _ in range(3)]
        for _ in range(400)
    ]


_CLAUSES_3SAT = _random_3sat_clauses()


def run_sat_random_3sat():
    solver = SatSolver()
    for clause in _CLAUSES_3SAT:
        solver.add_clause(list(clause))
    return solver.solve()


def test_sat_random_3sat(benchmark):
    benchmark(run_sat_random_3sat)


_CONJUNCTION = conj(
    [
        compare(ex + ey, "<", c(100)),
        compare(ex - ey, ">", c(-50)),
        compare(ex, ">=", c(0)),
        compare(ey, ">=", c(0)),
        compare(ex * 3 + ey * 2, "<=", c(240)),
    ]
)


def run_smt_conjunction_check():
    return is_satisfiable(_CONJUNCTION)


def test_smt_conjunction_check(benchmark):
    benchmark(run_smt_conjunction_check)


def run_model_enumeration_50():
    base = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(1000))])
    solver = Solver()
    solver.add(base)
    for _ in range(50):
        assert solver.check() == SAT
        value = solver.model().value(X)
        solver.add(Atom(LinExpr.var(X) - value, NE))


def test_model_enumeration_50(benchmark):
    benchmark(run_model_enumeration_50)


def run_quantifier_elimination():
    pred = conj(
        [
            compare(ex - eb, "<", c(20)),
            compare(ey - ex, "<", ex - eb + 10),
            compare(eb, "<", c(0)),
        ]
    )
    return unsat_region(pred, {X, Y})


def test_quantifier_elimination(benchmark):
    benchmark(run_quantifier_elimination)


def run_disjunctive_formula_check():
    branches = [
        conj([compare(ex, ">=", c(i * 10)), compare(ex, "<", c(i * 10 + 5))])
        for i in range(12)
    ]
    return is_satisfiable(conj([disj(branches), compare(ex, ">", c(57))]))


def test_disjunctive_formula_check(benchmark):
    benchmark(run_disjunctive_formula_check)


# ----------------------------------------------------------------------
# Warm session vs. fresh solvers
# ----------------------------------------------------------------------
_PROBE_POINTS = [random.Random(11).randint(0, 90) for _ in range(40)]


def run_session_scoped_probes():
    """One warm session; each probe is a pushed/retracted scope."""
    session = SmtSession()
    session.assert_base(_CONJUNCTION)
    sat = 0
    for point in _PROBE_POINTS:
        scope = session.push(compare(ex, "=", c(point)), label="probe")
        if session.check() == SAT:
            sat += 1
        scope.retract()
    return sat


def run_fresh_solver_probes():
    """The historical pattern: a cold solver per probe."""
    sat = 0
    for point in _PROBE_POINTS:
        solver = Solver()
        solver.add(_CONJUNCTION, compare(ex, "=", c(point)))
        if solver.check() == SAT:
            sat += 1
    return sat


def test_session_scoped_probes(benchmark):
    benchmark(run_session_scoped_probes)


def test_fresh_solver_probes(benchmark):
    benchmark(run_fresh_solver_probes)


def test_session_and_fresh_probes_agree():
    assert run_session_scoped_probes() == run_fresh_solver_probes()


# ----------------------------------------------------------------------
# Proof logging
# ----------------------------------------------------------------------
def unsat_disjunctive_formula():
    """UNSAT formula with redundant side constraints, which theory
    conflicts can drag into the blocking clauses."""
    branches = [
        conj([compare(ex, ">=", c(i * 10 + 6)), compare(ex, "<", c(i * 10 + 9))])
        for i in range(8)
    ]
    return conj(
        [
            disj(branches),
            compare(ex, ">=", c(-10_000)),
            compare(ex, "<=", c(10_000)),
            disj([compare(ex * 10, "=", c(5)), compare(ex * 10, "=", c(15))]),
        ]
    )


def run_unsat_with_proof_logging():
    solver = Solver(proof=True)
    solver.add(unsat_disjunctive_formula())
    return solver.check()


def test_unsat_with_proof_logging(benchmark):
    """Overhead of proof logging on an UNSAT disjunctive formula."""
    benchmark(run_unsat_with_proof_logging)


# ----------------------------------------------------------------------
# Standalone driver: BENCH_smt_micro.json
# ----------------------------------------------------------------------
MICRO_RUNNERS = {
    "sat_random_3sat": run_sat_random_3sat,
    "smt_conjunction_check": run_smt_conjunction_check,
    "model_enumeration_50": run_model_enumeration_50,
    "quantifier_elimination": run_quantifier_elimination,
    "disjunctive_formula_check": run_disjunctive_formula_check,
    "session_scoped_probes": run_session_scoped_probes,
    "fresh_solver_probes": run_fresh_solver_probes,
    "unsat_with_proof_logging": run_unsat_with_proof_logging,
}


def _timed_entry(fn, runs: int, name: str = "") -> dict:
    from repro.bench.perflog import summarize_times
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    before = GLOBAL_COUNTERS.snapshot()
    times_ms = []
    for _ in range(runs):
        start = now()
        with tracer.span(f"micro.{name}" if name else "micro.run",
                         phase=name or "micro", counters=True):
            fn()
        times_ms.append((now() - start) * 1000.0)
    entry = summarize_times(times_ms)
    entry["counters"] = GLOBAL_COUNTERS.delta_since(before)
    return entry


def parallel_driver_bench(num_queries: int, seed: int, runs: int) -> dict[str, dict]:
    """Wall-clock of the process-pool workload driver vs. one process.

    Uses the solver-free TC technique so the entry times the driver
    itself (fan-out, per-worker counter capture, ordered merge) rather
    than CEGIS; the merged record stream is identical either way, which
    tests/bench/test_parallel.py asserts.
    """
    from repro.bench.parallel import default_workers, parallel_efficacy_records
    from repro.bench.perflog import summarize_times

    out: dict[str, dict] = {}
    workers = max(2, default_workers())
    for label, n in (("sequential", 1), ("workers", workers)):
        before = GLOBAL_COUNTERS.snapshot()
        times_ms = []
        records = 0
        for _ in range(runs):
            start = now()
            result = parallel_efficacy_records(
                num_queries=num_queries,
                seed=seed,
                techniques=("TC",),
                workers=n,
            )
            times_ms.append((now() - start) * 1000.0)
            records = len(result.records)
        entry = summarize_times(times_ms)
        entry["counters"] = GLOBAL_COUNTERS.delta_since(before)
        entry["workers"] = n
        entry["records"] = records
        entry["pool"] = result.pool
        out[f"parallel/tc_{label}"] = entry
    return out


def main(argv=None) -> int:
    from repro.bench.perflog import DEFAULT_PATH, update_bench_json

    parser = argparse.ArgumentParser(
        description="SMT micro-benchmarks -> BENCH_smt_micro.json"
    )
    parser.add_argument(
        "--runs", type=int, default=5, help="timed runs per benchmark"
    )
    parser.add_argument(
        "--queries", type=int, default=4,
        help="workload queries for the process-pool driver entries",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", default=str(DEFAULT_PATH))
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL span trace (with per-check smt spans) of "
        "the whole run; replay with 'repro trace PATH'",
    )
    args = parser.parse_args(argv)

    from contextlib import nullcontext

    from repro.bench.perflog import stamp_trace_id
    from repro.obs import install_file_tracer

    tracing = (
        install_file_tracer(args.trace, smt_spans=True)
        if args.trace
        else nullcontext(None)
    )
    entries: dict[str, dict] = {}
    with tracing as tracer:
        for name, fn in MICRO_RUNNERS.items():
            entries[f"micro/{name}"] = _timed_entry(fn, args.runs, name)
            print(
                f"micro/{name}: median {entries[f'micro/{name}']['median_ms']} ms"
            )
        entries.update(
            parallel_driver_bench(args.queries, args.seed, args.runs)
        )
        for name in ("parallel/tc_sequential", "parallel/tc_workers"):
            print(
                f"{name}: median {entries[name]['median_ms']} ms "
                f"({entries[name]['workers']} workers)"
            )
        stamp_trace_id(entries, tracer.trace_id if tracer is not None else None)
    if args.trace:
        print(f"trace written to {args.trace}")
    path = update_bench_json(entries, args.output)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
