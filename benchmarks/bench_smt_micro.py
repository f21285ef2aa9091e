"""Microbenchmarks of the SMT substrate.

Not a paper artefact -- these track the performance of the solver
components that every experiment sits on (sample generation is >70% of
Sia's total time in Table 3, and it is pure solver work).

``pytest benchmarks/bench_smt_micro.py`` runs the ``run_*`` bodies
below under pytest-benchmark for interactive comparison.  Nothing is
recorded: the committed perf record is ``BENCH_e2e.json``, measured by
``benchmarks/e2e/run.py``.
"""

import random

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
