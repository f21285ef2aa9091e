"""Pin the counting semantics documented in ``repro.smt.stats``.

The warm-CEGIS benchmarks report ``session_checks / checks`` as the
warm share, so the relationship between the three check-ish counters
must not drift:

* a warm :meth:`SmtSession.check` increments both ``checks`` and
  ``session_checks`` (the latter is a *subset* of the former);
* a certified fallback (``certified_solver``) increments
  ``solvers_constructed``, ``checks`` and ``proof_fallbacks`` but never
  ``session_checks``.
"""

from repro.smt import LE, SAT, UNSAT, Atom, LinExpr, SmtSession, Var, conj
from repro.smt.session import certified_solver
from repro.smt.stats import GLOBAL_COUNTERS

X = Var("x")


def _box(low: int, high: int):
    expr = LinExpr.var(X)
    return conj(
        [
            Atom(expr - high, LE),  # x <= high
            Atom(LinExpr.const_expr(low) - expr, LE),  # x >= low
        ]
    )


def test_warm_check_increments_both_checks_and_session_checks():
    session = SmtSession()
    session.assert_base(_box(0, 10))
    before = GLOBAL_COUNTERS.snapshot()
    assert session.check() == SAT
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta["checks"] == 1
    assert delta["session_checks"] == 1
    assert delta["proof_fallbacks"] == 0


def test_certified_fallback_never_counts_as_session_check():
    before = GLOBAL_COUNTERS.snapshot()
    solver = certified_solver([_box(0, 10)])
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert solver.proof_log.result == SAT
    assert delta["solvers_constructed"] == 1
    assert delta["checks"] == 1
    assert delta["proof_fallbacks"] == 1
    assert delta["session_checks"] == 0


def test_certified_solver_beside_a_session_bypasses_the_warm_path():
    session = SmtSession()
    session.assert_base(_box(0, 10))
    session.check()  # warm the session so the fallback delta is isolated
    before = GLOBAL_COUNTERS.snapshot()
    solver = certified_solver([_box(0, 10), _box(20, 30)])
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert solver.proof_log.result == UNSAT
    assert delta["session_checks"] == 0
    assert delta["proof_fallbacks"] == 1
    assert delta["checks"] >= 1


def test_warm_share_is_well_defined():
    """Over any window, session_checks never outruns checks, and a
    purely session+certified workload splits checks exactly."""
    before = GLOBAL_COUNTERS.snapshot()
    session = SmtSession()
    session.assert_base(_box(0, 5))
    session.check()
    scope = session.push(_box(7, 9), label="probe")
    session.check()
    scope.retract()
    certified_solver([_box(0, 1)])
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert 0 <= delta["session_checks"] <= delta["checks"]
    assert delta["checks"] == delta["session_checks"] + delta["proof_fallbacks"]
