"""Differential tests for the warm session layer.

The load-bearing property: a :class:`SmtSession` with activation
literals, retraction and theory-relevance suppression must answer every
check *exactly* like a sealed fresh solver over the currently-active
formulas.  The randomized trace test replays CEGIS-shaped histories
(push candidate, probe, block, retract, repeat) against both.
"""

import random

import pytest

from repro.smt import (
    EQ,
    LE,
    LT,
    NE,
    SAT,
    UNSAT,
    Atom,
    LinExpr,
    Var,
    conj,
    disj,
)
from repro.smt.session import SmtSession, certified_solver
from repro.smt.solver import Solver
from repro.smt.stats import GLOBAL_COUNTERS

X = Var("sx")
Y = Var("sy")
Z = Var("sz")
VARS = [X, Y, Z]


def _random_atom(rng: random.Random, ops=(LE, LE, LT, EQ, NE)) -> Atom:
    picked = rng.sample(VARS, rng.randint(1, 2))
    coeffs = {v: rng.randint(-3, 3) for v in picked}
    if not any(coeffs.values()):
        coeffs[picked[0]] = 1
    return Atom(LinExpr(coeffs, rng.randint(-8, 8)), rng.choice(ops))


def _random_formula(rng: random.Random):
    atoms = [_random_atom(rng) for _ in range(rng.randint(1, 3))]
    if len(atoms) == 1:
        return atoms[0]
    return disj(atoms) if rng.random() < 0.5 else conj(atoms)


def _fresh_verdict(formulas, assumptions) -> str:
    """Reference answer: sealed cold solver, everything asserted."""
    solver = Solver(bnb_budget=4000)
    solver.add(*formulas)
    solver.add(*assumptions)
    return solver.check()


@pytest.mark.parametrize("seed", range(8))
def test_randomized_trace_matches_fresh_solver(seed):
    rng = random.Random(seed)
    session = SmtSession(bnb_budget=4000)

    base = [_random_formula(rng) for _ in range(2)]
    session.assert_base(*base)
    active: list[tuple] = []  # (scope, [formulas])
    checks = 0

    for _ in range(30):
        op = rng.random()
        if op < 0.25:
            formulas = [_random_formula(rng) for _ in range(rng.randint(1, 2))]
            scope = session.push(*formulas, label=f"t{seed}")
            active.append((scope, list(formulas)))
        elif op < 0.40 and active:
            scope, formulas = rng.choice(active)
            extra = _random_formula(rng)
            scope.add(extra)
            formulas.append(extra)
        elif op < 0.60 and active:
            index = rng.randrange(len(active))
            scope, _ = active.pop(index)
            scope.retract()
        elif op < 0.70:
            extra = _random_formula(rng)
            session.assert_base(extra)
            base.append(extra)
        else:
            # Assumptions must be literal-shaped bounds (the theory
            # layer splits disequalities only inside encoded formulas).
            assumptions = [
                _random_atom(rng, ops=(LE, LT)) for _ in range(rng.randint(0, 2))
            ]
            live = base + [f for _, fs in active for f in fs]
            verdict = session.check(assumptions or None)
            assert verdict == _fresh_verdict(live, assumptions)
            checks += 1
            if verdict == SAT and not assumptions:
                model = session.model()
                assignment = {v: model.value(v) for v in VARS}
                for formula in live:
                    assert formula.evaluate(assignment)
    assert checks > 0, "trace never checked; widen the op distribution"


def test_retraction_restores_satisfiability():
    session = SmtSession()
    x = LinExpr.var(X)
    session.assert_base(Atom(x - 10, LE))  # x <= 10
    scope = session.push(Atom(x, LT), Atom(-x, LT))  # x < 0 AND x > 0
    assert session.check() == UNSAT
    scope.retract()
    assert session.check() == SAT


def test_disabled_scope_sits_out_a_check():
    session = SmtSession()
    x = LinExpr.var(X)
    scope = session.push(Atom(x, LT), Atom(-x, LT))
    assert session.check() == UNSAT
    assert session.check(disable=[scope]) == SAT
    # Dormant, not retracted: the scope constrains the next check again.
    assert session.check() == UNSAT


def test_retracted_scope_rejects_further_additions():
    session = SmtSession()
    scope = session.push(Atom(LinExpr.var(X), LE))
    scope.retract()
    scope.retract()  # idempotent
    with pytest.raises(ValueError):
        scope.add(Atom(LinExpr.var(Y), LE))


def test_dead_atoms_are_suppressed_and_revived():
    session = SmtSession()
    atom = Atom(LinExpr.var(X) - 5, LE)
    scope = session.push(atom)
    assert session.check() == SAT
    scope.retract()
    # Referenced by no live scope: skipped in theory rounds.
    assert atom in session._solver._suppressed
    session.push(atom)
    assert atom not in session._solver._suppressed
    assert session.check() == SAT


def test_base_atoms_survive_scope_retraction():
    session = SmtSession()
    atom = Atom(LinExpr.var(X) - 5, LE)
    session.assert_base(atom)
    scope = session.push(atom)  # same atom also referenced by a scope
    scope.retract()
    assert atom not in session._solver._suppressed
    # x <= 5 must still constrain: x >= 6 is now contradictory.
    assert session.check([Atom(LinExpr.const_expr(6) - LinExpr.var(X), LE)]) == UNSAT


def test_assumption_atoms_override_suppression():
    session = SmtSession()
    atom = Atom(LinExpr.var(X) - 5, LE)
    scope = session.push(atom)
    scope.retract()
    assert atom in session._solver._suppressed
    # Passing the dead atom as an assumption must constrain this check.
    contradiction = Atom(LinExpr.const_expr(6) - LinExpr.var(X), LE)
    assert session.check([atom, contradiction]) == UNSAT


def test_certified_solver_is_sealed_from_sessions():
    # A certified verdict covers exactly the audited formulas: the
    # session's base (x <= 5) must not leak into it.
    session = SmtSession()
    session.assert_base(Atom(LinExpr.var(X) - 5, LE))
    assert session.check([Atom(LinExpr.const_expr(6) - LinExpr.var(X), LE)]) == UNSAT
    before = GLOBAL_COUNTERS.snapshot()
    solver = certified_solver([Atom(LinExpr.const_expr(6) - LinExpr.var(X), LE)])
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta.get("proof_fallbacks") == 1
    assert delta.get("solvers_constructed") == 1
    assert solver.proof_log is not None
    assert solver.proof_log.result == SAT
    assert solver.model().value(X) >= 6


def test_session_counters_track_reuse():
    before = GLOBAL_COUNTERS.snapshot()
    session = SmtSession()
    session.assert_base(Atom(LinExpr.var(X) - 5, LE))
    scope = session.push(Atom(LinExpr.var(X), LT))
    session.check()
    session.check()
    scope.retract()
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta.get("sessions_created") == 1
    assert delta.get("solvers_constructed") == 1
    assert delta.get("session_checks") == 2
    assert delta.get("scopes_opened") == 1
    assert delta.get("scopes_retracted") == 1


def test_close_retracts_abandoned_scopes():
    # The teardown contract: close() balances the scope counters even
    # when the caller abandons scopes mid-flight.
    before = GLOBAL_COUNTERS.snapshot()
    session = SmtSession()
    session.assert_base(Atom(LinExpr.var(X) - 5, LE))
    session.push(Atom(LinExpr.var(X), LT))
    session.push(Atom(LinExpr.var(X) + 3, LT))
    session.check()
    session.close()
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta.get("scopes_opened") == 2
    assert delta.get("scopes_retracted") == 2
    # close() is idempotent: already-retracted scopes are skipped.
    session.close()
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta.get("scopes_retracted") == 2


def test_certified_solver_round_trip():
    solver = certified_solver([Atom(LinExpr.var(X) - 5, LE)])
    assert solver.proof_log is not None
    assert solver.proof_log.result == SAT
