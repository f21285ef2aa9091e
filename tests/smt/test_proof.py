"""Proof-log structure tests for ``Solver(proof=True)``.

Covers the DRAT/RUP clause log produced by the CDCL core, the theory
certificates attached by simplex / branch-and-bound, result stamping,
assumption-relative refutations, and the regression that branch-and-
bound pseudo-tags never leak into surfaced conflict cores.  Semantic
*auditing* of the logs lives in ``tests/analysis/test_certify.py``.
"""

from fractions import Fraction

import pytest

from repro.smt import (
    EQ,
    LE,
    REAL,
    SAT,
    UNSAT,
    Atom,
    FarkasCert,
    LinExpr,
    Not,
    Solver,
    SplitCert,
    TheoryConflict,
    Var,
    compare,
    conj,
    disj,
)
from repro.smt.theory import _BranchTag, check_conjunction

X = Var("x")
Y = Var("y")
R = Var("r", REAL)
S = Var("s", REAL)
ex, ey = LinExpr.var(X), LinExpr.var(Y)
er, es = LinExpr.var(R), LinExpr.var(S)
c = LinExpr.const_expr


def fractional_window():
    """Mixed int/real system that is LRA-feasible but LIA-infeasible:
    ``r = x`` with ``3/10 <= r <= 7/10`` forces a branch on ``x``."""
    return conj(
        [
            compare(er, "=", ex),
            compare(er, ">=", c(Fraction(3, 10))),
            compare(er, "<=", c(Fraction(7, 10))),
        ]
    )


# ----------------------------------------------------------------------
# Result stamping and refutation presence
# ----------------------------------------------------------------------
def test_sat_result_is_stamped_without_refutation():
    solver = Solver(proof=True)
    solver.add(compare(ex, "<", c(10)))
    assert solver.check() == SAT
    log = solver.proof_log
    assert log is not None
    assert log.result == SAT
    assert not log.has_refutation


def test_unsat_lra_log_has_refutation_and_certified_lemmas():
    solver = Solver(proof=True)
    solver.add(conj([compare(er, "<", c(0)), compare(er, ">", c(0))]))
    assert solver.check() == UNSAT
    log = solver.proof_log
    assert log.result == UNSAT
    assert log.has_refutation
    theory = log.theory_steps()
    assert theory, "expected at least one theory lemma"
    for step in theory:
        assert step.cert is not None
    assert any(isinstance(s.cert, FarkasCert) for s in theory)


def test_proof_disabled_by_default():
    solver = Solver()
    solver.add(compare(ex, "<", c(0)))
    solver.check()
    assert solver.proof_log is None


def test_trivially_false_formula_logs_axiomatic_refutation():
    solver = Solver(proof=True)
    solver.add(compare(c(1), "<=", c(0)))
    assert solver.check() == UNSAT
    log = solver.proof_log
    assert log.result == UNSAT
    assert log.has_refutation


def test_result_restamped_across_checks():
    solver = Solver(proof=True)
    solver.add(conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(10))]))
    assert solver.check() == SAT
    assert solver.proof_log.result == SAT
    solver.add(compare(ex, ">=", c(11)))
    assert solver.check() == UNSAT
    assert solver.proof_log.result == UNSAT
    assert solver.proof_log.has_refutation


# ----------------------------------------------------------------------
# Assumption-relative refutations
# ----------------------------------------------------------------------
def test_assumption_unsat_records_assumptions_on_empty_step():
    solver = Solver(proof=True)
    solver.add(conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(10))]))
    assert solver.check(assumptions=[Atom(c(20) - ex, LE)]) == UNSAT
    log = solver.proof_log
    empty = [s for s in log.steps if not s.lits]
    assert empty, "expected an assumption-relative empty clause"
    assert any(s.assumptions for s in empty)
    # The refutation was relative to the assumption only: dropping it
    # must restore satisfiability.
    assert solver.check() == SAT
    assert solver.proof_log.result == SAT


# ----------------------------------------------------------------------
# Branch-and-bound: split certificates, no pseudo-tag leakage
# ----------------------------------------------------------------------
def test_branch_tags_never_leak_into_conflict_core():
    constraints = [
        (Atom(er - ex, EQ), 1),
        (Atom(c(Fraction(3, 10)) - er, LE), 2),
        (Atom(er - Fraction(7, 10), LE), 3),
    ]
    with pytest.raises(TheoryConflict) as excinfo:
        check_conjunction(constraints)
    conflict = excinfo.value
    assert not any(isinstance(tag, _BranchTag) for tag in conflict.core)
    assert conflict.core <= {1, 2, 3}
    assert isinstance(conflict.cert, SplitCert)


def test_solver_blocking_clauses_use_only_sat_literals():
    solver = Solver(proof=True)
    solver.add(fractional_window())
    assert solver.check() == UNSAT
    log = solver.proof_log
    assert any(isinstance(s.cert, SplitCert) for s in log.theory_steps())
    for step in log.steps:
        for lit in step.lits:
            assert isinstance(lit, int) and lit != 0
            assert abs(lit) in log.atoms


# ----------------------------------------------------------------------
# Conflict cores with slack
# ----------------------------------------------------------------------
def slack_core_formula():
    """UNSAT formula whose natural conflict cores can carry slack: a
    redundant pair of wide bounds rides along with the real conflict."""
    return conj(
        [
            disj([compare(ey, "<=", c(50)), compare(ey, ">=", c(60))]),
            compare(ey, ">=", c(-1000)),
            compare(ey, "<=", c(1000)),
            fractional_window(),
        ]
    )


def test_slack_core_formula_is_unsat_with_certified_theory_steps():
    solver = Solver(proof=True)
    solver.add(slack_core_formula())
    assert solver.check() == UNSAT
    steps = solver.proof_log.theory_steps()
    assert steps
    for step in steps:
        assert step.cert is not None
