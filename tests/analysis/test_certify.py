"""Certificate-auditor tests: real proofs audit clean, planted
corruptions are caught, and the auditor stays independent of solver
code (it may import only ``repro.smt.terms`` plus findings/stdlib)."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

from repro.analysis import audit_proof, certify_registry
from repro.smt import (
    EQ,
    REAL,
    SAT,
    UNSAT,
    Atom,
    BVar,
    FarkasCert,
    LinExpr,
    Not,
    Solver,
    SplitCert,
    Var,
    compare,
    conj,
    disj,
)

X = Var("x")
Y = Var("y")
R = Var("r", REAL)
ex, ey, er = LinExpr.var(X), LinExpr.var(Y), LinExpr.var(R)
c = LinExpr.const_expr


def solved_log(formula, expected, assumptions=None, **kwargs):
    solver = Solver(proof=True, **kwargs)
    solver.add(formula)
    assert solver.check(assumptions=assumptions) == expected
    assert solver.proof_log is not None
    return solver.proof_log


LRA_CONFLICT = conj([compare(er, "<", c(0)), compare(er, ">", c(0))])

BRANCHING = conj(
    [
        compare(er, "=", ex),
        compare(er, ">=", c(Fraction(3, 10))),
        compare(er, "<=", c(Fraction(7, 10))),
    ]
)


# ----------------------------------------------------------------------
# Genuine proofs audit clean
# ----------------------------------------------------------------------
def test_lra_farkas_proof_audits_clean():
    assert audit_proof(solved_log(LRA_CONFLICT, UNSAT)) == []


def test_branch_and_bound_split_proof_audits_clean():
    log = solved_log(BRANCHING, UNSAT)
    assert any(isinstance(s.cert, SplitCert) for s in log.theory_steps())
    assert audit_proof(log) == []


def test_integer_divisibility_proof_audits_clean():
    log = solved_log(compare(ey * 2, "=", c(1)), UNSAT)
    assert audit_proof(log) == []


def test_trichotomy_proof_audits_clean():
    formula = conj([compare(ey, ">=", c(0)), compare(ey, "<=", c(0))])
    log = solved_log(formula, UNSAT, assumptions=[Not(Atom(ey, EQ))])
    assert any(s.kind == "trichotomy" for s in log.steps)
    assert audit_proof(log) == []


def test_propositional_proof_audits_clean():
    a = BVar("a")
    assert audit_proof(solved_log(conj([a, Not(a)]), UNSAT)) == []


def test_sat_log_audits_clean():
    formula = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(5))])
    assert audit_proof(solved_log(formula, SAT)) == []


def test_minimized_core_proof_audits_clean():
    formula = conj(
        [
            disj([compare(ey, "<=", c(50)), compare(ey, ">=", c(60))]),
            BRANCHING,
        ]
    )
    log = solved_log(formula, UNSAT)
    assert audit_proof(log) == []


# ----------------------------------------------------------------------
# Planted corruptions are caught
# ----------------------------------------------------------------------
def corrupt(log, index, **changes):
    log.steps[index] = dataclasses.replace(log.steps[index], **changes)
    return log


def find_step(log, predicate):
    for step in log.steps:
        if predicate(step):
            return step
    raise AssertionError("no matching step in proof log")


def rules_of(findings):
    return {f.rule for f in findings}


def test_negated_farkas_coefficient_triggers_sia302():
    log = solved_log(LRA_CONFLICT, UNSAT)
    step = find_step(log, lambda s: isinstance(s.cert, FarkasCert))
    entries = list(step.cert.entries)
    entries[0] = dataclasses.replace(entries[0], coeff=-entries[0].coeff)
    corrupt(log, step.index, cert=FarkasCert(entries=tuple(entries)))
    assert "SIA302" in rules_of(audit_proof(log))


def test_wrong_farkas_constraint_triggers_sia302():
    log = solved_log(LRA_CONFLICT, UNSAT)
    step = find_step(log, lambda s: isinstance(s.cert, FarkasCert))
    entries = list(step.cert.entries)
    entries[0] = dataclasses.replace(
        entries[0], orig_expr=entries[0].orig_expr + 1, used_expr=entries[0].used_expr + 1
    )
    corrupt(log, step.index, cert=FarkasCert(entries=tuple(entries)))
    assert "SIA302" in rules_of(audit_proof(log))


def test_bogus_learned_step_triggers_sia301():
    log = solved_log(LRA_CONFLICT, UNSAT)
    step = find_step(log, lambda s: not s.lits)
    corrupt(log, step.index, lits=(99,), kind="learned")
    assert "SIA301" in rules_of(audit_proof(log))


def test_missing_refutation_triggers_sia301():
    log = solved_log(LRA_CONFLICT, UNSAT)
    log.steps = [s for s in log.steps if s.lits]
    assert "SIA301" in rules_of(audit_proof(log))


def test_unknown_step_kind_triggers_sia301():
    log = solved_log(LRA_CONFLICT, UNSAT)
    corrupt(log, 0, kind="mystery")
    assert "SIA301" in rules_of(audit_proof(log))


def test_stripped_theory_cert_triggers_sia303():
    log = solved_log(LRA_CONFLICT, UNSAT)
    step = find_step(log, lambda s: s.kind == "theory")
    corrupt(log, step.index, cert=None)
    assert "SIA303" in rules_of(audit_proof(log))


def test_budget_block_under_unsat_triggers_sia303():
    log = solved_log(LRA_CONFLICT, UNSAT)
    step = find_step(log, lambda s: s.kind == "theory")
    corrupt(log, step.index, kind="budget-block", cert=None)
    assert "SIA303" in rules_of(audit_proof(log))


def test_budget_block_under_sat_is_fine():
    formula = conj([compare(ex, ">=", c(0)), compare(ex, "<=", c(5))])
    log = solved_log(formula, SAT)
    step = find_step(log, lambda s: s.kind == "input")
    corrupt(log, step.index, kind="budget-block", cert=None)
    assert audit_proof(log) == []


def test_findings_carry_origin_and_step_line():
    log = solved_log(LRA_CONFLICT, UNSAT)
    step = find_step(log, lambda s: s.kind == "theory")
    corrupt(log, step.index, cert=None)
    findings = audit_proof(log, origin="unit-test")
    assert findings
    assert all(f.file == "unit-test" for f in findings)
    assert any(f.line == step.index for f in findings)


# ----------------------------------------------------------------------
# Registry-wide certification (the --certify corpus gate)
# ----------------------------------------------------------------------
def test_certify_registry_is_clean():
    findings, audited = certify_registry()
    assert findings == []
    assert audited >= 13


# ----------------------------------------------------------------------
# Independence: the auditor must not import solver code
# ----------------------------------------------------------------------
ALLOWED_STDLIB = {"__future__", "math", "fractions", "typing", "dataclasses"}


def test_auditor_imports_no_solver_modules():
    import repro.analysis.certify as certify_module

    source = Path(certify_module.__file__).read_text()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in ALLOWED_STDLIB, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                assert module.split(".")[0] in ALLOWED_STDLIB, module
            elif node.level == 1:
                assert module == "findings", module
            else:
                # Relative reach into the solver package: only the pure
                # value types of smt.terms are allowed.
                assert node.level == 2 and module == "smt.terms", module
