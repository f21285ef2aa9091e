"""Orchestration of the analysis passes and report rendering.

``run_analysis`` composes two executable oracles over the rewrite-rule
registry:

1. the null-soundness pass, discharging each rule's obligation through
   the SMT solver (:mod:`repro.analysis.soundness`, SIA201-202);
2. (opt-in, ``certify=True``) the proof-certification pass: every
   registry obligation is re-run with ``Solver(proof=True)`` and the
   resulting proof log is replayed by the independent auditor
   (:mod:`repro.analysis.certify`, SIA301-303).

Findings are data (:class:`repro.analysis.findings.Finding`); this
module only aggregates and renders them, as human-readable text or as
JSON for CI annotation tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .findings import Finding
from .soundness import check_registry

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2

JSON_SCHEMA_VERSION = 1


@dataclass
class AnalysisReport:
    """Aggregated outcome of one ``repro analyze`` run."""

    findings: list[Finding] = field(default_factory=list)
    rules_checked: int = 0
    obligations_discharged: int = 0
    proofs_audited: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.clean else EXIT_FINDINGS

    def to_json(self) -> dict[str, object]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "version": JSON_SCHEMA_VERSION,
            "clean": self.clean,
            "summary": {
                "rules_checked": self.rules_checked,
                "obligations_discharged": self.obligations_discharged,
                "proofs_audited": self.proofs_audited,
                "findings": len(self.findings),
                "by_rule": counts,
            },
            "findings": [finding.to_json() for finding in self.findings],
        }


def run_analysis(*, certify: bool = False) -> AnalysisReport:
    """Verify the rewrite-rule registry and return the report.

    ``certify=True`` additionally re-runs every registry obligation
    with proof logging on and audits the logs.
    """
    report = AnalysisReport()
    soundness = check_registry()
    report.findings.extend(soundness.findings)
    report.rules_checked = soundness.rules_checked
    report.obligations_discharged = soundness.obligations_discharged
    if certify:
        findings, audited = certify_registry()
        report.findings.extend(findings)
        report.proofs_audited = audited
    report.findings.sort()
    return report


def certify_registry(
    *, bnb_budget: int = 4000
) -> tuple[list[Finding], int]:
    """Audit a proof for every rewrite-rule solver obligation.

    Re-runs the null-soundness obligations of the registered rules
    (the TPC-H verification corpus) with ``Solver(proof=True)`` and
    hands each proof log to the independent auditor.  Kept here rather
    than in :mod:`repro.analysis.certify` so the auditor itself never
    imports solver machinery.
    """
    from ..predicates import truth_formula
    from ..predicates.normalize import LinearizationContext
    from ..rewrite.rules import REWRITE_RULES
    from ..smt import SolverError, conj, negate
    from ..smt.solver import Solver
    from ..smt.theory import SolverBudgetError
    from .certify import audit_proof

    findings: list[Finding] = []
    audited = 0
    for rule in REWRITE_RULES:
        ctx = LinearizationContext.for_predicate(rule.lhs & rule.rhs)
        t_lhs = truth_formula(rule.lhs, ctx)
        t_rhs = truth_formula(rule.rhs, ctx)
        directions = [("forward", t_lhs, t_rhs)]
        if rule.equivalence:
            directions.append(("reverse", t_rhs, t_lhs))
        for part, antecedent, consequent in directions:
            solver = Solver(bnb_budget=bnb_budget, proof=True)
            solver.add(conj([antecedent, negate(consequent)]))
            try:
                solver.check()
            except (SolverError, SolverBudgetError):
                continue  # no verdict claimed, nothing to certify
            audited += 1
            assert solver.proof_log is not None
            findings.extend(
                audit_proof(
                    solver.proof_log,
                    origin=f"rewrite-rule:{rule.name}:{part}",
                )
            )
    return findings, audited


def render_text(report: AnalysisReport) -> str:
    """Human-readable rendering (one line per finding + a summary)."""
    lines = [finding.render() for finding in report.findings]
    summary = (
        f"verified {report.rules_checked} rewrite rule(s) "
        f"({report.obligations_discharged} solver obligation(s)"
        + (
            f", {report.proofs_audited} proof(s) audited"
            if report.proofs_audited
            else ""
        )
        + "): "
    )
    summary += (
        "clean" if report.clean else f"{len(report.findings)} finding(s)"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Stable JSON rendering for CI annotation tooling."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)
