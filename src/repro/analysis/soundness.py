"""Null-soundness checking of registered rewrite rules.

Every rule in :data:`repro.rewrite.rules.REWRITE_RULES` carries a proof
obligation under SQL three-valued logic (Alg. 1 / Lemma 4 of the
paper): the rewritten predicate must accept every tuple the original
accepts, *including* the NULL cases -- a rule that is an equivalence
under two-valued logic (``x = x  <=>  TRUE``) can still be unsound in
SQL, where ``NULL = NULL`` evaluates to NULL and filters the tuple out.

The obligation is discharged through the repo's own DPLL(T) solver: for
a rule ``lhs => rhs`` we encode both sides with the (value, NULL-flag)
pairing of section 5.2 and check ``T(lhs) & ~T(rhs)`` for
unsatisfiability, exactly as the synthesis-time validity check in
:mod:`repro.core.verify` does.  For ``equivalence=True`` rules the
reverse direction is checked as well.  This makes the analyzer double
as a regression harness for the solver: a soundness bug in the simplex
or branch-and-bound path shows up here as a spurious SIA201/SIA202.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..predicates import truth_formula
from ..predicates.normalize import LinearizationContext
from ..rewrite.rules import REWRITE_RULES, RewriteRule
from ..smt import SolverError, conj, is_satisfiable, negate
from ..smt.formula import Formula
from ..smt.theory import SolverBudgetError
from .findings import Finding


@dataclass
class SoundnessReport:
    """Outcome of verifying the rule registry."""

    rules_checked: int = 0
    obligations_discharged: int = 0
    findings: list[Finding] = field(default_factory=list)


def _origin(rule: RewriteRule, part: str) -> str:
    return f"rewrite-rule:{rule.name}:{part}"


def _implication_holds(
    antecedent: Formula, consequent: Formula, *, bnb_budget: int
) -> bool | None:
    """True/False for a definite answer, None when the solver gave up."""
    try:
        return not is_satisfiable(
            conj([antecedent, negate(consequent)]), bnb_budget=bnb_budget
        )
    except (SolverError, SolverBudgetError):
        return None


def check_rule(rule: RewriteRule, *, bnb_budget: int = 4000) -> list[Finding]:
    """The soundness findings for one rewrite rule."""
    findings: list[Finding] = []
    # One shared context so both sides see identical column variables
    # and NULL flags.
    ctx = LinearizationContext.for_predicate(rule.lhs & rule.rhs)
    t_lhs = truth_formula(rule.lhs, ctx)
    t_rhs = truth_formula(rule.rhs, ctx)
    forward = _implication_holds(t_lhs, t_rhs, bnb_budget=bnb_budget)
    if forward is not True:
        detail = (
            "solver could not discharge the obligation"
            if forward is None
            else "T(lhs) & ~T(rhs) is satisfiable"
        )
        findings.append(
            Finding(
                file=_origin(rule, "forward"),
                line=0,
                col=0,
                rule="SIA201",
                message=f"rule {rule.name!r} is not null-sound: {detail}",
                pass_name="soundness",
            )
        )
    if rule.equivalence:
        reverse = _implication_holds(t_rhs, t_lhs, bnb_budget=bnb_budget)
        if reverse is not True:
            detail = (
                "solver could not discharge the obligation"
                if reverse is None
                else "T(rhs) & ~T(lhs) is satisfiable"
            )
            findings.append(
                Finding(
                    file=_origin(rule, "reverse"),
                    line=0,
                    col=0,
                    rule="SIA202",
                    message=(
                        f"rule {rule.name!r} claims an equivalence but the "
                        f"reverse direction fails: {detail}"
                    ),
                    pass_name="soundness",
                )
            )
    return findings


def check_registry(
    rules: tuple[RewriteRule, ...] | None = None,
    *,
    bnb_budget: int = 4000,
) -> SoundnessReport:
    """Verify every registered rewrite rule."""
    report = SoundnessReport()
    for rule in REWRITE_RULES if rules is None else rules:
        report.rules_checked += 1
        report.obligations_discharged += 2 if rule.equivalence else 1
        report.findings.extend(check_rule(rule, bnb_budget=bnb_budget))
    report.findings.sort()
    return report
