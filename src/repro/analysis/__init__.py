"""Analysis subsystem: the executable soundness oracles.

Two passes over the rewrite-rule registry, both run through the repo's
own solver rather than over source text (docs/INTERNALS.md, "Soundness
oracles"):

* null-soundness of every registered rewrite rule under SQL
  three-valued logic (SIA201-202, :mod:`repro.analysis.soundness`),
* certified UNSAT: independent replay of solver proof logs
  (``--certify``, SIA301-303, :mod:`repro.analysis.certify`), so no
  UNSAT verdict has to be taken on trust.

CLI: ``python -m repro analyze [--json] [--certify]``.
"""

from .certify import audit_proof
from .findings import Finding, RULE_CATALOG, RuleInfo
from .runner import (
    AnalysisReport,
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL_ERROR,
    certify_registry,
    render_json,
    render_text,
    run_analysis,
)
from .soundness import SoundnessReport, check_registry, check_rule

__all__ = [
    "AnalysisReport",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL_ERROR",
    "Finding",
    "RULE_CATALOG",
    "RuleInfo",
    "SoundnessReport",
    "audit_proof",
    "certify_registry",
    "check_registry",
    "check_rule",
    "render_json",
    "render_text",
    "run_analysis",
]
