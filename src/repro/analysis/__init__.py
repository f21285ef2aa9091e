"""Static analysis subsystem: invariant checker + soundness linter.

Machine-checks the invariants the SMT/rewrite stack depends on but the
type system cannot see (docs/INTERNALS.md, "Invariants & static
analysis"):

* exact-arithmetic purity of ``repro/smt/`` and ``repro/predicates/``,
* frozen-node discipline of the IR,
* structural well-formedness of live formula/predicate trees,
* null-soundness of every registered rewrite rule, discharged through
  the repo's own solver,
* certified UNSAT: independent replay of solver proof logs
  (``--certify``), so no UNSAT verdict has to be taken on trust.

CLI: ``python -m repro analyze [--json] [--fix-hints] [--certify]
[paths...]``.
"""

from .certify import audit_proof
from .findings import Finding, RULE_CATALOG, RuleInfo
from .invariants import check_formula, check_pred
from .lint import lint_file, lint_paths, lint_source, zone_of
from .pragmas import extract_pragmas
from .runner import (
    AnalysisError,
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
    "AnalysisError",
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
    "check_formula",
    "check_pred",
    "check_registry",
    "check_rule",
    "extract_pragmas",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "run_analysis",
    "zone_of",
]
