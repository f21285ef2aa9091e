"""Findings-as-data for the analysis subsystem.

Every check in :mod:`repro.analysis` reports :class:`Finding` records
with a *stable* rule identifier (``SIA201`` ...).  The identifiers are
part of the tool's public contract: CI annotations and the tests key
on them, so they must never be renumbered -- retire an identifier
rather than reuse it.

Two bands are live, both executable oracles:

* ``SIA2xx`` -- semantic soundness obligations discharged through the
  SMT solver (:mod:`repro.analysis.soundness`),
* ``SIA3xx`` -- solver-run audits: defects found while independently
  checking proof logs (:mod:`repro.analysis.certify`).

Four bands are retired and their identifiers are not reused:
``SIA0xx`` (an AST lint over the source tree), ``SIA1xx`` (structural
re-validation of live IR trees), ``SIA4xx`` (an interprocedural
dataflow analyzer: float taint, determinism and resource lifecycle)
and ``SIA5xx`` (a whole-program concurrency analyzer).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry for one analysis rule."""

    rule_id: str
    title: str
    hint: str


# The rule catalog.  Keep in sync with docs/INTERNALS.md.
RULE_CATALOG: dict[str, RuleInfo] = {
    info.rule_id: info
    for info in (
        RuleInfo(
            "SIA201",
            "rewrite rule is not null-sound (lhs does not imply rhs)",
            "T(lhs) & ~T(rhs) is satisfiable under three-valued logic; "
            "the rule would change query results on NULL-able columns",
        ),
        RuleInfo(
            "SIA202",
            "rewrite rule claims an equivalence its reverse direction lacks",
            "T(rhs) & ~T(lhs) is satisfiable; register the rule with "
            "equivalence=False if only lhs => rhs is intended",
        ),
        RuleInfo(
            "SIA301",
            "broken clause step in a proof log",
            "the step is not RUP over the preceding steps (or the UNSAT "
            "log lacks a refutation step); the solver derived a clause "
            "its own log cannot justify",
        ),
        RuleInfo(
            "SIA302",
            "bad theory certificate in a proof log",
            "the Farkas/divisibility/split/trichotomy certificate does "
            "not refute what its literals assert; the theory lemma may "
            "be unsound",
        ),
        RuleInfo(
            "SIA303",
            "uncertified step under an UNSAT verdict",
            "a theory lemma carries no certificate or the verdict rests "
            "on a budget-blocking clause; the UNSAT answer is not "
            "certifiable",
        ),
    )
}


@dataclass(frozen=True, order=True)
class Finding:
    """One reported violation, sortable into a stable order."""

    file: str
    line: int
    col: int
    rule: str
    message: str
    pass_name: str = field(compare=False)

    @property
    def hint(self) -> str:
        info = RULE_CATALOG.get(self.rule)
        return info.hint if info is not None else ""

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "title": RULE_CATALOG[self.rule].title
            if self.rule in RULE_CATALOG
            else "",
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "pass": self.pass_name,
        }
