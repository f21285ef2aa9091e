"""Findings-as-data for the static analysis subsystem.

Every check in :mod:`repro.analysis` reports :class:`Finding` records
with a *stable* rule identifier (``SIA001`` ...).  The identifiers are
part of the tool's public contract: CI annotations, pragma suppressions
and the fixture tests all key on them, so they must never be renumbered
-- retire an identifier rather than reuse it.

The catalog is split in bands:

* ``SIA0xx`` -- codebase lint rules (AST-level, :mod:`repro.analysis.lint`),
* ``SIA1xx`` -- structural invariants of live IR trees
  (:mod:`repro.analysis.invariants`),
* ``SIA2xx`` -- semantic soundness obligations discharged through the
  SMT solver (:mod:`repro.analysis.soundness`),
* ``SIA3xx`` -- solver-run audits: defects found while independently
  checking proof logs (:mod:`repro.analysis.certify`).

Two bands are retired and their identifiers are not reused: ``SIA4xx``
(an interprocedural dataflow analyzer: float taint, determinism and
resource lifecycle) and ``SIA5xx`` (a whole-program concurrency
analyzer).
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
            "SIA001",
            "float literal in exact-arithmetic zone",
            "use int or fractions.Fraction; floats break solver soundness",
        ),
        RuleInfo(
            "SIA002",
            "float() cast at an unsanctioned boundary",
            "keep values exact, or mark a documented crossing with "
            "'# sia: allow-float'",
        ),
        RuleInfo(
            "SIA003",
            "==/!= comparison on a float operand",
            "exact equality on floats is meaningless; compare Fractions "
            "or use an explicit tolerance outside the exact zone",
        ),
        RuleInfo(
            "SIA004",
            "eval()/exec() call",
            "construct values explicitly; dynamic evaluation is banned "
            "project-wide",
        ),
        RuleInfo(
            "SIA005",
            "bare except clause",
            "catch the specific exception types; bare excepts swallow "
            "solver budget and type errors",
        ),
        RuleInfo(
            "SIA006",
            "mutation of a frozen node outside construction",
            "object.__setattr__ is only sanctioned in __init__/"
            "__post_init__/__new__/__setattr__; anything else breaks the "
            "value semantics of interned nodes",
        ),
        RuleInfo(
            "SIA007",
            "hot-path node class without __slots__ or frozen=True",
            "subclasses of Formula/Pred/Expr must declare __slots__ or be "
            "frozen dataclasses so instances stay compact and immutable",
        ),
        RuleInfo(
            "SIA008",
            "solver model read without a SAT verdict check",
            "guard every model() read with a check that check()/solve() "
            "returned SAT; an unchecked read raises or returns stale "
            "values on UNSAT paths",
        ),
        RuleInfo(
            "SIA009",
            "direct Solver construction in the warm-session zone",
            "route checks through SmtSession so CEGIS iterations share "
            "one solver process; documented exceptions carry "
            "'# sia: allow(SIA009)'",
        ),
        RuleInfo(
            "SIA010",
            "raw wall-clock read outside repro.obs.clock",
            "use repro.obs.now() or a tracer span so tests can install "
            "ManualClock; "
            "this covers time.*, aliased 'from time import ...' names "
            "and datetime.now()/today()/utcnow()",
        ),
        RuleInfo(
            "SIA101",
            "arity violation in IR tree",
            "n-ary nodes need >= 2 arguments and valid operators; build "
            "nodes through the smart constructors (conj/disj/pand/por)",
        ),
        RuleInfo(
            "SIA102",
            "sort/type inconsistency in IR tree",
            "coefficients must be exact Fractions and operand types must "
            "satisfy the SQL typing rules of section 4.1",
        ),
        RuleInfo(
            "SIA103",
            "shared mutable state between IR nodes",
            "two nodes alias the same mutable container; copy on "
            "construction so structural equality stays local",
        ),
        RuleInfo(
            "SIA104",
            "cycle in IR tree",
            "a node is its own ancestor; traversals will not terminate -- "
            "never splice nodes with object.__setattr__",
        ),
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
    pass_name: str = field(default="lint", compare=False)

    @property
    def hint(self) -> str:
        info = RULE_CATALOG.get(self.rule)
        return info.hint if info is not None else ""

    def render(self, *, fix_hints: bool = False) -> str:
        location = f"{self.file}:{self.line}:{self.col}"
        text = f"{location}: {self.rule} {self.message}"
        if fix_hints and self.hint:
            text += f"\n    hint: {self.hint}"
        return text

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
