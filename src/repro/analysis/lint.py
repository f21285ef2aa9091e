"""AST-based soundness linter for project-specific invariants.

Off-the-shelf linters cannot express the invariants this codebase
actually depends on, so this module walks the ``ast`` of every source
file and enforces them directly:

* **Exact-arithmetic purity** (SIA001/SIA002/SIA003).  Everything under
  ``repro/smt/`` and ``repro/predicates/`` is the *exact zone*: the
  DPLL(T) core and the predicate IR must stay in int/Fraction
  arithmetic end-to-end, because a single float leaking into the
  simplex or Fourier-Motzkin path silently breaks verification
  (docs/INTERNALS.md).  ``repro/learn/`` is the *boundary zone*: numpy
  floats are its native currency, but every ``float()`` crossing must
  be explicitly sanctioned with ``# sia: allow-float`` so the set of
  crossings stays auditable.  One file-scoped exception:
  ``analysis/certify.py`` is promoted *into* the exact zone (the
  certificate auditor must stay Fraction-pure even though it lives
  outside ``smt/``).

* **Dynamic evaluation and exception hygiene** (SIA004/SIA005),
  enforced project-wide.

* **Frozen-node discipline** (SIA006/SIA007).  IR nodes are interned
  and shared; mutating one after construction corrupts every formula
  that references it.

* **Solver API discipline** (SIA008), enforced project-wide: reading a
  solver model without a dominating check of the verdict.  ``model()``
  raises (or worse, returns stale values) unless the preceding
  ``check()``/``solve()`` returned SAT, so every ``.model()`` call must
  be reachable only after the verdict was actually inspected -- a
  comparison against ``SAT``/``UNSAT`` (or the ``"sat"``/``"unsat"``
  strings), or a ``check()``/``solve()`` call inside an ``if``/
  ``while``/``assert`` condition.  A bare ``solver.check()`` statement
  whose verdict is discarded does *not* count.

* **Warm-session discipline** (SIA009), enforced under ``repro/core/``:
  constructing a bare ``Solver(...)`` there bypasses the persistent
  :class:`~repro.smt.session.SmtSession` layer (activation literals,
  counter reuse, docs/INTERNALS.md "Incremental sessions").  Core code
  must route checks through a session, or through
  ``certified_solver`` for proof-logged verdicts; deliberate
  exceptions carry ``# sia: allow(SIA009)``.

* **Clock discipline** (SIA010), enforced everywhere except
  ``repro/obs/clock.py`` itself: durations must be measured on the
  injectable clock (:func:`repro.obs.clock.now`), never on
  ``time.time()`` / ``time.perf_counter()`` / ``time.monotonic()``
  directly.  A direct call bypasses ``ManualClock`` in tests (timing
  assertions go flaky) and escapes the span tracer's notion of time.
  Aliased spellings are tracked through the file's imports: ``import
  time as t``, ``from time import perf_counter [as pc]`` and the
  datetime family (``datetime.datetime.now()`` / ``today()`` /
  ``utcnow()``, under any import alias) all count.
  ``repro/obs/clock.py`` is the single sanctioned call site; the rest
  of ``repro/obs/`` (the tracer, metrics timers, the trace replay) is
  held to the same rule as everything else, because their timestamps
  must be drivable by ``ManualClock`` too.  ``time.sleep``
  is not a clock read and stays legal everywhere.

The linter is purely syntactic -- it never imports the code it checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .findings import Finding
from .pragmas import extract_pragmas, is_suppressed

# Zone classification by path segment (works for the real tree and for
# test fixture trees alike).
EXACT_ZONE = "exact"
BOUNDARY_ZONE = "boundary"
GENERAL_ZONE = "general"

_EXACT_PARTS = frozenset({"smt", "predicates"})
_BOUNDARY_PARTS = frozenset({"learn"})
# Exact-zone promotion by file name: the certificate auditor lives
# under analysis/ but consumes Farkas certificates that must be pure
# Fraction arithmetic end-to-end, so SIA001-003 hold in it exactly as
# under smt/.
_EXACT_FILES = frozenset({"certify.py"})
_EXACT_FILE_PARENTS = frozenset({"analysis"})

# Class names whose subclasses are hot-path IR nodes (SIA007).
_NODE_BASES = frozenset({"Formula", "Pred", "Expr", "_NAry", "_PNAry"})

# Methods in which object.__setattr__ is part of constructing a frozen
# node rather than mutating one (SIA006).
_SANCTIONED_MUTATORS = frozenset(
    {"__init__", "__post_init__", "__new__", "__setattr__", "__delattr__"}
)

# Files under the core zone that may construct Solver directly (SIA009)
# -- a session-layer module would live here if core ever grew one.
_SESSION_MODULES = frozenset({"session.py"})

# Wall-clock reads that must route through repro.obs.clock (SIA010).
_CLOCK_ATTRS = frozenset(
    {"time", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
)
_TIME_MODULE_NAMES = frozenset({"time", "_time"})
# datetime class/instance methods that read the wall clock (SIA010).
_DATETIME_NOW_ATTRS = frozenset({"now", "today", "utcnow"})
_DATETIME_CLASSES = frozenset({"datetime", "date"})


def zone_of(path: Path) -> str:
    """Lint zone of a source file, derived from its path segments."""
    parts = frozenset(path.parts)
    if parts & _EXACT_PARTS:
        return EXACT_ZONE
    if path.name in _EXACT_FILES and parts & _EXACT_FILE_PARENTS:
        return EXACT_ZONE
    if parts & _BOUNDARY_PARTS:
        return BOUNDARY_ZONE
    return GENERAL_ZONE


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, zone: str) -> None:
        self.path = path
        self.zone = zone
        parts = Path(path).parts
        self._core_zone = (
            "core" in parts and Path(path).name not in _SESSION_MODULES
        )
        # Only repro/obs/clock.py may read the real clock (SIA010);
        # every other obs/ module (trace, metrics, replay) stamps times
        # that must honor ManualClock.
        self._obs_zone = "obs" in parts and Path(path).name == "clock.py"
        self.findings: list[Finding] = []
        self._class_stack: list[str] = []
        self._func_stack: list[str] = []
        # Float constants already reported through a SIA003 comparison,
        # so SIA001 does not double-report the same token.
        self._consumed_constants: set[int] = set()
        # One frame per enclosing scope (module + functions): whether a
        # solver-verdict check has been seen yet in that scope (SIA008).
        self._verdict_seen: list[bool] = [False]
        # SIA010 alias tracking: local names bound to the time module,
        # to clock functions imported from it, and to the datetime
        # module / datetime classes.
        self._time_modules: set[str] = set(_TIME_MODULE_NAMES)
        self._clock_names: dict[str, str] = {}
        self._datetime_modules: set[str] = set()
        self._datetime_classes: dict[str, str] = {}

    # -- import tracking (SIA010 aliases) ------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            root = alias.name.split(".")[0]
            if root in _TIME_MODULE_NAMES:
                self._time_modules.add(local)
            elif root == "datetime":
                self._datetime_modules.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[0]
        for alias in node.names:
            local = alias.asname or alias.name
            if module in _TIME_MODULE_NAMES and alias.name in _CLOCK_ATTRS:
                self._clock_names[local] = alias.name
            elif module == "datetime" and alias.name in _DATETIME_CLASSES:
                self._datetime_classes[local] = alias.name
        self.generic_visit(node)

    def _datetime_class_ref(self, node: ast.expr) -> str | None:
        """The datetime class a ``datetime.datetime`` / ``dt`` ref names."""
        if isinstance(node, ast.Name):
            return self._datetime_classes.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in self._datetime_modules
            and node.attr in _DATETIME_CLASSES
        ):
            return node.attr
        return None

    # -- helpers -------------------------------------------------------
    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                file=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
                pass_name="lint",
            )
        )

    @staticmethod
    def _is_float_operand(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return True
        if isinstance(node, ast.UnaryOp):
            return _Linter._is_float_operand(node.operand)
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )

    def _mark_consumed(self, node: ast.expr) -> None:
        if isinstance(node, ast.Constant):
            self._consumed_constants.add(id(node))
        elif isinstance(node, ast.UnaryOp):
            self._mark_consumed(node.operand)

    @staticmethod
    def _has_verdict_marker(node: ast.AST) -> bool:
        """Whether a subtree inspects a solver verdict (SIA008)."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in ("SAT", "UNSAT"):
                return True
            if isinstance(sub, ast.Constant) and sub.value in ("sat", "unsat"):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("check", "solve")
            ):
                return True
        return False

    def _note_verdict_check(self, test: ast.AST) -> None:
        if self._has_verdict_marker(test):
            self._verdict_seen[-1] = True

    # -- visitors ------------------------------------------------------
    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            self.zone == EXACT_ZONE
            and type(node.value) is float
            and id(node) not in self._consumed_constants
        ):
            self._report(
                node,
                "SIA001",
                f"float literal {node.value!r} in exact-arithmetic zone",
            )

    def visit_If(self, node: ast.If) -> None:
        self._note_verdict_check(node.test)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._note_verdict_check(node.test)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._note_verdict_check(node.test)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._note_verdict_check(node)
        if self.zone == EXACT_ZONE and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(self._is_float_operand(operand) for operand in operands):
                for operand in operands:
                    self._mark_consumed(operand)
                self._report(
                    node, "SIA003", "==/!= comparison on a float operand"
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self._core_zone and (
            (isinstance(func, ast.Name) and func.id == "Solver")
            or (isinstance(func, ast.Attribute) and func.attr == "Solver")
        ):
            self._report(
                node,
                "SIA009",
                "direct Solver(...) construction bypasses the warm "
                "session layer; use SmtSession (or certified_solver "
                "for proof-logged verdicts)",
            )
        if (
            not self._obs_zone
            and isinstance(func, ast.Attribute)
            and func.attr in _CLOCK_ATTRS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_modules
        ):
            self._report(
                node,
                "SIA010",
                f"direct time.{func.attr}() call; measure on the "
                "injectable clock (repro.obs.clock.now) so ManualClock "
                "tests and span traces stay deterministic",
            )
        if (
            not self._obs_zone
            and isinstance(func, ast.Name)
            and func.id in self._clock_names
        ):
            origin = self._clock_names[func.id]
            self._report(
                node,
                "SIA010",
                f"direct {func.id}() call (time.{origin} imported by "
                "name); measure on the injectable clock "
                "(repro.obs.clock.now) so ManualClock tests and span "
                "traces stay deterministic",
            )
        if (
            not self._obs_zone
            and isinstance(func, ast.Attribute)
            and func.attr in _DATETIME_NOW_ATTRS
        ):
            dt_class = self._datetime_class_ref(func.value)
            if dt_class is not None:
                self._report(
                    node,
                    "SIA010",
                    f"{dt_class}.{func.attr}() reads the wall clock; "
                    "derive timestamps from the injectable clock "
                    "(repro.obs.clock.now) so ManualClock tests and "
                    "span traces stay deterministic",
                )
        if isinstance(func, ast.Name):
            if func.id == "float" and self.zone in (EXACT_ZONE, BOUNDARY_ZONE):
                self._report(
                    node,
                    "SIA002",
                    "float() cast crosses out of exact arithmetic",
                )
            elif func.id in ("eval", "exec"):
                self._report(node, "SIA004", f"call to {func.id}()")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "model"
            and not node.args
            and not node.keywords
        ):
            if not any(self._verdict_seen):
                self._report(
                    node,
                    "SIA008",
                    "model() read without checking the solver verdict "
                    "first",
                )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            enclosing = self._func_stack[-1] if self._func_stack else None
            if not (self._class_stack and enclosing in _SANCTIONED_MUTATORS):
                self._report(
                    node,
                    "SIA006",
                    "object.__setattr__ outside a constructor mutates a "
                    "frozen node",
                )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(node, "SIA005", "bare except clause")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.zone == EXACT_ZONE and self._is_node_subclass(node):
            if not (self._is_frozen_dataclass(node) or self._has_slots(node)):
                self._report(
                    node,
                    "SIA007",
                    f"IR node class {node.name!r} lacks __slots__ and is "
                    "not a frozen dataclass",
                )
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._func_stack.append(node.name)
        self._verdict_seen.append(False)
        self.generic_visit(node)
        self._verdict_seen.pop()
        self._func_stack.pop()

    # -- class-shape helpers -------------------------------------------
    @staticmethod
    def _is_node_subclass(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None
            )
            if name in _NODE_BASES:
                return True
        return False

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name != "dataclass":
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False


def lint_source(
    source: str,
    path: Path,
    *,
    honor_pragmas: bool = True,
) -> list[Finding]:
    """Lint one source string as if it lived at ``path``."""
    tree = ast.parse(source, filename=str(path))
    linter = _Linter(str(path), zone_of(path))
    linter.visit(tree)
    if not honor_pragmas:
        return sorted(linter.findings)
    pragmas = extract_pragmas(source)
    return sorted(
        finding
        for finding in linter.findings
        if not is_suppressed(pragmas, finding.line, finding.rule)
    )


def lint_file(path: Path, *, honor_pragmas: bool = True) -> list[Finding]:
    """Lint one file on disk."""
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path, honor_pragmas=honor_pragmas)


def iter_python_files(paths: list[Path]) -> list[Path]:
    """All .py files under the given files/directories, de-duplicated.

    De-duplication keys on the *resolved* path, so overlapping inputs
    (``repro analyze src src/repro``, ``./src src``) and symlinked
    spellings of the same file are examined -- and reported -- once.
    The first spelling seen wins for display purposes.
    """
    out: dict[Path, Path] = {}
    for path in paths:
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    out.setdefault(child.resolve(), child)
        elif path.suffix == ".py":
            out.setdefault(path.resolve(), path)
    return list(out.values())


def lint_paths(
    paths: list[Path], *, honor_pragmas: bool = True
) -> tuple[list[Finding], int]:
    """Lint every python file under ``paths``.

    Returns the findings plus the number of files examined.
    """
    findings: list[Finding] = []
    files = iter_python_files(paths)
    for file_path in files:
        findings.extend(lint_file(file_path, honor_pragmas=honor_pragmas))
    return sorted(findings), len(files)
