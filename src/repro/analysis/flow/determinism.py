"""SIA402: nondeterminism flowing into persisted outputs or merge order.

The parallel efficacy driver rests on an invariant the test
suite can only sample: bench results, perflog rows and merged worker
deltas must be byte-identical across runs and worker counts.  This
pass flags the three ways that invariant quietly breaks:

* **Unseeded global RNG** -- module-level ``random.random()`` /
  ``randint`` / ``choice`` / ... calls (a ``random.Random(seed)``
  instance is fine, and so is the module API *after* a dominating
  ``random.seed(...)`` on every path -- the seeded flag is a
  must-fact, killed at joins where one branch did not seed).
* **Set iteration order** -- iterating a ``set``/``frozenset`` value
  (``for x in s``, ``list(s)``, ``s.pop()``) produces
  hash-randomized order; ``sorted(...)``, ``min``/``max`` restore
  determinism and strip the tag.
* **``id()``-based keys** -- ``id(...)`` values are per-process; using
  them in persisted data or as a sort/merge key makes output depend
  on allocator behaviour.

Sinks: ``json.dump(s)``/``pickle.dump`` payloads, ``.write()``/
``.writelines()`` arguments, resolved calls into the perflog /
fullscale checkpoint writers, and ``sorted(..., key=...)`` /
``.sort(key=...)`` keys (merge order).  Findings are reported at the
sink with the offending source kind; suppress a deliberate exception
with ``# sia: allow(SIA402)``.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from .callgraph import FunctionInfo, Project
from .cfg import Test, WithExit, immediate_exprs
from .engine import FlowAnalysis, State, run_fixpoint
from .taint import _target_names

__all__ = ["analyze_determinism"]

RNG = "unseeded-rng"
SET_ORDER = "set-order"
ID_KEY = "id-key"
IS_SET = "is-set"

#: The must-fact "the global RNG has been seeded on every path here".
_SEEDED = "<rng-seeded>"

_REPORTABLE = (RNG, SET_ORDER, ID_KEY)

_RNG_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "gauss", "normalvariate",
        "betavariate", "expovariate", "getrandbits", "randbytes",
    }
)

_ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "len"})

#: Module keys whose functions persist rows (checkpoint / perflog
#: writers in this repo).
_PERSIST_MODULE_SUFFIXES = ("bench.perflog", "bench.fullscale")

_SOURCE_LABEL = {
    RNG: "unseeded global random",
    SET_ORDER: "set iteration order",
    ID_KEY: "id()-based key",
}


class _DetState(FlowAnalysis):
    must_keys = frozenset({_SEEDED})

    def __init__(self, project: Project, func: FunctionInfo) -> None:
        self.project = project
        self.func = func

    # -- source classification -----------------------------------------
    def _is_random_module(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Name):
            return False
        bound = self.project.external_module_of(node, self.func.module)
        return (bound or "").split(".")[0] == "random"

    def _random_symbol(self, name: str) -> bool:
        """Whether ``name`` is ``from random import <rng func>``."""
        bound = self.func.module.symbol_imports.get(name)
        return (
            bound is not None
            and bound[0].split(".")[0] == "random"
            and bound[1] in _RNG_FUNCS
        )

    # -- expression evaluation -----------------------------------------
    def eval(self, expr: ast.expr | None, state: State) -> frozenset:
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, (ast.Set,)):
            return frozenset({IS_SET})
        if isinstance(expr, ast.SetComp):
            return frozenset({IS_SET})
        if isinstance(expr, ast.BinOp):
            return self.eval(expr.left, state) | self.eval(expr.right, state)
        if isinstance(expr, ast.UnaryOp):
            return self.eval(expr.operand, state)
        if isinstance(expr, ast.BoolOp):
            out: frozenset = frozenset()
            for value in expr.values:
                out |= self.eval(value, state)
            return out
        if isinstance(expr, ast.IfExp):
            return self.eval(expr.body, state) | self.eval(expr.orelse, state)
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = frozenset()
            for elt in expr.elts:
                out |= self.eval(elt, state)
            return out - frozenset({IS_SET})
        if isinstance(expr, ast.Dict):
            out = frozenset()
            for key in expr.keys:
                out |= self.eval(key, state)
            for value in expr.values:
                out |= self.eval(value, state)
            return out - frozenset({IS_SET})
        if isinstance(expr, ast.Subscript):
            return self.eval(expr.value, state) - frozenset({IS_SET})
        if isinstance(expr, ast.Attribute):
            return self.eval(expr.value, state)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, state)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comp(expr.elt, expr.generators, state)
        if isinstance(expr, ast.DictComp):
            return self._eval_comp(
                expr.key, expr.generators, state
            ) | self._eval_comp(expr.value, expr.generators, state)
        if isinstance(expr, ast.Compare):
            return frozenset()
        return frozenset()

    def _eval_comp(
        self,
        elt: ast.expr,
        generators: list[ast.comprehension],
        state: State,
    ) -> frozenset:
        inner = dict(state)
        extra: frozenset = frozenset()
        for gen in generators:
            iter_tags = self.eval(gen.iter, inner)
            elem_tags = iter_tags - frozenset({IS_SET})
            if IS_SET in iter_tags:
                elem_tags |= frozenset({SET_ORDER})
                extra |= frozenset({SET_ORDER})
            for name in _target_names(gen.target):
                inner[name] = elem_tags
        return (self.eval(elt, inner) | extra) - frozenset({IS_SET})

    def _eval_call(self, call: ast.Call, state: State) -> frozenset:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                return frozenset({ID_KEY})
            if func.id in ("set", "frozenset"):
                inner: frozenset = frozenset()
                for arg in call.args:
                    inner = inner | self.eval(arg, state)
                return (inner - frozenset({IS_SET})) | frozenset({IS_SET})
            if func.id in _ORDER_SANITIZERS:
                out: frozenset = frozenset()
                for arg in call.args:
                    out |= self.eval(arg, state)
                # Deterministic reductions: order and set-ness washed out.
                out -= frozenset({SET_ORDER, IS_SET})
                for keyword in call.keywords:
                    if keyword.arg == "key":
                        if _contains_id_call(keyword.value):
                            out |= frozenset({ID_KEY})
                        out |= self.eval(keyword.value, state)
                return out
            if func.id in ("list", "tuple", "iter", "enumerate", "reversed"):
                out = frozenset()
                for arg in call.args:
                    tags = self.eval(arg, state)
                    if IS_SET in tags:
                        out |= frozenset({SET_ORDER})
                    out |= tags - frozenset({IS_SET})
                return out
            if self._random_symbol(func.id) and _SEEDED not in state:
                return frozenset({RNG})
        if isinstance(func, ast.Attribute):
            if self._is_random_module(func.value):
                if func.attr in _RNG_FUNCS and _SEEDED not in state:
                    return frozenset({RNG})
                return frozenset()
            receiver_tags = self.eval(func.value, state)
            if func.attr == "pop" and IS_SET in receiver_tags:
                return (receiver_tags - frozenset({IS_SET})) | frozenset(
                    {SET_ORDER}
                )
            if func.attr in ("union", "intersection", "difference",
                             "symmetric_difference", "copy"):
                return receiver_tags
            # Method result inherits the receiver's order/rng taint but
            # not its set-ness (type unknown).
            return receiver_tags - frozenset({IS_SET})
        resolved = self.project.resolve_call(func, self.func.module)
        if resolved is not None:
            return frozenset()
        return frozenset()

    # -- statements ----------------------------------------------------
    def transfer(self, stmt: object, state: State) -> State:
        out = dict(state)
        if isinstance(stmt, Test):
            return out
        if isinstance(stmt, WithExit):
            return out
        if isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                out[stmt.name] = frozenset()
            return out
        if not isinstance(stmt, ast.stmt):
            return out
        if self._seeds_rng(stmt):
            out[_SEEDED] = frozenset({"yes"})
            return out
        if isinstance(stmt, ast.Assign):
            tags = self.eval(stmt.value, out)
            for target in stmt.targets:
                for name in _target_names(target):
                    out[name] = tags
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            tags = self.eval(stmt.value, out)
            for name in _target_names(stmt.target):
                out[name] = tags
        elif isinstance(stmt, ast.AugAssign):
            tags = self.eval(stmt.value, out)
            for name in _target_names(stmt.target):
                out[name] = out.get(name, frozenset()) | tags
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tags = self.eval(stmt.iter, out)
            elem_tags = iter_tags - frozenset({IS_SET})
            if IS_SET in iter_tags:
                elem_tags |= frozenset({SET_ORDER})
            for name in _target_names(stmt.target):
                out[name] = elem_tags
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    tags = self.eval(item.context_expr, out)
                    for name in _target_names(item.optional_vars):
                        out[name] = tags
        return out

    def _seeds_rng(self, stmt: ast.stmt) -> bool:
        """Whether the statement is a ``random.seed(...)`` call."""
        if not isinstance(stmt, ast.Expr) or not isinstance(
            stmt.value, ast.Call
        ):
            return False
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr == "seed":
            return self._is_random_module(func.value)
        if isinstance(func, ast.Name):
            bound = self.func.module.symbol_imports.get(func.id)
            return bound is not None and (
                bound[0].split(".")[0], bound[1]
            ) == ("random", "seed")
        return False


def _contains_id_call(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return True
    return False


def analyze_determinism(project: Project) -> list[Finding]:
    """Run the determinism pass over every function in the project."""
    findings: list[Finding] = []
    for func in project.all_functions():
        analysis = _DetState(project, func)
        in_states = run_fixpoint(func.cfg, analysis)
        for block, stmt in func.cfg.statements():
            if block.bid not in in_states:
                continue
            state = in_states[block.bid]
            for expr in immediate_exprs(stmt):
                for call in ast.walk(expr):
                    if isinstance(call, ast.Call):
                        findings.extend(
                            _sink_findings(analysis, call, state, func)
                        )
    return findings


def _sink_findings(
    analysis: _DetState,
    call: ast.Call,
    state: State,
    func: FunctionInfo,
) -> list[Finding]:
    """Findings for one call expression if it is a nondeterminism sink."""
    sinks: list[tuple[ast.expr, str]] = []  # (payload expr, sink label)
    cfunc = call.func
    if isinstance(cfunc, ast.Attribute):
        root = cfunc.value
        if (
            cfunc.attr in ("dump", "dumps")
            and isinstance(root, ast.Name)
            and (analysis.project.external_module_of(root, func.module) or "")
            .split(".")[0] in ("json", "pickle", "marshal")
        ):
            if call.args:
                sinks.append((call.args[0], f"{root.id}.{cfunc.attr}()"))
        elif cfunc.attr in ("write", "writelines"):
            for arg in call.args:
                sinks.append((arg, f".{cfunc.attr}()"))
        elif cfunc.attr == "sort":
            for keyword in call.keywords:
                if keyword.arg == "key":
                    sinks.append((keyword.value, "sort key (merge order)"))
                    if _contains_id_call(keyword.value):
                        return [
                            _finding(func, call, ID_KEY, "sort key (merge order)")
                        ]
    if isinstance(cfunc, ast.Name) and cfunc.id == "sorted":
        for keyword in call.keywords:
            if keyword.arg == "key":
                if _contains_id_call(keyword.value):
                    return [
                        _finding(func, call, ID_KEY, "sort key (merge order)")
                    ]
                sinks.append((keyword.value, "sort key (merge order)"))
    resolved = analysis.project.resolve_call(cfunc, func.module)
    if resolved is not None and resolved.module.dotted.endswith(
        _PERSIST_MODULE_SUFFIXES
    ):
        for arg in [*call.args, *[k.value for k in call.keywords]]:
            sinks.append((arg, f"{resolved.name}() (persisted bench row)"))

    findings: list[Finding] = []
    for payload, label in sinks:
        tags = analysis.eval(payload, state)
        for tag in _REPORTABLE:
            if tag in tags:
                findings.append(_finding(func, call, tag, label))
    return findings


def _finding(
    func: FunctionInfo, call: ast.Call, tag: str, sink: str
) -> Finding:
    return Finding(
        file=str(func.module.path),
        line=call.lineno,
        col=call.col_offset + 1,
        rule="SIA402",
        message=f"{_SOURCE_LABEL[tag]} flows into {sink}",
        pass_name="flow",
    )
