"""Quantifier-free formulas over linear arithmetic atoms and booleans.

A :class:`Formula` is one of:

* :data:`TRUE` / :data:`FALSE` -- constants,
* :class:`Atom` -- a linear constraint ``expr OP 0``,
* :class:`BVar` -- a propositional variable (used for the NULL flags of
  the three-valued-logic encoding of section 5.2),
* :class:`Not`, :class:`And`, :class:`Or` -- boolean structure.

Formulas are immutable values.  The smart constructors ``conj``,
``disj`` and ``negate`` perform the obvious simplifications (constant
folding, flattening) so that the rest of the system can build formulas
without worrying about degenerate shapes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Mapping, Sequence

from .terms import LinExpr, Scalar, Var

# Comparison operators of atoms, always against zero.
LE = "<="
LT = "<"
EQ = "="
NE = "!="

_NEGATED_OP = {LE: LT, LT: LE, EQ: NE, NE: EQ}


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()

    def variables(self) -> set[Var]:
        """All arithmetic variables occurring in the formula."""
        out: set[Var] = set()
        _collect_vars(self, out)
        return out

    def bool_variables(self) -> set["BVar"]:
        """All propositional variables occurring in the formula."""
        out: set[BVar] = set()
        _collect_bvars(self, out)
        return out

    def atoms(self) -> list["Atom"]:
        """All distinct arithmetic atoms, in first-occurrence order."""
        seen: dict[Atom, None] = {}
        _collect_atoms(self, seen)
        return list(seen)

    def evaluate(
        self,
        assignment: Mapping[Var, Scalar],
        bool_assignment: Mapping["BVar", bool] | None = None,
    ) -> bool:
        """Two-valued evaluation under a total assignment."""
        return _evaluate(self, assignment, bool_assignment or {})

    # Operator sugar --------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return conj([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return disj([self, other])

    def __invert__(self) -> "Formula":
        return negate(self)


class _Const(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a: object) -> None:  # pragma: no cover
        raise AttributeError("constant formulas are immutable")

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = _Const(True)
FALSE = _Const(False)


class Atom(Formula):
    """The linear constraint ``expr op 0``.

    Atoms (like every formula node) are hash-consed: structurally
    equal nodes are the same object, so the CNF encoder's definition
    cache and the session layer can key on identity.  Intern tables
    are weak -- nodes no live formula references are collected.

    The hash is computed once, at intern time, and :meth:`negated`
    keeps the complement in a weak memo that pins neither atom.
    """

    __slots__ = ("expr", "op", "_hash", "_neg", "__weakref__")

    expr: LinExpr
    op: str
    _hash: int
    _neg: "weakref.ref[Atom] | None"

    _intern: ClassVar["weakref.WeakValueDictionary[tuple, Atom]"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, expr: LinExpr, op: str) -> "Atom":
        key = (expr, op)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        if op not in _NEGATED_OP:
            raise ValueError(f"unknown atom operator {op!r}")
        self = super().__new__(cls)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_neg", None)
        cls._intern[key] = self
        return self

    def __reduce__(self) -> tuple[type["Atom"], tuple[LinExpr, str]]:
        # Unpickled atoms re-enter the intern table via __new__; the
        # negation memo is not part of the value and is not pickled.
        return (Atom, (self.expr, self.op))

    def __setattr__(self, *a: object) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Atom:
            return NotImplemented
        return self.expr == other.expr and self.op == other.op

    def __hash__(self) -> int:
        return self._hash

    def negated(self) -> "Atom":
        """The complementary atom (exact over rationals and integers)."""
        ref = self._neg
        if ref is not None:
            neg = ref()
            if neg is not None:
                return neg
        if self.op == LE:
            neg = Atom(-self.expr, LT)
        elif self.op == LT:
            neg = Atom(-self.expr, LE)
        else:
            neg = Atom(self.expr, _NEGATED_OP[self.op])
        # sia: allow-mutation -- a weak memo slot, not part of the value:
        # it is written only while empty or dead, and always to the
        # complement that interning would return anyway.
        object.__setattr__(self, "_neg", weakref.ref(neg))
        # sia: allow-mutation -- the same memo, seen from the complement.
        object.__setattr__(neg, "_neg", weakref.ref(self))
        return neg

    def holds(self, value: Fraction) -> bool:
        """Whether ``value op 0`` holds for a concrete LHS value."""
        if self.op == LE:
            return value <= 0
        if self.op == LT:
            return value < 0
        if self.op == EQ:
            return value == 0
        return value != 0

    def __repr__(self) -> str:
        return f"({self.expr!r} {self.op} 0)"


@dataclass(frozen=True)
class BVar(Formula):
    """A propositional variable."""

    name: str

    _intern: ClassVar["weakref.WeakValueDictionary[str, BVar]"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, name: str) -> "BVar":
        cached = cls._intern.get(name)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        cls._intern[name] = self
        return self

    def __getnewargs__(self) -> tuple[str]:
        return (self.name,)

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    _intern: ClassVar["weakref.WeakValueDictionary[Formula, Not]"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, arg: Formula) -> "Not":
        cached = cls._intern.get(arg)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        cls._intern[arg] = self
        return self

    def __getnewargs__(self) -> tuple[Formula]:
        return (self.arg,)

    def __repr__(self) -> str:
        return f"~{self.arg!r}"


class _NAry(Formula):
    __slots__ = ("args", "_hash", "__weakref__")

    # Shared by And and Or; the concrete class is part of the key.
    _intern: ClassVar["weakref.WeakValueDictionary[tuple, _NAry]"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, args: Sequence[Formula]) -> "_NAry":
        args_tuple = tuple(args)
        key = (cls, args_tuple)
        cached = _NAry._intern.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        object.__setattr__(self, "args", args_tuple)
        object.__setattr__(self, "_hash", hash((cls.__name__, args_tuple)))
        _NAry._intern[key] = self
        return self

    def __init__(self, args: Sequence[Formula]) -> None:
        # Construction (and interning) happens in __new__.
        pass

    def __reduce__(self):
        return (type(self), (self.args,))

    def __setattr__(self, *a: object) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self.args == other.args

    def __hash__(self) -> int:
        return self._hash


class And(_NAry):
    """Conjunction node (build via :func:`conj`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.args)) + ")"


class Or(_NAry):
    """Disjunction node (build via :func:`disj`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.args)) + ")"


# ----------------------------------------------------------------------
# Smart constructors
# ----------------------------------------------------------------------
def conj(args: Iterable[Formula]) -> Formula:
    """Conjunction with flattening and constant folding."""
    flat: list[Formula] = []
    for arg in args:
        if arg is TRUE:
            continue
        if arg is FALSE:
            return FALSE
        if isinstance(arg, And):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def disj(args: Iterable[Formula]) -> Formula:
    """Disjunction with flattening and constant folding."""
    flat: list[Formula] = []
    for arg in args:
        if arg is FALSE:
            continue
        if arg is TRUE:
            return TRUE
        if isinstance(arg, Or):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def negate(formula: Formula) -> Formula:
    """Logical negation (kept shallow; NNF pushes it all the way down)."""
    if formula is TRUE:
        return FALSE
    if formula is FALSE:
        return TRUE
    if isinstance(formula, Not):
        return formula.arg
    if isinstance(formula, Atom):
        return formula.negated()
    return Not(formula)


# ----------------------------------------------------------------------
# Atom construction from comparisons
# ----------------------------------------------------------------------
def compare(lhs: LinExpr, op: str, rhs: LinExpr) -> Formula:
    """Build the atom for ``lhs op rhs`` with op in <, <=, >, >=, =, !=."""
    if op == "<":
        atom = Atom(lhs - rhs, LT)
    elif op == "<=":
        atom = Atom(lhs - rhs, LE)
    elif op == ">":
        atom = Atom(rhs - lhs, LT)
    elif op == ">=":
        atom = Atom(rhs - lhs, LE)
    elif op == "=":
        atom = Atom(lhs - rhs, EQ)
    elif op in ("!=", "<>"):
        atom = Atom(lhs - rhs, NE)
    else:
        raise ValueError(f"unknown comparison operator {op!r}")
    return fold_atom(atom)


def fold_atom(atom: Atom) -> Formula:
    """Fold an atom over a constant expression to TRUE/FALSE."""
    if atom.expr.is_constant:
        return TRUE if atom.holds(atom.expr.const) else FALSE
    return atom


def eq(lhs: LinExpr, rhs: LinExpr) -> Formula:
    """The atom ``lhs = rhs``."""
    return compare(lhs, "=", rhs)


def le(lhs: LinExpr, rhs: LinExpr) -> Formula:
    """The atom ``lhs <= rhs``."""
    return compare(lhs, "<=", rhs)


def lt(lhs: LinExpr, rhs: LinExpr) -> Formula:
    """The atom ``lhs < rhs``."""
    return compare(lhs, "<", rhs)


# ----------------------------------------------------------------------
# Negation normal form
# ----------------------------------------------------------------------
#: Memoized NNF results, keyed on the (interned) input node.  The key
#: is held weakly so the cache never outlives the formulas themselves;
#: the inner dict is keyed on ``split_ne``.
_NNF_CACHE: "weakref.WeakKeyDictionary[Formula, dict[bool, object]]" = (
    weakref.WeakKeyDictionary()
)
#: Cached in place of a result that is the input node itself: a value
#: holding its own key strongly would keep the entry alive forever.
_UNCHANGED = object()


def to_nnf(formula: Formula, *, split_ne: bool = True) -> Formula:
    """Negation normal form.

    Negations are pushed onto atoms and propositional variables.  When
    ``split_ne`` is set (the default), disequality atoms ``e != 0`` are
    rewritten into ``e < 0 | -e < 0`` so that downstream consumers (the
    theory solver, Fourier-Motzkin) only see ``<=``, ``<`` and ``=``.

    Results are memoized on interned node identity, so re-asserting a
    structurally equal formula (the warm-session pattern) normalizes at
    dictionary-lookup cost.
    """
    if formula is TRUE or formula is FALSE:
        return formula
    per_node = _NNF_CACHE.get(formula)
    if per_node is not None:
        cached = per_node.get(split_ne)
        if cached is _UNCHANGED:
            return formula
        if cached is not None:
            return cached
    result = _nnf(formula, negated=False, split_ne=split_ne)
    if per_node is None:
        per_node = {}
        _NNF_CACHE[formula] = per_node
    per_node[split_ne] = _UNCHANGED if result is formula else result
    return result


def _nnf(formula: Formula, *, negated: bool, split_ne: bool) -> Formula:
    if formula is TRUE:
        return FALSE if negated else TRUE
    if formula is FALSE:
        return TRUE if negated else FALSE
    if isinstance(formula, Not):
        return _nnf(formula.arg, negated=not negated, split_ne=split_ne)
    if isinstance(formula, BVar):
        return Not(formula) if negated else formula
    if isinstance(formula, Atom):
        atom = formula.negated() if negated else formula
        folded = fold_atom(atom)
        if isinstance(folded, Atom) and folded.op == NE and split_ne:
            return disj([Atom(folded.expr, LT), Atom(-folded.expr, LT)])
        return folded
    if isinstance(formula, And):
        parts = [_nnf(a, negated=negated, split_ne=split_ne) for a in formula.args]
        return disj(parts) if negated else conj(parts)
    if isinstance(formula, Or):
        parts = [_nnf(a, negated=negated, split_ne=split_ne) for a in formula.args]
        return conj(parts) if negated else disj(parts)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


# ----------------------------------------------------------------------
# Disjunctive normal form (used by quantifier elimination)
# ----------------------------------------------------------------------
class DnfBlowupError(Exception):
    """Raised when DNF expansion would exceed the configured bound."""


def to_dnf(formula: Formula, *, max_conjuncts: int = 4096) -> list[list[Atom]]:
    """Expand an NNF formula into a list of conjunctions of atoms.

    Propositional variables are not allowed here: quantifier
    elimination operates on pure arithmetic.  Raises
    :class:`DnfBlowupError` if the expansion exceeds ``max_conjuncts``.
    """
    nnf = to_nnf(formula)
    cubes = _dnf(nnf, max_conjuncts)
    return [cube for cube in cubes if cube is not None]


def _dnf(formula: Formula, limit: int) -> list[list[Atom] | None]:
    if formula is TRUE:
        return [[]]
    if formula is FALSE:
        return []
    if isinstance(formula, Atom):
        return [[formula]]
    if isinstance(formula, Or):
        out: list[list[Atom] | None] = []
        for arg in formula.args:
            out.extend(_dnf(arg, limit))
            if len(out) > limit:
                raise DnfBlowupError(f"DNF exceeds {limit} conjuncts")
        return out
    if isinstance(formula, And):
        product: list[list[Atom]] = [[]]
        for arg in formula.args:
            branches = _dnf(arg, limit)
            product = [
                cube + branch
                for cube in product
                for branch in branches
                if branch is not None
            ]
            if len(product) > limit:
                raise DnfBlowupError(f"DNF exceeds {limit} conjuncts")
        return list(product)
    if isinstance(formula, (BVar, Not)):
        raise TypeError("DNF expansion is only defined for pure arithmetic formulas")
    raise TypeError(f"unknown formula node {type(formula).__name__}")


# ----------------------------------------------------------------------
# Internal traversals
# ----------------------------------------------------------------------
def _collect_vars(formula: Formula, out: set[Var]) -> None:
    if isinstance(formula, Atom):
        out.update(formula.expr.coeffs)
    elif isinstance(formula, Not):
        _collect_vars(formula.arg, out)
    elif isinstance(formula, (And, Or)):
        for arg in formula.args:
            _collect_vars(arg, out)


def _collect_bvars(formula: Formula, out: set[BVar]) -> None:
    if isinstance(formula, BVar):
        out.add(formula)
    elif isinstance(formula, Not):
        _collect_bvars(formula.arg, out)
    elif isinstance(formula, (And, Or)):
        for arg in formula.args:
            _collect_bvars(arg, out)


def _collect_atoms(formula: Formula, out: dict[Atom, None]) -> None:
    if isinstance(formula, Atom):
        out.setdefault(formula)
    elif isinstance(formula, Not):
        _collect_atoms(formula.arg, out)
    elif isinstance(formula, (And, Or)):
        for arg in formula.args:
            _collect_atoms(arg, out)


def _evaluate(
    formula: Formula,
    assignment: Mapping[Var, Scalar],
    bool_assignment: Mapping[BVar, bool],
) -> bool:
    if formula is TRUE:
        return True
    if formula is FALSE:
        return False
    if isinstance(formula, Atom):
        return formula.holds(formula.expr.evaluate(assignment))
    if isinstance(formula, BVar):
        return bool(bool_assignment[formula])
    if isinstance(formula, Not):
        return not _evaluate(formula.arg, assignment, bool_assignment)
    if isinstance(formula, And):
        return all(_evaluate(a, assignment, bool_assignment) for a in formula.args)
    if isinstance(formula, Or):
        return any(_evaluate(a, assignment, bool_assignment) for a in formula.args)
    raise TypeError(f"unknown formula node {type(formula).__name__}")
