"""Persistent incremental SMT sessions with activation literals.

The CEGIS loop (Alg. 1 of the paper) issues dozens of checks per
synthesized query -- GenerateSamples, Verify, CounterT, CounterF --
over formulas that share almost all structure: the linearized original
predicate ``p`` is fixed, only the candidate ``p1``, blocking clauses
and probe points change between iterations.  Constructing a fresh
:class:`~repro.smt.solver.Solver` per check (the historical pattern)
re-encodes the CNF, re-registers atoms, and throws away every learned
clause, VSIDS activity, saved phase and bound chain.

:class:`SmtSession` keeps **one** solver warm for a whole lifetime:

* *Base* formulas are asserted once and hold for every later check.
* Per-iteration formulas go into a :class:`Scope` guarded by a fresh
  MiniSat-style **activation literal** ``sel``: each formula ``F`` is
  asserted as the implication ``~sel | F``, and a check *assumes*
  ``sel`` to activate the scope.  Retracting the scope permanently
  asserts ``~sel``, which satisfies all its guard clauses without
  deleting anything.
* Clauses the CDCL core learns while a scope is active are derived by
  resolution over the clause database only (assumptions enter the
  search as decisions, never as axioms), so they remain sound after
  the scope is retracted -- the core stays warm across iterations.

Proof-logging is deliberately *not* threaded through the warm path:
a certificate must justify every clause in the log, and guard clauses
of long-retracted scopes would bloat and obscure the audit trail.
Certified checks (``proof=True`` callers) instead use
:func:`certified_solver`, which runs a sealed fresh solver over
exactly the formulas under audit -- see docs/INTERNALS.md,
"Incremental sessions".
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .formula import (
    EQ,
    LT,
    NE,
    And,
    Atom,
    BVar,
    Formula,
    Not,
    Or,
    disj,
    negate,
    to_nnf,
)
from ..obs.clock import now as _clock_now
from ..obs.metrics import GLOBAL_METRICS
from ..obs.trace import get_tracer
from .solver import Model, Solver
from .stats import GLOBAL_COUNTERS

__all__ = [
    "Scope",
    "SmtSession",
    "certified_solver",
]


def _atom_footprint(formula: Formula) -> set:
    """Every leaf atom the solver may register while encoding ``formula``.

    The raw ``formula.atoms()`` underestimate the encoded vocabulary:
    NNF pushes negations onto atoms (producing the *complement* atom
    objects, e.g. ``~(e <= 0)`` becomes ``-e < 0``), and equality /
    disequality atoms split into strict pairs (``to_nnf`` with
    ``split_ne``, or the solver's on-demand trichotomy lemma).  The
    suppression bookkeeping must count the atoms the solver actually
    registers, so it closes over both polarities and the splits.
    """
    out: set = set()
    for atom in formula.atoms():
        expr = atom.expr
        if atom.op in (EQ, NE):
            out.add(Atom(expr, EQ))
            out.add(Atom(expr, NE))
            out.add(Atom(expr, LT))
            out.add(Atom(-expr, LT))
        else:
            out.add(atom)
            out.add(atom.negated())
    return out


def _connective_nodes(formula: Formula) -> list:
    """Interned ``And``/``Or`` nodes of the NNF the encoder will build.

    These are exactly the keys of the CNF builder's definition cache
    (``assert_formula`` NNF-normalizes with the same defaults), so the
    session can refcount them per scope and have the solver delete a
    retracted candidate's whole Tseitin cone once nothing live shares
    its sub-formulas.
    """
    nnf = to_nnf(formula)
    out: list = []
    stack = [nnf]
    seen: set = set()
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)) and node not in seen:
            seen.add(node)
            out.append(node)
            stack.extend(node.args)
    return out

#: Process-wide source of unique activation-literal names.  Selector
#: variables live in the same interned BVar namespace as user formulas;
#: the dunder prefix plus a process-unique counter keeps them out of
#: the way of SQL-derived names.
_SELECTOR_PREFIX = "__sia_sel_"
_selector_ids = itertools.count()

#: Retractions between clause-database compactions.  Suppressing dead
#: atoms from theory rounds is O(1) and happens on every retract, but
#: deleting their clauses (`Solver.compact`) walks the whole database;
#: batching keeps short-lived sessions from paying that walk per
#: iteration while still bounding garbage on long-lived ones.
_COMPACT_INTERVAL = 8


class Scope:
    """A retractable group of assertions guarded by one activation literal.

    Obtained from :meth:`SmtSession.push`; do not construct directly.
    """

    __slots__ = ("_session", "selector", "label", "_active", "_atoms", "_nodes")

    def __init__(self, session: "SmtSession", selector: BVar, label: str) -> None:
        self._session = session
        self.selector = selector
        self.label = label
        self._active = True
        self._atoms: list = []  # leaf atoms this scope references
        self._nodes: list = []  # NNF connective nodes this scope references

    @property
    def active(self) -> bool:
        """Whether the scope still participates in checks by default."""
        return self._active

    def add(self, *formulas: Formula) -> None:
        """Assert more formulas under this scope's activation literal."""
        if not self._active:
            raise ValueError(f"scope {self.label!r} is already retracted")
        self._session._assert_guarded(self, formulas)

    def retract(self) -> None:
        """Permanently retire the scope.

        Asserts the negated selector, which satisfies every guard
        clause of the scope; learned clauses survive (they are sound
        consequences of the clause database alone).  Idempotent.
        """
        if not self._active:
            return
        self._active = False
        self._session._on_retract(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "retracted"
        return f"Scope({self.label!r}, {state})"


class SmtSession:
    """A long-lived incremental solving session (see module docstring)."""

    def __init__(self, *, bnb_budget: int = 4000) -> None:
        GLOBAL_COUNTERS.sessions_created += 1
        self._solver = Solver(bnb_budget=bnb_budget)
        self._scopes: list[Scope] = []
        # Theory-relevance bookkeeping: an atom referenced only by
        # retracted scopes is suppressed from theory rounds (see
        # Solver.suppress_atoms); base atoms are live forever.
        self._base_atoms: set = set()
        self._scope_atom_refs: dict = {}
        # Tseitin-cone bookkeeping, same refcount discipline at the
        # level of NNF connective nodes: a node referenced only by
        # retracted scopes has its definition clauses deleted outright
        # (see Solver.compact).
        self._base_nodes: set = set()
        self._scope_node_refs: dict = {}
        # Deferred compaction state: atoms/nodes that died but whose
        # clauses have not been collected yet.  A re-assertion before
        # the flush revives them (they must leave these sets, or the
        # flush would delete live clauses).
        self._pending_dead_atoms: set = set()
        self._pending_dead_nodes: set = set()
        self._retracts_since_compact = 0

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def assert_base(self, *formulas: Formula) -> None:
        """Assert formulas that hold for the rest of the session."""
        for formula in formulas:
            atoms = _atom_footprint(formula)
            self._base_atoms.update(atoms)
            self._pending_dead_atoms.difference_update(atoms)
            nodes = _connective_nodes(formula)
            self._base_nodes.update(nodes)
            self._pending_dead_nodes.difference_update(nodes)
            self._solver.unsuppress_atoms(atoms)
        self._solver.add(*formulas)

    def push(self, *formulas: Formula, label: str = "") -> Scope:
        """Open a retractable scope asserting ``formulas`` under a guard."""
        name = f"{_SELECTOR_PREFIX}{next(_selector_ids)}__"
        scope = Scope(self, BVar(name), label or name)
        self._scopes.append(scope)
        GLOBAL_COUNTERS.scopes_opened += 1
        if formulas:
            self._assert_guarded(scope, formulas)
        return scope

    def _assert_guarded(self, scope: Scope, formulas: Iterable[Formula]) -> None:
        guard = Not(scope.selector)
        for formula in formulas:
            atoms = _atom_footprint(formula)
            self._pending_dead_atoms.difference_update(atoms)
            for atom in atoms:
                scope._atoms.append(atom)
                self._scope_atom_refs[atom] = (
                    self._scope_atom_refs.get(atom, 0) + 1
                )
            self._solver.unsuppress_atoms(atoms)
            guarded = disj([guard, formula])
            for node in _connective_nodes(guarded):
                self._pending_dead_nodes.discard(node)
                scope._nodes.append(node)
                self._scope_node_refs[node] = (
                    self._scope_node_refs.get(node, 0) + 1
                )
            self._solver.add(guarded)

    def _on_retract(self, scope: Scope) -> None:
        self._scopes.remove(scope)
        self._solver.add(negate(scope.selector))
        GLOBAL_COUNTERS.scopes_retracted += 1
        dead = []
        for atom in scope._atoms:
            remaining = self._scope_atom_refs[atom] - 1
            if remaining:
                self._scope_atom_refs[atom] = remaining
            else:
                del self._scope_atom_refs[atom]
                if atom not in self._base_atoms:
                    dead.append(atom)
        scope._atoms.clear()
        dead_nodes = []
        for node in scope._nodes:
            remaining = self._scope_node_refs[node] - 1
            if remaining:
                self._scope_node_refs[node] = remaining
            else:
                del self._scope_node_refs[node]
                if node not in self._base_nodes:
                    dead_nodes.append(node)
        scope._nodes.clear()
        if dead:
            self._solver.suppress_atoms(dead)
            self._pending_dead_atoms.update(dead)
        self._pending_dead_nodes.update(dead_nodes)
        self._retracts_since_compact += 1
        if self._retracts_since_compact >= _COMPACT_INTERVAL:
            self._flush_compaction()

    def _flush_compaction(self) -> None:
        """Run the deferred clause-database collection (see module doc)."""
        self._solver.compact(
            self._pending_dead_nodes, dead_atoms=self._pending_dead_atoms
        )
        self._pending_dead_nodes.clear()
        self._pending_dead_atoms.clear()
        self._retracts_since_compact = 0

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(
        self,
        assumptions: list[Formula] | None = None,
        *,
        disable: Iterable[Scope] = (),
    ) -> str:
        """Run one check; returns ``"sat"`` or ``"unsat"``.

        Every active scope's selector is assumed true, so scoped
        assertions constrain the check exactly as if they were base
        formulas; scopes listed in ``disable`` sit this check out
        (dormant, not retracted).  ``assumptions`` are extra
        literal-shaped formulas for this call only.
        """
        GLOBAL_COUNTERS.session_checks += 1
        skip = set(map(id, disable))
        lits: list[Formula] = [
            scope.selector for scope in self._scopes if id(scope) not in skip
        ]
        transient: list = []
        if assumptions:
            lits.extend(assumptions)
            # Assumption atoms constrain this check only: make their
            # footprint live for the call, then retire whatever no base
            # formula or active scope references (one-shot probe atoms
            # would otherwise stay in every later theory round).
            for formula in assumptions:
                leaf = formula.arg if isinstance(formula, Not) else formula
                if not isinstance(leaf, Atom):
                    continue
                for atom in _atom_footprint(leaf):
                    if (
                        atom not in self._base_atoms
                        and not self._scope_atom_refs.get(atom)
                    ):
                        transient.append(atom)
            self._solver.unsuppress_atoms(transient)
        tracer = get_tracer()
        span = (
            tracer.span(
                "smt.check",
                counters=True,
                scopes=len(lits) - len(assumptions or []),
                assumptions=len(assumptions or []),
            )
            if tracer.smt_spans
            else None
        )
        start = _clock_now()
        try:
            if span is None:
                return self._solver.check(assumptions=lits)
            with span:
                verdict = self._solver.check(assumptions=lits)
                span.set(verdict=verdict)
                return verdict
        finally:
            GLOBAL_METRICS.timer("smt.session_check_ms").record(
                (_clock_now() - start) * 1000
            )
            if transient:
                self._solver.suppress_atoms(transient)

    def model(self) -> Model:
        """Model of the last satisfiable :meth:`check`."""
        # Delegating accessor: the wrapped solver enforces the
        # checked-verdict contract and raises on a stale read.
        return self._solver.model()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retract every scope still active and flush compaction.

        Retracting whatever is left keeps ``scopes_opened`` and
        ``scopes_retracted`` balanced and collects the clause database
        once.  Idempotent; the session remains usable for base-level
        checks afterwards.
        """
        for scope in list(self._scopes):
            scope.retract()
        if self._pending_dead_atoms or self._pending_dead_nodes:
            self._flush_compaction()


def certified_solver(
    formulas: Iterable[Formula],
    *,
    bnb_budget: int = 4000,
) -> Solver:
    """Sealed fresh proof-logging solver over ``formulas``, checked.

    The canonical entry point for certified verdicts.  A session's warm
    clause database mixes guard clauses from many retracted scopes,
    which a certificate auditor would have to wade through; certified
    verdicts instead come from a fresh ``proof=True`` solver holding
    exactly the audited formulas.  Callers read the verdict from
    ``proof_log.result``, fetch a model, and hand the log to the
    auditor.
    """
    GLOBAL_COUNTERS.proof_fallbacks += 1
    solver = Solver(bnb_budget=bnb_budget, proof=True)
    solver.add(*formulas)
    solver.check()
    return solver
