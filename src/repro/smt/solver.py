"""Lazy DPLL(T) solver facade.

This is the ``z3``-shaped surface the rest of the system talks to: add
formulas, call :meth:`Solver.check`, read back a model.  Internally it
runs the classic lazy loop:

1. Tseitin-encode all asserted formulas into a CDCL SAT solver.
2. Ask the SAT core for a boolean model.
3. Collect the arithmetic atoms the model asserts (positively or
   negatively) and check their conjunction with the LRA/LIA theory
   solver.
4. On theory conflict, add the blocking clause over the conflicting
   atom literals and repeat.

Disequalities arising from *negated equality atoms* are resolved with a
splitting lemma ``~(e = 0) -> (e < 0 | e > 0)`` added on demand.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable

from .cnf import CnfBuilder
from .formula import EQ, LE, LT, NE, Atom, BVar, Formula, Not as FNot
from .proof import (
    BOOL,
    FarkasCert,
    FarkasEntry,
    ProofLog,
    TrichotomyCert,
)
from .sat import SatSolver
from .simplex import TheoryConflict
from .stats import GLOBAL_COUNTERS
from .terms import LinExpr, Scalar, Var, exact_scalar
from .theory import SolverBudgetError, check_conjunction

SAT = "sat"
UNSAT = "unsat"

#: Sort key of a bound-chain entry ``(k0, k1, bound, strict, sat_var)``:
#: chains ascend from the strongest bound to the weakest.
_strength = itemgetter(0, 1)


def _weakest_incompatible(
    other: list, side: str, bound: Scalar, strict: bool
) -> tuple | None:
    """Weakest entry of the opposite chain ``other`` that contradicts
    the new ``side`` bound, or None.

    An upper bound ``u`` and a lower bound ``l`` are incompatible iff
    ``u < l``, or ``u == l`` and either is strict.  Walking the
    opposite chain from strongest to weakest only loosens its bound,
    so the incompatible entries form a prefix and a bisect finds its
    end.  On the opposite chain's key scale the new bound sits at
    ``okey``: the prefix is every key below ``(okey, True)``, plus the
    non-strict key ``(okey, True)`` itself when the new bound is strict.
    """
    okey = -bound if side == "upper" else bound
    find = bisect.bisect_right if strict else bisect.bisect_left
    end = find(other, (okey, True), key=_strength)
    return other[end - 1] if end else None


@dataclass
class Model:
    """A first-order model: rational values plus boolean assignments."""

    values: dict[Var, Fraction] = field(default_factory=dict)
    booleans: dict[BVar, bool] = field(default_factory=dict)

    def value(self, var: Var) -> Fraction:
        """Value of an arithmetic variable (0 if unconstrained)."""
        return self.values.get(var, Fraction(0))

    def int_value(self, var: Var) -> int:
        value = self.value(var)
        if value.denominator != 1:
            raise ValueError(f"{var} has non-integral value {value}")
        return int(value)

    def evaluate(self, expr: LinExpr) -> Fraction:
        total = expr.const
        for var, coeff in expr.coeffs.items():
            total += coeff * self.value(var)
        return total

    def satisfies(self, formula: Formula) -> bool:
        assignment = {var: self.value(var) for var in formula.variables()}
        booleans = {bv: self.booleans.get(bv, False) for bv in formula.bool_variables()}
        return formula.evaluate(assignment, booleans)


class SolverError(Exception):
    """The lazy loop failed to converge within its round budget."""


class Solver:
    """Incremental SMT solver for linear integer/real arithmetic.

    Assertions accumulate; :meth:`check` may be called repeatedly with
    more assertions added in between (the pattern used by the
    sample-generation loop with its growing ``NotOld`` constraint).
    """

    def __init__(
        self,
        *,
        max_rounds: int = 50_000,
        bnb_budget: int = 4000,
        ordering_lemmas: bool = True,
        proof: bool = False,
        minimize_cores: bool = False,
    ) -> None:
        GLOBAL_COUNTERS.solvers_constructed += 1
        self._builder = CnfBuilder()
        self._sat = SatSolver()
        self._clauses_sent = 0
        self._max_rounds = max_rounds
        self._bnb_budget = bnb_budget
        self._ordering_lemmas = ordering_lemmas
        self._minimize_cores = minimize_cores
        self._model: Model | None = None
        self._eq_split: set[Atom] = set()
        self._budget_events = 0
        self._lemma_var_count = 0
        self._emitted_lemmas: set[tuple[int, ...]] = set()
        # var -> sorted bound chains for incremental ordering lemmas.
        self._chains: dict[Var, dict[str, list]] = {}
        # Proof logging: UNSAT verdicts become independently checkable
        # by repro.analysis.certify when enabled.
        self.proof_log: ProofLog | None = ProofLog() if proof else None
        self._sat.proof = self.proof_log
        self._atoms_registered = 0
        self._suppressed: set[Atom] = set()
        # Leaf-iteration cache for _theory_round: rebuilt only when the
        # atom table grows or the suppressed set changes, so a round
        # walks live atoms instead of everything ever registered.
        self._suppress_version = 0
        self._leaf_key: tuple[int, int] | None = None
        self._live_atom_items: list[tuple[int, Atom]] = []
        self._bvar_items: list[tuple[int, BVar]] = []

    # ------------------------------------------------------------------
    # Theory-relevance suppression (used by SmtSession)
    # ------------------------------------------------------------------
    def suppress_atoms(self, atoms: Iterable[Atom]) -> None:
        """Exclude ``atoms`` from theory rounds until unsuppressed.

        Sound only when every clause mentioning a suppressed atom is
        already satisfied by a root-level unit (the activation-literal
        pattern: a retracted scope's guard clauses are satisfied by the
        asserted ``~sel``).  The atom's SAT variable then floats freely
        -- whatever polarity the boolean model picks, the Tseitin cone
        enforcing it is dead, so the theory solver need not honour it.
        Skipping only *removes* constraints from theory checks, so an
        UNSAT verdict still rests exclusively on live atoms.

        Without this, a long-lived session pays for every atom ever
        registered on every theory round (the round walks the full atom
        table), which is exactly the cost that made per-check fresh
        solvers competitive.
        """
        atoms = list(atoms)
        if atoms:
            self._suppressed.update(atoms)
            self._suppress_version += 1

    def unsuppress_atoms(self, atoms: Iterable[Atom]) -> None:
        """Re-admit ``atoms`` to theory rounds (new scope re-uses them)."""
        atoms = list(atoms)
        if atoms:
            self._suppressed.difference_update(atoms)
            self._suppress_version += 1

    def compact(
        self,
        dead_nodes: Iterable[Formula] = (),
        dead_atoms: Iterable[Atom] = (),
    ) -> None:
        """Drop clauses satisfied at the root (retraction cleanup).

        Asserting a retracted scope's negated selector satisfies all of
        its guard clauses forever; this removes them (and any learned
        clauses citing the selector) from the SAT core so later checks
        do not propagate through dead structure.  ``dead_nodes`` are
        NNF connective nodes no longer reachable from any live
        assertion (the session refcounts them alongside atoms): their
        Tseitin definition cones are deleted outright and the
        definition variables detached from branching.  ``dead_atoms``
        are suppressed atoms referenced by no live assertion; the
        ordering lemmas, guard encodings and blocking clauses citing
        them are deleted the same way (they are consequences of the
        monotone assertion set -- see ``SatSolver.simplify``), their
        bound-chain entries are pruned, a dead equality forgets its
        trichotomy split so a later revival re-splits.  Without this, a
        long counter-example session pays per-check for every
        ``NotOld`` point and candidate atom it ever retracted.
        """
        dead_vars: set[int] = set()
        for node in dead_nodes:
            var = self._builder.evict_def(node)
            if var is not None:
                dead_vars.add(var)
        var_of_atom = self._builder.result.var_of_atom
        for atom in dead_atoms:
            var = var_of_atom.get(atom)
            if var is not None:
                dead_vars.add(var)
            self._eq_split.discard(atom)
        if dead_vars:
            for chains in self._chains.values():
                for side in ("upper", "lower"):
                    chains[side] = [
                        entry for entry in chains[side]
                        if entry[4] not in dead_vars
                    ]
                chains["eq"] = [
                    entry for entry in chains["eq"] if entry[1] not in dead_vars
                ]
        self._sat.finish()
        self._sat.simplify(dead_vars)

    # ------------------------------------------------------------------
    def add(self, *formulas: Formula) -> None:
        for formula in formulas:
            self._builder.assert_formula(formula)
        self._sync_clauses()

    def _sync_clauses(self) -> None:
        result = self._builder.result
        self._sat.ensure_vars(result.num_vars)
        self._register_atoms()
        while self._clauses_sent < len(result.clauses):
            clause = result.clauses[self._clauses_sent]
            self._clauses_sent += 1
            if not clause:
                # An empty clause of the encoding is an axiom of the
                # asserted formulas; record it so the proof log still
                # holds a refutation step.
                if self.proof_log is not None:
                    self.proof_log.log_clause([], kind="input")
                self._sat.ok = False
                continue
            self._sat.add_clause(list(clause))

    def _register_atoms(self) -> None:
        """Mirror the CNF builder's atom table into the proof log."""
        if self.proof_log is None:
            return
        atom_map = self._builder.result.atom_of_var
        num_vars = self._builder.result.num_vars
        if num_vars == self._atoms_registered:
            return
        # Leaf variables get their atom at allocation time, so every
        # variable above the watermark is either a known leaf or a
        # Tseitin auxiliary (registered as propositional).
        for sat_var in range(self._atoms_registered + 1, num_vars + 1):
            leaf = atom_map.get(sat_var)
            if isinstance(leaf, Atom):
                self.proof_log.register_atom(sat_var, leaf.expr, leaf.op)
            else:
                self.proof_log.register_atom(sat_var, None, BOOL)
        self._atoms_registered = num_vars

    # ------------------------------------------------------------------
    def check(self, assumptions: list[Formula] | None = None) -> str:
        """Run the lazy DPLL(T) loop; returns ``"sat"`` or ``"unsat"``.

        ``assumptions`` are literal-shaped formulas (atoms, negated
        atoms, or boolean variables) asserted only for this call --
        the MiniSat-style incremental interface.  Clauses learned
        during an assuming check remain globally sound (theory
        conflicts do not depend on why their literals were asserted),
        so the solver stays warm across differently-assumed calls.
        """
        GLOBAL_COUNTERS.checks += 1
        self._model = None
        self._budget_events = 0
        if self._builder.result.trivially_false or not self._sat.ok:
            if self.proof_log is not None:
                if not self.proof_log.has_refutation:
                    # Trivially-false encoding: a ``False`` axiom was
                    # asserted before any clause reached the SAT core.
                    self.proof_log.log_clause([], kind="input")
                self.proof_log.result = UNSAT
            return UNSAT
        assumption_lits = (
            [self._literal(formula) for formula in assumptions]
            if assumptions
            else []
        )
        if assumptions:
            # An assumed literal is forced for this check, so its atom
            # must reach the theory solver even if a retracted scope
            # previously suppressed it.
            for formula in assumptions:
                leaf = formula.arg if isinstance(formula, FNot) else formula
                if isinstance(leaf, Atom):
                    self._suppressed.discard(leaf)
        self._add_bound_lemmas()
        self._register_atoms()
        for _ in range(self._max_rounds):
            self._sat.finish()
            if not self._sat.solve(assumptions=assumption_lits):
                if self.proof_log is not None:
                    self.proof_log.result = UNSAT
                return UNSAT
            sat_model = self._sat.model()
            outcome = self._theory_round(sat_model)
            if outcome is not None:
                self._model = outcome
                if self.proof_log is not None:
                    self.proof_log.result = SAT
                return SAT
        raise SolverError(f"lazy SMT loop exceeded {self._max_rounds} rounds")

    def _literal(self, formula: Formula) -> int:
        """SAT literal for a literal-shaped formula (used by assumptions)."""
        negated = False
        if isinstance(formula, FNot):
            formula = formula.arg
            negated = True
        if isinstance(formula, (Atom, BVar)):
            if isinstance(formula, Atom):
                complement = formula.negated()
                if complement in self._builder.result.var_of_atom:
                    lit = -self._builder.result.var_of_atom[complement]
                else:
                    lit = self._builder.var_for(formula)
            else:
                lit = self._builder.var_for(formula)
            self._sync_clauses()
            self._sat.ensure_vars(self._builder.result.num_vars)
            return -lit if negated else lit
        raise SolverError(
            f"assumptions must be atoms or boolean variables, got {formula!r}"
        )

    def _refresh_leaf_cache(self) -> None:
        atom_of_var = self._builder.result.atom_of_var
        key = (len(atom_of_var), self._suppress_version)
        if key == self._leaf_key:
            return
        self._leaf_key = key
        suppressed = self._suppressed
        atom_items: list[tuple[int, Atom]] = []
        bvar_items: list[tuple[int, BVar]] = []
        for sat_var, leaf in atom_of_var.items():
            if isinstance(leaf, BVar):
                bvar_items.append((sat_var, leaf))
            elif leaf not in suppressed:
                atom_items.append((sat_var, leaf))
        self._live_atom_items = atom_items
        self._bvar_items = bvar_items

    def _theory_round(self, sat_model: list[bool]) -> Model | None:
        """One theory check; adds lemmas and returns a model on success."""
        constraints: list[tuple[Atom, int]] = []
        booleans: dict[BVar, bool] = {}
        pending_splits: list[tuple[Atom, int]] = []

        self._refresh_leaf_cache()
        for sat_var, leaf in self._bvar_items:
            booleans[leaf] = sat_model[sat_var]
        for sat_var, leaf in self._live_atom_items:
            asserted = sat_model[sat_var]
            if asserted:
                constraints.append((leaf, sat_var))
            else:
                negated = leaf.negated()
                if negated.op == NE:
                    if leaf not in self._eq_split:
                        pending_splits.append((leaf, sat_var))
                    continue
                constraints.append((negated, -sat_var))

        if pending_splits:
            for eq_atom, sat_var in pending_splits:
                self._add_eq_split(eq_atom, sat_var)
            self._sync_clauses()
            return None

        try:
            values = check_conjunction(constraints, max_nodes=self._bnb_budget)
        except TheoryConflict as conflict:
            if self._minimize_cores:
                conflict = self._minimize_conflict(conflict, constraints)
            blocking = [-lit for lit in conflict.core]
            if not blocking:
                if self.proof_log is not None:
                    self.proof_log.expect([], "theory", conflict.cert)
                    self.proof_log.log_clause([])
                self._sat.ok = False
                return None
            if self.proof_log is not None:
                self.proof_log.expect(blocking, "theory", conflict.cert)
            self._sat.finish()
            self._sat.add_clause(blocking)
            return None
        except SolverBudgetError:
            # Unknown on this boolean branch: block the exact atom
            # assignment and let the search move on.  This keeps the
            # solver sound (never claims unsat wrongly) at the price of
            # completeness on pathological integer instances.  A cap on
            # such events keeps one query from crawling through
            # thousands of expensive branch-and-bound walls.
            self._budget_events += 1
            if self._budget_events > 8:
                raise
            blocking = [
                (-sat_var if sat_model[sat_var] else sat_var)
                for sat_var, _leaf in self._live_atom_items
            ]
            if not blocking:
                raise
            if self.proof_log is not None:
                # Deliberately unjustified: the auditor refuses to
                # certify an UNSAT verdict that rests on such a step.
                self.proof_log.expect(blocking, "budget-block", None)
            self._sat.finish()
            self._sat.add_clause(blocking)
            return None

        return Model(values=dict(values), booleans=booleans)

    def _minimize_conflict(
        self,
        conflict: TheoryConflict,
        constraints: list[tuple[Atom, int]],
    ) -> TheoryConflict:
        """Deletion-based minimization of a theory conflict core.

        Tries dropping each core tag in turn; a drop sticks when the
        remaining constraints are still infeasible on their own (the
        re-check's conflict -- certificate included -- replaces the
        current one, and may itself shed further tags).  The result is
        a shorter blocking clause, which prunes the boolean search
        harder per lemma.
        """
        atom_of_tag = {tag: atom for atom, tag in constraints}
        core = set(conflict.core)
        best = conflict
        for tag in sorted(core, key=lambda t: (abs(t), t)):
            if tag not in core or len(core) <= 1:
                continue
            trial = [
                (atom_of_tag[t], t)
                for t in sorted(core - {tag}, key=lambda t: (abs(t), t))
                if t in atom_of_tag
            ]
            try:
                check_conjunction(trial, max_nodes=self._bnb_budget)
            except TheoryConflict as sub:
                core = set(sub.core)
                best = sub
            except SolverBudgetError:
                continue  # too expensive to decide; keep the tag
        return best

    # ------------------------------------------------------------------
    # Static theory-propagation lemmas
    # ------------------------------------------------------------------
    def _add_bound_lemmas(self) -> None:
        """Implication/conflict lemmas between single-variable atoms.

        The sample-generation workload asserts hundreds of interval
        atoms over the same column (the ``NotOld`` disequalities split
        into ``x < v`` / ``x > v``).  Without these lemmas the lazy
        loop discovers each pairwise interaction as a separate theory
        conflict; with them, bound reasoning happens inside CDCL as
        unit propagation.  All lemmas are sound implications of linear
        arithmetic, so they never change satisfiability.

        Insertion is incremental: each new atom links into its
        variable's sorted bound chain (implications to its neighbours)
        and gets one conflict clause against the weakest incompatible
        opposite bound -- both found by bisect, O(log n) comparisons per
        new atom, so repeated ``check()`` calls during model enumeration
        stay cheap.
        """
        if not self._ordering_lemmas:
            return
        atom_map = self._builder.result.atom_of_var
        num_vars = self._builder.result.num_vars
        if num_vars == self._lemma_var_count:
            return
        # Only the variables allocated since the last call can be new
        # leaves, and allocation order is the atom table's order.
        new_vars = range(self._lemma_var_count + 1, num_vars + 1)
        self._lemma_var_count = num_vars

        for sat_var in new_vars:
            leaf = atom_map.get(sat_var)
            if not isinstance(leaf, Atom) or len(leaf.expr.coeffs) != 1:
                continue
            ((var, coeff),) = leaf.expr.coeffs.items()
            # Integral bounds as ints: the bisect key comparisons then
            # run in C, not in Fraction's rich comparison.
            bound = exact_scalar(-leaf.expr.const / coeff)
            chains = self._chains.setdefault(
                var, {"upper": [], "lower": [], "eq": []}
            )
            if leaf.op == "=":
                self._insert_eq(chains, bound, sat_var)
            elif leaf.op != "!=":
                strict = leaf.op == "<"
                side = "upper" if coeff > 0 else "lower"
                self._insert_bound(chains, side, bound, strict, sat_var)
        self._sync_clauses()

    def _insert_bound(
        self,
        chains: dict[str, list[Any]],
        side: str,
        bound: Scalar,
        strict: bool,
        sat_var: int,
    ) -> None:
        # Strength keys: uppers ascend (smaller bound stronger), lowers
        # descend (larger bound stronger); strict beats non-strict.
        key = (bound, not strict) if side == "upper" else (-bound, not strict)
        chain = chains[side]
        index = bisect.bisect_left(chain, key, key=_strength)
        entry = (key[0], key[1], bound, strict, sat_var)
        chain.insert(index, entry)
        if index > 0:
            self._lemma([-chain[index - 1][4], sat_var])  # stronger -> this
        if index + 1 < len(chain):
            self._lemma([-sat_var, chain[index + 1][4]])  # this -> weaker

        # Conflict with the weakest incompatible bound on the other side.
        other = chains["lower" if side == "upper" else "upper"]
        weakest = _weakest_incompatible(other, side, bound, strict)
        if weakest is not None:
            self._lemma([-sat_var, -weakest[4]])
        for value, eq_var in chains["eq"]:
            self._link_eq_to_bound(value, eq_var, side, bound, strict, sat_var)

    def _insert_eq(
        self, chains: dict[str, list[Any]], value: Scalar, sat_var: int
    ) -> None:
        for other_value, other_var in chains["eq"]:
            if other_value != value:
                self._lemma([-sat_var, -other_var])
        chains["eq"].append((value, sat_var))
        for entry in chains["upper"]:
            self._link_eq_to_bound(value, sat_var, "upper", entry[2], entry[3], entry[4])
        for entry in chains["lower"]:
            self._link_eq_to_bound(value, sat_var, "lower", entry[2], entry[3], entry[4])

    def _link_eq_to_bound(
        self,
        value: Scalar,
        eq_var: int,
        side: str,
        bound: Scalar,
        strict: bool,
        bound_var: int,
    ) -> None:
        """x = value either satisfies the bound (implication) or not
        (conflict)."""
        if side == "upper":
            satisfied = value < bound or (value == bound and not strict)
        else:
            satisfied = value > bound or (value == bound and not strict)
        if satisfied:
            self._lemma([-eq_var, bound_var])
        else:
            self._lemma([-eq_var, -bound_var])

    def _lemma(self, clause: list[int]) -> None:
        key = tuple(sorted(clause))
        if key in self._emitted_lemmas:
            return
        self._emitted_lemmas.add(key)
        if self.proof_log is not None:
            self.proof_log.expect(clause, "theory", self._lemma_cert(clause))
        self._builder.add_clause(clause)

    def _lemma_cert(self, clause: list[int]) -> FarkasCert | None:
        """Farkas certificate for a binary single-variable bound lemma.

        A lemma clause ``[l1, l2]`` claims the conjunction of the
        *negated* literals infeasible; both constraints range over the
        same single variable, so a two-entry combination cancelling it
        always exists when the lemma is sound.
        """
        atom_of_var = self._builder.result.atom_of_var
        asserted: list[tuple[int, Atom]] = []
        for lit in clause:
            neg = -lit
            leaf = atom_of_var.get(abs(neg))
            if not isinstance(leaf, Atom):
                return None
            atom = leaf if neg > 0 else leaf.negated()
            if atom.op not in (LE, LT, EQ):
                return None
            asserted.append((neg, atom))
        if len(asserted) != 2:
            return None
        (l1, a1), (l2, a2) = asserted
        c1 = list(a1.expr.coeffs.items())
        c2 = list(a2.expr.coeffs.items())
        if len(c1) != 1 or len(c2) != 1 or c1[0][0] != c2[0][0]:
            return None
        lam1 = Fraction(1)
        lam2 = -c1[0][1] / c2[0][1]
        for scale in (Fraction(1), Fraction(-1)):
            k1, k2 = scale * lam1, scale * lam2
            if (k1 < 0 and a1.op != EQ) or (k2 < 0 and a2.op != EQ):
                continue
            d = k1 * a1.expr.const + k2 * a2.expr.const
            strict = (a1.op == LT and k1 > 0) or (a2.op == LT and k2 > 0)
            if d > 0 or (d == 0 and strict):
                return FarkasCert(
                    tuple(
                        FarkasEntry(
                            coeff=k,
                            lit=lit,
                            orig_expr=atom.expr,
                            orig_op=atom.op,
                            used_expr=atom.expr,
                            used_op=atom.op,
                        )
                        for k, lit, atom in ((k1, l1, a1), (k2, l2, a2))
                    )
                )
        return None

    def _add_eq_split(self, eq_atom: Atom, eq_sat_var: int) -> None:
        """Lemma: ~(e = 0) -> (e < 0 | -e < 0)."""
        self._eq_split.add(eq_atom)
        lt_var = self._builder.var_for(Atom(eq_atom.expr, LT))
        gt_var = self._builder.var_for(Atom(-eq_atom.expr, LT))
        clause = [eq_sat_var, lt_var, gt_var]
        if self.proof_log is not None:
            self.proof_log.expect(
                clause, "trichotomy", TrichotomyCert(eq_atom.expr)
            )
        self._builder.add_clause(clause)

    # ------------------------------------------------------------------
    def model(self) -> Model:
        if self._model is None:
            raise SolverError("model() called without a preceding sat check()")
        return self._model


# ----------------------------------------------------------------------
# Convenience helpers used across the code base
# ----------------------------------------------------------------------
def is_satisfiable(*formulas: Formula, bnb_budget: int = 4000) -> bool:
    """One-shot satisfiability of the conjunction of ``formulas``."""
    solver = Solver(bnb_budget=bnb_budget)
    solver.add(*formulas)
    return solver.check() == SAT


def get_model(*formulas: Formula, bnb_budget: int = 4000) -> Model | None:
    """One-shot model of the conjunction, or None when unsat."""
    solver = Solver(bnb_budget=bnb_budget)
    solver.add(*formulas)
    if solver.check() == SAT:
        return solver.model()
    return None


def implies(antecedent: Formula, consequent: Formula) -> bool:
    """Whether ``antecedent => consequent`` is valid (2-valued)."""
    from .formula import conj, negate

    return not is_satisfiable(conj([antecedent, negate(consequent)]))


def all_models(
    formula: Formula,
    variables: list[Var],
    *,
    limit: int = 1_000,
) -> Iterable[Model]:
    """Enumerate models projected onto ``variables`` (up to ``limit``).

    After each model, a blocking constraint excludes that exact
    projection, mirroring the paper's ``NotOld`` construction.
    """
    from .formula import Atom as FAtom
    from .formula import NE, conj, disj

    solver = Solver()
    solver.add(formula)
    for _ in itertools.islice(itertools.count(), limit):
        if solver.check() != SAT:
            return
        model = solver.model()
        yield model
        differs = disj(
            [FAtom(LinExpr.var(var) - model.value(var), NE) for var in variables]
        )
        solver.add(differs)
