"""A CDCL SAT solver.

This is the propositional core of the SMT substrate: conflict-driven
clause learning with two-literal watching, first-UIP learning, VSIDS
branching and phase saving.  The DPLL(T) driver adds theory lemmas and
blocking clauses between ``solve()`` calls, so the solver supports
incremental clause addition and assumption literals.

There are no restarts: the driver calls ``solve()`` once per theory
round, and ``solve()`` begins by backtracking to level 0, so every
round already restarts the search.  Between rounds the searches are
short (almost all end with zero or one conflict).

Literals follow the DIMACS convention: variable ``v >= 1``, positive
literal ``v``, negative literal ``-v``.
"""

from __future__ import annotations

from .proof import ProofLog
from .stats import GLOBAL_COUNTERS

UNASSIGNED = -1


class SatSolver:
    """Incremental CDCL solver."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        # watches[lit] holds indices of clauses that currently watch `lit`.
        self.watches: dict[int, list[int]] = {}
        self.assign: list[int] = [UNASSIGNED]  # index 0 unused
        self.level: list[int] = [0]
        self.reason: list[int | None] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # VSIDS activity scores are a branching *heuristic*: they pick
        # decision order and never touch theory arithmetic, so floats
        # are sound here (any drift only changes the search path).
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        self.conflicts = 0
        # Optional proof logging (set by the DPLL(T) driver).  Every
        # added clause, learned clause and the final empty clause is
        # appended; clause indices map to step indices so learned steps
        # can cite their resolution antecedents as checker hints.
        self.proof: ProofLog | None = None
        self._clause_step: dict[int, int] = {}
        self._last_antecedents: list[int] = []
        # Variables purged by simplify(dead_vars=...): they occur in no
        # clause, so the search never needs to assign them (a full
        # assignment over the remaining variables satisfies the whole
        # database).  Kept allocated -- variable numbering is append-only.
        # ``active_vars`` is the branching order (everything not
        # detached), so _pick_branch never scans the graveyard.
        self.detached: set[int] = set()
        self.active_vars: list[int] = []

    # ------------------------------------------------------------------
    # Variable / clause management
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        self.assign.append(UNASSIGNED)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.active_vars.append(self.num_vars)
        return self.num_vars

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def value(self, lit: int) -> int:
        """0 = false, 1 = true, UNASSIGNED otherwise (under current trail)."""
        val = self.assign[abs(lit)]
        if val == UNASSIGNED:
            return UNASSIGNED
        return val if lit > 0 else 1 - val

    def add_clause(self, lits: list[int]) -> bool:
        """Add a clause; returns False if the instance became unsat.

        The solver backtracks to decision level 0 first, so clauses can
        be added at any time between ``solve()`` calls.
        """
        if not self.ok:
            return False
        self._cancel_until(0)
        for lit in lits:
            self.ensure_vars(abs(lit))
        # Log the clause as given: the shrunk form below is an internal
        # optimisation, while the proof must record the actual axiom /
        # lemma (whose justification was pre-registered by the driver).
        step = self.proof.log_clause(lits) if self.proof is not None else None
        # Remove duplicates / detect tautologies, drop false literals.
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self.value(lit)
            if val == 1:
                return True  # already satisfied at level 0
            if val == 0:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            self._log_empty()
            self.ok = False
            return False
        if self.detached:
            # A new clause citing a previously-detached variable revives
            # it (a dead atom re-asserted by a later scope): it must be
            # branched on again.
            revived = {abs(lit) for lit in out} & self.detached
            if revived:
                self.detached -= revived
                self.active_vars.extend(sorted(revived))
        if len(out) == 1:
            self._enqueue(out[0], None)
            conflict = self._propagate()
            if conflict is not None:
                self._log_empty()
                self.ok = False
                return False
            return True
        idx = len(self.clauses)
        self.clauses.append(out)
        if step is not None:
            self._clause_step[idx] = step
        self._watch(out[0], idx)
        self._watch(out[1], idx)
        return True

    def _watch(self, lit: int, clause_idx: int) -> None:
        self.watches.setdefault(lit, []).append(clause_idx)

    # ------------------------------------------------------------------
    # Proof logging
    # ------------------------------------------------------------------
    def _log_empty(self, assumptions: list[int] | None = None) -> None:
        if self.proof is not None:
            self.proof.log_empty(assumptions=tuple(assumptions or ()))

    def _log_learned(
        self, learnt: list[int], clause_idx: int | None = None
    ) -> None:
        if self.proof is None:
            return
        antecedents = tuple(
            step
            for step in (
                self._clause_step.get(ci) for ci in self._last_antecedents
            )
            if step is not None
        )
        step_idx = self.proof.log_clause(
            learnt, kind="learned", antecedents=antecedents
        )
        if clause_idx is not None:
            self._clause_step[clause_idx] = step_idx

    # ------------------------------------------------------------------
    # Trail management
    # ------------------------------------------------------------------
    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: int | None) -> None:
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else 0
        self.level[var] = self._decision_level()
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _cancel_until(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        bound = self.trail_lim[target_level]
        for lit in reversed(self.trail[bound:]):
            var = abs(lit)
            self.assign[var] = UNASSIGNED
            self.reason[var] = None
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = -lit
            watchers = self.watches.get(falsified)
            if not watchers:
                continue
            keep: list[int] = []
            i = 0
            conflict: int | None = None
            while i < len(watchers):
                ci = watchers[i]
                i += 1
                clause = self.clauses[ci]
                # Ensure the falsified literal is at position 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self.value(first) == 1:
                    keep.append(ci)
                    continue
                # Look for a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self.value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch(clause[1], ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if self.value(first) == 0:
                    # Conflict: keep remaining watchers, report.
                    keep.extend(watchers[i:])
                    conflict = ci
                    break
                self._enqueue(first, ci)
            self.watches[falsified] = keep
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        # VSIDS activity rescale (a branching heuristic only; see
        # __init__).
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Returns (learnt clause, backjump level)."""
        learnt: list[int] = [0]  # placeholder for the asserting literal
        self._last_antecedents = [conflict]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        clause = self.clauses[conflict]
        index = len(self.trail)
        current = self._decision_level()
        while True:
            for q in clause if lit == 0 else clause[1:]:
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick the next literal on the trail to resolve on.
            while True:
                index -= 1
                lit = self.trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            reason = self.reason[abs(lit)]
            assert reason is not None, "resolved literal must have a reason"
            self._last_antecedents.append(reason)
            clause = self.clauses[reason]
            # The enqueued literal of a reason clause is kept at position
            # 0 by propagation; a position-1 swap keeps both watches valid.
            if clause[0] != lit:
                assert clause[1] == lit, "reason clause lost its asserting literal"
                clause[0], clause[1] = clause[1], clause[0]
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if self.level[abs(learnt[i])] > self.level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------
    def _pick_branch(self) -> int:
        best_var = 0
        best_act = -1.0  # VSIDS heuristic
        assign = self.assign
        activity = self.activity
        for var in self.active_vars:
            if assign[var] == UNASSIGNED and activity[var] > best_act:
                best_act = activity[var]
                best_var = var
        if best_var == 0:
            return 0
        return best_var if self.phase[best_var] else -best_var

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[int] | None = None) -> bool:
        """Search for a model extending the assumptions."""
        if not self.ok:
            return False
        assumptions = list(assumptions or [])
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._log_empty()
            self.ok = False
            return False

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                GLOBAL_COUNTERS.clauses_learned += 1
                if self._decision_level() == 0:
                    self._log_empty()
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._log_learned(learnt)
                    if self.value(learnt[0]) == UNASSIGNED:
                        self._enqueue(learnt[0], None)
                    elif self.value(learnt[0]) == 0:
                        self._log_empty()
                        self.ok = False
                        return False
                else:
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self._log_learned(learnt, idx)
                    self._watch(learnt[0], idx)
                    self._watch(learnt[1], idx)
                    self._enqueue(learnt[0], idx)
                self.var_inc /= self.var_decay
                continue

            # Apply pending assumptions as decisions.
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                val = self.value(lit)
                if val == 0:
                    self._cancel_until(0)
                    self._log_empty(assumptions)
                    return False
                self.trail_lim.append(len(self.trail))
                if val == UNASSIGNED:
                    self._enqueue(lit, None)
                continue

            branch = self._pick_branch()
            if branch == 0:
                return True  # full assignment found
            self.trail_lim.append(len(self.trail))
            self._enqueue(branch, None)

    def simplify(self, dead_vars: set[int] | frozenset = frozenset()) -> None:
        """MiniSat-style root-level database simplification.

        Drops every clause satisfied at decision level 0 and strips
        falsified literals from the rest.  A retracted activation
        literal (asserted ``~sel`` at the root) permanently satisfies
        all of its scope's guard clauses -- and every learned clause
        that cites ``~sel`` -- so simplifying after a retraction keeps
        a long-lived session's watchlists and propagation frontier
        close to a freshly-built solver's.

        ``dead_vars`` are variables no longer referenced by any live
        assertion: Tseitin definition variables of evicted nodes, and
        theory-atom variables whose atom is suppressed (referenced only
        by retracted scopes).  Every clause citing one is deleted and
        the variable is *detached* from branching.  Sound in both
        directions: deletion never turns SAT into UNSAT, and the
        deleted clauses (definition cones, ordering lemmas, blocking
        clauses over dead atoms) are all consequences of the monotone
        semantic assertion set -- any model of the live constraints
        extends to one satisfying them, so UNSAT answers still rest
        only on live constraints, and SAT answers are re-validated by
        the theory on live atoms regardless.  ``add_clause`` revives a
        detached variable the moment a new clause cites it.
        """
        if not self.ok or self._decision_level() != 0:
            return
        if self._propagate() is not None:
            self._log_empty()
            self.ok = False
            return
        if dead_vars:
            self.detached |= dead_vars
            self.active_vars = [
                var for var in self.active_vars if var not in self.detached
            ]
        clauses: list[list[int]] = []
        steps: dict[int, int] = {}
        for ci, clause in enumerate(self.clauses):
            if dead_vars and any(abs(lit) in dead_vars for lit in clause):
                continue
            if any(self.value(lit) == 1 for lit in clause):
                continue
            lits = [lit for lit in clause if self.value(lit) != 0]
            # Propagation ran to fixpoint, so an unsatisfied clause has
            # at least two unassigned literals left to watch.
            step = self._clause_step.get(ci)
            if step is not None:
                steps[len(clauses)] = step
            clauses.append(lits)
        self.clauses = clauses
        self._clause_step = steps
        self.watches = {}
        for ci, clause in enumerate(clauses):
            self._watch(clause[0], ci)
            self._watch(clause[1], ci)
        # Root assignments are permanent facts now; conflict analysis
        # never resolves on level-0 literals, so their reason indices
        # (which pointed into the old clause list) can be cleared.
        for lit in self.trail:
            self.reason[abs(lit)] = None

    def model(self) -> list[bool]:
        """Model after a successful solve: ``model()[v]`` for variable v."""
        return [val == 1 for val in self.assign]

    def finish(self) -> None:
        """Return to level 0, keeping learnt clauses (call between solves)."""
        self._cancel_until(0)
