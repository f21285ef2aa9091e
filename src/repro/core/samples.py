"""Training-sample generation with the SMT solver (section 5.3).

TRUE samples are models of ``p AND NotOld`` projected onto the target
columns (feasible restrictions, Lemma 3).  FALSE samples are models of
``UnsatRegion(p) AND NotOld`` where the unsatisfaction region comes
from quantifier elimination (Lemma 4 / section 4.2).

``NotOld`` is rebuilt from the accumulated sample list on every query,
exactly as the paper describes: a conjunction whose terms force the
target columns to differ from every existing sample.

Diversification ("Additional Heuristics" in section 5.3): plain model
enumeration returns clustered vertices, so the default strategy first
tries random interval constraints around a random centre inside the
sampling box and relaxes on unsatisfiability.  The ``sequential``
strategy (used by the ablation benchmark) skips the randomisation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from ..smt import (
    LE,
    LT,
    NE,
    SAT,
    Atom,
    Formula,
    LinExpr,
    SmtSession,
    SolverError,
    Var,
    compare,
    conj,
    disj,
)
from ..smt.theory import SolverBudgetError
from .config import RANDOM_BOX, SiaConfig
from .result import Point


def not_old_formula(points: list[Point], variables: list[Var]) -> Formula:
    """``AND over samples of (OR over columns of col != value)``."""
    terms = []
    for point in points:
        terms.append(
            disj(
                [
                    Atom(LinExpr.var(var) - point[var], NE)
                    for var in variables
                ]
            )
        )
    return conj(terms)


def box_formula(variables: list[Var], box: int) -> Formula:
    """Keep sample magnitudes small: ``-box <= var <= box`` per column."""
    bounds = []
    for var in variables:
        expr = LinExpr.var(var)
        bounds.append(compare(expr, "<=", LinExpr.const_expr(box)))
        bounds.append(compare(LinExpr.const_expr(-box), "<=", expr))
    return conj(bounds)


@dataclass
class SampleSet:
    """Result of a sampling request."""

    points: list[Point] = field(default_factory=list)
    exhausted: bool = False  # the constraint ran out of new models


class Sampler:
    """Draws diverse models of formulas, projected onto target columns."""

    def __init__(self, config: SiaConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng

    # ------------------------------------------------------------------
    def sample(
        self,
        base: Formula,
        variables: list[Var],
        count: int,
        *,
        existing: list[Point] | None = None,
    ) -> SampleSet:
        """Up to ``count`` new models of ``base`` distinct from
        ``existing`` on the target ``variables``.

        The ``random_box`` strategy tries two randomised-region solves
        per sample before falling back to plain enumeration.
        """
        from ..obs.trace import get_tracer

        with get_tracer().span("samples.draw", requested=count) as span:
            result = self._sample(base, variables, count, existing)
            span.set(found=len(result.points), exhausted=result.exhausted)
            return result

    def _sample(
        self,
        base: Formula,
        variables: list[Var],
        count: int,
        existing: list[Point] | None,
    ) -> SampleSet:
        attempts = 2 if self.config.sampling_strategy == RANDOM_BOX else 0
        points: list[Point] = []
        all_known = list(existing or [])
        # One persistent session serves every sample of this call
        # (base + box + growing NotOld); randomised sub-regions are
        # layered on via *assumptions* and the sampling box rides in a
        # retractable scope, so a single warm CDCL instance covers both
        # the boxed search and the unboxed fallback (historically two
        # separate solvers, rebuilt per call).
        enumerator = IncrementalEnumerator(base, variables, all_known, self.config)

        try:
            for _ in range(count):
                point = None
                for attempt in range(attempts):
                    assumptions = self._random_region_atoms(variables)
                    if attempt == 0:
                        assumptions += self._nonzero_atoms(variables)
                    point = enumerator.next(all_known, assumptions=assumptions)
                    if point is not None:
                        break
                if point is None:
                    point = enumerator.next(all_known)
                if point is None:
                    # Unboxed fallback: same session, box scope disabled.
                    point = enumerator.next(all_known, boxed=False)
                if point is None:
                    return SampleSet(points, exhausted=True)
                points.append(point)
                all_known.append(point)
            return SampleSet(points, exhausted=False)
        finally:
            # Retract the box scope before abandoning the session, so
            # scopes_opened and scopes_retracted balance.
            enumerator.close()

    # ------------------------------------------------------------------
    def _random_region_atoms(self, variables: list[Var]) -> list:
        """Random sub-interval per column, as assumption literals."""
        box = self.config.sample_box
        width = max(box // 2, 1)
        atoms = []
        for var in variables:
            low = self.rng.randint(-box, box - width)
            expr = LinExpr.var(var)
            # low <= var  as  (low - var) <= 0;  var <= low+width likewise.
            atoms.append(Atom(LinExpr.const_expr(low) - expr, LE))
            atoms.append(Atom(expr - (low + width), LE))
        return atoms

    def _nonzero_atoms(self, variables: list[Var]) -> list:
        """The paper's 'values must not be equal to zero' heuristic.

        Encoded as strict one-sided literals (var > 0 or var < 0 chosen
        at random) because assumptions must be literal-shaped.
        """
        atoms = []
        for var in variables:
            expr = LinExpr.var(var)
            if self.rng.random() < 0.5:
                atoms.append(Atom(-expr, LT))  # var > 0
            else:
                atoms.append(Atom(expr, LT))  # var < 0
        return atoms


class IncrementalEnumerator:
    """A warm session kept across samples: blocks each returned point.

    All additions are monotone (more constraints, more blocked
    points), so one CDCL instance with its learned clauses serves an
    entire enumeration -- this is what makes the counter-example loop
    cheap.  ``add`` conjoins further constraints (e.g. newly learned
    valid predicates in the FALSE counter-example search).

    The sampling box is held in a retractable scope rather than
    asserted outright, so the unboxed fallback (``next(...,
    boxed=False)``) reuses the same warm session instead of building a
    second solver over the same base formula.
    """

    def __init__(
        self,
        base: Formula,
        variables: list[Var],
        known: list[Point],
        config: SiaConfig,
    ) -> None:
        self.variables = variables
        self.session = SmtSession(bnb_budget=config.bnb_budget)
        self.session.assert_base(base)
        self._box_scope = self.session.push(
            box_formula(variables, config.sample_box), label="sample-box"
        )
        self.blocked = 0
        self._block(known)

    def add(self, formula: Formula) -> None:
        self.session.assert_base(formula)

    def _block(self, points: list[Point]) -> None:
        for point in points[self.blocked:]:
            self.session.assert_base(not_old_formula([point], self.variables))
            self.blocked += 1

    def next(
        self,
        known: list[Point],
        assumptions: list | None = None,
        *,
        boxed: bool = True,
    ) -> Point | None:
        self._block(known)
        disable = [] if boxed else [self._box_scope]
        try:
            if self.session.check(assumptions, disable=disable) != SAT:
                return None
        except (SolverError, SolverBudgetError):
            return None
        model = self.session.model()
        return {var: model.value(var) for var in self.variables}

    def close(self) -> None:
        """Close the session (retracts the box scope).  Idempotent."""
        self.session.close()


def enumerate_all(
    base: Formula,
    variables: list[Var],
    limit: int,
    *,
    bnb_budget: int = 4000,
) -> SampleSet:
    """Exhaustively enumerate models (the finite-domain fallback of
    section 5.3).  ``exhausted=True`` means the enumeration completed;
    ``False`` means the limit was hit."""
    points: list[Point] = []
    session = SmtSession(bnb_budget=bnb_budget)
    session.assert_base(base)
    try:
        for _ in range(limit):
            try:
                if session.check() != SAT:
                    return SampleSet(points, exhausted=True)
            except (SolverError, SolverBudgetError):
                return SampleSet(points, exhausted=False)
            model = session.model()
            point = {var: model.value(var) for var in variables}
            points.append(point)
            session.assert_base(not_old_formula([point], variables))
        return SampleSet(points, exhausted=False)
    finally:
        session.close()


def point_key(point: Point, variables: list[Var]) -> tuple[Fraction, ...]:
    """Hashable projection of a point (used for dedup in tests/benches)."""
    return tuple(point[var] for var in variables)
