"""Validity checking of learned predicates (section 5.5).

``Verify`` feeds ``T(p) AND NOT T(p1)`` to the solver, where ``T`` is
the three-valued-logic truth lift of section 5.2 (both the original
predicate and the learned one are encoded with (value, NULL-flag)
variable pairs).  Unsatisfiability means every tuple accepted by ``p``
is accepted by ``p1``, i.e. ``p1`` is a valid dimensionality reduction
(Def. 2).

Note the outer negation: ``NOT T(p1)`` rather than ``F(p1)``.  A tuple
on which ``p1`` evaluates to NULL is filtered out by SQL, so it counts
against validity; this is what makes certain disjunctive predicates
with NULL-able columns unsynthesizable (tested in
``tests/core/test_verify_3vl.py``).
"""

from __future__ import annotations

from ..learn import DisjunctivePredicate, Hyperplane
from ..predicates import Pred, truth_formula
from ..predicates.normalize import LinearizationContext
from ..smt import (
    SAT,
    Formula,
    Not,
    SmtSession,
    conj,
    disj,
    is_satisfiable,
    negate,
)
from ..smt.session import certified_solver


def plane_truth_formula(plane: Hyperplane, ctx: LinearizationContext) -> Formula:
    """3VL truth of one hyperplane: all touched columns non-NULL and
    the inequality holds."""
    non_null = []
    for var in plane.variables:
        for column in _columns_of_var(var, ctx):
            non_null.append(Not(ctx.null_flag(column)))
    return conj([*non_null, plane.formula()])


def learned_truth_formula(
    learned: DisjunctivePredicate, ctx: LinearizationContext
) -> Formula:
    """3VL truth of a disjunction of hyperplanes."""
    return disj([plane_truth_formula(plane, ctx) for plane in learned.planes])


def verify_implied(
    original: Pred,
    learned: DisjunctivePredicate,
    ctx: LinearizationContext,
    *,
    bnb_budget: int = 4000,
    certify: bool = False,
) -> bool:
    """True iff ``original`` implies ``learned`` under three-valued logic.

    Conservative on solver resource exhaustion: an *unknown* answer is
    reported as "not valid", so Sia can never emit a predicate whose
    validity was not actually proven.

    ``certify=True`` removes the remaining trust in the solver itself:
    the check runs with proof logging on and the UNSAT verdict only
    counts once the independent auditor
    (:mod:`repro.analysis.certify`) accepts the proof.  An audited
    verdict that fails certification is treated as unproven, exactly
    like a resource-exhausted one.
    """
    from ..smt import SolverError
    from ..smt.theory import SolverBudgetError

    t_p = truth_formula(original, ctx)
    t_p1 = learned_truth_formula(learned, ctx)
    obligation = conj([t_p, negate(t_p1)])
    try:
        if not certify:
            return not is_satisfiable(obligation, bnb_budget=bnb_budget)
        from ..analysis.certify import audit_proof
        from ..smt import UNSAT

        solver = certified_solver([obligation], bnb_budget=bnb_budget)
        assert solver.proof_log is not None
        if solver.proof_log.result != UNSAT:
            return False
        return not audit_proof(solver.proof_log, origin="verify")
    except (SolverError, SolverBudgetError):
        return False


class WarmUnsatChecker:
    """Warm UNSAT prover for ``base AND extra`` over a stream of extras.

    The base formula is asserted once into a persistent
    :class:`~repro.smt.session.SmtSession`; each :meth:`proves_unsat`
    call pushes the extra formula under an activation literal, checks,
    and retracts, so learned clauses about the base survive from one
    query to the next.  Conservative like the one-shot helpers: an
    unknown verdict (budget or round exhaustion) reports ``False`` --
    "unsatisfiability not proven" -- never an over-claim.
    """

    def __init__(
        self,
        base: Formula,
        *,
        bnb_budget: int = 4000,
    ) -> None:
        self._session = SmtSession(bnb_budget=bnb_budget)
        self._session.assert_base(base)

    def close(self) -> None:
        """Close the warm session."""
        self._session.close()

    def proves_unsat(
        self, extra: Formula, *, bnb_budget: int | None = None
    ) -> bool:
        from ..smt import SolverError
        from ..smt.theory import SolverBudgetError

        scope = self._session.push(extra, label="probe")
        try:
            return self._session.check(bnb_budget=bnb_budget) != SAT
        except (SolverError, SolverBudgetError):
            return False
        finally:
            scope.retract()


class PredicateVerifier:
    """Warm ``Verify`` for one (original predicate, context) pair.

    Asserting the 3VL truth lift ``T(p)`` once and pushing each
    candidate's ``NOT T(p1)`` under an activation literal keeps the
    CDCL core warm across CEGIS iterations -- the candidates share
    almost all of their atoms with ``p`` and with each other.  The
    certified path (``certify=True``) bypasses the warm session
    entirely: certificates must justify every clause, so those checks
    run on a sealed fresh proof-logging solver via
    :func:`verify_implied`.
    """

    def __init__(
        self,
        original: Pred,
        ctx: LinearizationContext,
        *,
        bnb_budget: int = 4000,
        certify: bool = False,
    ) -> None:
        self._original = original
        self._ctx = ctx
        self._bnb_budget = bnb_budget
        self._certify = certify
        self._checker: WarmUnsatChecker | None = None
        if not certify:
            self._checker = WarmUnsatChecker(
                truth_formula(original, ctx), bnb_budget=bnb_budget
            )

    def verify(self, learned: DisjunctivePredicate) -> bool:
        """True iff the original predicate implies ``learned`` (3VL)."""
        from ..obs.trace import get_tracer

        with get_tracer().span(
            "verify.implication",
            certified=self._certify,
            warm=self._checker is not None,
        ) as span:
            if self._checker is None:
                result = verify_implied(
                    self._original,
                    learned,
                    self._ctx,
                    bnb_budget=self._bnb_budget,
                    certify=self._certify,
                )
            else:
                t_p1 = learned_truth_formula(learned, self._ctx)
                result = self._checker.proves_unsat(negate(t_p1))
            span.set(implied=result)
            return result

    def close(self) -> None:
        """Release the warm checker's session scopes (if any)."""
        if self._checker is not None:
            self._checker.close()


def _columns_of_var(var, ctx: LinearizationContext):
    column = ctx.column_of_var.get(var)
    if column is not None:
        return [column]
    packed = ctx.packed_expr_of_var.get(var)
    if packed is not None:
        return sorted(packed.columns())
    return []
