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


def unsat_proven(
    formula: Formula,
    bnb_budget: int = 4000,
    *,
    certify: bool = False,
    origin: str = "verify",
) -> bool:
    """True iff ``formula`` is proven unsatisfiable on a one-shot solver.

    Conservative on solver resource exhaustion: an *unknown* answer is
    reported as "not proven", so Sia never claims an implication
    (validity, optimality, redundancy) that was not actually proven.

    ``certify=True`` removes the remaining trust in the solver itself:
    the check runs on a sealed fresh proof-logging solver and the UNSAT
    verdict only counts once the independent auditor
    (:mod:`repro.analysis.certify`) accepts the proof, reported under
    ``origin`` (``"verify"`` or ``"counter-f"``).  An audited verdict
    that fails certification is treated as unproven, exactly like a
    resource-exhausted one.
    """
    from ..smt import SolverError
    from ..smt.theory import SolverBudgetError

    try:
        if not certify:
            return not is_satisfiable(formula, bnb_budget=bnb_budget)
        from ..analysis.certify import audit_proof
        from ..smt import UNSAT

        solver = certified_solver([formula], bnb_budget=bnb_budget)
        assert solver.proof_log is not None
        if solver.proof_log.result != UNSAT:
            return False
        return not audit_proof(solver.proof_log, origin=origin)
    except (SolverError, SolverBudgetError):
        return False


def verify_implied(
    original: Pred,
    learned: DisjunctivePredicate,
    ctx: LinearizationContext,
    *,
    bnb_budget: int = 4000,
    certify: bool = False,
) -> bool:
    """True iff ``original`` implies ``learned`` under three-valued logic:
    ``T(p) AND NOT T(p1)`` is proven unsatisfiable (see
    :func:`unsat_proven`, which also covers ``certify``)."""
    t_p = truth_formula(original, ctx)
    t_p1 = learned_truth_formula(learned, ctx)
    return unsat_proven(
        conj([t_p, negate(t_p1)]), bnb_budget, certify=certify, origin="verify"
    )


class PredicateVerifier:
    """Warm ``Verify`` for one (original predicate, context) pair.

    Asserting the 3VL truth lift ``T(p)`` once into a persistent
    :class:`~repro.smt.session.SmtSession` and pushing each candidate's
    ``NOT T(p1)`` under an activation literal keeps the CDCL core warm
    across CEGIS iterations -- the candidates share almost all of their
    atoms with ``p`` and with each other.  Conservative like the
    one-shot helpers: an unknown verdict (budget or round exhaustion)
    reports "not valid", never an over-claim.  The certified path
    (``certify=True``) bypasses the warm session entirely: certificates
    must justify every clause, so those checks run on a sealed fresh
    proof-logging solver via :func:`verify_implied`.
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
        self._session: SmtSession | None = None
        if not certify:
            base = truth_formula(original, ctx)
            self._session = SmtSession(bnb_budget=bnb_budget)
            self._session.assert_base(base)

    def verify(self, learned: DisjunctivePredicate) -> bool:
        """True iff the original predicate implies ``learned`` (3VL)."""
        from ..obs.trace import get_tracer
        from ..smt import SolverError
        from ..smt.theory import SolverBudgetError

        with get_tracer().span(
            "verify.implication", certified=self._certify
        ) as span:
            if self._session is None:
                result = verify_implied(
                    self._original,
                    learned,
                    self._ctx,
                    bnb_budget=self._bnb_budget,
                    certify=True,
                )
            else:
                t_p1 = learned_truth_formula(learned, self._ctx)
                scope = self._session.push(negate(t_p1), label="probe")
                try:
                    result = self._session.check() != SAT
                except (SolverError, SolverBudgetError):
                    result = False
                finally:
                    scope.retract()
            span.set(implied=result)
            return result

    def close(self) -> None:
        """Release the warm session's scopes (if any)."""
        if self._session is not None:
            self._session.close()


def _columns_of_var(var, ctx: LinearizationContext):
    column = ctx.column_of_var.get(var)
    if column is not None:
        return [column]
    packed = ctx.packed_expr_of_var.get(var)
    if packed is not None:
        return sorted(packed.columns())
    return []
