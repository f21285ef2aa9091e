"""The Synthesize procedure (Algorithm 1): counter-example guided
learning of a valid, optimal predicate over a chosen column set.

Pipeline per iteration (section 3.1 / figure 3):

1. ``Learn`` a candidate predicate from the current samples (Alg. 2).
2. ``Verify`` it is implied by the original predicate under 3VL.
3. If invalid: mine TRUE counter-examples (satisfy ``p``, rejected by
   the candidate) and loop.
4. If valid: conjoin into the accumulated result; mine FALSE
   counter-examples (unsatisfaction tuples the result still accepts).
   None exist -> the result is optimal (Lemma 4); otherwise loop.

Section 5.3's finite-domain fallbacks are implemented: an exhausted
TRUE enumeration yields a disjunction of equalities, an exhausted FALSE
enumeration yields the negation of one.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from ..errors import UnsupportedPredicateError
from ..learn import DisjunctivePredicate
from ..obs.clock import now as _clock_now
from ..obs.trace import get_tracer
from ..predicates import (
    Col,
    Column,
    Comparison,
    DOUBLE,
    FALSE_PRED,
    Lit,
    PNot,
    Pred,
    pand,
    por,
)
from ..predicates.normalize import LinearizationContext, lower_predicate
from ..smt import FALSE, Formula, Var, conj, negate
from ..smt.qe import unsat_region
from .config import SIA_DEFAULT, SiaConfig
from .learnloop import learn
from .result import (
    FAILED,
    OPTIMAL,
    TRIVIAL,
    UNSUPPORTED,
    VALID,
    IterationTrace,
    Point,
    SynthesisOutcome,
    Timings,
)
from .samples import (
    IncrementalEnumerator,
    Sampler,
    enumerate_all,
    not_old_formula,
)
from .verify import PredicateVerifier, unsat_proven


@dataclass
class ValidPredicate:
    """The accumulated valid predicate p1 (a conjunction of learned
    disjunctions; starts trivial = TRUE)."""

    parts: list[DisjunctivePredicate] = field(default_factory=list)

    @property
    def is_trivial(self) -> bool:
        return not self.parts

    def formula(self) -> Formula:
        return conj([part.formula() for part in self.parts])

    def to_pred(self, ctx: LinearizationContext) -> Pred:
        return pand([part.to_pred(ctx) for part in self.parts])

    def prune_dominated(
        self,
        witnesses: list[dict] | None = None,
        bnb_budget: int = 300,
        recent_only: bool = False,
    ) -> None:
        """Drop parts implied by the newest part.

        Alg. 1 conjoins every valid learned predicate; as the loop
        converges the newest predicate usually subsumes earlier, weaker
        ones, and carrying them makes the optimality queries (and the
        final SQL) needlessly large.  Dropping an implied conjunct
        never changes the conjunction's semantics.

        ``witnesses`` (sample points) serve as a cheap pre-filter: a
        point accepted by the newest part but rejected by an old part
        disproves implication without touching the solver.
        """
        if len(self.parts) < 2:
            return
        newest = self.parts[-1]
        witnesses = witnesses or []
        kept = []
        candidates = self.parts[:-1]
        if recent_only:
            kept = list(candidates[:-1])
            candidates = candidates[-1:]
        for part in candidates:
            has_witness = any(
                newest.accepts(point) and not part.accepts(point)
                for point in witnesses
            )
            if has_witness:
                kept.append(part)
                continue
            if not unsat_proven(
                conj([newest.formula(), negate(part.formula())]), bnb_budget
            ):
                kept.append(part)
        self.parts = kept + [newest]

    def minimize(
        self,
        witnesses: list[dict] | None = None,
        bnb_budget: int = 1000,
    ) -> None:
        """Greedy redundancy elimination over the whole conjunction.

        Run once at the end of the loop: drop duplicates, then drop any
        part implied by the conjunction of the remaining ones (oldest,
        weakest parts first).  Equivalent semantics, far cheaper to
        evaluate in the engine -- the paper's rewritten queries carry a
        handful of predicates, not one per loop iteration.
        """
        witnesses = witnesses or []
        kept = list(dict.fromkeys(self.parts))
        index = 0
        while index < len(kept) and len(kept) > 1:
            part = kept[index]
            others = kept[:index] + kept[index + 1:]
            others_formula = conj([p.formula() for p in others])
            has_witness = any(
                not part.accepts(point)
                and all(other.accepts(point) for other in others)
                for point in witnesses
            )
            if has_witness:
                index += 1
                continue
            implied = unsat_proven(
                conj([others_formula, negate(part.formula())]), bnb_budget
            )
            if implied:
                kept = others
            else:
                index += 1
        self.parts = kept

    def __str__(self) -> str:
        if self.is_trivial:
            return "TRUE"
        return " AND ".join(f"({part})" for part in self.parts)


logger = logging.getLogger(__name__)


class Synthesizer:
    """Reusable synthesis engine configured once (see SiaConfig)."""

    def __init__(self, config: SiaConfig = SIA_DEFAULT) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def synthesize(
        self, pred: Pred, target_columns: set[Column] | list[Column]
    ) -> SynthesisOutcome:
        """Synthesize a valid predicate over ``target_columns``.

        ``target_columns`` must be a non-empty subset of the columns of
        ``pred`` (Def. 2 requires Cols' subset of Cols).

        Each call is one ``synthesize`` root span in the trace (see
        :mod:`repro.obs.trace`); the CEGIS stages inside carry the
        ``phase`` labels ``repro trace`` attributes time to, and the
        outcome's :class:`Timings` are those phase spans' durations.
        """
        targets = sorted(set(target_columns))
        tracer = get_tracer()
        with tracer.span(
            "synthesize",
            targets=",".join(col.qualified for col in targets),
        ) as root:
            outcome = self._synthesize(pred, targets, tracer)
            outcome.timings = Timings.from_phases(root.phase_ms)
            root.set(
                status=outcome.status,
                iterations=outcome.iterations,
                true_samples=outcome.true_samples,
                false_samples=outcome.false_samples,
            )
            return outcome

    def _synthesize(
        self, pred: Pred, targets: list[Column], tracer
    ) -> SynthesisOutcome:
        # The budget covers the whole call: QE and the initial samples
        # too, so a spent budget stops before the first iteration.
        deadline = (
            _clock_now() + self.config.timeout_ms / 1000.0
            if self.config.timeout_ms is not None
            else None
        )
        outcome = SynthesisOutcome(
            status=FAILED,
            target_columns=tuple(col.qualified for col in targets),
        )
        if not targets:
            outcome.status = UNSUPPORTED
            outcome.detail = "empty target column set"
            return outcome

        try:
            formula, ctx = lower_predicate(pred)
        except UnsupportedPredicateError as exc:
            outcome.status = UNSUPPORTED
            outcome.detail = str(exc)
            return outcome

        missing = [col for col in targets if col not in ctx.var_of_column]
        if missing:
            outcome.status = UNSUPPORTED
            outcome.detail = (
                "target columns not used linearly in the predicate: "
                + ", ".join(col.qualified for col in missing)
            )
            return outcome
        if not set(targets) <= set(pred.columns()):
            outcome.status = UNSUPPORTED
            outcome.detail = "target columns must be a subset of the predicate's"
            return outcome

        target_vars = [ctx.var_of_column[col] for col in targets]
        rng = random.Random(self.config.seed)
        sampler = Sampler(self.config, rng, deadline)

        # ---------------- Unsatisfaction region (Lemma 4) -------------
        with tracer.span("qe.unsat_region", phase="qe", counters=True):
            try:
                region = unsat_region(formula, set(target_vars))
            except Exception as exc:  # DNF blowup or projection failure
                outcome.status = UNSUPPORTED
                outcome.detail = f"quantifier elimination failed: {exc}"
                return outcome
        outcome.optimal_exact = region.exact
        if region.formula is FALSE:
            outcome.status = TRIVIAL
            outcome.detail = "every restriction is feasible; only TRUE is valid"
            return outcome

        # ---------------- Initial samples (section 5.3) ---------------
        with tracer.span(
            "cegis.generate_samples", phase="generate_samples", counters=True
        ) as gen_span:
            ts_set = sampler.sample(
                formula, target_vars, self.config.initial_true_samples
            )
            ts = ts_set.points
            if not ts_set.exhausted:
                fs_set = sampler.sample(
                    region.formula, target_vars, self.config.initial_false_samples
                )
                fs = fs_set.points
                gen_span.set(true_samples=len(ts), false_samples=len(fs))
        if ts_set.exhausted:
            return self._finite_true_outcome(outcome, ctx, targets, formula, target_vars)
        if fs_set.exhausted:
            return self._finite_false_outcome(
                outcome, ctx, targets, region.formula, target_vars, fs
            )

        # ---------------- Counter-example guided loop -----------------
        p1 = ValidPredicate()
        iteration = 0
        status: str | None = None
        # Persistent FALSE counter-example enumerator: its constraint
        # set (region AND p1 AND NotOld) only ever grows, so one warm
        # CDCL instance serves the whole loop; the sampling box rides
        # in a retractable scope, so the unboxed fallback reuses the
        # same session instead of a second solver.
        counter_f_enum = IncrementalEnumerator(
            region.formula, target_vars, fs, self.config
        )
        # Warm Verify: T(p) asserted once, each candidate's NOT T(p1)
        # pushed under an activation literal (certified configs keep
        # the sealed fresh-solver path inside verify_implied).
        verifier = PredicateVerifier(
            pred,
            ctx,
            bnb_budget=self.config.verify_budget,
            certify=self.config.certify_verify,
        )
        # Warm TRUE counter-example mining: the base formula p is fixed
        # across iterations, only NOT p2 varies, so one enumerator with
        # the candidate scoped serves the whole loop.  No permanent
        # blocking is needed: Learn guarantees every later candidate
        # accepts all of Ts, so an old counter-example can never
        # satisfy a later NOT p2 anyway.
        counter_t_enum: IncrementalEnumerator | None = None

        while iteration < self.config.max_iterations:
            if deadline is not None and _clock_now() > deadline:
                status = VALID if not p1.is_trivial else FAILED
                outcome.detail = outcome.detail or "timeout (section 6.2)"
                outcome.timed_out = True
                break
            iteration += 1
            with tracer.span("cegis.iteration", index=iteration):
                with tracer.span("cegis.learn", phase="learn"):
                    p2 = learn(ts, fs, target_vars, self.config, rng)
                with tracer.span(
                    "cegis.verify", phase="verify", counters=True
                ) as verify_span:
                    # The tighter verify budget keeps dense-coefficient
                    # integer feasibility checks from crawling; an unknown
                    # verdict is treated as invalid (sound, section 5.5).
                    valid = verifier.verify(p2)
                    verify_span.set(valid=valid)
                trace = IterationTrace(index=iteration, learned=str(p2), valid=valid)
                outcome.trace.append(trace)
                logger.debug(
                    "iteration %d: %s learned %s (|Ts|=%d |Fs|=%d)",
                    iteration,
                    "valid" if valid else "invalid",
                    p2,
                    len(ts),
                    len(fs),
                )

                if valid:
                    p1.parts.append(p2)
                    with tracer.span("cegis.prune", phase="minimize"):
                        # Cheap per-iteration pass: the newest predicate most
                        # often subsumes its immediate predecessor.  A full
                        # pruning pass runs once at the end of the loop.
                        p1.prune_dominated(witnesses=fs, recent_only=True)
                    counter_f_enum.add(p2.formula())
                    want = max(1, self.config.samples_per_iteration)
                    new_fs: list[Point] = []
                    with tracer.span(
                        "cegis.counter_f", phase="counter_f", counters=True
                    ) as cf_span:
                        for _ in range(want):
                            point = counter_f_enum.next(fs + new_fs)
                            if point is None:
                                break
                            new_fs.append(point)
                        if not new_fs:
                            # The sampling box may be exhausted while
                            # unsatisfaction tuples remain outside it; try
                            # unboxed (same warm session, box scope
                            # disabled) before concluding anything.
                            for _ in range(want):
                                point = counter_f_enum.next(
                                    fs + new_fs, boxed=False
                                )
                                if point is None:
                                    break
                                new_fs.append(point)
                        cf_span.set(found=len(new_fs))
                    if not new_fs:
                        # No *new* witness.  Distinguish optimal from the
                        # stuck case with a probe WITHOUT NotOld: p1 may
                        # still accept unsatisfaction tuples that already
                        # sit in Fs (the SVM is not obliged to classify
                        # FALSE samples correctly), and NotOld masks
                        # exactly those witnesses (Lemma 4 needs none).
                        # Unknown (budget exhausted) counts as sub-optimal:
                        # never over-claim optimality.
                        with tracer.span(
                            "cegis.optimality", phase="verify", counters=True
                        ):
                            sub_optimal = not unsat_proven(
                                conj([region.formula, p1.formula()]),
                                self.config.bnb_budget,
                                certify=self.config.certify_verify,
                                origin="counter-f",
                            )
                        if sub_optimal:
                            status = VALID
                            outcome.detail = (
                                "stuck: accepted unsatisfaction tuples already in Fs"
                            )
                        else:
                            status = OPTIMAL
                        break
                    if self.config.samples_per_iteration == 0:
                        # Single-shot variants (SIA_v1/v2) never iterate; a
                        # fresh witness just proves sub-optimality.
                        status = VALID
                        break
                    trace.new_false = new_fs
                    fs.extend(new_fs)
                else:
                    want = max(1, self.config.samples_per_iteration)
                    with tracer.span(
                        "cegis.counter_t", phase="counter_t", counters=True
                    ) as ct_span:
                        # NotOld over the existing TRUE samples is
                        # redundant here: Learn guarantees p2 accepts every
                        # point of Ts, and counter-examples must violate
                        # p2, so they are distinct by construction.  Only
                        # the points found within this call need blocking.
                        if counter_t_enum is None:
                            counter_t_enum = IncrementalEnumerator(
                                formula, target_vars, [], self.config
                            )
                        # Candidate AND within-call blocking ride in one
                        # retractable scope; nothing is blocked across
                        # iterations (redundant by the Learn argument
                        # above, and permanent NotOld atoms would bloat
                        # every later theory round).
                        scope = counter_t_enum.session.push(
                            negate(p2.formula()), label="counter-t"
                        )
                        new_ts: list[Point] = []
                        try:
                            for _ in range(want):
                                point = counter_t_enum.next([])
                                if point is None:
                                    point = counter_t_enum.next([], boxed=False)
                                if point is None:
                                    break
                                new_ts.append(point)
                                scope.add(not_old_formula([point], target_vars))
                        finally:
                            scope.retract()
                        ct_span.set(found=len(new_ts))
                    if not new_ts:
                        # p implies p2 two-valuedly, yet 3VL verification
                        # failed: the NULL-semantics gap (see verify.py).
                        status = VALID if not p1.is_trivial else FAILED
                        outcome.detail = "no 2VL counter-example: NULL-semantics gap"
                        break
                    trace.new_true = new_ts
                    ts.extend(new_ts)

        # Teardown: retract the warm helpers' surviving scopes (the
        # sampling boxes and the warm verifier's probes) so that
        # scopes_opened and scopes_retracted balance.
        counter_f_enum.close()
        if counter_t_enum is not None:
            counter_t_enum.close()
        verifier.close()

        with tracer.span("cegis.minimize", phase="minimize", counters=True):
            p1.minimize(witnesses=fs)
        outcome.iterations = iteration
        outcome.true_samples = len(ts)
        outcome.false_samples = len(fs)
        if status is None:
            status = VALID if not p1.is_trivial else FAILED
            if status == FAILED and not outcome.detail:
                outcome.detail = "iteration budget exhausted without a valid predicate"
        outcome.status = status
        logger.debug(
            "synthesis finished: %s after %d iterations (%s)",
            status,
            iteration,
            ", ".join(col.qualified for col in targets),
        )
        if not p1.is_trivial:
            outcome.predicate = p1.to_pred(ctx)
        elif status == OPTIMAL:  # pragma: no cover - defensive
            outcome.status = TRIVIAL
        return outcome

    # ------------------------------------------------------------------
    # Finite-domain fallbacks (section 5.3)
    # ------------------------------------------------------------------
    def _finite_true_outcome(
        self,
        outcome: SynthesisOutcome,
        ctx: LinearizationContext,
        targets: list[Column],
        formula: Formula,
        target_vars: list[Var],
    ) -> SynthesisOutcome:
        with get_tracer().span(
            "cegis.enumerate_true", phase="generate_samples", counters=True
        ):
            full = enumerate_all(
                formula,
                target_vars,
                self.config.enumeration_limit,
                bnb_budget=self.config.bnb_budget,
            )
        if not full.exhausted:
            outcome.status = FAILED
            outcome.detail = "finite TRUE enumeration exceeded the limit"
            return outcome
        outcome.true_samples = len(full.points)
        if not full.points:
            # The original predicate is unsatisfiable: FALSE is the
            # strongest (vacuously valid) reduction.
            outcome.status = OPTIMAL
            outcome.predicate = FALSE_PRED
            return outcome
        outcome.status = OPTIMAL
        outcome.predicate = por(
            [self._equality_pred(point, ctx, targets, target_vars) for point in full.points]
        )
        return outcome

    def _finite_false_outcome(
        self,
        outcome: SynthesisOutcome,
        ctx: LinearizationContext,
        targets: list[Column],
        region_formula: Formula,
        target_vars: list[Var],
        initial: list[Point],
    ) -> SynthesisOutcome:
        with get_tracer().span(
            "cegis.enumerate_false", phase="generate_samples", counters=True
        ):
            full = enumerate_all(
                region_formula,
                target_vars,
                self.config.enumeration_limit,
                bnb_budget=self.config.bnb_budget,
            )
        if not full.exhausted:
            outcome.status = FAILED
            outcome.detail = "finite FALSE enumeration exceeded the limit"
            return outcome
        outcome.false_samples = len(full.points)
        if not full.points:
            outcome.status = TRIVIAL
            outcome.detail = "no unsatisfaction tuples; only TRUE is valid"
            return outcome
        outcome.status = OPTIMAL
        outcome.predicate = PNot(
            por(
                [
                    self._equality_pred(point, ctx, targets, target_vars)
                    for point in full.points
                ]
            )
        )
        return outcome

    def _equality_pred(
        self,
        point: Point,
        ctx: LinearizationContext,
        targets: list[Column],
        target_vars: list[Var],
    ) -> Pred:
        parts = []
        for col, var in zip(targets, target_vars):
            value = ctx.decode_value(point[var], col)
            parts.append(Comparison(Col(col), "=", _literal_for(col, value)))
        return pand(parts)


def _literal_for(column: Column, value) -> Lit:
    if column.ctype == "DATE":
        return Lit.date(value)
    if column.ctype == "TIMESTAMP":
        return Lit.timestamp(value)
    if column.ctype == DOUBLE:
        return Lit.double(value)
    return Lit.integer(value)


def synthesize(
    pred: Pred,
    target_columns: set[Column] | list[Column],
    config: SiaConfig = SIA_DEFAULT,
) -> SynthesisOutcome:
    """One-shot convenience wrapper around :class:`Synthesizer`."""
    return Synthesizer(config).synthesize(pred, target_columns)
