"""Tests for Verify under three-valued logic (section 5.2/5.5)."""

import importlib
from dataclasses import replace

import pytest

from repro.core import OPTIMAL, SIA_DEFAULT, Synthesizer, verify_implied
from repro.core.verify import (
    PredicateVerifier,
    learned_truth_formula,
    plane_truth_formula,
    unsat_proven,
)
from repro.learn import DisjunctivePredicate, Hyperplane
from repro.predicates import (
    Col,
    Column,
    Comparison,
    INTEGER,
    Lit,
    LinearizationContext,
    lower_predicate,
    pand,
    por,
)
from repro.smt import Not, conj, is_satisfiable
from repro.smt.stats import GLOBAL_COUNTERS
from repro.tpch import generate_workload

A = Column("t", "a", INTEGER)
B = Column("t", "b", INTEGER)


def ctx_for(pred):
    _, ctx = lower_predicate(pred)
    return ctx


def test_weaker_predicate_is_valid():
    pred = pand(
        [
            Comparison(Col(A), ">", Lit.integer(5)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    # a > 0 (weaker than a > 5)
    plane = Hyperplane(((ctx.var(A), 1),), 0)
    assert verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_stronger_predicate_is_invalid():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1),), -10)  # a > 10
    assert not verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_equivalent_predicate_is_valid():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1),), -5)  # a > 5
    assert verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_disjunctive_learned_predicate():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    learned = DisjunctivePredicate(
        (
            Hyperplane(((ctx.var(A), 1),), -10),  # a > 10
            Hyperplane(((ctx.var(A), 1),), 0),  # a > 0
        )
    )
    assert verify_implied(pred, learned, ctx)


def test_null_gap_makes_disjunctive_original_unverifiable():
    """p = (a > 5 OR b > 0) can be TRUE with a NULL (b = 3), but any
    learned predicate over {a} alone evaluates NULL there and filters
    the tuple: validity must fail under 3VL."""
    pred = por(
        [
            Comparison(Col(A), ">", Lit.integer(5)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    # The weakest possible non-trivial predicate over {a}: a > -huge.
    plane = Hyperplane(((ctx.var(A), 1),), 10**9)
    assert not verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_conjunctive_original_unaffected_by_nulls():
    """For conjunctive p every target column occurring in some conjunct
    forces non-NULL whenever p is TRUE, so 3VL verification passes."""
    pred = pand(
        [
            Comparison(Col(A), ">", Lit.integer(5)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1), (ctx.var(B), 1)), 0)  # a + b > 0
    assert verify_implied(pred, DisjunctivePredicate((plane,)), ctx)


def test_plane_truth_requires_non_null():
    pred = Comparison(Col(A), ">", Lit.integer(5))
    ctx = ctx_for(pred)
    plane = Hyperplane(((ctx.var(A), 1),), 0)
    truth = plane_truth_formula(plane, ctx)
    assert not is_satisfiable(conj([truth, ctx.null_flag(A)]))
    assert is_satisfiable(conj([truth, Not(ctx.null_flag(A))]))


def test_learned_truth_formula_is_disjunction_of_plane_truths():
    pred = pand(
        [
            Comparison(Col(A), ">", Lit.integer(0)),
            Comparison(Col(B), ">", Lit.integer(0)),
        ]
    )
    ctx = ctx_for(pred)
    learned = DisjunctivePredicate(
        (
            Hyperplane(((ctx.var(A), 1),), 0),
            Hyperplane(((ctx.var(B), 1),), 0),
        )
    )
    truth = learned_truth_formula(learned, ctx)
    # TRUE via the b-plane even when a is NULL.
    assert is_satisfiable(conj([truth, ctx.null_flag(A)]))
    # But not when both are NULL.
    assert not is_satisfiable(
        conj([truth, ctx.null_flag(A), ctx.null_flag(B)])
    )


@pytest.mark.parametrize(
    "query, columns",
    [
        (0, ("l_shipdate", "l_receiptdate")),  # 13 invalid candidates
        (5, ("l_commitdate", "l_receiptdate")),  # invalid and valid ones
    ],
)
def test_warm_verifier_agrees_with_fresh_verify_implied(monkeypatch, query, columns):
    """The warm session ``Verify`` is the only CEGIS path: on every
    candidate Sia learns it must return what a one-shot solver says."""
    verdicts = []

    class CheckedVerifier(PredicateVerifier):
        def __init__(self, original, ctx, *, bnb_budget, certify):
            super().__init__(original, ctx, bnb_budget=bnb_budget, certify=certify)
            self.args = (original, ctx, bnb_budget)

        def verify(self, learned):
            warm = super().verify(learned)
            original, ctx, bnb_budget = self.args
            fresh = verify_implied(original, learned, ctx, bnb_budget=bnb_budget)
            verdicts.append((warm, fresh))
            return warm

    # ``repro.core.synthesize`` names the function, not the module the
    # Synthesizer looks the verifier up in.
    module = importlib.import_module("repro.core.synthesize")
    monkeypatch.setattr(module, "PredicateVerifier", CheckedVerifier)
    wq = generate_workload(8, seed=42)[query]
    targets = {col for col in wq.predicate.columns() if col.name in columns}
    outcome = Synthesizer(SIA_DEFAULT).synthesize(wq.predicate, targets)
    assert outcome.status == OPTIMAL
    assert [warm for warm, _ in verdicts] == [t.valid for t in outcome.trace]
    assert any(not warm for warm, _ in verdicts)
    assert all(warm == fresh for warm, fresh in verdicts)


def test_certified_synthesis_matches_the_warm_path():
    """``certify_verify`` routes Verify and the optimality probe through
    audited sealed solvers; the verdicts, and so the result, must not
    change."""
    wq = generate_workload(8, seed=42)[5]
    targets = {
        col
        for col in wq.predicate.columns()
        if col.name in ("l_commitdate", "l_receiptdate")
    }
    warm = Synthesizer(SIA_DEFAULT).synthesize(wq.predicate, targets)
    before = GLOBAL_COUNTERS.snapshot()
    certified = Synthesizer(replace(SIA_DEFAULT, certify_verify=True)).synthesize(
        wq.predicate, targets
    )
    fallbacks = GLOBAL_COUNTERS.delta_since(before)["proof_fallbacks"]
    assert certified.status == warm.status == OPTIMAL
    assert [t.valid for t in certified.trace] == [t.valid for t in warm.trace]
    assert str(certified.predicate) == str(warm.predicate)
    # One audited Verify per iteration, plus the optimality probe.
    assert fallbacks == certified.iterations + 1


def test_unsat_proven_with_certification():
    negative = Comparison(Col(A), "<", Lit.integer(0))
    positive = Comparison(Col(A), ">", Lit.integer(0))
    contradiction, _ = lower_predicate(pand([negative, positive]))
    satisfiable, _ = lower_predicate(negative)
    for certify in (False, True):
        assert unsat_proven(contradiction, certify=certify, origin="counter-f")
        assert not unsat_proven(satisfiable, certify=certify)
