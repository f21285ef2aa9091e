"""Tests for the Learn procedure (Algorithm 2)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core import SIA_DEFAULT, learn
from repro.core.learnloop import _forced_plane, _plane_with_exact_bias, _points_to_array
from repro.errors import SynthesisError
from repro.learn import Hyperplane, train_linear_svm
from repro.smt import Var

X = Var("x")
Y = Var("y")


def pts(values, var=X):
    return [{var: Fraction(v)} for v in values]


def pts2(values):
    return [{X: Fraction(a), Y: Fraction(b)} for a, b in values]


def run_learn(ts, fs, variables=None, seed=0):
    return learn(ts, fs, variables or [X], SIA_DEFAULT, random.Random(seed))


def test_requires_samples():
    with pytest.raises(SynthesisError):
        run_learn([], pts([1]))
    with pytest.raises(SynthesisError):
        run_learn(pts([1]), [])


def test_separable_1d():
    predicate = run_learn(pts([0, 1, 2, 3]), pts([10, 11, 12]))
    for v in (0, 1, 2, 3):
        assert predicate.accepts({X: Fraction(v)})
    for v in (10, 11, 12):
        assert not predicate.accepts({X: Fraction(v)})


def test_cut_sits_at_highest_false_score():
    """The exact cut sits on the nearest FALSE sample, not at a
    midpoint: ``-x > -19`` rejects 19 and accepts everything below."""
    predicate = run_learn(pts([0, 18]), pts([19, 40]))
    assert predicate.planes == (Hyperplane(((X, -1),), 19),)
    assert predicate.accepts({X: Fraction(18)})
    assert predicate.accepts({X: Fraction(37, 2)})
    assert not predicate.accepts({X: Fraction(19)})


def test_all_true_samples_always_accepted_even_when_not_separable():
    # TRUE between two FALSE clusters: not separable by one plane.
    ts = pts([5, 6])
    fs = pts([0, 1, 10, 11])
    predicate = run_learn(ts, fs)
    for point in ts:
        assert predicate.accepts(point)


def test_disjunction_emerges_for_split_true_clusters():
    ts = pts([-10, -11, 10, 11])
    fs = pts([0, 1, -1])
    predicate = run_learn(ts, fs)
    for point in ts:
        assert predicate.accepts(point)
    # FALSE cluster sits between the TRUE clusters; with a disjunction
    # of planes the learner can reject at least part of it.
    assert len(predicate.planes) >= 1


def test_separable_2d():
    ts = pts2([(0, 0), (1, 1), (2, 0)])
    fs = pts2([(10, 10), (11, 9), (9, 11)])
    predicate = run_learn(ts, fs, variables=[X, Y])
    for point in ts:
        assert predicate.accepts(point)
    for point in fs:
        assert not predicate.accepts(point)


def test_diagonal_boundary():
    # TRUE iff x - y <= 2 samples.
    ts = pts2([(0, 0), (2, 0), (5, 3), (-1, 4)])
    fs = pts2([(10, 0), (8, 1), (20, 5)])
    predicate = run_learn(ts, fs, variables=[X, Y])
    for point in ts:
        assert predicate.accepts(point)
    for point in fs:
        assert not predicate.accepts(point)


def test_deterministic_given_seed():
    ts, fs = pts([0, 1, 2]), pts([8, 9])
    p1 = run_learn(ts, fs, seed=5)
    p2 = run_learn(ts, fs, seed=5)
    assert str(p1) == str(p2)


def test_identical_true_false_points_forced_plane():
    """Degenerate overlap: Learn must still return something accepting
    all TRUE samples (the verifier will reject it later)."""
    ts = pts([5])
    fs = pts([5])
    predicate = run_learn(ts, fs)
    assert predicate.accepts({X: Fraction(5)})


def test_forced_plane_is_an_exact_solver_object():
    """The fallback plane over two columns re-enters the solver: its
    coefficients are ints, never the floats the SVM direction starts
    from, and its formula holds on every TRUE sample."""
    ts = pts2([(1, 2), (3, 1), (2, 2)])
    fs = pts2([(0, 0), (1, 0)])
    plane = _forced_plane(ts, fs, [X, Y], np.array([0.7, 0.3]))
    assert all(type(weight) is int for _, weight in plane.coeffs)
    formula = plane.formula()
    assert all(formula.evaluate(point) for point in ts)


def svm_plane_1d(ts, fs, seed):
    """The plane the SVM path of Alg. 2 builds for a 1-D sample set."""
    weights = train_linear_svm(
        _points_to_array(ts, [X]),
        _points_to_array(fs, [X]),
        c=SIA_DEFAULT.svm_c,
        seed=seed,
    ).weights
    plane = _plane_with_exact_bias(weights, ts, fs, [X], SIA_DEFAULT)
    if plane is None:
        plane = _forced_plane(ts, fs, [X], weights)
    return plane


@pytest.mark.parametrize(
    "true_values, false_values, svm_seed",
    [
        pytest.param(range(10, 20), [0, 3, 5, 9], 0, id="false-below"),
        pytest.param(range(10, 20), [21, 25, 30], 0, id="false-above"),
        # A real CEGIS call (seed-13 section 6.3 query 26, l_receiptdate)
        # with the SVM seed that run drew: +1 rejects more FALSE samples
        # (12 vs 5), but -1 leaves the far wider gap (191 vs 1), and the
        # SVM took the wider gap.  Its sign on this set does follow its
        # shuffle order (other seeds pick +1); the closed form does not.
        pytest.param(
            range(69, 79),
            [-100, -54, -53, -2, -1, 1, 2, 44, 45, 66, 67, 68, 269, 270, 271, 272, 273],
            391769539,
            id="two-sided",
        ),
        # No sign rejects a FALSE sample here.  On such sets the SVM's
        # sign can follow its shuffle order too; on these two it does not.
        pytest.param([0, 100], [1, 2, 3, 4, 5], 0, id="false-inside"),
        pytest.param([0], [0], 0, id="ts-equals-fs"),
    ],
)
def test_closed_form_1d_matches_svm_plane(true_values, false_values, svm_seed):
    ts, fs = pts(true_values), pts(false_values)
    predicate = run_learn(ts, fs)
    assert predicate.planes == (svm_plane_1d(ts, fs, svm_seed),)


def test_closed_form_1d_draws_one_seed():
    """The sampler shares ``rng``: the 1-D path consumes exactly the one
    draw the SVM path would, so every later sample stays the same."""
    rng, reference = random.Random(3), random.Random(3)
    run = learn(pts(range(10, 20)), pts([0, 30]), [X], SIA_DEFAULT, rng)
    reference.randrange(2**31)
    assert len(run.planes) == 1
    assert rng.getstate() == reference.getstate()


def test_closed_form_1d_breaks_ties_toward_more_rejections_then_plus():
    # Equal gaps (1): -1 rejects two FALSE samples, +1 only one.
    assert run_learn(pts([5]), pts([4, 6, 7])).planes == (Hyperplane(((X, -1),), 6),)
    # Equal gaps and equal rejections: +1.
    assert run_learn(pts([5]), pts([4, 6])).planes == (Hyperplane(((X, 1),), -4),)


def test_closed_form_1d_clears_denominators():
    predicate = run_learn(pts([Fraction(1, 2), 3]), pts([Fraction(1, 3)]))
    assert predicate.planes == (Hyperplane(((X, 3),), -1),)
