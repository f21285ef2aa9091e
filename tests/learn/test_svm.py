"""Tests for the linear SVM trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn import rationalize_weights, train_linear_svm


def numpy_reference_svm(positives, negatives, *, c=1e6, seed=0):
    """The trainer's former numpy loop, kept as the differential reference.

    Same algorithm, scaling, shuffle stream and stopping rule as
    ``train_linear_svm``; only the arithmetic runs through numpy, whose
    length-3 ``@`` may use a fused multiply-add, so the last bits of
    its weights depend on the CPU.  Returns the weights.
    """
    positives = np.asarray(positives, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    dim = positives.shape[1]
    points = np.vstack([positives, negatives])
    labels = np.concatenate([np.ones(len(positives)), -np.ones(len(negatives))])
    scale = np.maximum(np.abs(points).max(axis=0), 1.0)
    data = np.hstack([points / scale, np.full((len(points), 1), 1.0)])
    n, d = data.shape
    alpha = np.zeros(n)
    w = np.zeros(d)
    q_diag = np.einsum("ij,ij->i", data, data)
    q_diag = np.where(q_diag <= 0.0, 1.0, q_diag)
    rng = np.random.default_rng(seed)
    order = np.arange(n)
    for _ in range(300):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            gradient = labels[i] * (data[i] @ w) - 1.0
            projected = gradient
            if alpha[i] <= 0.0:
                projected = min(gradient, 0.0)
            elif alpha[i] >= c:
                projected = max(gradient, 0.0)
            if projected == 0.0:
                continue
            max_violation = max(max_violation, abs(projected))
            old = alpha[i]
            alpha[i] = min(max(old - gradient / q_diag[i], 0.0), c)
            delta = (alpha[i] - old) * labels[i]
            if delta != 0.0:
                w = w + delta * data[i]
        if max_violation < 1e-8:
            break
    return w[:dim] / scale


# Learn calls recorded from seed-13 section 6.3 syntheses (``full_set``),
# with the SVM seed each call drew: the first two of template 123's
# (two columns) and the first of template 7's (three columns).
TEMPLATE_123_FIRST = (
    [[100, 7], [99, 8], [98, 9], [69, 41], [68, 0], [97, -93], [67, 42],
     [-1, -1], [-2, -2], [66, 50]],
    [[-45, -1], [80, 100], [0, 94], [-84, -1], [-89, -81], [1, 9],
     [14, 96], [-10, -2], [-11, -2], [-90, -2]],
    1830219288,
)
TEMPLATE_123_SECOND = (
    TEMPLATE_123_FIRST[0]
    + [[-62, -55], [-63, -56], [-64, -57], [-65, -58], [-66, -59]],
    TEMPLATE_123_FIRST[1],
    267114565,
)
TEMPLATE_7_FIRST = (
    [[-60, 0, -23], [-60, 72, -25], [-60, 45, 22], [-60, 46, 0],
     [-61, -1, -24], [-62, 1, -26], [-63, 24, 1], [-64, 2, -21],
     [-65, -34, -57], [-66, -35, -58]],
    [[0, -58, 0], [-1, -41, 1], [1, -77, 93], [-39, 0, -54],
     [-37, 45, -55], [-60, -78, 2], [1, 23, -8], [1, -1, -24],
     [-18, 46, 71], [91, 60, 38]],
    1533954791,
)
RECORDED_CALLS = [
    pytest.param(*TEMPLATE_123_FIRST, id="123-first"),
    pytest.param(*TEMPLATE_123_SECOND, id="123-second"),
    pytest.param(*TEMPLATE_7_FIRST, id="7-first"),
]


@pytest.mark.parametrize("positives, negatives, seed", RECORDED_CALLS)
@pytest.mark.parametrize("max_denominator", [8, 64, 512])
def test_direction_matches_numpy_reference(
    positives, negatives, seed, max_denominator
):
    model = train_linear_svm(np.array(positives), np.array(negatives), seed=seed)
    ref_weights = numpy_reference_svm(positives, negatives, seed=seed)
    assert rationalize_weights(
        model.weights, 0.0, max_denominator=max_denominator
    ) == rationalize_weights(ref_weights, 0.0, max_denominator=max_denominator)


def test_weights_are_pinned():
    """Plain-float arithmetic in a fixed order: the same bits on any CPU."""
    positives, negatives, seed = TEMPLATE_123_FIRST
    model = train_linear_svm(np.array(positives), np.array(negatives), seed=seed)
    assert model.weights.tolist() == [0.17819038431440834, -0.1745374913527683]
    assert model.bias == 0.39264703786051314


@pytest.mark.parametrize("positives, negatives, seed", RECORDED_CALLS)
def test_unrolled_and_generic_loops_agree_exactly(positives, negatives, seed):
    """Zero features route a call through the generic loop unchanged.

    Narrow samples take the unrolled loop, wide ones the generic loop;
    appending all-zero columns makes the samples wide without changing
    a single sum, so both loops must return the same floats.
    """
    narrow = train_linear_svm(np.array(positives), np.array(negatives), seed=seed)
    zeros = [0, 0, 0]
    wide = train_linear_svm(
        np.array([p + zeros for p in positives]),
        np.array([p + zeros for p in negatives]),
        seed=seed,
    )
    dim = len(positives[0])
    assert wide.weights[:dim].tolist() == narrow.weights.tolist()
    assert not wide.weights[dim:].any()
    assert wide.bias == narrow.bias


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        train_linear_svm(np.zeros(3), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        train_linear_svm(np.zeros((0, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        train_linear_svm(np.zeros((1, 2)), np.zeros((1, 3)))


def test_no_negatives_accepts_everything():
    model = train_linear_svm(np.array([[1.0, 2.0]]), np.zeros((0, 2)))
    assert model.predict(np.array([[100.0, -100.0]]))[0]


def test_separates_1d():
    pos = np.array([[3.0], [4.0], [10.0]])
    neg = np.array([[-1.0], [0.0], [1.0]])
    model = train_linear_svm(pos, neg)
    assert model.predict(pos).all()
    assert not model.predict(neg).any()


def test_separates_2d_diagonal():
    rng = np.random.default_rng(42)
    pos = rng.normal(0, 1, size=(40, 2)) + np.array([3.0, 3.0])
    neg = rng.normal(0, 1, size=(40, 2)) - np.array([3.0, 3.0])
    model = train_linear_svm(pos, neg)
    assert model.predict(pos).mean() > 0.95
    assert model.predict(neg).mean() < 0.05


def test_margin_direction():
    # TRUE iff x1 - x2 > 5, cleanly separated.
    pos = np.array([[10.0, 1.0], [20.0, 5.0], [8.0, 1.0]])
    neg = np.array([[1.0, 1.0], [5.0, 5.0], [0.0, 10.0]])
    model = train_linear_svm(pos, neg)
    assert model.weights[0] > 0
    assert model.weights[1] < model.weights[0]


def test_deterministic_given_seed():
    pos = np.array([[3.0, 1.0], [4.0, 2.0]])
    neg = np.array([[-3.0, 0.0], [-4.0, 1.0]])
    m1 = train_linear_svm(pos, neg, seed=7)
    m2 = train_linear_svm(pos, neg, seed=7)
    assert m1.weights.tolist() == m2.weights.tolist()
    assert m1.bias == m2.bias


def test_not_linearly_separable_still_returns_model():
    # XOR-ish pattern: no linear separator exists.
    pos = np.array([[1.0, 1.0], [-1.0, -1.0]])
    neg = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = train_linear_svm(pos, neg)
    assert model.weights.shape == (2,)
    # At most half of each class can be classified correctly by a line
    # through this configuration; just check nothing blew up.
    assert np.isfinite(model.decision(pos)).all()


def test_large_scale_features():
    pos = np.array([[1e6, 2.0], [2e6, 1.0]])
    neg = np.array([[-1e6, 2.0], [-2e6, 1.0]])
    model = train_linear_svm(pos, neg)
    assert model.predict(pos).all()
    assert not model.predict(neg).any()


@settings(max_examples=25, deadline=None)
@given(
    threshold=st.integers(min_value=-20, max_value=20),
    seed=st.integers(min_value=0, max_value=100),
)
def test_learns_threshold_property(threshold, seed):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-60, 60, size=40).astype(np.float64)
    pos = xs[xs > threshold + 2].reshape(-1, 1)
    neg = xs[xs < threshold - 2].reshape(-1, 1)
    if len(pos) == 0 or len(neg) == 0:
        return
    model = train_linear_svm(pos, neg)
    assert model.predict(pos).all()
    assert not model.predict(neg).any()
