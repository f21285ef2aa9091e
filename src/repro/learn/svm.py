"""Linear soft-margin SVM trained by dual coordinate descent.

This replaces LibSVM (DESIGN.md substitution table).  The paper only
uses the *linear* kernel and only consumes the learned hyperplane
``w . x + b``, so we implement the standard dual coordinate descent
algorithm for L1-loss linear SVMs (Hsieh et al., ICML'08 -- the same
algorithm that powers liblinear).

The bias is learned by folding a constant feature into the weight
vector (the usual liblinear trick).  Features are max-abs scaled
internally for conditioning; returned weights are in the original
feature space.

The descent loop runs on plain Python floats, not numpy: a sample has
a few features (two or three columns plus the bias), where numpy's
per-call overhead costs far more than the arithmetic.  Every dot
product is a left-to-right sum and every weight update a per-component
``w_k += delta * x_k``, so the weights are a fixed sequence of IEEE
operations and the same on every CPU.  (The numpy loop this replaces
was not: its length-3 ``@`` went to OpenBLAS's ``ddot``, whose kernel
-- FMA or not -- OpenBLAS picks by host CPU.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Magnitude of the folded-in constant feature.
BIAS_SCALE = 1.0
# Dual coordinate descent epochs.
MAX_EPOCHS = 300
# Projected-gradient stopping tolerance.
TOL = 1e-8
# Samples with at most this many features (bias included) take the
# unrolled loop; wider ones take the generic one.  Both give the same
# floats: the unrolled loop pads with zero features, and adding a zero
# term changes no sum but the sign of a zero one.
_UNROLLED_WIDTH = 4


@dataclass
class SvmModel:
    """A separating hyperplane ``w . x + b > 0`` (floating point)."""

    weights: np.ndarray  # shape (n_features,)
    bias: float

    def decision(self, points: np.ndarray) -> np.ndarray:
        return points @ self.weights + self.bias

    def predict(self, points: np.ndarray) -> np.ndarray:
        """True where the model classifies a point as positive."""
        return self.decision(points) > 0.0


def train_linear_svm(
    positives: np.ndarray,
    negatives: np.ndarray,
    *,
    c: float = 1e6,
    seed: int = 0,
) -> SvmModel:
    """Train on positive (TRUE) and negative (FALSE) samples.

    Args:
        positives: array (n_pos, d) of TRUE samples.
        negatives: array (n_neg, d) of FALSE samples.
        c: soft-margin penalty.  The default is effectively hard
            margin: Sia needs the TRUE samples classified correctly
            whenever the data is separable (Alg. 2's contract), and the
            max-abs feature scaling below shrinks feature magnitudes so
            small penalties would underfit.
        seed: permutation seed (training is deterministic given it).
    """
    positives = np.asarray(positives, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    if positives.ndim != 2 or negatives.ndim != 2:
        raise ValueError("sample arrays must be two-dimensional")
    if positives.shape[0] == 0:
        raise ValueError("at least one positive sample is required")
    dim = positives.shape[1]
    if negatives.shape[0] == 0:
        # Nothing to separate from: accept everything.
        return SvmModel(np.zeros(dim), 1.0)
    if negatives.shape[1] != dim:
        raise ValueError("positive and negative samples disagree on dimension")

    points = np.vstack([positives, negatives])
    labels = np.concatenate(
        [np.ones(len(positives)), -np.ones(len(negatives))]
    )

    # Max-abs feature scaling for conditioning.
    scale = np.maximum(np.abs(points).max(axis=0), 1.0)
    scaled = points / scale
    # Fold in the bias feature.
    data = np.hstack([scaled, np.full((len(scaled), 1), BIAS_SCALE)])

    n, d = data.shape
    rows = data.tolist()
    ys = labels.tolist()
    q_diag = []
    for x in rows:
        q = 0.0
        for x_k in x:
            q += x_k * x_k
        q_diag.append(q if q > 0.0 else 1.0)
    alpha = [0.0] * n
    rng = np.random.default_rng(seed)
    order = np.arange(n)

    if d <= _UNROLLED_WIDTH:
        padding = [0.0] * (_UNROLLED_WIDTH - d)
        rows = [x + padding for x in rows]
        w0 = w1 = w2 = w3 = 0.0
        for _ in range(MAX_EPOCHS):
            rng.shuffle(order)
            max_violation = 0.0
            for i in order.tolist():
                x0, x1, x2, x3 = rows[i]
                y = ys[i]
                gradient = y * (x0 * w0 + x1 * w1 + x2 * w2 + x3 * w3) - 1.0
                old = alpha[i]
                if old <= 0.0:
                    if gradient >= 0.0:
                        continue
                    violation = -gradient
                elif old >= c:
                    if gradient <= 0.0:
                        continue
                    violation = gradient
                elif gradient == 0.0:
                    continue
                else:
                    violation = abs(gradient)
                if violation > max_violation:
                    max_violation = violation
                new = old - gradient / q_diag[i]
                if new < 0.0:
                    new = 0.0
                elif new > c:
                    new = c
                alpha[i] = new
                delta = (new - old) * y
                if delta != 0.0:
                    w0 += delta * x0
                    w1 += delta * x1
                    w2 += delta * x2
                    w3 += delta * x3
            if max_violation < TOL:
                break
        w = [w0, w1, w2, w3][:d]
    else:
        w = [0.0] * d
        for _ in range(MAX_EPOCHS):
            rng.shuffle(order)
            max_violation = 0.0
            for i in order.tolist():
                x = rows[i]
                y = ys[i]
                dot = 0.0
                for x_k, w_k in zip(x, w):
                    dot += x_k * w_k
                gradient = y * dot - 1.0
                old = alpha[i]
                if old <= 0.0:
                    if gradient >= 0.0:
                        continue
                    violation = -gradient
                elif old >= c:
                    if gradient <= 0.0:
                        continue
                    violation = gradient
                elif gradient == 0.0:
                    continue
                else:
                    violation = abs(gradient)
                if violation > max_violation:
                    max_violation = violation
                new = old - gradient / q_diag[i]
                if new < 0.0:
                    new = 0.0
                elif new > c:
                    new = c
                alpha[i] = new
                delta = (new - old) * y
                if delta != 0.0:
                    for k in range(d):
                        w[k] += delta * x[k]
            if max_violation < TOL:
                break

    weights = np.array(w[:dim]) / scale
    # The learn-boundary crossing (DESIGN.md): the SVM is float-native;
    # rationalize_weights() restores exactness before the hyperplane
    # re-enters the SMT pipeline.
    bias = float(w[dim] * BIAS_SCALE)
    return SvmModel(weights, bias)
