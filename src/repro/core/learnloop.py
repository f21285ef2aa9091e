"""The Learn procedure (Algorithm 2).

Train a linear SVM on (TRUE, FALSE) samples; if some TRUE samples are
misclassified, retrain on just those (plus all FALSE samples) and
disjoin the models, repeating until every TRUE sample is accepted.

In one dimension there is nothing for the SVM to learn but a sign:
the exact cut below the lowest TRUE score accepts every TRUE sample,
so Alg. 2 stops after one plane.  ``learn`` then scores both signs in
exact rationals and keeps the one with the wider margin, without
training an SVM (``_exact_plane_1d``).

The paper's contract is that Learn returns a predicate classifying all
TRUE samples correctly.  A linear SVM cannot always make progress on
degenerate sample sets (e.g. a TRUE point lying inside the convex hull
of FALSE points); when that happens we *force* separation by shifting
the intercept of the current direction until all remaining TRUE
samples are accepted -- the verifier then rejects the predicate if the
forced plane overreaches, which is exactly how the paper handles the
non-separable limitation (section 6.7).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from ..errors import SynthesisError
from ..learn import DisjunctivePredicate, Hyperplane, train_linear_svm
from ..smt import Var
from .config import SiaConfig
from .result import Point


def _points_to_array(points: list[Point], variables: list[Var]) -> np.ndarray:
    return np.array(
        [[float(point[var]) for var in variables] for point in points],
        dtype=np.float64,
    )


def learn(
    ts: list[Point],
    fs: list[Point],
    variables: list[Var],
    config: SiaConfig,
    rng: random.Random,
) -> DisjunctivePredicate:
    """Learn a predicate accepting all of ``ts`` (Alg. 2)."""
    if not ts:
        raise SynthesisError("Learn requires at least one TRUE sample")
    if not fs:
        raise SynthesisError("Learn requires at least one FALSE sample")

    if len(variables) == 1:
        # The SVM path draws one seed per plane from the stream the
        # sampler shares; draw it too so later samples stay the same.
        rng.randrange(2**31)
        return DisjunctivePredicate((_exact_plane_1d(ts, fs, variables[0]),))

    fs_array = _points_to_array(fs, variables)
    remaining = list(ts)
    planes: list[Hyperplane] = []

    while remaining:
        ts_array = _points_to_array(remaining, variables)
        model = train_linear_svm(
            ts_array,
            fs_array,
            c=config.svm_c,
            seed=rng.randrange(2**31),
        )
        plane = _plane_with_exact_bias(
            model.weights, remaining, fs, variables, config
        )
        accepted: list[Point] = []
        if plane is not None:
            accepted = [point for point in remaining if plane.accepts(point)]
        if plane is None or not accepted:
            plane = _forced_plane(remaining, fs, variables, model.weights)
            accepted = list(remaining)
        planes.append(plane)
        accepted_keys = {id(point) for point in accepted}
        remaining = [point for point in remaining if id(point) not in accepted_keys]

    return DisjunctivePredicate(tuple(planes))


def _plane_with_exact_bias(
    float_weights: np.ndarray,
    ts: list[Point],
    fs: list[Point],
    variables: list[Var],
    config: SiaConfig,
) -> Hyperplane | None:
    """Exact hyperplane: SVM direction, exactly-refit intercept.

    Dual coordinate descent converges slowly on tight margins, which
    misplaces the *intercept* even when the direction is good (and a
    misplaced intercept silently accepts FALSE samples, stalling the
    optimality search).  Since the direction is all the SVM really
    contributes, we recompute the intercept exactly in rational
    arithmetic: the cut sits at the highest FALSE score below the
    lowest TRUE score.  Every TRUE sample is then strictly accepted and
    every FALSE sample separable along this direction is rejected --
    the strongest choice for the fixed direction.
    """
    from ..learn import rationalize_weights

    direction, _ = rationalize_weights(
        float_weights, 0.0, max_denominator=config.max_denominator
    )
    if all(weight == 0 for weight in direction):
        return None

    def score(point: Point) -> Fraction:
        return sum(
            (Fraction(w) * point[var] for w, var in zip(direction, variables)),
            Fraction(0),
        )

    cut = _exact_cut(
        [score(point) for point in ts], [score(point) for point in fs]
    )
    return _cut_plane(direction, cut, variables)


def _exact_plane_1d(ts: list[Point], fs: list[Point], var: Var) -> Hyperplane:
    """The one-column plane, chosen exactly instead of by an SVM.

    Each sign s scores a point as ``s * x`` and takes the exact cut of
    ``_plane_with_exact_bias``.  The sign whose cut rejects some FALSE
    sample and leaves the wider gap to the lowest TRUE score wins; a
    tie goes to the sign rejecting more FALSE samples, then to +1.
    The gap ranks first because a max-margin direction points away
    from the nearest FALSE samples, not from the most of them; so
    ranked, the choice matched the SVM's plane on every one-column
    CEGIS call checked (DESIGN.md #6).
    """
    best = None
    for sign in (1, -1):
        true_scores = [sign * point[var] for point in ts]
        false_scores = [sign * point[var] for point in fs]
        min_true = min(true_scores)
        cut = _exact_cut(true_scores, false_scores)
        rejected = sum(1 for score in false_scores if score <= cut)
        rank = (rejected > 0, min_true - cut, rejected)
        if best is None or rank > best[0]:
            best = (rank, sign, cut)
    _, sign, cut = best
    return _cut_plane([sign], cut, [var])


def _exact_cut(true_scores: list[Fraction], false_scores: list[Fraction]) -> Fraction:
    """The highest FALSE score below the lowest TRUE score, else one
    below the lowest TRUE score: ``score > cut`` accepts every TRUE
    sample and rejects every FALSE sample this direction can."""
    min_true = min(true_scores)
    below = [score for score in false_scores if score < min_true]
    # Cut exactly at the highest rejected FALSE score: `> cut` rejects
    # it while accepting every TRUE sample.  (A midpoint cut would be
    # the classic max-margin choice, but over real sorts it can never
    # reach the supremum of the feasible region, so the loop would
    # chase it forever.)
    return max(below) if below else min_true - 1


def _cut_plane(direction: list[int], cut: Fraction, variables: list[Var]) -> Hyperplane:
    """The plane ``direction . x > cut`` with integer coefficients."""
    # w.x > cut  <=>  (d*w).x - d*cut > 0 with d clearing the denominator.
    denom = cut.denominator
    coeffs = tuple(
        (var, int(w * denom)) for var, w in zip(variables, direction)
    )
    return Hyperplane(coeffs, -int(cut * denom))


def _forced_plane(
    remaining: list[Point],
    fs: list[Point],
    variables: list[Var],
    float_weights: np.ndarray,
) -> Hyperplane:
    """A plane guaranteed to accept every remaining TRUE sample.

    Uses the SVM's direction if usable, otherwise the direction from
    the FALSE centroid to the TRUE centroid, otherwise the first axis;
    then shifts the intercept past the minimum TRUE score.
    """
    direction = _integer_direction(float_weights)
    if direction is None:
        ts_mean = np.mean(_points_to_array(remaining, variables), axis=0)
        fs_mean = np.mean(_points_to_array(fs, variables), axis=0)
        direction = _integer_direction(ts_mean - fs_mean)
    if direction is None:
        direction = [1] + [0] * (len(variables) - 1)

    min_score = min(
        sum(Fraction(w) * point[var] for w, var in zip(direction, variables))
        for point in remaining
    )
    bias = -math.floor(min_score) + 1
    coeffs = tuple(zip(tuple(variables), direction))
    return Hyperplane(coeffs, bias)


def _integer_direction(weights: np.ndarray) -> list[int] | None:
    from ..learn import rationalize_weights

    ints, _ = rationalize_weights(np.asarray(weights, dtype=np.float64), 0.0)
    if all(value == 0 for value in ints):
        return None
    return [int(v) for v in ints]
