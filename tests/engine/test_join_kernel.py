"""The equi-join kernel against the sort-and-searchsorted reference.

`reference_join` is the engine's earlier join, kept here verbatim in
substance: argsort the build keys stably, binary-search every probe key
twice and expand the [lo, hi) ranges.  `_hash_join` must return the
same rows in the same order for every input, whichever of its paths
(direct-address for unique integer build keys, or the sorted
fallback) runs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import HashJoin, Scan
from repro.engine.executor import DENSE_SPAN_FACTOR, _dense_match, _hash_join
from repro.engine.table import relation_from_arrays
from repro.predicates import Column, INTEGER

L_KEY = Column("l", "k", INTEGER)
L_ROW = Column("l", "row", INTEGER)
R_KEY = Column("r", "k", INTEGER)
R_ROW = Column("r", "row", INTEGER)
NODE = HashJoin(Scan("l"), Scan("r"), L_KEY, R_KEY)


def reference_join(left, right, node):
    if right.num_rows < left.num_rows:
        swapped = HashJoin(node.right, node.left, node.right_key, node.left_key)
        return reference_join(right, left, swapped)
    left_values, left_nulls = left.values_and_nulls(node.left_key)
    right_values, right_nulls = right.values_and_nulls(node.right_key)
    left_valid = (
        np.arange(left.num_rows)
        if left_nulls is None
        else np.flatnonzero(~left_nulls)
    )
    right_valid = (
        np.arange(right.num_rows)
        if right_nulls is None
        else np.flatnonzero(~right_nulls)
    )
    build_keys = left_values[left_valid]
    probe_keys = right_values[right_valid]
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    hi = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    probe_rows = np.repeat(np.arange(len(probe_keys)), counts)
    if total:
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total) - offsets
        build_rows = order[np.repeat(lo, counts) + within]
    else:
        build_rows = np.empty(0, dtype=np.int64)
        probe_rows = np.empty(0, dtype=np.int64)
    left_out = left.take(left_valid[build_rows])
    right_out = right.take(right_valid[probe_rows])
    return left_out.merge(right_out)


def relation(key_column, row_column, keys, nulls):
    return relation_from_arrays(
        {
            key_column: (keys, nulls),
            row_column: (np.arange(len(keys)), None),
        },
        len(keys),
    )


def assert_same_join(left, right):
    got = _hash_join(left, right, NODE)
    want = reference_join(left, right, NODE)
    assert got.num_rows == want.num_rows
    assert list(got.data) == list(want.data)
    for column in want.data:
        got_values, got_nulls = got.values_and_nulls(column)
        want_values, want_nulls = want.values_and_nulls(column)
        np.testing.assert_array_equal(got_values, want_values)
        if want_nulls is None:
            assert got_nulls is None
        else:
            np.testing.assert_array_equal(got_nulls, want_nulls)


@st.composite
def join_inputs(draw):
    kind = draw(st.sampled_from(["int64", "int32", "float64"]))
    density = draw(st.sampled_from(["unique", "dense", "sparse"]))
    n_left = draw(st.integers(0, 30))
    n_right = draw(st.integers(0, 30))
    # A unique width draws each side's keys without repeats and keeps
    # most build spans inside the direct-address cutoff; a dense one
    # repeats keys on both sides, and a sparse one puts the span past
    # the cutoff.  Both of those take the sorted path.
    if density == "unique":
        width = max(n_left, n_right, 1)
    elif density == "dense":
        width = draw(st.integers(1, max(1, min(n_left, n_right))))
    else:
        width = draw(st.integers(DENSE_SPAN_FACTOR * (n_left + n_right + 1), 10**9))
    limit = 10**6 if kind == "int32" else 10**15
    base = draw(st.integers(-limit, limit))
    # Shifting the right side moves probe keys outside the build range.
    shift = draw(st.integers(-width, width))

    def side(count, offset):
        offsets = st.lists(
            st.integers(0, width - 1),
            min_size=count,
            max_size=count,
            unique=density == "unique",
        )
        keys = np.array(draw(offsets), dtype=np.int64) + (base + offset)
        if kind == "float64":
            keys = keys.astype(np.float64) + draw(st.sampled_from([0.0, 0.5]))
        else:
            keys = keys.astype(kind)
        nulls = None
        if draw(st.booleans()):
            nulls = np.array(
                draw(st.lists(st.booleans(), min_size=count, max_size=count)),
                dtype=bool,
            )
        return keys, nulls

    left = relation(L_KEY, L_ROW, *side(n_left, 0))
    right = relation(R_KEY, R_ROW, *side(n_right, shift))
    return left, right


@settings(max_examples=300, deadline=None)
@given(join_inputs())
def test_join_matches_sorted_reference(inputs):
    left, right = inputs
    assert_same_join(left, right)


def test_both_paths_are_reachable():
    dense = np.array([5, 3, 8, 9], dtype=np.int64)
    assert _dense_match(dense, dense) is not None
    repeated = np.array([5, 3, 5, 9], dtype=np.int64)
    assert _dense_match(repeated, dense) is None
    sparse = np.array([0, 10**9], dtype=np.int64)
    assert _dense_match(sparse, sparse) is None
    floats = dense.astype(np.float64)
    assert _dense_match(floats, floats) is None
    unsigned = dense.astype(np.uint64)
    assert _dense_match(unsigned, unsigned) is None


def test_unique_and_duplicate_build_keys_on_a_large_join():
    rng = np.random.default_rng(7)
    build = rng.permutation(np.arange(-2000, 8000))
    probe = rng.integers(-2500, 8500, size=40000)
    left = relation(L_KEY, L_ROW, build, None)
    right = relation(R_KEY, R_ROW, probe, rng.random(40000) < 0.1)
    assert_same_join(left, right)
    # Repeated build keys take the sorted path.
    duplicated = relation(L_KEY, L_ROW, build // 3, rng.random(10000) < 0.1)
    assert_same_join(duplicated, right)
    # The right side smaller: the join swaps its build and probe sides.
    large_left = relation(L_KEY, L_ROW, probe, None)
    assert_same_join(large_left, relation(R_KEY, R_ROW, build[:500], None))


def test_keys_at_the_int64_limits():
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    probe = np.array([bottom, top, top - 2, top - 1, 0, top - 3], dtype=np.int64)
    for build in ([top - 3, top - 1, top - 3], [top - 2, top], [bottom, 5]):
        left = relation(L_KEY, L_ROW, np.array(build, dtype=np.int64), None)
        assert_same_join(left, relation(R_KEY, R_ROW, probe, None))
