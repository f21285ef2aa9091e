"""The equi-join kernel against the sort-and-searchsorted reference.

`reference_join` is the engine's earlier join, kept here verbatim in
substance: argsort the build keys stably, binary-search every probe key
twice and expand the [lo, hi) ranges.  `_hash_join` must return the
same rows in the same order for every input, whichever of its paths
(direct-address for unique integer build keys, or the sorted
fallback with one binary search per probe key) runs, and a probe side
whose every row matches once must come through without a gather.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import HashJoin, Scan
from repro.engine.executor import (
    DENSE_SPAN_FACTOR,
    _dense_match,
    _hash_join,
    _sorted_match,
)
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


# ----------------------------------------------------------------------
# Each path forced
# ----------------------------------------------------------------------
BUILDS = ("dense_unique", "sparse_unique", "sparse_repeated", "dense_repeated")
PROBES = ("all_match", "all_match_null_probe", "mixed")


@st.composite
def forced_path_inputs(draw):
    """A build side of a chosen key layout (the smaller input, so it is
    not swapped) and a probe side that matches all or some of it."""
    build_kind = draw(st.sampled_from(BUILDS))
    probe_kind = draw(st.sampled_from(PROBES))
    sparse = build_kind.startswith("sparse")
    kind = draw(st.sampled_from(["int64", "int32", "float64"] if sparse else ["int64", "int32"]))
    n_build = draw(st.integers(2, 20))
    n_probe = draw(st.integers(n_build, 40))
    # A stride past the cutoff spreads any two distinct keys too far
    # apart for the direct-address table.
    stride = 2 * DENSE_SPAN_FACTOR + 1 if sparse else 1
    base = draw(st.integers(-(10**6), 10**6))
    if build_kind.endswith("unique"):
        offsets = draw(st.permutations(range(n_build)))
    else:
        some = draw(
            st.lists(st.integers(0, n_build - 1), min_size=n_build - 1, max_size=n_build - 1)
        )
        offsets = draw(st.permutations(some + [draw(st.sampled_from(some))]))
    build = (np.array(offsets, dtype=np.int64) * stride + base).astype(kind)
    if probe_kind == "mixed":
        # Offsets the build side lacks, and those beyond it, miss.
        probe = np.array(
            draw(st.lists(st.integers(-2, n_build + 2), min_size=n_probe, max_size=n_probe)),
            dtype=np.int64,
        ) * stride + base
        probe = probe.astype(kind)
    else:
        picks = draw(st.lists(st.integers(0, n_build - 1), min_size=n_probe, max_size=n_probe))
        probe = build[np.array(picks)]
    probe_nulls = None
    if probe_kind == "all_match_null_probe":
        probe_nulls = np.array(
            draw(st.lists(st.booleans(), min_size=n_probe, max_size=n_probe)), dtype=bool
        )
        probe_nulls[draw(st.integers(0, n_probe - 1))] = True
    elif probe_kind == "mixed" and draw(st.booleans()):
        probe_nulls = np.array(
            draw(st.lists(st.booleans(), min_size=n_probe, max_size=n_probe)), dtype=bool
        )
    # NULL build keys would move the path; the test above covers them.
    left = relation(L_KEY, L_ROW, build, None)
    right = relation(R_KEY, R_ROW, probe, probe_nulls)
    return build_kind, probe_kind, left, right


def valid_keys(relation, key):
    values, nulls = relation.values_and_nulls(key)
    return values if nulls is None else values[~nulls]


@settings(max_examples=400, deadline=None)
@given(forced_path_inputs())
def test_each_join_path_matches_sorted_reference(inputs):
    build_kind, probe_kind, left, right = inputs
    build_keys, probe_keys = left.column(L_KEY), valid_keys(right, R_KEY)
    unique = build_kind.endswith("unique")
    # A "mixed" probe may still match every key by chance.
    all_match = bool(np.isin(probe_keys, build_keys).all())
    assert all_match or probe_kind == "mixed"
    dense = _dense_match(build_keys, probe_keys)
    assert (dense is not None) == (build_kind == "dense_unique")
    if dense is None and unique and len(probe_keys):
        # Unique keys: one position per probe key, None when all match.
        _, probe_rows = _sorted_match(build_keys, probe_keys)
        assert (probe_rows is None) == all_match
    assert_same_join(left, right)
    got = _hash_join(left, right, NODE)
    passed_through = all(got.data[c] is right.data[c] for c in right.data)
    assert passed_through == (
        unique and all_match and right.null_mask(R_KEY) is None
    )
    if probe_kind == "all_match_null_probe" and unique:
        # The NULL-keyed probe rows go and every other row stays.
        assert got.num_rows == len(probe_keys) < right.num_rows


def test_empty_and_all_null_inputs():
    keys = np.array([4, 1, 3], dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    all_null = np.ones(3, dtype=bool)
    cases = [
        (empty, None, empty, None),
        (empty, None, keys, None),
        (keys, None, empty, None),
        (keys, all_null, keys, None),
        (keys, None, keys, all_null),
        (keys.astype(np.float64), all_null, keys.astype(np.float64), None),
    ]
    for build, build_nulls, probe, probe_nulls in cases:
        left = relation(L_KEY, L_ROW, build, build_nulls)
        right = relation(R_KEY, R_ROW, probe, probe_nulls)
        assert_same_join(left, right)
        assert _hash_join(left, right, NODE).num_rows == 0


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
