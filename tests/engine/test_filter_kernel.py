"""The Filter kernel and the folded evaluator against exact references.

`_filter` ANDs conjuncts into a mask, most selective on a sample
first, and switches to a shrinking selection of row numbers once few
rows survive; `eval_expr_numpy` folds
integer-linear arithmetic into one accumulator.  Both must agree with
the row-at-a-time `eval_pred_py` under three-valued logic, and the
folded values must equal those of `reference_expr` -- the engine's
earlier node-by-node evaluator, kept here in substance -- bit for bit,
int64 wrap-around included.
"""

import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import Catalog, Filter, Scan, Table, execute
from repro.engine import executor
from repro.engine.executor import (
    FILTER_SAMPLE_ROWS,
    SELECTION_FACTOR,
    _filter,
    _most_selective_first,
)
from repro.engine.table import relation_from_arrays
from repro.predicates import (
    DATE,
    DOUBLE,
    INTEGER,
    Arith,
    Col,
    Column,
    Comparison,
    IsNull,
    Lit,
    PNot,
    eval_expr_numpy,
    eval_pred_numpy,
    eval_pred_py,
    pand,
    por,
)
from repro.predicates.eval import _eval_linear, _linear_form

X = Column("t", "x", INTEGER)
Y = Column("t", "y", INTEGER)
Z = Column("t", "z", INTEGER)
D = Column("t", "d", DOUBLE)
ROW = Column("t", "row", INTEGER)
INT_COLUMNS = (X, Y, Z)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}
OPS = tuple(COMPARE)


def reference_expr(expr, resolve, length):
    """Node-by-node evaluation: one numpy operation per Arith node."""
    if isinstance(expr, Lit):
        return expr.value, None
    if isinstance(expr, Col):
        return resolve(expr.column)
    left, left_nulls = reference_expr(expr.left, resolve, length)
    right, right_nulls = reference_expr(expr.right, resolve, length)
    if left_nulls is None:
        nulls = right_nulls
    elif right_nulls is None:
        nulls = left_nulls
    else:
        nulls = left_nulls | right_nulls
    if expr.op == "+":
        return left + right, nulls
    if expr.op == "-":
        return left - right, nulls
    assert expr.op == "*"
    return left * right, nulls


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
small_ints = st.integers(-6, 6)


@st.composite
def linear_exprs(draw, depth=3, columns=INT_COLUMNS, literals=small_ints):
    """Integer-linear expressions: every product has a literal side."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return Col(draw(st.sampled_from(columns)))
        return Lit.integer(draw(literals))
    op = draw(st.sampled_from(("+", "-", "*")))
    left = draw(linear_exprs(depth - 1, columns, literals))
    if op == "*":
        right = Lit.integer(draw(literals))
        return Arith(op, right, left) if draw(st.booleans()) else Arith(op, left, right)
    return Arith(op, left, draw(linear_exprs(depth - 1, columns, literals)))


@st.composite
def comparisons(draw):
    return Comparison(
        draw(linear_exprs()), draw(st.sampled_from(OPS)), draw(linear_exprs())
    )


@st.composite
def predicates(draw, depth=2):
    """Conjunctions whose conjuncts may nest OR, NOT and IS NULL."""
    if depth == 0:
        if draw(st.integers(0, 5)) == 0:
            return IsNull(Col(draw(st.sampled_from(INT_COLUMNS))), draw(st.booleans()))
        return draw(comparisons())
    kind = draw(st.sampled_from(("and", "and", "or", "not", "leaf")))
    if kind == "leaf":
        return draw(predicates(0))
    if kind == "not":
        return PNot(draw(predicates(depth - 1)))
    args = draw(st.lists(predicates(depth - 1), min_size=2, max_size=4))
    return pand(args) if kind == "and" else por(args)


@st.composite
def relations(draw, values=st.integers(-20, 20)):
    """A relation over x, y, z and a row-number column, read through a
    selection vector as a join's output is, and its rows as dicts."""
    base = draw(st.integers(0, 25))
    data = {ROW: (np.arange(base, dtype=np.int64), None)}
    for column in INT_COLUMNS:
        column_values = np.array(
            draw(st.lists(values, min_size=base, max_size=base)), dtype=np.int64
        )
        nulls = np.array(
            draw(st.lists(st.booleans(), min_size=base, max_size=base)), dtype=bool
        )
        data[column] = (column_values, nulls if nulls.any() else None)
    relation = relation_from_arrays(data, base)
    if base and draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, base - 1), max_size=40))
        relation = relation.take(np.array(sorted(picks), dtype=np.intp))
    return relation


def rows_of(relation):
    """Rows as ``{column: value}``, NULL as None and floats as exact
    Fractions, the way :func:`eval_pred_py` takes them."""
    rows = []
    for i in range(relation.num_rows):
        row = {}
        for column in relation.data:
            values, nulls = relation.values_and_nulls(column)
            value = values[i].item()
            if isinstance(value, float):
                value = Fraction(value)
            row[column] = None if nulls is not None and nulls[i] else value
        rows.append(row)
    return rows


def folds(expr, relation):
    """Whether ``expr`` takes the folded path on ``relation``."""
    form = _linear_form(expr)
    return form is not None and bool(form[0]) and (
        _eval_linear(*form, relation.resolver(), relation.num_rows) is not None
    )


def filtered_row_ids(relation, pred):
    out = _filter(relation, pred)
    values, nulls = out.values_and_nulls(ROW)
    assert nulls is None
    return list(values)


# ----------------------------------------------------------------------
# Filter and eval_pred_numpy against the row-at-a-time evaluator
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(relations(), predicates())
def test_filter_and_numpy_match_row_at_a_time_3vl(relation, pred):
    rows = rows_of(relation)
    verdicts = [eval_pred_py(pred, row) for row in rows]
    truth, nulls = eval_pred_numpy(pred, relation.resolver(), relation.num_rows)
    assert list(truth) == [v is True for v in verdicts]
    assert list(nulls) == [v is None for v in verdicts]
    # Output rows keep input order: the row numbers of the survivors.
    expected = [row[ROW] for row, v in zip(rows, verdicts) if v is True]
    assert filtered_row_ids(relation, pred) == expected


def int_relation(x, x_nulls=None, **others):
    data = {
        X: (np.array(x, dtype=np.int64), x_nulls),
        ROW: (np.arange(len(x), dtype=np.int64), None),
    }
    for name, values in others.items():
        column = {"y": Y, "z": Z, "d": D}[name]
        data[column] = (np.asarray(values), None)
    return relation_from_arrays(data, len(x))


def test_cancelled_column_keeps_its_nulls():
    # x - x > -1 is TRUE for every known x and NULL where x is NULL.
    pred = Comparison(Arith("-", Col(X), Col(X)), ">", Lit.integer(-1))
    assert _linear_form(pred.left) == ({X: 0}, 0)
    relation = int_relation([5, 7, 9], np.array([False, True, False]))
    truth, nulls = eval_pred_numpy(pred, relation.resolver(), 3)
    assert list(truth) == [True, False, True]
    assert list(nulls) == [False, True, False]
    assert filtered_row_ids(relation, pred) == [0, 2]
    # Coefficients that cancel through a product count as well.
    scaled = Arith("+", Arith("*", Lit.integer(2), Col(X)), Arith("*", Col(X), Lit.integer(-2)))
    assert _linear_form(scaled) == ({X: 0}, 0)
    values, value_nulls = eval_expr_numpy(scaled, relation.resolver(), 3)
    assert list(values) == [0, 0, 0] and list(value_nulls) == [False, True, False]


def test_folding_takes_the_rendered_rewrite_shape():
    # (commit - DATE '1970-01-01') + (-1 * (receipt - DATE '1970-01-01'))
    # > -8, as rendered rewrites read: one accumulator, commit - receipt.
    commit, receipt = Column("t", "commit", DATE), Column("t", "receipt", DATE)
    epoch = Lit.date("1970-01-01")
    expr = Arith(
        "+",
        Arith("-", Col(commit), epoch),
        Arith("*", Lit.integer(-1), Arith("-", Col(receipt), epoch)),
    )
    assert _linear_form(expr) == ({commit: 1, receipt: -1}, 0)
    relation = relation_from_arrays(
        {
            commit: (np.array([9000, 9010], dtype=np.int64), None),
            receipt: (np.array([9005, 9000], dtype=np.int64), None),
            ROW: (np.arange(2, dtype=np.int64), None),
        },
        2,
    )
    values, nulls = eval_expr_numpy(expr, relation.resolver(), 2)
    assert list(values) == [-5, 10] and nulls is None
    pred = Comparison(expr, ">", Lit.integer(-8))
    assert filtered_row_ids(relation, pred) == [0, 1]


# ----------------------------------------------------------------------
# int64 limits: folded values equal the node-by-node ones bit for bit
# ----------------------------------------------------------------------
edge_ints = st.sampled_from(
    [INT64_MIN, INT64_MIN + 1, -(2**62), -1, 0, 1, 2**62, INT64_MAX - 1, INT64_MAX]
) | st.integers(INT64_MIN, INT64_MAX)


def assert_same_as_reference(expr, relation):
    resolve, length = relation.resolver(), relation.num_rows
    try:
        want = reference_expr(expr, resolve, length)
    except OverflowError:
        with pytest.raises(OverflowError):
            eval_expr_numpy(expr, resolve, length)
        return
    got = eval_expr_numpy(expr, resolve, length)
    if isinstance(want[0], np.ndarray):
        assert got[0].dtype == want[0].dtype
        assert np.array_equal(got[0], want[0])
    else:  # literal-only: exact python arithmetic either way
        assert type(got[0]) is type(want[0]) and got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert np.array_equal(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(
    relations(values=edge_ints),
    linear_exprs(depth=4, literals=edge_ints),
    st.sampled_from(OPS),
    linear_exprs(depth=2, literals=edge_ints),
)
def test_folding_matches_node_by_node_near_int64_limits(relation, left, op, right):
    assert_same_as_reference(left, relation)
    assert_same_as_reference(right, relation)
    # The Filter compares those same values.
    length, resolve = relation.num_rows, relation.resolver()
    pred = Comparison(left, op, right)
    try:
        lv, ln = reference_expr(left, resolve, length)
        rv, rn = reference_expr(right, resolve, length)
        passes = np.broadcast_to(COMPARE[op](lv, rv), (length,)).copy()
    except OverflowError:
        with pytest.raises(OverflowError):
            _filter(relation, pred)
        return
    for nulls in (ln, rn):
        if nulls is not None:
            passes &= ~nulls
    assert filtered_row_ids(relation, pred) == list(relation.column(ROW)[passes])


def test_wraparound_is_kept():
    relation = int_relation([INT64_MAX, INT64_MIN, 0])
    # (x + 1) wraps at the top; folding must not move the 1 across the
    # comparison (x > -1 would also pass the first row).
    pred = Comparison(Arith("+", Col(X), Lit.integer(1)), ">", Lit.integer(0))
    assert filtered_row_ids(relation, pred) == [2]
    # Constants that sum past int64 wrap as the per-node additions do.
    expr = Arith("+", Arith("+", Col(X), Lit.integer(2**62)), Lit.integer(2**62))
    assert_same_as_reference(expr, relation)
    assert _linear_form(expr) == ({X: 1}, 2**63)


def test_literal_outside_int64_is_not_folded():
    relation = int_relation([1, 2])
    expr = Arith("+", Col(X), Arith("*", Lit.integer(2**62), Lit.integer(4)))
    assert _linear_form(expr) is None
    with pytest.raises(OverflowError):
        eval_expr_numpy(expr, relation.resolver(), 2)
    # A literal-only side is left to python arithmetic, as before.
    big = Comparison(Col(X), "<", Arith("*", Lit.integer(2**62), Lit.integer(4)))
    assert filtered_row_ids(relation, big) == [0, 1]


# ----------------------------------------------------------------------
# Fallbacks: DOUBLE, "/", column x column
# ----------------------------------------------------------------------
def fallback_relation():
    x = [3, -4, 0, 7, 12, 5]
    x_nulls = np.array([False, False, False, True, False, False])
    return int_relation(
        x, x_nulls, y=np.array([2, 2, 0, 1, -3, 5], dtype=np.int64),
        d=np.array([1.5, -2.0, 0.0, 4.0, 6.25, 2.5]),
    )


FALLBACKS = [
    Comparison(Arith("+", Col(D), Col(X)), ">", Lit.integer(1)),
    Comparison(Arith("/", Col(X), Col(Y)), ">=", Lit.integer(1)),
    Comparison(Arith("/", Arith("-", Col(X), Col(Y)), Lit.integer(2)), "<", Lit.integer(1)),
    Comparison(Arith("*", Col(X), Col(Y)), ">", Lit.integer(5)),
    Comparison(Arith("+", Col(X), Lit.double(0.5)), ">", Lit.integer(3)),
]


@pytest.mark.parametrize("pred", FALLBACKS, ids=repr)
def test_fallbacks_match_row_at_a_time(pred):
    relation = fallback_relation()
    assert not folds(pred.left, relation)
    rows = rows_of(relation)
    verdicts = [eval_pred_py(pred, row) for row in rows]
    truth, nulls = eval_pred_numpy(pred, relation.resolver(), relation.num_rows)
    assert list(truth) == [v is True for v in verdicts]
    assert list(nulls) == [v is None for v in verdicts]
    expected = [row[ROW] for row, v in zip(rows, verdicts) if v is True]
    assert filtered_row_ids(relation, pred) == expected


# ----------------------------------------------------------------------
# The Filter's selection
# ----------------------------------------------------------------------
def test_empty_relation():
    relation = int_relation([], y=np.array([], dtype=np.int64))
    pred = pand([
        Comparison(Col(X), ">", Lit.integer(0)),
        Comparison(Arith("-", Col(X), Col(Y)), "<", Lit.integer(3)),
    ])
    out = _filter(relation, pred)
    assert out.num_rows == 0
    assert out.column(Y).shape == (0,)


def test_no_row_survives_a_conjunct():
    relation = int_relation(list(range(10)), y=np.arange(10, dtype=np.int64))
    pred = pand([
        Comparison(Col(X), ">", Lit.integer(100)),
        Comparison(Arith("-", Col(X), Col(Y)), "=", Lit.integer(0)),
    ])
    out = _filter(relation, pred)
    assert out.num_rows == 0
    assert list(out.column(Y)) == []


def test_later_conjuncts_read_only_the_survivors():
    n = 40
    relation = int_relation(list(range(n)), y=np.arange(n, dtype=np.int64))
    selective = Comparison(Col(X), "<", Lit.integer(n // SELECTION_FACTOR))
    later = Comparison(Col(Y), ">=", Lit.integer(3))
    out = _filter(relation, pand([selective, later]))
    assert list(out.column(ROW)) == list(range(3, n // SELECTION_FACTOR))
    # y was read on the compacted relation only, never at full length.
    assert X in relation._cache and Y not in relation._cache


def test_unselective_filter_keeps_its_input():
    relation = int_relation([1, 2, 3], y=np.array([4, 5, 6], dtype=np.int64))
    pred = Comparison(Arith("-", Col(Y), Col(X)), "=", Lit.integer(3))
    assert _filter(relation, pred) is relation


def test_filter_plan_node():
    catalog = Catalog()
    catalog.register(
        Table(
            "t",
            {"x": INTEGER, "y": INTEGER, "row": INTEGER},
            {
                "x": np.array([5, 1, 8, 2, 9], dtype=np.int64),
                "y": np.array([1, 1, 3, 2, 4], dtype=np.int64),
                "row": np.arange(5, dtype=np.int64),
            },
        )
    )
    pred = pand([
        Comparison(Arith("-", Col(X), Col(Y)), ">", Lit.integer(2)),
        por([
            Comparison(Col(Y), "=", Lit.integer(3)),
            PNot(Comparison(Col(X), "<", Lit.integer(9))),
        ]),
    ])
    relation, stats = execute(Filter(Scan("t"), pred), catalog)
    assert list(relation.column(ROW)) == [2, 4]
    assert (stats.operators[-1].rows_in, stats.operators[-1].rows_out) == (5, 2)


# ----------------------------------------------------------------------
# Most selective conjunct first
# ----------------------------------------------------------------------
@st.composite
def sampled_relations(draw):
    """A relation long enough for the Filter to sample, with NULLs in
    x, y and z, sometimes read through a selection vector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(FILTER_SAMPLE_ROWS + 1, 3 * FILTER_SAMPLE_ROWS))
    data = {ROW: (np.arange(n, dtype=np.int64), None)}
    for column in INT_COLUMNS:
        nulls = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
        data[column] = (rng.integers(-20, 21, size=n), nulls if nulls.any() else None)
    relation = relation_from_arrays(data, n)
    if draw(st.booleans()):
        picks = rng.integers(0, n, size=draw(st.integers(FILTER_SAMPLE_ROWS + 1, 2 * n)))
        relation = relation.take(np.sort(picks))
    return relation


# x - x <op> k: TRUE or FALSE on every row, NULL where x is NULL.
cancelling = st.builds(
    lambda column, op, k: Comparison(Arith("-", Col(column), Col(column)), op, Lit.integer(k)),
    st.sampled_from(INT_COLUMNS),
    st.sampled_from(OPS),
    st.integers(-1, 1),
)


def true_rows(pred, relation):
    return int(np.count_nonzero(eval_pred_numpy(pred, relation.resolver(), relation.num_rows)[0]))


def sample_of(relation):
    step = -(-relation.num_rows // FILTER_SAMPLE_ROWS)
    return relation.take(np.arange(0, relation.num_rows, step))


def plan_order_ids(relation, pred):
    with mock.patch.object(executor, "FILTER_SAMPLE_ROWS", 2**62):
        return filtered_row_ids(relation, pred)


def full_length_conjuncts(relation, pred):
    """The conjuncts ``_filter`` evaluates at the input's full length, in
    the order it runs them, and the rows it keeps."""
    calls = []
    real = executor.eval_pred_numpy

    def spy(conjunct, resolve, length):
        if length == relation.num_rows:
            calls.append(conjunct)
        return real(conjunct, resolve, length)

    with mock.patch.object(executor, "eval_pred_numpy", spy):
        ids = filtered_row_ids(relation, pred)
    return calls, ids


@settings(max_examples=100, deadline=None)
@given(
    sampled_relations(),
    st.lists(st.one_of(comparisons(), cancelling, predicates(1)), min_size=2, max_size=5),
)
def test_sampled_order_keeps_plan_order_rows(relation, drawn):
    conjuncts = list(pand(drawn).conjuncts())
    assume(len(conjuncts) > 1)
    # Plan order least selective first, so sampling mostly reorders.
    exact = [true_rows(c, relation) for c in conjuncts]
    plan = [conjuncts[i] for i in sorted(range(len(conjuncts)), key=lambda i: -exact[i])]
    pred = pand(plan)

    # Ranked by TRUE rows on the strided sample, ties in plan order.
    sample = sample_of(relation)
    counts = [true_rows(c, sample) for c in plan]
    ranked = _most_selective_first(relation, plan)
    assert ranked == [plan[i] for i in sorted(range(len(plan)), key=counts.__getitem__)]

    ran, got = full_length_conjuncts(relation, pred)
    assert ran[0] == ranked[0]
    assert counts[plan.index(ran[0])] == min(counts)
    assert got == plan_order_ids(relation, pred)
    truth, _ = eval_pred_numpy(pred, relation.resolver(), relation.num_rows)
    assert got == list(relation.column(ROW)[truth])


def test_most_selective_conjunct_runs_first():
    n = 4 * FILTER_SAMPLE_ROWS
    x = np.arange(n, dtype=np.int64) % 50
    x_nulls = np.arange(n) % 7 == 0
    relation = int_relation(x, x_nulls, y=np.arange(n, dtype=np.int64) % 10)
    known = IsNull(Col(X), negated=True)  # all rows but the NULLs
    cancels = Comparison(Arith("-", Col(X), Col(X)), ">", Lit.integer(-1))  # same rows
    rare = Comparison(Col(X), ">", Lit.integer(45))  # NULL where x is
    some = Comparison(Col(Y), "<", Lit.integer(5))  # half the rows
    plan = [known, cancels, some, rare]
    pred = pand(plan)
    assert _most_selective_first(relation, plan) == [rare, some, known, cancels]
    ran, got = full_length_conjuncts(relation, pred)
    assert ran[0] is rare
    # The rows plan order keeps, in input order.
    assert got == plan_order_ids(relation, pred)
    assert got == [i for i in range(n) if not x_nulls[i] and x[i] > 45 and i % 10 < 5]


def test_small_filters_keep_plan_order():
    n = FILTER_SAMPLE_ROWS
    relation = int_relation(list(range(n)), y=np.zeros(n, dtype=np.int64))
    loose = Comparison(Col(Y), "=", Lit.integer(0))
    tight = Comparison(Col(X), "<", Lit.integer(3))
    ran, got = full_length_conjuncts(relation, pand([loose, tight]))
    assert ran == [loose, tight] and got == [0, 1, 2]
