"""NULLs through Aggregate and Sort, as Postgres treats them.

Aggregates skip NULL inputs: ``COUNT(col)`` counts the known values,
and SUM, AVG, MIN and MAX over a group without one are NULL.  An
aggregate without GROUP BY returns one row, also over no input.  ORDER
BY puts NULLs last under ASC and first under DESC, and GROUP BY puts
them in one group.  The value stored under a NULL mask must never show
through.
"""

import numpy as np
import pytest

from repro.engine import Catalog, Table, build_plan, execute
from repro.predicates import DOUBLE, INTEGER
from repro.sql.binder import parse_query

SCHEMA = {"t": {"g": INTEGER, "a": INTEGER, "b": INTEGER}}


@pytest.fixture()
def catalog():
    # a = 3, 1, NULL, 5, NULL with 2 and 7 stored under the NULL mask;
    # group g = 1 has a = 3, 1, NULL; g = 2 has 5, NULL; g = 3 only NULL.
    catalog = Catalog()
    catalog.register(
        Table(
            "t",
            SCHEMA["t"],
            {
                "g": np.array([1, 1, 1, 2, 3]),
                "a": np.array([3, 1, 2, 5, 7]),
                "b": np.array([10, 20, 30, 40, 50]),
            },
            {"a": np.array([False, False, True, False, True])},
        )
    )
    return catalog


def run(sql, catalog):
    """The result rows as tuples, NULL as None."""
    relation, _ = execute(build_plan(parse_query(sql, SCHEMA)), catalog)
    columns = []
    for column in relation.data:
        values, nulls = relation.values_and_nulls(column)
        columns.append(
            [None if nulls is not None and nulls[i] else values[i].item()
             for i in range(relation.num_rows)]
        )
    return list(zip(*columns))


FIRST_FOUR = "FROM t WHERE t.b < 45"  # a = 3, 1, NULL, 5


def test_aggregates_skip_nulls(catalog):
    rows = run(
        "SELECT COUNT(*), COUNT(t.a), SUM(t.a), AVG(t.a), MIN(t.a), MAX(t.a) "
        + FIRST_FOUR,
        catalog,
    )
    assert rows == [(4, 3, 9.0, 3.0, 1.0, 5.0)]


def test_all_null_group_gives_null(catalog):
    rows = run(
        "SELECT t.g, COUNT(*), COUNT(t.a), SUM(t.a), AVG(t.a), MIN(t.a), MAX(t.a) "
        "FROM t GROUP BY t.g",
        catalog,
    )
    assert rows == [
        (1, 3, 2, 4.0, 2.0, 1.0, 3.0),
        (2, 1, 1, 5.0, 5.0, 5.0, 5.0),
        (3, 1, 0, None, None, None, None),
    ]


def test_ungrouped_aggregate_over_no_rows_returns_one_row(catalog):
    assert run("SELECT COUNT(*) FROM t WHERE t.b > 100", catalog) == [(0,)]
    rows = run(
        "SELECT COUNT(t.a), SUM(t.a), AVG(t.a), MIN(t.a), MAX(t.a) "
        "FROM t WHERE t.b > 100",
        catalog,
    )
    assert rows == [(0, None, None, None, None)]


def test_grouped_aggregate_over_no_rows_returns_none(catalog):
    assert run("SELECT t.g, COUNT(*) FROM t WHERE t.b > 100 GROUP BY t.g", catalog) == []


def test_sort_puts_nulls_last_ascending_and_first_descending(catalog):
    ascending = run(f"SELECT t.a, t.b {FIRST_FOUR} ORDER BY t.a", catalog)
    assert ascending == [(1, 20), (3, 10), (5, 40), (None, 30)]
    descending = run(f"SELECT t.a, t.b {FIRST_FOUR} ORDER BY t.a DESC", catalog)
    assert descending == [(None, 30), (5, 40), (3, 10), (1, 20)]


def test_sort_keeps_input_order_among_nulls(catalog):
    # The two NULLs store 2 and 7; they tie, so input order decides.
    assert run("SELECT t.a, t.b FROM t ORDER BY t.a", catalog)[-2:] == [
        (None, 30),
        (None, 50),
    ]
    assert run("SELECT t.a, t.b FROM t ORDER BY t.a DESC", catalog)[:2] == [
        (None, 30),
        (None, 50),
    ]


def test_null_flag_ranks_within_its_own_key(catalog):
    # g first: a's NULLs go last within each g group, not overall.
    rows = run("SELECT t.g, t.a FROM t ORDER BY t.g DESC, t.a", catalog)
    assert rows == [(3, None), (2, 5), (1, 1), (1, 3), (1, None)]


def test_null_group_keys_form_one_group(catalog):
    # a's NULLs store 2 and 7, but they are one group, after the values.
    rows = run("SELECT t.a, COUNT(*), SUM(t.b) FROM t GROUP BY t.a", catalog)
    assert rows == [(1, 1, 20.0), (3, 1, 10.0), (5, 1, 40.0), (None, 2, 80.0)]
    # With a second key, an int key stays int beside a nullable one.
    rows = run("SELECT t.g, t.a, COUNT(*) FROM t GROUP BY t.g, t.a", catalog)
    assert rows == [(1, 1, 1), (1, 3, 1), (1, None, 1), (2, 5, 1), (3, None, 1)]
    assert all(type(g) is int for g, _, _ in rows)


def test_group_keys_of_different_types_keep_their_values():
    # A DOUBLE key beside an int64 one must not round the int64 keys.
    big = 2**53
    schema = {"w": {"k": INTEGER, "d": DOUBLE}}
    catalog = Catalog()
    catalog.register(
        Table(
            "w",
            schema["w"],
            {"k": np.array([big + 1, big, big + 1], dtype=np.int64), "d": np.full(3, 0.5)},
        )
    )
    plan = build_plan(
        parse_query("SELECT w.k, w.d, COUNT(*) FROM w GROUP BY w.k, w.d", schema)
    )
    relation, _ = execute(plan, catalog)
    rows = list(zip(*(relation.column(c).tolist() for c in relation.data)))
    assert rows == [(big, 0.5, 1), (big + 1, 0.5, 2)]
