"""Edge-case tests for the Sort and Limit operators."""

import numpy as np
import pytest

from repro.engine import Catalog, Limit, Scan, Sort, Table, execute
from repro.predicates import Column, DOUBLE, INTEGER

K = Column("t", "k", INTEGER)
V = Column("t", "v", DOUBLE)


@pytest.fixture()
def catalog():
    catalog = Catalog()
    catalog.register(
        Table(
            "t",
            {"k": INTEGER, "v": DOUBLE},
            {
                "k": np.array([3, 1, 2, 1, 3]),
                "v": np.array([0.5, 0.1, 0.9, 0.7, 0.2]),
            },
        )
    )
    catalog.register(Table("empty", {"k": INTEGER}, {"k": np.array([], dtype=np.int64)}))
    return catalog


def test_sort_ascending(catalog):
    rel, _ = execute(Sort(Scan("t"), ((K, True),)), catalog)
    assert rel.column(K).tolist() == [1, 1, 2, 3, 3]


def test_sort_descending(catalog):
    rel, _ = execute(Sort(Scan("t"), ((K, False),)), catalog)
    assert rel.column(K).tolist() == [3, 3, 2, 1, 1]


def test_sort_multi_key(catalog):
    rel, _ = execute(Sort(Scan("t"), ((K, True), (V, False))), catalog)
    assert rel.column(K).tolist() == [1, 1, 2, 3, 3]
    # Within k=1 group, v descends.
    assert rel.column(V).tolist()[:2] == [0.7, 0.1]


def test_sort_empty(catalog):
    empty_k = Column("empty", "k", INTEGER)
    rel, _ = execute(Sort(Scan("empty"), ((empty_k, True),)), catalog)
    assert rel.num_rows == 0


def test_limit_truncates(catalog):
    rel, _ = execute(Limit(Sort(Scan("t"), ((K, True),)), 2), catalog)
    assert rel.column(K).tolist() == [1, 1]


def test_limit_larger_than_input(catalog):
    rel, _ = execute(Limit(Scan("t"), 100), catalog)
    assert rel.num_rows == 5


def test_limit_zero(catalog):
    rel, _ = execute(Limit(Scan("t"), 0), catalog)
    assert rel.num_rows == 0


def test_sort_preserves_row_alignment(catalog):
    rel, _ = execute(Sort(Scan("t"), ((V, True),)), catalog)
    pairs = list(zip(rel.column(K).tolist(), rel.column(V).tolist()))
    assert pairs == sorted(pairs, key=lambda kv: kv[1])
    # Each (k, v) pair must be one of the original rows.
    original = {(3, 0.5), (1, 0.1), (2, 0.9), (1, 0.7), (3, 0.2)}
    assert set(pairs) == original


def test_sort_descending_at_the_integer_limits():
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    catalog = Catalog()
    catalog.register(
        Table(
            "w",
            {"k": INTEGER},
            {"k": np.array([0, low, high, -1, low + 1], dtype=np.int64)},
        )
    )
    key = Column("w", "k", INTEGER)
    rel, _ = execute(Sort(Scan("w"), ((key, False),)), catalog)
    assert rel.column(key).tolist() == [high, 0, -1, low + 1, low]
