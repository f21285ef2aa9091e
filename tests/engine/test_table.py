"""Tests for columnar tables and relations."""

import numpy as np
import pytest

from repro.engine import Catalog, Filter, HashJoin, Scan, Table, execute
from repro.errors import CatalogError
from repro.predicates import Col, Column, Comparison, INTEGER, Lit


def make_table():
    return Table(
        "t",
        {"a": INTEGER, "b": INTEGER},
        {"a": np.array([1, 2, 3]), "b": np.array([10, 20, 30])},
    )


def test_num_rows():
    assert make_table().num_rows == 3
    assert Table("e", {"a": INTEGER}).num_rows == 0


def test_ragged_columns_rejected():
    with pytest.raises(CatalogError):
        Table(
            "t",
            {"a": INTEGER, "b": INTEGER},
            {"a": np.array([1]), "b": np.array([1, 2])},
        )


def test_column_outside_schema_rejected():
    with pytest.raises(CatalogError):
        Table("t", {"a": INTEGER}, {"b": np.array([1])})


def test_column_ref():
    table = make_table()
    ref = table.column_ref("a")
    assert ref == Column("t", "a", INTEGER)
    with pytest.raises(CatalogError):
        table.column_ref("zzz")


def test_to_relation_and_filter():
    rel = make_table().to_relation()
    assert rel.num_rows == 3
    col_a = Column("t", "a", INTEGER)
    filtered = rel.filter(np.array([True, False, True]))
    assert filtered.num_rows == 2
    assert filtered.column(col_a).tolist() == [1, 3]


def test_relation_take():
    rel = make_table().to_relation()
    taken = rel.take(np.array([2, 0]))
    assert taken.column(Column("t", "a", INTEGER)).tolist() == [3, 1]


def test_relation_take_preserves_null_masks():
    table = Table(
        "t",
        {"a": INTEGER},
        {"a": np.array([1, 2, 3])},
        {"a": np.array([False, True, False])},
    )
    rel = table.to_relation()
    taken = rel.take(np.array([1, 2]))
    nulls = taken.null_mask(Column("t", "a", INTEGER))
    assert nulls.tolist() == [True, False]


def test_relation_project_and_merge():
    rel = make_table().to_relation()
    a = Column("t", "a", INTEGER)
    b = Column("t", "b", INTEGER)
    projected = rel.project([a])
    assert list(projected.data) == [a]
    with pytest.raises(CatalogError):
        rel.project([Column("x", "q", INTEGER)])
    merged = projected.merge(rel.project([b]))
    assert set(merged.data) == {a, b}


def test_merge_length_mismatch():
    rel = make_table().to_relation()
    small = rel.filter(np.array([True, False, False]))
    with pytest.raises(CatalogError):
        rel.merge(small)


def test_catalog():
    catalog = Catalog()
    catalog.register(make_table())
    assert "t" in catalog
    assert catalog.get("T").name == "t"
    with pytest.raises(CatalogError):
        catalog.get("nope")
    assert catalog.schema() == {"t": {"a": INTEGER, "b": INTEGER}}


def test_join_output_columns_share_one_selection_vector():
    rng = np.random.default_rng(3)
    catalog = Catalog()
    catalog.register(
        Table(
            "o",
            {"k": INTEGER, "x": INTEGER, "y": INTEGER},
            {"k": np.arange(50), "x": rng.integers(0, 9, 50), "y": np.arange(50) * 7},
            {"y": rng.random(50) < 0.2},
        )
    )
    catalog.register(
        Table(
            "l",
            {"k": INTEGER, "v": INTEGER, "w": INTEGER},
            {
                "k": rng.integers(0, 60, 400),
                "v": rng.integers(0, 100, 400),
                "w": np.arange(400),
            },
        )
    )
    o, l_ = catalog.get("o"), catalog.get("l")
    join = HashJoin(
        Filter(Scan("o"), Comparison(Col(o.column_ref("x")), ">", Lit.integer(3))),
        Filter(Scan("l"), Comparison(Col(l_.column_ref("v")), "<", Lit.integer(60))),
        o.column_ref("k"),
        l_.column_ref("k"),
    )
    # The filter above the join composes both inputs' vectors in one take.
    above = Comparison(Col(l_.column_ref("w")), ">", Col(o.column_ref("y")))
    rel, _ = execute(Filter(join, above), catalog)
    # A nested loop over the filtered rows, in probe (l) order.
    pairs = [
        (i, j)
        for j in np.flatnonzero(l_.columns["v"] < 60)
        for i in np.flatnonzero(o.columns["x"] > 3)
        if o.columns["k"][i] == l_.columns["k"][j]
        and not o.nulls["y"][i]
        and l_.columns["w"][j] > o.columns["y"][i]
    ]
    assert rel.num_rows == len(pairs) > 0
    for table, rows in ((o, [i for i, _ in pairs]), (l_, [j for _, j in pairs])):
        lazies = [rel.data[ref] for ref in table.column_refs()]
        assert all(lazy.indices is lazies[0].indices for lazy in lazies)
        for ref in table.column_refs():
            values, nulls = rel.values_and_nulls(ref)
            np.testing.assert_array_equal(values, table.columns[ref.name][rows])
            if ref.name in table.nulls:
                np.testing.assert_array_equal(nulls, table.nulls[ref.name][rows])
