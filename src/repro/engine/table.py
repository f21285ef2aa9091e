"""Columnar storage for the execution engine.

A :class:`Table` is a named collection of equally-long numpy columns
with optional NULL masks.  DATE columns are stored as int64 day counts
since the global epoch and TIMESTAMP as int64 seconds, matching the
conventions of :mod:`repro.predicates.eval`.

A :class:`Relation` is the runtime shape flowing between operators.
Columns are keyed by fully-qualified :class:`~repro.predicates.Column`
objects, and each column is stored *lazily* as a base array plus an
optional selection-index array (the classic columnar selection-vector
design): filters and joins only compose index arrays, and values are
gathered once, when an operator actually reads the column.  This keeps
a pushed-down filter from paying a full materialisation of every
column it never touches.  Columns that came through the same operators
share one index array object: :meth:`Relation.take` composes each
distinct selection vector once, so a join costs one gather per input
side, not one per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CatalogError
from ..predicates import Column


@dataclass
class _LazyColumn:
    """A base array (+ NULL mask) viewed through optional indices."""

    values: np.ndarray
    nulls: np.ndarray | None = None
    indices: np.ndarray | None = None

    def materialize(self) -> tuple[np.ndarray, np.ndarray | None]:
        if self.indices is None:
            return self.values, self.nulls
        gathered = self.values[self.indices]
        gathered_nulls = None if self.nulls is None else self.nulls[self.indices]
        return gathered, gathered_nulls

    @property
    def itemsize(self) -> int:
        size = self.values.dtype.itemsize
        if self.nulls is not None:
            size += 1
        return size


@dataclass
class Table:
    """A base table: schema plus columnar data."""

    name: str
    schema: dict[str, str]  # column name -> ctype (predicates.expr types)
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    nulls: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(values) for values in self.columns.values()}
        if len(lengths) > 1:
            raise CatalogError(f"ragged columns in table {self.name!r}")
        for name in self.columns:
            if name not in self.schema:
                raise CatalogError(
                    f"column {name!r} missing from schema of {self.name!r}"
                )

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column_ref(self, name: str) -> Column:
        ctype = self.schema.get(name)
        if ctype is None:
            raise CatalogError(f"unknown column {name!r} in table {self.name!r}")
        return Column(self.name, name, ctype)

    def column_refs(self) -> list[Column]:
        return [self.column_ref(name) for name in self.schema]

    def to_relation(self) -> "Relation":
        data = {
            self.column_ref(name): _LazyColumn(values, self.nulls.get(name))
            for name, values in self.columns.items()
        }
        return Relation(data, self.num_rows)


class Relation:
    """Intermediate operator output: qualified lazy columns + row count."""

    __slots__ = ("data", "num_rows", "_cache")

    def __init__(self, data: dict[Column, _LazyColumn], num_rows: int) -> None:
        self.data = data
        self.num_rows = num_rows
        self._cache: dict[Column, tuple[np.ndarray, np.ndarray | None]] = {}

    # ------------------------------------------------------------------
    # Reads (materialise on demand, memoised)
    # ------------------------------------------------------------------
    def values_and_nulls(self, column: Column) -> tuple[np.ndarray, np.ndarray | None]:
        cached = self._cache.get(column)
        if cached is None:
            lazy = self.data.get(column)
            if lazy is None:
                raise CatalogError(f"column {column.qualified} not in relation")
            cached = lazy.materialize()
            self._cache[column] = cached
        return cached

    def column(self, column: Column) -> np.ndarray:
        return self.values_and_nulls(column)[0]

    def null_mask(self, column: Column) -> np.ndarray | None:
        return self.values_and_nulls(column)[1]

    def resolver(self):
        """Column resolver for :func:`repro.predicates.eval_pred_numpy`."""
        return self.values_and_nulls

    # ------------------------------------------------------------------
    # Transformations (index composition only; no data movement)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        # Columns that came through the same filters and joins share one
        # selection vector: compose each distinct vector once, and let
        # its columns share the result.
        composed: dict[int, np.ndarray] = {}
        data = {}
        for column, lazy in self.data.items():
            if lazy.indices is None:
                selection = indices
            else:
                selection = composed.get(id(lazy.indices))
                if selection is None:
                    selection = lazy.indices[indices]
                    composed[id(lazy.indices)] = selection
            data[column] = _LazyColumn(lazy.values, lazy.nulls, selection)
        return Relation(data, len(indices))

    def filter(self, mask: np.ndarray) -> "Relation":
        # When every row passes, keep this relation and the columns it
        # has already gathered.
        if mask.all():
            return self
        return self.take(np.flatnonzero(mask))

    def project(self, columns: list[Column]) -> "Relation":
        missing = [c for c in columns if c not in self.data]
        if missing:
            raise CatalogError(f"cannot project missing columns {missing}")
        return Relation({c: self.data[c] for c in columns}, self.num_rows)

    def merge(self, other: "Relation") -> "Relation":
        if self.num_rows != other.num_rows:
            raise CatalogError("merging relations of different lengths")
        merged = dict(self.data)
        merged.update(other.data)
        return Relation(merged, self.num_rows)

    @property
    def nbytes(self) -> int:
        """Approximate footprint if this relation were materialised."""
        per_row = sum(lazy.itemsize for lazy in self.data.values())
        return per_row * self.num_rows


def relation_from_arrays(
    data: dict[Column, tuple[np.ndarray, np.ndarray | None]], num_rows: int
) -> Relation:
    """Build a relation from plain (values, nulls) pairs."""
    return Relation(
        {column: _LazyColumn(values, nulls) for column, (values, nulls) in data.items()},
        num_rows,
    )
