"""A small in-memory relational table with secondary indexes.

The paper stores generated data in PostgreSQL with "efficient indices"
(Section 4.2).  This module provides an offline substitute: a typed table
whose rows are tuples in column order (the write path's row shape), with
optional hash indexes on equality-queried columns and a sorted index on the
timestamp column for range scans.

:meth:`Table.insert_many` keeps the tuples it receives.  It checks a whole
batch first and then updates each index in one pass over it, computing every
key once and sharing one row-id ``int`` per row across all indexes.  Every
read returns the stored tuples; they are immutable, so no caller can change
a stored row or leave an index stale.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import StorageError


@dataclass
class TableSchema:
    """Column names plus the indexing configuration of a table."""

    name: str
    columns: Tuple[str, ...]
    hash_indexes: Tuple[str, ...] = ()
    ordered_index: Optional[str] = None
    #: Columns forming a uniqueness constraint; inserting a second row with
    #: the same key raises :class:`StorageError` instead of silently
    #: duplicating data.
    unique_key: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise StorageError(f"table {self.name}: needs at least one column")
        unknown = [c for c in self.hash_indexes if c not in self.columns]
        if unknown:
            raise StorageError(f"table {self.name}: hash index on unknown columns {unknown}")
        if self.ordered_index is not None and self.ordered_index not in self.columns:
            raise StorageError(
                f"table {self.name}: ordered index on unknown column {self.ordered_index}"
            )
        unknown = [c for c in self.unique_key if c not in self.columns]
        if unknown:
            raise StorageError(f"table {self.name}: unique key on unknown columns {unknown}")


class Table:
    """An append-oriented, indexed, in-memory relation of row tuples."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: List[Tuple] = []
        self._hash: Dict[str, Dict[Any, List[int]]] = {
            column: {} for column in schema.hash_indexes
        }
        # (key, row_index) pairs of the ordered index, appended on insert and
        # sorted on the first ordered read after a write.  Row ids only grow,
        # so the sorted list is what keeping it sorted on every insert gives,
        # without an O(n) list shift per row.
        self._ordered: List[Tuple[Any, int]] = []
        self._ordered_dirty = False
        #: Existing unique-key tuples (only populated when the schema has one).
        self._unique: set = set()
        position = {column: index for index, column in enumerate(schema.columns)}
        self._getters = {column: itemgetter(position[column]) for column in schema.columns}
        #: Row tuple -> its unique-key tuple (``itemgetter`` of one position
        #: returns the bare value, so a one-column key is wrapped).
        key = [position[column] for column in schema.unique_key]
        self._key_of: Callable[[Tuple], Tuple] = (
            itemgetter(*key) if len(key) > 1 else lambda values: tuple(values[i] for i in key)
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _duplicate_error(self, key: Tuple) -> StorageError:
        described = dict(zip(self.schema.unique_key, key))
        return StorageError(
            f"table {self.schema.name}: duplicate row for unique key {described}"
        )

    def insert(self, row: Tuple) -> int:
        """Insert one row tuple in column order; returns its row id."""
        self.insert_many([row])
        return len(self._rows) - 1

    def insert_many(self, rows: Iterable[Tuple]) -> int:
        """Insert many row tuples in column order; returns the number inserted.

        The batch is atomic: every row is validated (its shape and width, and
        its unique key against the table *and* the rest of the batch) before
        any row is inserted, so a bad row leaves the table unchanged.
        """
        schema = self.schema
        columns = schema.columns
        batch = list(rows)
        if not batch:
            return 0
        if set(map(type, batch)) != {tuple} or set(map(len, batch)) != {len(columns)}:
            raise StorageError(
                f"table {schema.name}: a row is a tuple of {len(columns)} values "
                f"in column order ({', '.join(columns)})"
            )
        keys: List[Tuple] = []
        if schema.unique_key:
            keys = list(map(self._key_of, batch))
            fresh = set(keys)
            if len(fresh) != len(keys) or not self._unique.isdisjoint(fresh):
                seen: set = set()
                for key in keys:
                    if key in self._unique or key in seen:
                        raise self._duplicate_error(key)
                    seen.add(key)

        first = len(self._rows)
        row_ids = list(range(first, first + len(batch)))
        self._rows.extend(batch)
        for column in schema.hash_indexes:
            index = self._hash[column]
            for row_id, value in zip(row_ids, map(self._getters[column], batch)):
                ids = index.get(value)
                if ids is None:
                    ids = index[value] = []
                ids.append(row_id)
        if schema.ordered_index is not None:
            self._ordered.extend(zip(map(self._getters[schema.ordered_index], batch), row_ids))
            self._ordered_dirty = True
        self._unique.update(keys)
        return len(batch)

    def clear(self) -> None:
        """Remove every row (indexes included)."""
        self._rows.clear()
        for index in self._hash.values():
            index.clear()
        self._ordered.clear()
        self._ordered_dirty = False
        self._unique.clear()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rows)

    def _getter(self, column: str) -> Callable[[Tuple], Any]:
        try:
            return self._getters[column]
        except KeyError:
            raise StorageError(f"table {self.schema.name}: no column {column!r}")

    def all_rows(self) -> List[Tuple]:
        """Every row, in insertion order."""
        return list(self._rows)

    def lookup(self, column: str, value: Any) -> List[Tuple]:
        """Equality lookup, using the hash index when one exists."""
        if column in self._hash:
            return [self._rows[i] for i in self._hash[column].get(value, [])]
        get = self._getter(column)
        return [row for row in self._rows if get(row) == value]

    def _sorted_index(self, purpose: str) -> List[Tuple[Any, int]]:
        """The ordered index, sorted (raises when the table has none)."""
        if self.schema.ordered_index is None:
            raise StorageError(
                f"table {self.schema.name}: has no ordered index for {purpose}"
            )
        if self._ordered_dirty:
            self._ordered.sort()
            self._ordered_dirty = False
        return self._ordered

    def range(self, low: Any, high: Any) -> List[Tuple]:
        """Rows whose ordered-index key lies in ``[low, high]``, in key order."""
        ordered = self._sorted_index("range queries")
        start = bisect.bisect_left(ordered, (low, -1))
        end = bisect.bisect_right(ordered, (high, len(self._rows)))
        return [self._rows[row_id] for _, row_id in ordered[start:end]]

    def ordered_bounds(self) -> Optional[Tuple[Any, Any]]:
        """``(min, max)`` of the ordered-index key, or ``None`` when empty."""
        ordered = self._sorted_index("bounds queries")
        if not ordered:
            return None
        return (ordered[0][0], ordered[-1][0])

    def iter_ordered(self) -> Iterator[Tuple]:
        """Every row, in ordered-index key order (single sorted pass)."""
        ordered = self._sorted_index("ordered iteration")
        return (self._rows[row_id] for _, row_id in ordered)

    def distinct(self, column: str) -> List[Any]:
        """Distinct values of *column* (sorted when possible)."""
        if column in self._hash:
            values = list(self._hash[column].keys())
        else:
            values = list(set(map(self._getter(column), self._rows)))
        try:
            return sorted(values)
        except TypeError:
            return values

    def count_by(self, column: str) -> Dict[Any, int]:
        """Number of rows per distinct value of *column*."""
        if column in self._hash:
            return {value: len(ids) for value, ids in self._hash[column].items()}
        counts: Dict[Any, int] = {}
        for value in map(self._getter(column), self._rows):
            counts[value] = counts.get(value, 0) + 1
        return counts


__all__ = ["TableSchema", "Table"]
