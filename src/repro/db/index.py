"""Secondary indexes: hash (equality) and sorted (range).

Both indexes answer one-at-a-time probes through the original iterator
API and batched probes through the ``*_rids`` bulk methods the vector
operators use. Bulk probes are backed by a lazily built sorted
``(key, rid)`` array pair answered with :func:`numpy.searchsorted`; they
charge the meter exactly what the equivalent sequence of single probes
would (one probe per requested value, one emit per matching row), so the
two paths are indistinguishable to the cost model.
"""

from __future__ import annotations

import bisect
from itertools import islice
from typing import Iterator

import numpy as np

from repro.db.costmodel import CostMeter
from repro.db.table import Table
from repro.errors import QueryError

__all__ = ["HashIndex", "SortedIndex"]


def _ragged_take(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` segments."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total)


class HashIndex:
    """An equality index mapping key values to row ids.

    Build cost is charged to the supplied meter at construction; lookups
    charge one probe plus the emitted matches. The index covers the rows
    present at construction time (append-only tables may grow past it),
    and the bulk path snapshots the same row range.
    """

    def __init__(
        self,
        table: Table,
        key: str,
        meter: CostMeter | None = None,
        *,
        covered: int | None = None,
    ) -> None:
        self.table = table
        self.key = key
        pos = table.schema.position(key)
        self._covered_rows = len(table) if covered is None else covered
        self._buckets: dict = {}
        for rid, row in enumerate(islice(table.rows(), self._covered_rows)):
            self._buckets.setdefault(row[pos], []).append(rid)
        self._sorted_keys: np.ndarray | None = None
        self._sorted_rids: np.ndarray | None = None
        if meter is not None:
            meter.charge_build(self._covered_rows, table.schema.row_width)

    def lookup(self, value, meter: CostMeter) -> Iterator[tuple]:
        """Yield rows whose key equals ``value``."""
        meter.charge_probe(1)
        for rid in self._buckets.get(value, ()):
            meter.emit()
            yield self.table.row(rid)

    def lookup_rids_many(self, values, meter: CostMeter) -> np.ndarray:
        """Row ids matching each of ``values``, concatenated in probe order.

        Within one probed value the rids come back ascending — the same
        order :meth:`lookup` yields them — and the meter is charged one
        probe per value plus one emit per matching row, identically to
        the iterator path.
        """
        values = np.asarray(values)
        meter.charge_probe(len(values))
        if len(values) == 0:
            meter.emit(0)
            return np.empty(0, dtype=np.int64)
        self._ensure_sorted()
        lo = np.searchsorted(self._sorted_keys, values, side="left")
        hi = np.searchsorted(self._sorted_keys, values, side="right")
        counts = hi - lo
        meter.emit(int(counts.sum()))
        return self._sorted_rids[_ragged_take(lo, counts)]

    def _ensure_sorted(self) -> None:
        if self._sorted_keys is None:
            keys = self.table.column_array(self.key)[: self._covered_rows]
            order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[order]
            self._sorted_rids = order.astype(np.int64, copy=False)

    def contains(self, value, meter: CostMeter) -> bool:
        """Membership probe without materializing rows."""
        meter.charge_probe(1)
        return value in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)


class SortedIndex:
    """A sorted (key, rid) list answering range queries via binary search."""

    def __init__(
        self,
        table: Table,
        key: str,
        meter: CostMeter | None = None,
        *,
        covered: int | None = None,
    ) -> None:
        self.table = table
        self.key = key
        pos = table.schema.position(key)
        self._covered_rows = len(table) if covered is None else covered
        pairs = sorted(
            (row[pos], rid)
            for rid, row in enumerate(islice(table.rows(), self._covered_rows))
        )
        self._keys = [k for k, _ in pairs]
        self._rids = [r for _, r in pairs]
        self._rids_arr = np.asarray(self._rids, dtype=np.int64)
        if meter is not None:
            meter.charge_build(self._covered_rows, table.schema.row_width)

    def _bounds(self, low, high) -> tuple[int, int]:
        if low is not None and high is not None and low > high:
            raise QueryError(f"empty range: low {low!r} > high {high!r}")
        lo = 0 if low is None else bisect.bisect_left(self._keys, low)
        hi = len(self._keys) if high is None else bisect.bisect_right(self._keys, high)
        return lo, hi

    def range(self, low, high, meter: CostMeter) -> Iterator[tuple]:
        """Yield rows with ``low <= key <= high`` in key order."""
        lo, hi = self._bounds(low, high)
        meter.charge_probe(1)
        for idx in range(lo, hi):
            meter.emit()
            yield self.table.row(self._rids[idx])

    def range_rids(self, low, high, meter: CostMeter) -> np.ndarray:
        """Row ids with ``low <= key <= high`` in key order, in one probe.

        The batched twin of :meth:`range`: identical row set and order,
        identical meter charges (one probe, one emit per matching row).
        """
        lo, hi = self._bounds(low, high)
        meter.charge_probe(1)
        meter.emit(hi - lo)
        return self._rids_arr[lo:hi]

    def min_key(self):
        """Smallest key, or None when empty."""
        return self._keys[0] if self._keys else None

    def max_key(self):
        """Largest key, or None when empty."""
        return self._keys[-1] if self._keys else None

    def __len__(self) -> int:
        return len(self._keys)
