"""Sorted indices: an order over a shard's typed columns.

DSOS ingests at high rates and queries with sorted iterators.  An index
keeps no keys of its own: its key parts are attributes of its shard,
whose typed columns (int64, float64, or object for strings) hold every
value once.  The index keeps the shard's object ids in key order, one
``intp`` permutation over the rows indexed so far, plus each key part's
column taken in that order.  Rows stored since the last read are
pending: the first read after them sorts them on the key and merges
them in (appended when they start at or after the last indexed key,
the timestamp-ordered ingest case), so ingest does no index work.
Range lookups are ``np.searchsorted`` per key part, the scan count is
surfaced for the index-choice ablation, and a scan's ids are a view of
the permutation.

One rule orders keys, here and in a query's multi-stream merge
(:func:`key_order`): a stable ``np.lexsort`` over the typed columns,
which equals the stable sort of the key tuples wherever the columns are
totally ordered (ints; floats, with ``-0.0 == 0.0`` and ±inf at the
ends; strs).  NaN is not ordered, so a NaN among the keys takes the
stable sort of the key tuples itself, and so does a scan bound with a
part numpy would convert before comparing (one not of its attribute's
exact type, or a NaN): there the bounds are Python's ``bisect`` over
the key tuples.
"""

from __future__ import annotations

import bisect
from functools import partial

import numpy as np

from repro.dsos.schema import TYPES

__all__ = ["SortedIndex", "key_order"]


def _has_nan(cols) -> bool:
    return any(c.dtype.kind == "f" and np.isnan(c).any() for c in cols)


def key_order(cols: list) -> np.ndarray:
    """Positions (an ``intp`` array) of the rows of ``cols``, one array
    per key part, in key order: the stable sort of the key tuples, so
    equal keys keep their row order."""
    if _has_nan(cols):
        keys = list(zip(*[c.tolist() for c in cols]))
        return np.asarray(sorted(range(len(keys)), key=keys.__getitem__),
                          dtype=np.intp)
    # lexsort's primary key is its last.
    return np.lexsort(cols[::-1])


def _key(cols: list, i: int) -> tuple:
    """Row ``i``'s key tuple, as Python values."""
    return tuple([c.item(i) for c in cols])


class SortedIndex:
    """A shard's object ids in the order of a joint key over its
    attributes."""

    def __init__(self, name: str, key_attrs: tuple, shard):
        self.name = name
        self.key_attrs = tuple(key_attrs)
        self._shard = shard
        attrs = [shard.schema.attrs[a] for a in self.key_attrs]
        #: Object ids of the rows indexed so far, in key order.  A fold
        #: builds a new array, so a scan's view never changes.
        self._oids = np.empty(0, dtype=np.intp)
        #: Per key part: its shard column taken at ``_oids``.
        self._cols = [np.empty(0, attr.dtype) for attr in attrs]
        #: Per key part: the type a bound part must have for
        #: ``np.searchsorted`` to compare it as Python does.
        self._types = [TYPES[attr.type][0] for attr in attrs]
        self._nan = False

    def __len__(self) -> int:
        return len(self._shard)

    def _materialize(self) -> None:
        """Index the shard's pending rows: the result equals a stable
        sort on the key of the indexed rows, in index order, followed by
        the pending ones, in oid order.  Only the pending run is sorted;
        it is appended when it starts at or after the last indexed key,
        else the two sorted runs are merged by one more stable sort."""
        m = len(self._oids)
        if len(self._shard) == m:
            return
        new = [self._shard.column(a)[m:] for a in self.key_attrs]
        order = key_order(new)
        new = [c[order] for c in new]
        oids = np.concatenate((self._oids, order + m))
        cols = [np.concatenate(pair) for pair in zip(self._cols, new)]
        if m and _key(new, 0) < _key(self._cols, m - 1):
            order = key_order(cols)
            oids = oids[order]
            cols = [c[order] for c in cols]
        self._oids, self._cols = oids, cols
        self._nan = self._nan or _has_nan(new)

    def _search(self, bound: tuple) -> tuple[int, int]:
        """``(bisect_left, bisect_right)`` of ``bound`` among the index
        keys, each key cut to ``len(bound)`` parts (a shorter bound is a
        prefix).  Python's ``bisect`` over the key tuples when numpy
        could answer differently; else one narrowing
        ``np.searchsorted`` per key part."""
        cols = self._cols[: len(bound)]
        n = len(self._oids)
        if self._nan or len(bound) > len(cols) or not all(
            type(v) is t and v == v for t, v in zip(self._types, bound)
        ):
            key = partial(_key, cols)
            return (bisect.bisect_left(range(n), bound, key=key),
                    bisect.bisect_right(range(n), bound, key=key))
        lo, hi = 0, n
        for col, v in zip(cols, bound):
            part = col[lo:hi]
            lo, hi = (lo + int(part.searchsorted(v, "left")),
                      lo + int(part.searchsorted(v, "right")))
        return lo, hi

    # -- range scans ----------------------------------------------------------

    def scan(
        self,
        begin: tuple | None = None,
        end: tuple | None = None,
        *,
        prefix: tuple | None = None,
    ) -> np.ndarray:
        """Object ids in key order (an ``intp`` view of the index's):
        the keys starting with ``prefix`` if given, else
        ``begin <= key < end``.

        ``begin``/``end`` may be key *prefixes* (shorter than the full
        key); prefix semantics follow tuple comparison: a begin prefix
        includes all completions, an end prefix excludes them.
        """
        if prefix is not None:
            prefix = tuple(prefix)
            if len(prefix) > len(self.key_attrs):
                raise ValueError(f"prefix longer than index key: {prefix!r}")
        self._materialize()
        if prefix is not None:
            lo, hi = self._search(prefix)
        else:
            lo = 0 if begin is None else self._search(tuple(begin))[0]
            hi = len(self._oids) if end is None else self._search(tuple(end))[0]
        return self._oids[lo:hi]

    def range(self, begin: tuple | None = None, end: tuple | None = None):
        """Object ids with ``begin <= key < end``, in key order (an
        ``intp`` array; :meth:`scan`)."""
        return self.scan(begin, end)

    def prefix_range(self, prefix: tuple):
        """Object ids whose key starts with ``prefix``, in key order (an
        ``intp`` array)."""
        return self.scan(prefix=prefix)
