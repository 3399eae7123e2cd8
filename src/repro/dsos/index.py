"""Sorted indices with lazy batch materialization.

DSOS ingests at high rates and queries with sorted iterators.  We get
both properties by appending new keys to a pending buffer and merging
it into the sorted backbone on first query (timsort exploits the
presortedness of timestamp-ordered ingest, so this is near-linear).
Range lookups are binary searches returning positions, and the scan
count is surfaced for the index-choice ablation.
"""

from __future__ import annotations

import bisect
from operator import itemgetter

__all__ = ["SortedIndex"]

_KEY = itemgetter(0)
_OID = itemgetter(1)


class SortedIndex:
    """Maps sort keys (tuples) to object ids, in key order."""

    def __init__(self, name: str, key_attrs: tuple):
        self.name = name
        self.key_attrs = tuple(key_attrs)
        self._keys: list[tuple] = []
        self._oids: list[int] = []
        self._pending: list[tuple[tuple, int]] = []

    def __len__(self) -> int:
        return len(self._keys) + len(self._pending)

    def add(self, key: tuple, oid: int) -> None:
        """O(1) append; ordering is restored lazily."""
        if len(key) != len(self.key_attrs):
            raise ValueError(
                f"index {self.name!r} expects {len(self.key_attrs)}-part keys, "
                f"got {key!r}"
            )
        self._pending.append((key, oid))

    def extend_unchecked(self, pairs: list) -> None:
        """Bulk :meth:`add` of ``(key, oid)`` pairs whose key lengths the
        caller guarantees (batch ingest builds them from schema attrs)."""
        self._pending.extend(pairs)

    def _materialize(self) -> None:
        """Fold the pending run into the backbone: the result equals a
        stable sort of backbone + pending on the key.  Only the pending
        run is sorted; it is appended when it starts at or after the
        backbone's last key (the timestamp-ordered ingest case), else
        the two sorted runs are merged by one stable C sort."""
        pending = self._pending
        if not pending:
            return
        pending.sort(key=_KEY)
        if self._keys and pending[0][0] < self._keys[-1]:
            merged = list(zip(self._keys, self._oids))
            merged.extend(pending)
            merged.sort(key=_KEY)
            self._keys = list(map(_KEY, merged))
            self._oids = list(map(_OID, merged))
        else:
            self._keys.extend(map(_KEY, pending))
            self._oids.extend(map(_OID, pending))
        pending.clear()

    # -- range scans ----------------------------------------------------------

    def scan(
        self,
        begin: tuple | None = None,
        end: tuple | None = None,
        *,
        prefix: tuple | None = None,
    ) -> tuple[list, list]:
        """Parallel ``(keys, oids)`` slices, in key order: the keys
        starting with ``prefix`` if given, else ``begin <= key < end``.

        The keys are the index's own tuples, so a caller that needs each
        row's sort key reads it here instead of rebuilding it from the
        object.
        """
        if prefix is not None:
            prefix = tuple(prefix)
            if len(prefix) > len(self.key_attrs):
                raise ValueError(f"prefix longer than index key: {prefix!r}")
        self._materialize()
        keys = self._keys
        if prefix is not None:
            lo = bisect.bisect_left(keys, prefix)
            hi = bisect.bisect_right(keys, prefix + (_Infinity(),))
        else:
            lo = 0 if begin is None else bisect.bisect_left(keys, tuple(begin))
            hi = len(keys) if end is None else bisect.bisect_left(keys, tuple(end))
        return keys[lo:hi], self._oids[lo:hi]

    def range(self, begin: tuple | None = None, end: tuple | None = None):
        """Object ids with ``begin <= key < end``, in key order.

        ``begin``/``end`` may be key *prefixes* (shorter than the full
        key); prefix semantics follow tuple comparison: a begin prefix
        includes all completions, an end prefix excludes them (use
        :meth:`prefix_range` for inclusive prefix matching).
        """
        return self.scan(begin, end)[1]

    def prefix_range(self, prefix: tuple):
        """Object ids whose key starts with ``prefix``, in key order."""
        return self.scan(prefix=prefix)[1]

    def iter_sorted(self):
        """(key, oid) pairs in key order."""
        self._materialize()
        return zip(self._keys, self._oids)

    def min_key(self) -> tuple | None:
        self._materialize()
        return self._keys[0] if self._keys else None

    def max_key(self) -> tuple | None:
        self._materialize()
        return self._keys[-1] if self._keys else None


class _Infinity:
    """Compares greater than every concrete key component."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return 0
