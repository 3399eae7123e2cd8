"""Cluster-level queries: parallel fan-out, index-ordered merge.

The DSOS client API "can perform parallel queries to all dsosd in a
DSOS cluster; the results ... are then returned in parallel and sorted
based on the index selected by the user".  :class:`Query` is a small
builder over that operation; :class:`QueryStats` carries the work
accounting (rows scanned per shard) and an analytic latency estimate —
the quantity the index-choice ablation compares.

Against a replicated cluster the fan-out is per *shard*, not per
daemon: each shard answers from its first live replica (primary
preferred), so a down replica per shard is tolerated transparently —
only a shard with *no* live replica fails the query.  ``.quorum()``
upgrades the read: every live replica of every shard is consulted and
lagging replicas are read-repaired (missing objects pulled from peers)
before the scan, so the rows reflect every surviving object even when
the primary restarted with a torn WAL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.dsos.daemon import MIXED

__all__ = ["Query", "QueryResult", "QueryStats"]

#: Cost-model constants (seconds); relative magnitudes are what matter.
_LOOKUP_COST_S = 120e-6
_SCAN_COST_PER_ROW_S = 0.9e-6
_MERGE_COST_PER_ROW_S = 0.25e-6
_FILTER_COST_PER_ROW_S = 0.15e-6


@dataclass
class QueryStats:
    """Work done answering one query."""

    shards_queried: int = 0
    rows_scanned_per_shard: list[int] = field(default_factory=list)
    rows_returned: int = 0
    filters_applied: int = 0
    #: Dead replicas the per-shard fan-out routed around.
    replicas_skipped: int = 0
    #: Objects pulled onto lagging replicas by a quorum read.
    read_repaired: int = 0

    @property
    def rows_scanned(self) -> int:
        return sum(self.rows_scanned_per_shard)

    @property
    def est_latency_s(self) -> float:
        """Analytic latency: shards work in parallel, merge is serial."""
        per_shard = [
            _LOOKUP_COST_S
            + n * (_SCAN_COST_PER_ROW_S + self.filters_applied * _FILTER_COST_PER_ROW_S)
            for n in self.rows_scanned_per_shard
        ] or [_LOOKUP_COST_S]
        return max(per_shard) + self.rows_returned * _MERGE_COST_PER_ROW_S


class QueryResult:
    """Rows (in index order) plus the work accounting.

    A result holds its shard selections and their merge order, not a
    row list: :attr:`rows` (the shards' own objects) is built when it
    is first read, and :meth:`frame` builds the same rows' DataFrame
    from the shards' typed columns without it.
    """

    def __init__(self, stats: QueryStats, parts: list, order=None,
                 takes=None):
        self.stats = stats
        #: ``(shard, oids)`` per non-empty shard selection, in stream
        #: order, the oids a list (the index scan's own).
        self.parts = parts
        #: Merge order: an ``intp`` array of positions into the
        #: concatenated selections (None: the concatenation itself, a
        #: lone stream cut to the limit).
        self.order = order
        #: The selections' oids as ``intp`` arrays, when the merge has
        #: built them (else :meth:`frame` builds them).
        self._takes = takes
        self._n = (
            sum(len(oids) for _, oids in parts) if order is None else len(order)
        )

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self.rows)

    @cached_property
    def rows(self) -> list[dict]:
        """The selected objects, in merge order."""
        objs = list(chain.from_iterable(
            map(shard.objects.__getitem__, oids) for shard, oids in self.parts
        ))
        if self.order is None:
            return objs
        return list(map(objs.__getitem__, self.order.tolist()))

    def _first_row(self) -> dict:
        """``rows[0]`` of a non-empty result, without the row list."""
        pos = 0 if self.order is None else int(self.order[0])
        for shard, oids in self.parts:
            if pos < len(oids):
                return shard.objects[oids[pos]]
            pos -= len(oids)

    def frame(self):
        """``DataFrame.from_records(self.rows)``, taken from columns on
        demand.

        The frame's columns follow the first row's key order and are
        built the first time they are read: each is each shard's typed
        column (:meth:`~repro.dsos.daemon._Shard.column`) taken at the
        selection's object ids, concatenated in stream order and put
        in merge order, so no row list is built, no row dict is
        transposed and no column a panel does not read is folded.  A
        column that is ``MIXED`` on some shard, or whose shards differ
        in kind, runs ``from_records``' own column rule on the rows.  A
        shard holding an object without exactly the schema's attributes
        (its ``keys_exact`` flag, kept at append) sends every row
        through ``from_records`` here, so a missing attribute raises at
        this call.  No rows raise ``DataFrameError``.
        """
        from repro.webservices.dataframe import (
            DataFrame,
            DataFrameError,
            _column,
        )

        if not self._n:
            raise DataFrameError("query returned no rows")
        shards = [shard for shard, _ in self.parts]
        if not all(shard.keys_exact for shard in shards):
            return DataFrame.from_records(self.rows)
        # Fold no further than the objects the flag covered just now.
        upto = [len(shard.objects) for shard in shards]
        takes = self._takes or [
            np.asarray(oids, dtype=np.intp) for _, oids in self.parts
        ]
        order = self.order

        def build(name):
            folded = [s.column(name, n) for s, n in zip(shards, upto)]
            kinds = {kind for kind, _ in folded}
            if len(kinds) > 1 or MIXED in kinds:
                return _column(list(map(itemgetter(name), self.rows)))
            pieces = [arr[take] for (_, arr), take in zip(folded, takes)]
            col = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            return col if order is None else col[order]

        return DataFrame._on_demand(self._first_row(), self._n, build)


def _lexsort_order(shards: list, takes: list, attrs: tuple):
    """The merge order of the concatenated selections (``takes[i]``
    the oids taken from ``shards[i]``) by one stable ``np.lexsort``
    over the index attributes' typed shard columns, or None when that
    order could differ from the key tuples' own.

    It cannot differ when every key column is ``INT`` or ``FLOAT`` on
    every part (:meth:`~repro.dsos.daemon._Shard.key_columns`), one
    kind per attribute across the parts, and no selected float is NaN:
    int64 and NaN-free float64 values compare as Python compares them
    (``-0.0 == 0.0``, ±inf at the ends).  Text, bools, ints beyond
    int64 and mixed columns are not ``INT`` or ``FLOAT``; an int64
    column beside a float64 one would compare as float64, which ties
    ints Python tells apart (``2**53 + 1`` and ``2.0**53``); and a NaN
    is not ordered at all (a stable tuple sort leaves it where its
    neighbours' compares put it, lexsort puts it last).  Each of those
    takes the tuple sort.  The kinds are the ones the shards' column
    folds already keep.
    """
    per_part = [shard.key_columns(attrs, take)
                for shard, take in zip(shards, takes)]
    if any(cols is None for cols in per_part):
        return None
    keys = []
    for cols in zip(*per_part):
        if len({col.dtype for col in cols}) > 1:
            return None
        col = np.concatenate(cols)
        if col.dtype.kind == "f" and np.isnan(col).any():
            return None
        keys.append(col)
    # lexsort's primary key is its last.
    return np.lexsort(keys[::-1])


def _merge_order(streams: list, takes: list, attrs: tuple) -> np.ndarray:
    """Positions into the concatenated selections, in key order.

    Both sorts are stable, so equal keys keep stream order (the
    earlier shard first), exactly as ``heapq.merge`` does.
    """
    order = _lexsort_order([s[0] for s in streams], takes, attrs)
    if order is not None:
        return order
    # Timsort finds each stream as a sorted run and merges the runs.
    tuples = list(chain.from_iterable(s[1] for s in streams))
    return np.asarray(sorted(range(len(tuples)), key=tuples.__getitem__),
                      dtype=np.intp)


class Query:
    """Builder: ``Query(cluster, schema, index).where(...).prefix(...)``."""

    def __init__(self, cluster, schema_name: str, index_name: str):
        self.cluster = cluster
        self.schema_name = schema_name
        self.index_name = index_name
        self._begin: tuple | None = None
        self._end: tuple | None = None
        self._prefix: tuple | None = None
        self._filters: list[tuple] = []
        self._limit: int | None = None
        self._quorum = False

    def range(self, begin: tuple | None, end: tuple | None) -> "Query":
        """Half-open key range ``[begin, end)`` on the index."""
        self._begin = tuple(begin) if begin is not None else None
        self._end = tuple(end) if end is not None else None
        return self

    def prefix(self, *prefix) -> "Query":
        """All keys starting with ``prefix`` (e.g. one job, one rank)."""
        self._prefix = tuple(prefix)
        return self

    def where(self, attr: str, op: str, value) -> "Query":
        """Post-scan attribute filter."""
        self._filters.append((attr, op, value))
        return self

    def limit(self, n: int) -> "Query":
        if n < 1:
            raise ValueError("limit must be >= 1")
        self._limit = n
        return self

    def quorum(self) -> "Query":
        """Quorum read: read-repair lagging replicas before answering
        (no-op on a legacy cluster)."""
        self._quorum = True
        return self

    def _scan_shard(self, daemon, stats: QueryStats) -> tuple:
        """``(shard, keys, oids)`` of one daemon's matching objects."""
        shard = daemon._shard(self.schema_name)
        keys, oids, scanned = daemon.query_shard(
            self.schema_name,
            self.index_name,
            begin=self._begin,
            end=self._end,
            prefix=self._prefix,
            filters=self._filters,
        )
        stats.shards_queried += 1
        stats.rows_scanned_per_shard.append(scanned)
        return shard, keys, oids

    def execute(self) -> QueryResult:
        """Fan out (per daemon, or per shard when replicated), merge
        shard streams in key order on the keys the indices hold."""
        stats = QueryStats(filters_applied=len(self._filters))
        shard_results = []
        if not getattr(self.cluster, "sharded", False):
            for daemon in self.cluster.daemons:
                shard_results.append(self._scan_shard(daemon, stats))
        else:
            from repro.dsos.daemon import StoreDownError

            if self._quorum:
                for shard, replicas in enumerate(self.cluster.replica_sets):
                    if self.cluster.shard_converged(shard):
                        continue
                    for replica in replicas:
                        if replica.alive:
                            stats.read_repaired += len(
                                self.cluster.repair_daemon(replica)
                            )
            for shard, replicas in enumerate(self.cluster.replica_sets):
                live = [r for r in replicas if r.alive]
                stats.replicas_skipped += len(replicas) - len(live)
                primary = live[0] if live else None
                if primary is None:
                    raise StoreDownError(
                        f"shard {shard} has no live replica "
                        f"({', '.join(r.name for r in replicas)} all down)"
                    )
                shard_results.append(self._scan_shard(primary, stats))
        streams = [s for s in shard_results if s[2]]
        if len(streams) < 2:
            # A lone stream is already in key order: nothing to merge.
            parts = [(shard, oids[: self._limit]) for shard, _, oids in streams]
            result = QueryResult(stats, parts)
        else:
            parts = [(shard, oids) for shard, _, oids in streams]
            takes = [np.asarray(oids, dtype=np.intp) for _, oids in parts]
            attrs = parts[0][0].indices[self.index_name].key_attrs
            order = _merge_order(streams, takes, attrs)[: self._limit]
            result = QueryResult(stats, parts, order, takes)
        stats.rows_returned = len(result)
        return result
