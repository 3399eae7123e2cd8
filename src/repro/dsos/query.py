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

Results are read from the shards' columns, each of its attribute's
schema dtype on every shard: a frame takes them at the selected object
ids, and a multi-stream merge orders the selections' key columns by
the rule that orders every index
(:func:`~repro.dsos.index.key_order`: one stable ``np.lexsort``, or
the stable sort of the key tuples when a selected float is NaN).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq

import numpy as np

from repro.dsos.index import key_order

__all__ = ["Query", "QueryResult", "QueryStats", "Rows"]

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


class Rows(Sequence):
    """A query result's rows, in merge order: a read-only sequence
    whose dicts are built from the shards' columns when read.

    ``len()`` builds nothing.  Indexing, slicing and iteration build
    each row afresh, in schema attribute order, equal by value to the
    object inserted; a slice is a list.  Rows compare equal by value to
    a list of dicts or to other rows.
    """

    __slots__ = ("_result",)

    def __init__(self, result: "QueryResult"):
        self._result = result

    def __len__(self) -> int:
        return len(self._result)

    def __getitem__(self, i):
        n = len(self._result)
        if isinstance(i, slice):
            return self._result._rows_at(np.arange(*i.indices(n)))
        if not -n <= i < n:
            raise IndexError("query row index out of range")
        return self._result._rows_at(np.array([i % n]))[0]

    def __iter__(self):
        n = len(self._result)
        for start in range(0, n, _ROW_BLOCK):
            yield from self[start:start + _ROW_BLOCK]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rows, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


#: Rows one step of a :class:`Rows` iteration builds.
_ROW_BLOCK = 1024


class QueryResult:
    """Rows (in index order) plus the work accounting.

    A result holds its shard selections and their merge order, not
    rows: :attr:`rows` builds row dicts from the shards' columns when
    read, and :meth:`frame` takes the same rows' DataFrame straight from
    the typed columns.
    """

    def __init__(self, stats: QueryStats, parts: list, order=None):
        self.stats = stats
        #: ``(shard, oids)`` per non-empty shard selection, in stream
        #: order, the oids an ``intp`` array (a view of the index's).
        self.parts = parts
        #: Merge order: an ``intp`` array of positions into the
        #: concatenated selections (None: a lone stream, cut to the
        #: limit).
        self.order = order
        self._n = (
            sum(len(oids) for _, oids in parts) if order is None else len(order)
        )

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self.rows)

    @property
    def rows(self) -> Rows:
        """The selected objects, in merge order (:class:`Rows`)."""
        return Rows(self)

    def _rows_at(self, positions: np.ndarray) -> list[dict]:
        """The rows at result ``positions``, built from the columns."""
        if self.order is not None:
            positions = self.order[positions]
        if len(self.parts) == 1:
            shard, oids = self.parts[0]
            return shard.rows(oids[positions])
        out = [None] * len(positions)
        start = 0
        for shard, oids in self.parts:
            stop = start + len(oids)
            mine = np.flatnonzero((positions >= start) & (positions < stop))
            rows = shard.rows(oids[positions[mine] - start])
            for i, row in zip(mine.tolist(), rows):
                out[i] = row
            start = stop
        return out

    def frame(self):
        """``DataFrame.from_records(self.rows)``, taken from columns on
        demand.

        The frame's columns are the schema's attributes, in order, and
        are built the first time they are read: each is each shard's
        typed column (:meth:`~repro.dsos.daemon._Shard.column`, of the
        attribute's dtype) taken at the selection's object ids,
        concatenated in stream order and put in merge order, so no row
        dict is built and no column a panel does not read is folded.
        No rows raise ``DataFrameError``.
        """
        from repro.webservices.dataframe import DataFrame, DataFrameError

        if not self._n:
            raise DataFrameError("query returned no rows")
        parts = self.parts
        order = self.order

        def build(name):
            pieces = [shard.column(name)[take] for shard, take in parts]
            col = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            return col if order is None else col[order]

        return DataFrame._on_demand(parts[0][0].schema.attrs, self._n, build)


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
        """``(shard, oids)`` of one daemon's matching objects."""
        shard = daemon._shard(self.schema_name)
        oids, scanned = daemon.query_shard(
            self.schema_name,
            self.index_name,
            begin=self._begin,
            end=self._end,
            prefix=self._prefix,
            filters=self._filters,
        )
        stats.shards_queried += 1
        stats.rows_scanned_per_shard.append(scanned)
        return shard, oids

    def execute(self) -> QueryResult:
        """Fan out (per daemon, or per shard when replicated), merge
        shard streams in key order (:func:`~repro.dsos.index.key_order`
        over their key columns; it is stable, so equal keys keep stream
        order, the earlier shard first, exactly as ``heapq.merge``
        does)."""
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
        parts = [s for s in shard_results if len(s[1])]
        if len(parts) < 2:
            # A lone stream is already in key order: nothing to merge.
            parts = [(shard, oids[: self._limit]) for shard, oids in parts]
            result = QueryResult(stats, parts)
        else:
            attrs = parts[0][0].indices[self.index_name].key_attrs
            order = key_order([
                np.concatenate([shard.column(a)[oids] for shard, oids in parts])
                for a in attrs
            ])[: self._limit]
            result = QueryResult(stats, parts, order)
        stats.rows_returned = len(result)
        return result
