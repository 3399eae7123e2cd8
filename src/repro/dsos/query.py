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

import heapq
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

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


@dataclass
class QueryResult:
    """Rows (in index order) plus the work accounting."""

    rows: list[dict]
    stats: QueryStats

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


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

    def _scan_shard(self, daemon, stats: QueryStats) -> list[tuple]:
        pairs, scanned = daemon.query_shard(
            self.schema_name,
            self.index_name,
            begin=self._begin,
            end=self._end,
            prefix=self._prefix,
            filters=self._filters,
        )
        stats.shards_queried += 1
        stats.rows_scanned_per_shard.append(scanned)
        return pairs

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
                for replicas in self.cluster.replica_sets:
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
        if len(shard_results) == 1:
            # One stream is already in key order: nothing to merge.
            pairs = shard_results[0][: self._limit]
        else:
            # heapq.merge breaks key ties by stream order, so equal keys
            # still come from the earlier shard first.
            pairs = islice(
                heapq.merge(*shard_results, key=itemgetter(0)), self._limit
            )
        rows = list(map(itemgetter(1), pairs))
        stats.rows_returned = len(rows)
        return QueryResult(rows=rows, stats=stats)
