"""dsosd: one storage daemon holding object shards.

Each daemon stores a shard of every schema's objects together with the
schema's indices over *its* shard.  A shard keeps each attribute as one
column of the attribute's schema dtype (int64, float64, or object for
strings), so every object it stores must be an exact row
(:meth:`~repro.dsos.schema.Schema.row`): checked on insert, or vouched
for by a caller passing ``validate=False``.  Each value is held once,
there: an index is an order over the shard's columns
(:class:`~repro.dsos.index.SortedIndex`), built when a read needs it,
so storing an object does no index work.  Cluster-level queries fan
out to daemons and merge; the per-daemon work (rows scanned in index
order) is what the latency model charges.

Replicated clusters run daemons in **WAL mode**: every applied object
carries a cluster-assigned per-shard sequence number, is logged to a
checksummed :class:`~repro.dsos.journal.StoreWal` before it becomes
visible, and is tracked in an applied-set so peers can compute the
set difference for anti-entropy repair.  A crash (:meth:`fail`) wipes
all in-memory state — objects, indices, applied-set — but the WAL
bytes survive (host-side durable, minus an optional torn tail);
:meth:`recover` replays the longest clean WAL prefix and the cluster's
repair pass pulls whatever the tail lost from peer replicas.

Legacy daemons (WAL off) skip all of it: no sequence bookkeeping, no
log appends, byte-identical to the pre-replication store.
"""

from __future__ import annotations

from operator import eq, ge, gt, le, lt, ne

import numpy as np

from repro.dsos.index import SortedIndex
from repro.dsos.journal import StoreWal, WalRecovery
from repro.dsos.schema import Schema, SchemaError

__all__ = ["Dsosd", "StoreDownError"]

_OPS = {
    "==": eq,
    "!=": ne,
    "<": lt,
    "<=": le,
    ">": gt,
    ">=": ge,
}


class StoreDownError(RuntimeError):
    """An operation reached a crashed daemon (or a replica-less shard)."""


#: Rows a shard appends between two folds of every column's tail: no
#: tail ever holds more.
_FOLD_ROWS = 1024


class _Shard:
    """One schema's objects + indices on one daemon.

    An object is kept only as its values, one column per schema
    attribute: oid ``i`` is row ``i`` of every column, and no row dict
    is stored.  Each column's dtype is its attribute's
    (:attr:`~repro.dsos.schema.Attr.dtype`: int64, float64, or object
    for strings).  Values are appended to a Python tail per attribute
    (:meth:`add`, :meth:`add_many`), and a tail is folded into its
    column's stored array every :data:`_FOLD_ROWS` rows and whenever a
    read needs rows past the last fold (:meth:`column`).  Reads build
    row dicts from the columns (:meth:`rows`), in schema attribute
    order, equal by value to the objects inserted.

    Every stored object goes through :meth:`add` or :meth:`add_many`
    as a row the schema built (:meth:`~repro.dsos.schema.Schema.row`),
    which holds exactly the schema's attributes, each value of its
    attribute's exact type.  Storing a row does no index work: an
    index orders the rows stored since its last read when it is next
    read (:class:`~repro.dsos.index.SortedIndex`).
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.indices = {
            name: SortedIndex(name, attrs, self)
            for name, attrs in schema.indices.items()
        }
        #: ``name -> position`` of each attribute in a row.
        self._pos = {name: i for i, name in enumerate(schema.attrs)}
        #: Per attribute, in schema order: the values appended since
        #: the attribute's last fold.
        self._tails: list[list] = [[] for _ in schema.attrs]
        #: Per attribute, in schema order: the folded rows.
        self._cols = [np.empty(0, attr.dtype) for attr in schema.attrs.values()]
        self._n = 0
        #: Row count at which every tail is folded next.
        self._next_fold = _FOLD_ROWS

    def __len__(self) -> int:
        return self._n

    def add(self, row: tuple) -> int:
        """Append one schema row; returns its oid."""
        oid = self._n
        list(map(list.append, self._tails, row))
        self._n = oid + 1
        if self._n >= self._next_fold:
            self._fold_all()
        return oid

    def add_many(self, rows: list) -> None:
        """Append a batch of schema rows: one transpose of the batch,
        not a pass per row."""
        for tail, column in zip(self._tails, zip(*rows)):
            tail.extend(column)
        self._n += len(rows)
        if self._n >= self._next_fold:
            self._fold_all()

    def _fold_all(self) -> None:
        for i in range(len(self._tails)):
            self._fold(i)
        self._next_fold = self._n + _FOLD_ROWS

    def _fold(self, i: int) -> None:
        """Move attribute ``i``'s tail into its stored column: one
        conversion to the column's dtype and one concatenate."""
        tail = self._tails[i]
        if tail:
            self._tails[i] = []
            col = self._cols[i]
            new = np.fromiter(tail, col.dtype, count=len(tail))
            self._cols[i] = np.concatenate((col, new))

    def column(self, name: str) -> np.ndarray:
        """Attribute ``name``'s column over every row (``name`` must be
        a schema attribute, else KeyError), its tail folded first: the
        stored array itself, not a copy."""
        i = self._pos[name]
        self._fold(i)
        return self._cols[i]

    def values(self, name: str, oids) -> list:
        """Attribute ``name``'s values at ``oids``, as Python objects."""
        return self.column(name)[oids].tolist()

    def rows(self, oids) -> list[dict]:
        """The objects at ``oids``, built from the columns in schema
        attribute order."""
        names = tuple(self._pos)
        return [dict(zip(names, values)) for values in
                zip(*[self.values(name, oids) for name in names])]


class Dsosd:
    """One DSOS storage daemon."""

    def __init__(self, name: str, *, wal_enabled: bool = False):
        self.name = name
        self._shards: dict[str, _Shard] = {}
        #: Ingest accounting (objects currently applied; a crash resets
        #: it and recovery/repair re-earn it).
        self.objects_stored = 0
        self.alive = True
        #: Which replica group this daemon serves (set by the cluster).
        self.shard_id = 0
        self.wal_enabled = wal_enabled
        self.wal = StoreWal() if wal_enabled else None
        #: Sequence numbers applied on this daemon (WAL mode only).
        self.applied: set[int] = set()
        #: seq -> (schema_name, oid, trace_id); the repair-pull source.
        self._by_seq: dict[int, tuple] = {}
        # Resilience accounting.
        self.crashes = 0
        self.wal_replayed = 0
        self.wal_truncated_bytes = 0
        self.repair_pulled = 0

    def attach_schema(self, schema: Schema) -> None:
        if schema.name in self._shards:
            raise SchemaError(f"schema {schema.name!r} already attached to {self.name}")
        self._shards[schema.name] = _Shard(schema)

    def has_schema(self, schema_name: str) -> bool:
        return schema_name in self._shards

    def _shard(self, schema_name: str) -> _Shard:
        try:
            return self._shards[schema_name]
        except KeyError:
            raise SchemaError(
                f"daemon {self.name} has no schema {schema_name!r}"
            ) from None

    # -- ingest ---------------------------------------------------------------

    def insert(self, schema_name: str, obj: dict, *, validate: bool = True) -> None:
        """Store one object.  It must hold exactly the schema's
        attributes, each of its attribute's type (unchecked with
        ``validate=False``: the caller vouches for the types), else
        :class:`SchemaError` with nothing stored
        (:meth:`~repro.dsos.schema.Schema.row`)."""
        shard = self._shard(schema_name)
        shard.add(shard.schema.row(obj, validate=validate))
        self.objects_stored += 1

    def insert_many(self, schema_name: str, objs: list, *, validate: bool = True) -> None:
        """Batch insert, equivalent to sequential :meth:`insert` calls:
        a rejected object raises its error with exactly the objects
        before it stored."""
        schema = self._shard(schema_name).schema
        rows = schema.rows(objs, validate=validate)
        self.insert_rows(schema_name, rows)
        if len(rows) < len(objs):
            schema.row(objs[len(rows)], validate=validate)  # raises

    def insert_rows(self, schema_name: str, rows: list) -> None:
        """Store a batch of rows the schema built
        (:meth:`~repro.dsos.schema.Schema.rows`)."""
        if rows:
            self._shard(schema_name).add_many(rows)
            self.objects_stored += len(rows)

    def insert_seq(
        self,
        schema_name: str,
        seq: int,
        obj: dict,
        *,
        trace_id: str = "",
        validate: bool = True,
        frame: bytes | None = None,
        row: tuple | None = None,
    ) -> None:
        """Replicated apply: WAL first, then the in-memory shard.

        The object is checked against the schema before anything is
        logged, so the WAL holds only objects a replay can store.  The
        WAL append precedes visibility, so a crash between the two
        can only lose an object the log already holds — replay puts it
        back.  ``frame`` is the record's WAL bytes and ``row`` the
        object's schema row (:meth:`~repro.dsos.schema.Schema.row`)
        when the caller has already built them (one encoding and one
        check shared by every replica); without them both are built
        here.
        """
        if not self.alive:
            raise StoreDownError(f"daemon {self.name} is down")
        if self.wal is None:
            raise SchemaError(
                f"daemon {self.name} is not in WAL mode; use insert()"
            )
        shard = self._shard(schema_name)
        if row is None:
            row = shard.schema.row(obj, validate=validate)
            if validate:
                obj = dict(zip(shard.schema.attrs, row))
        if frame is None:
            self.wal.append(seq, schema_name, obj, trace_id)
        else:
            self.wal.append_frame(frame)
        oid = shard.add(row)
        self.applied.add(seq)
        self._by_seq[seq] = (schema_name, oid, trace_id)
        self.objects_stored += 1

    def count(self, schema_name: str) -> int:
        return len(self._shard(schema_name))

    # -- crash / recovery --------------------------------------------------------

    def fail(self, *, tear_tail: bool = False, tear_bytes: int = 7) -> None:
        """Crash: all in-memory state is gone; the WAL bytes survive.

        ``tear_tail`` models the crash landing mid-append — the last
        ``tear_bytes`` of the log never made it to disk, so recovery
        must truncate (not trust) the torn record.
        """
        self.alive = False
        self.crashes += 1
        self._shards = {
            name: _Shard(shard.schema) for name, shard in self._shards.items()
        }
        self.applied = set()
        self._by_seq = {}
        self.objects_stored = 0
        if tear_tail:
            if self.wal is None:
                raise SchemaError(f"daemon {self.name} has no WAL to tear")
            self.wal.tear_tail(tear_bytes)

    def recover(self) -> WalRecovery:
        """Restart: replay the longest clean WAL prefix, then live again.

        Replayed objects skip validation (they validated on first
        apply) and do not re-append to the WAL.  Whatever a torn or
        corrupt tail lost stays missing until the cluster's
        anti-entropy repair pulls it from peers.
        """
        if self.wal is None:
            raise SchemaError(f"daemon {self.name} has no WAL to recover from")
        recovery = self.wal.recover()
        for record in recovery.entries:
            shard = self._shard(record.schema)
            oid = shard.add(shard.schema.row(record.obj))
            self.applied.add(record.seq)
            self._by_seq[record.seq] = (record.schema, oid, record.trace_id)
            self.objects_stored += 1
        self.wal_replayed += len(recovery.entries)
        self.wal_truncated_bytes += recovery.truncated_bytes
        self.alive = True
        return recovery

    def records_for(self, seqs) -> list[tuple]:
        """Repair-pull source: ``(seq, schema, obj, trace_id)`` for every
        requested sequence number this daemon has applied, in request
        order, each object built from its shard's columns."""
        hits = [(seq, *self._by_seq[seq]) for seq in seqs
                if seq in self._by_seq]
        objs = {
            name: iter(self._shard(name).rows(
                [oid for _, s, oid, _ in hits if s == name]))
            for name in {name for _, name, _, _ in hits}
        }
        return [(seq, name, next(objs[name]), trace_id)
                for seq, name, _, trace_id in hits]

    def apply_repair(self, seq: int, schema_name: str, obj: dict,
                     trace_id: str = "") -> None:
        """Apply one object pulled from a peer replica (idempotent)."""
        if seq in self.applied:
            return
        self.insert_seq(schema_name, seq, obj, trace_id=trace_id, validate=False)
        self.repair_pulled += 1

    # -- observability ------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Per-daemon counters, qualified by daemon name and shard id —
        two daemons on one node must stay two series."""
        snap = {
            "daemon": self.name,
            "shard": self.shard_id,
            "alive": self.alive,
            "objects_stored": self.objects_stored,
            "crashes": self.crashes,
        }
        if self.wal is not None:
            snap.update(
                wal_records=self.wal.records_appended,
                wal_replayed=self.wal_replayed,
                wal_truncated_bytes=self.wal_truncated_bytes,
                repair_pulled=self.repair_pulled,
            )
        return snap

    # -- shard-local query -------------------------------------------------------

    def query_shard(
        self,
        schema_name: str,
        index_name: str,
        *,
        begin: tuple | None = None,
        end: tuple | None = None,
        prefix: tuple | None = None,
        filters: list[tuple] | None = None,
    ) -> tuple[np.ndarray, int]:
        """``(oids, scanned)``: the object ids (an ``intp`` array) of the
        matching objects, in key order, and the number of index entries
        scanned (pre-filter) for the cost model."""
        shard = self._shard(schema_name)
        if index_name not in shard.indices:
            raise SchemaError(
                f"schema {schema_name!r} has no index {index_name!r}"
            )
        index = shard.indices[index_name]
        if prefix is not None and (begin is not None or end is not None):
            raise ValueError("prefix is exclusive with begin/end")
        checks = self._compile_filters(shard.schema, filters or ())
        oids = index.scan(begin, end, prefix=prefix)
        scanned = len(oids)
        # Each filter runs on the rows the ones before it kept, as a
        # row-by-row scan that stops at a row's first failing filter.
        for attr, fn, value in checks:
            keep = [bool(fn(v, value)) for v in shard.values(attr, oids)]
            oids = oids[np.asarray(keep, dtype=bool)]
        return oids, scanned

    @staticmethod
    def _compile_filters(schema: Schema, filters) -> list[tuple]:
        """``(attr, op function, value)`` per filter, validated against
        the schema before any row is scanned, so a bad filter fails the
        same way on an empty shard as on a populated one."""
        checks = []
        for attr, op, value in filters:
            fn = _OPS.get(op)
            if fn is None:
                raise ValueError(f"unknown filter op {op!r} (use {sorted(_OPS)})")
            if attr not in schema.attrs:
                raise SchemaError(f"filter references unknown attribute {attr!r}")
            checks.append((attr, fn, value))
        return checks
