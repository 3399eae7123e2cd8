"""dsosd: one storage daemon holding object shards.

Each daemon stores a shard of every schema's objects together with the
schema's indices over *its* shard.  Cluster-level queries fan out to
daemons and merge; the per-daemon work (rows scanned in index order) is
what the latency model charges.

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

from operator import eq, ge, gt, itemgetter, le, lt, ne

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


def _key_getter(attrs: tuple):
    """``obj -> key`` equal to :meth:`~repro.dsos.schema.Schema.key_for`
    for an index over ``attrs`` (an ``itemgetter`` over several attrs
    already yields the tuple; one attr needs the 1-tuple built)."""
    if len(attrs) == 1:
        a0 = attrs[0]
        return lambda obj: (obj[a0],)
    return itemgetter(*attrs)


class _Shard:
    """One schema's objects + indices on one daemon."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.objects: list[dict] = []
        self.indices = {
            name: SortedIndex(name, attrs)
            for name, attrs in schema.indices.items()
        }
        #: ``(index, key getter)`` per index, built once per shard.
        self._keyed = [
            (self.indices[name], _key_getter(attrs))
            for name, attrs in schema.indices.items()
        ]

    def add(self, obj: dict) -> int:
        oid = len(self.objects)
        self.objects.append(obj)
        for index, key_of in self._keyed:
            index.add(key_of(obj), oid)
        return oid

    def add_many(self, objs: list) -> None:
        """Append a batch: one index pass per index, not per object.

        The key getters guarantee each key's length, so the per-key
        check in ``SortedIndex.add`` is redundant here.
        """
        base = len(self.objects)
        self.objects.extend(objs)
        oids = range(base, base + len(objs))
        for index, key_of in self._keyed:
            index.extend_unchecked(list(zip(map(key_of, objs), oids)))


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
        #: seq -> (schema_name, obj, trace_id); the repair-pull source.
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
        shard = self._shard(schema_name)
        if validate:
            shard.schema.validate(obj)
        shard.add(obj)
        self.objects_stored += 1

    def insert_many(self, schema_name: str, objs: list, *, validate: bool = True) -> None:
        """Batch insert, equivalent to sequential :meth:`insert` calls
        (validation stays interleaved per object, so a mid-batch schema
        error leaves exactly the objects a sequential caller would)."""
        shard = self._shard(schema_name)
        if validate:
            for obj in objs:
                shard.schema.validate(obj)
                shard.add(obj)
                self.objects_stored += 1
        else:
            shard.add_many(objs)
            self.objects_stored += len(objs)

    def insert_seq(
        self,
        schema_name: str,
        seq: int,
        obj: dict,
        *,
        trace_id: str = "",
        validate: bool = True,
        frame: bytes | None = None,
    ) -> None:
        """Replicated apply: WAL first, then the in-memory shard.

        The WAL append precedes visibility, so a crash between the two
        can only lose an object the log already holds — replay puts it
        back.  ``frame`` is the record's WAL bytes when the caller has
        already encoded them (one encoding shared by every replica);
        without it the record is encoded here.
        """
        if not self.alive:
            raise StoreDownError(f"daemon {self.name} is down")
        if self.wal is None:
            raise SchemaError(
                f"daemon {self.name} is not in WAL mode; use insert()"
            )
        shard = self._shard(schema_name)
        if validate:
            shard.schema.validate(obj)
        if frame is None:
            self.wal.append(seq, schema_name, obj, trace_id)
        else:
            self.wal.append_frame(frame)
        shard.add(obj)
        self.applied.add(seq)
        self._by_seq[seq] = (schema_name, obj, trace_id)
        self.objects_stored += 1

    def count(self, schema_name: str) -> int:
        return len(self._shard(schema_name).objects)

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
            obj = record.obj
            shard.add(obj)
            self.applied.add(record.seq)
            self._by_seq[record.seq] = (record.schema, obj, record.trace_id)
            self.objects_stored += 1
        self.wal_replayed += len(recovery.entries)
        self.wal_truncated_bytes += recovery.truncated_bytes
        self.alive = True
        return recovery

    def records_for(self, seqs) -> list[tuple]:
        """Repair-pull source: ``(seq, schema, obj, trace_id)`` for every
        requested sequence number this daemon has applied."""
        out = []
        for seq in seqs:
            entry = self._by_seq.get(seq)
            if entry is not None:
                out.append((seq, *entry))
        return out

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
    ) -> tuple[list[tuple], int]:
        """Sorted (key, object) pairs matching the query, plus the number
        of index entries scanned (pre-filter) for the cost model."""
        shard = self._shard(schema_name)
        if index_name not in shard.indices:
            raise SchemaError(
                f"schema {schema_name!r} has no index {index_name!r}"
            )
        index = shard.indices[index_name]
        if prefix is not None and (begin is not None or end is not None):
            raise ValueError("prefix is exclusive with begin/end")
        checks = self._compile_filters(shard.schema, filters or ())
        keys, oids = index.scan(begin, end, prefix=prefix)
        objs = list(map(shard.objects.__getitem__, oids))
        if not checks:
            return list(zip(keys, objs)), len(oids)
        out = []
        for key, obj in zip(keys, objs):
            for attr, fn, value in checks:
                if not fn(obj[attr], value):
                    break
            else:
                out.append((key, obj))
        return out, len(oids)

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
