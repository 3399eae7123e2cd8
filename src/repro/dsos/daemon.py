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


def _key_getter(attrs: tuple):
    """``obj -> tuple`` of its values of ``attrs``: for an index over
    ``attrs``, the key :meth:`~repro.dsos.schema.Schema.key_for` gives
    (an ``itemgetter`` over several attrs already yields the tuple; one
    attr needs the 1-tuple built)."""
    if len(attrs) == 1:
        a0 = attrs[0]
        return lambda obj: (obj[a0],)
    return itemgetter(*attrs)


#: Kinds of a folded shard column (see :meth:`_Shard.column`).
INT, FLOAT, TEXT, MIXED = "int", "float", "text", "mixed"

#: Cell types a ``TEXT`` column may hold: no number, and nothing numpy
#: would descend into when building an object array (a tuple would).
_TEXT_TYPES = frozenset({str, type(None)})


def _chunk_column(values: list) -> tuple:
    """``(kind, array)`` for one fold's cells of a column, by
    ``DataFrame.from_records``'s rule on their type set: ``INT`` when
    every cell is an ``int`` and int64 holds them all, ``FLOAT`` when
    every cell is a ``float``, ``TEXT`` when every cell is a str or
    None, else ``MIXED`` with no array."""
    types = set(map(type, values))
    if types == {int}:
        try:
            return INT, np.asarray(values, dtype=int)
        except OverflowError:
            return MIXED, None
    if types == {float}:
        return FLOAT, np.asarray(values, dtype=float)
    if types <= _TEXT_TYPES:
        return TEXT, np.asarray(values, dtype=object)
    return MIXED, None


class _Shard:
    """One schema's objects + indices on one daemon, plus every
    attribute's cells, captured as objects are appended, from which a
    frame's typed columns are folded (lazily, one attribute at a time,
    see :meth:`column`).

    Every stored object goes through :meth:`add` or :meth:`add_many`,
    which take its index keys and its cells at once, so objects, cells
    and index keys stay in step.  The contract this relies on: a stored
    object is never mutated after it is appended (a change would reach
    neither its index keys nor its cells).
    """

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
        #: ``obj -> tuple`` of its value of every attribute, in order.
        self._row_of = _key_getter(tuple(schema.attrs))
        #: ``name -> list``: ``cells[name][oid]`` is ``objects[oid]``'s
        #: value of attribute ``name`` (None where the object lacks it).
        self.cells: dict[str, list] = {name: [] for name in schema.attrs}
        #: True while every object holds exactly the schema's
        #: attributes (only an unvalidated insert can store one that
        #: does not; once False, stays False).
        self.keys_exact = True
        #: ``name -> (kind, array, folded)``: the column over
        #: ``cells[name][:folded]``, each attribute with its own
        #: watermark.
        self._columns: dict = {}

    def _inexact_row(self, obj: dict) -> tuple:
        """The cells of an object lacking some attribute."""
        self.keys_exact = False
        return tuple(map(obj.get, self.cells))

    def add(self, obj: dict) -> int:
        """Append one object.  An object lacking an indexed attribute
        raises ``KeyError`` with nothing stored."""
        try:
            row = self._row_of(obj)
        except KeyError:
            # A missing indexed attribute raises here, before anything
            # is stored.
            for _, key_of in self._keyed:
                key_of(obj)
            row = self._inexact_row(obj)
        else:
            # Every attribute is present, so any other key is extra.
            if len(obj) != len(row):
                self.keys_exact = False
        oid = len(self.objects)
        self.objects.append(obj)
        list(map(list.append, self.cells.values(), row))
        for index, key_of in self._keyed:
            index.add(key_of(obj), oid)
        return oid

    def add_many(self, objs: list) -> None:
        """Append a batch: one index pass per index and one transpose
        of the batch's cells, not a pass per object.

        A batch holding an object that lacks some attribute is appended
        object by object with :meth:`add`, which stores exactly the
        prefix sequential adds would when an indexed one is missing.
        The key getters guarantee each key's length, so the per-key
        check in ``SortedIndex.add`` is redundant here.
        """
        try:
            rows = list(map(self._row_of, objs))
        except KeyError:
            for obj in objs:
                self.add(obj)
            return
        width = len(self.cells)
        if max(map(len, objs), default=width) != width:
            self.keys_exact = False
        base = len(self.objects)
        self.objects.extend(objs)
        for cells, column in zip(self.cells.values(), zip(*rows)):
            cells.extend(column)
        oids = range(base, base + len(objs))
        for index, key_of in self._keyed:
            index.extend_unchecked(list(zip(map(key_of, objs), oids)))

    def key_columns(self, attrs: tuple, take) -> list | None:
        """Each attribute's typed column (folded over every object)
        taken at the oids ``take``, or None unless every one is
        ``INT`` or ``FLOAT``: the columns a multi-stream merge can
        ``np.lexsort`` (see :mod:`repro.dsos.query`)."""
        upto = len(self.objects)
        out = []
        for attr in attrs:
            kind, arr = self.column(attr, upto)
            if kind != INT and kind != FLOAT:
                return None
            out.append(arr[take])
        return out

    def column(self, name: str, upto: int) -> tuple:
        """``(kind, array)`` of attribute ``name`` over at least
        ``objects[:upto]`` (``name`` must be a schema attribute, else
        KeyError).

        Cells are append-only, so only those past the attribute's own
        watermark are folded: they are typed by :func:`_chunk_column`
        and appended; a fold whose kind differs from the column's makes
        the column ``MIXED`` (no array) for good.  Each kind rule is a
        test on a type set that holds for a union exactly when it holds
        for every part (int64 range included), so the kind is the one
        ``from_records`` would find on all the cells however the folds
        were cut.  A selection's type set is a subset of it, so
        ``array[oids]`` of an ``INT``, ``FLOAT`` or ``TEXT`` column is
        exactly what ``from_records`` builds from those objects while
        :attr:`keys_exact` holds.
        """
        kind, arr, folded = self._columns.get(name, (None, None, 0))
        if folded >= upto:
            return kind, arr
        new_kind, new_arr = _chunk_column(self.cells[name][folded:upto])
        if kind is None:
            kind, arr = new_kind, new_arr
        elif kind != new_kind or kind == MIXED:
            kind, arr = MIXED, None
        else:
            arr = np.concatenate((arr, new_arr))
        self._columns[name] = kind, arr, upto
        return kind, arr


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
            before = len(shard.objects)
            try:
                shard.add_many(objs)
            finally:
                # A batch stopped by a missing indexed attribute stored
                # the objects before it.
                self.objects_stored += len(shard.objects) - before

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
    ) -> tuple[list, list, int]:
        """``(keys, oids, scanned)``: the index keys and object ids of
        the matching objects, in key order, plus the number of index
        entries scanned (pre-filter) for the cost model."""
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
        scanned = len(oids)
        if not checks:
            return keys, oids, scanned
        objects = shard.objects
        kept_keys, kept_oids = [], []
        for key, oid in zip(keys, oids):
            obj = objects[oid]
            for attr, fn, value in checks:
                if not fn(obj[attr], value):
                    break
            else:
                kept_keys.append(key)
                kept_oids.append(oid)
        return kept_keys, kept_oids, scanned

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
