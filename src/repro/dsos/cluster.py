"""A DSOS cluster: several dsosd daemons behind one ingest/query façade.

Two wiring modes share this façade:

**Legacy** (``shards=1, replication=1``, the default): a flat bag of
daemons; ingest round-robins objects across them and queries fan out to
all.  This path is byte-identical to the pre-replication store — same
placement, same counters, same query results.

**Replicated** (``shards > 1`` or ``replication > 1``): ``shards × R``
daemons arranged as one replica set per shard.  Objects route to a
shard by job-hash (CRC-32 of the shard-key attribute), each write gets
a cluster-assigned per-shard sequence number — the object's identity
for anti-entropy — and lands on every live replica; the write is
*stored* once ``W`` replicas ack (``write_quorum``, majority by
default), *degraded* when ``0 < acks < W``, and *rejected* only when no
replica in the shard is alive.  Daemons run in WAL mode so a crash can
replay its log on restart, and the cluster-side repair pass pulls
whatever a torn tail lost from peer replicas.

The replica invariant the census tracks: after repair converges, every
surviving object has ``copies(obj) ≥ min(R, live_replicas)``.  Copy
counts are maintained incrementally (per-shard histogram updated on
write/crash/recover/repair), so the census is O(shards), not
O(objects) — cheap enough for the diagnosis engine to sample every
tick.  Crash, recovery, and repair must go through the cluster methods
(:meth:`crash_daemon` / :meth:`recover_daemon` / :meth:`repair_daemon`)
so this accounting stays exact.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass

from repro.dsos.daemon import Dsosd, StoreDownError
from repro.dsos.journal import WalRecord, WalRecovery
from repro.dsos.query import Query
from repro.dsos.schema import Schema, SchemaError

__all__ = ["DsosCluster", "IngestAck", "STORE_METRICS", "StoreCensus"]

#: Every store metric family the OpenMetrics exporter emits from a
#: replicated cluster's :meth:`DsosCluster.stats_snapshot`, as ``(name,
#: unit, description)`` — the signal catalog registers these rows, so a
#: family added here without a catalog entry fails ``repro fleet
#: --export --check``.  Per-daemon families carry ``{cluster, daemon,
#: shard}`` labels; cluster-level families carry ``{cluster}`` only.
STORE_METRICS = (
    ("store_objects", "objects",
     "objects applied on one dsosd replica"),
    ("store_crashes_total", "crashes",
     "times one dsosd replica crashed (cumulative)"),
    ("store_wal_records_total", "records",
     "WAL records durably appended on one replica (cumulative)"),
    ("store_wal_replayed_total", "records",
     "WAL records replayed across restarts on one replica (cumulative)"),
    ("store_wal_truncated_bytes_total", "bytes",
     "torn-tail bytes truncated at WAL recovery (cumulative)"),
    ("store_repair_pulled_total", "objects",
     "objects pulled from peers by anti-entropy repair (cumulative)"),
    ("store_writes_total", "writes",
     "replicated writes the cluster accepted (cumulative)"),
    ("store_quorum_degraded_total", "writes",
     "writes acked below the write quorum (cumulative)"),
    ("store_rejected_writes_total", "writes",
     "writes rejected with no live replica in the shard (cumulative)"),
)


@dataclass(frozen=True)
class IngestAck:
    """Outcome of one replicated write."""

    shard: int
    #: Per-shard sequence number; ``None`` when the write was rejected
    #: (no live replica — no identity was allocated).
    seq: int | None
    acks: int
    replication: int
    write_quorum: int

    @property
    def accepted(self) -> bool:
        """At least one replica holds the object (it is not lost)."""
        return self.acks > 0

    @property
    def quorum_met(self) -> bool:
        return self.acks >= self.write_quorum


@dataclass(frozen=True)
class StoreCensus:
    """Replica accounting over every object the cluster ever accepted."""

    objects: int
    #: Objects with zero live copies anywhere (unrecoverable unless a
    #: holder restarts and replays them from its WAL).
    lost: int
    #: Objects with at least one copy but fewer than
    #: ``min(R, live_replicas)`` — repair owes them copies.
    under_replicated: int
    replicas_down: int
    #: Shards currently missing copies or replicas.
    degraded_shards: tuple

    @property
    def complete(self) -> bool:
        return self.lost == 0 and self.under_replicated == 0


class DsosCluster:
    """N daemons; ingest round-robins, queries fan out to all."""

    def __init__(
        self,
        name: str,
        n_daemons: int = 4,
        *,
        shards: int = 1,
        replication: int = 1,
        write_quorum: int | None = None,
        repair: bool = True,
    ):
        if shards < 1 or replication < 1:
            raise ValueError("shards and replication must be >= 1")
        self.name = name
        self.shards = shards
        self.replication = replication
        self.sharded = shards > 1 or replication > 1
        self.repair_enabled = repair
        if write_quorum is None:
            write_quorum = replication // 2 + 1
        if not 1 <= write_quorum <= replication:
            raise ValueError(
                f"write_quorum {write_quorum} outside [1, {replication}]"
            )
        self.write_quorum = write_quorum
        if self.sharded:
            # Topology is shards × R; the flat n_daemons knob does not
            # apply (each shard owns exactly its replica set).
            n_daemons = shards * replication
            self.daemons = [
                Dsosd(f"{name}-dsosd{i}", wal_enabled=True)
                for i in range(n_daemons)
            ]
            self.replica_sets: list[list[Dsosd]] = []
            for s in range(shards):
                replicas = self.daemons[s * replication:(s + 1) * replication]
                for d in replicas:
                    d.shard_id = s
                self.replica_sets.append(replicas)
            #: Next sequence number per shard (allocated on accept).
            self._next_seq = [0] * shards
            #: seq -> schema name, per shard (for per-schema counts).
            self._seq_schema: list[list[str]] = [[] for _ in range(shards)]
            #: seq -> live-copy count, per shard; plus the histogram
            #: {copies: n_objects} the census reads.
            self._copies: list[dict] = [{} for _ in range(shards)]
            self._copy_hist: list[Counter] = [Counter() for _ in range(shards)]
            # Ingest accounting.
            self.writes = 0
            self.quorum_degraded_writes = 0
            self.rejected_writes = 0
            self._shard_attr: dict[str, str] = {}
        else:
            if n_daemons < 1:
                raise ValueError("need at least one dsosd")
            self.daemons = [Dsosd(f"{name}-dsosd{i}") for i in range(n_daemons)]
        self.schemas: dict[str, Schema] = {}
        self._rr = 0

    def attach_schema(self, schema: Schema) -> None:
        """Register a schema on every daemon."""
        if schema.name in self.schemas:
            raise SchemaError(f"schema {schema.name!r} already attached")
        self.schemas[schema.name] = schema
        for d in self.daemons:
            d.attach_schema(schema)
        if self.sharded:
            self._shard_attr[schema.name] = self._pick_shard_attr(schema)

    @staticmethod
    def _pick_shard_attr(schema: Schema) -> str:
        """Shard key: job hash when the schema has one (the paper's unit
        of query locality), else the leading attr of its first index."""
        if "job_id" in schema.attrs:
            return "job_id"
        for key_attrs in schema.indices.values():
            return key_attrs[0]
        return next(iter(schema.attrs))

    def schema(self, name: str) -> Schema:
        try:
            return self.schemas[name]
        except KeyError:
            raise SchemaError(f"cluster has no schema {name!r}") from None

    # -- ingest -----------------------------------------------------------

    def shard_of(self, schema_name: str, obj: dict) -> int:
        """Job-hash routing: which shard owns this object."""
        if self.shards == 1:
            return 0
        key = obj[self._shard_attr[schema_name]]
        return zlib.crc32(str(key).encode("utf-8")) % self.shards

    def insert(self, schema_name: str, obj: dict, *, validate: bool = True) -> None:
        """Store one object on the next daemon (round-robin)."""
        if self.sharded:
            self.insert_replicated(schema_name, obj, validate=validate)
            return
        self.schema(schema_name)  # existence check with good error
        daemon = self.daemons[self._rr]
        self._rr = (self._rr + 1) % len(self.daemons)
        daemon.insert(schema_name, obj, validate=validate)

    def insert_many(self, schema_name: str, objs, *, validate: bool = True) -> int:
        """Store a batch, equivalent to sequential :meth:`insert` calls.

        Round-robin equivalence: daemon ``i`` receives the slice
        ``rows[(i - rr) % nd :: nd]`` (in order) of the batch's accepted
        prefix, which is exactly the objects sequential inserts would
        have handed it, and the cursor advances as theirs does — so
        batched and per-object ingest place every object identically.
        An object the schema rejects (:meth:`Schema.rows
        <repro.dsos.schema.Schema.rows>`) is then inserted alone, which
        raises its error with the objects before it stored.
        """
        objs = objs if isinstance(objs, list) else list(objs)
        if self.sharded:
            for obj in objs:
                self.insert_replicated(schema_name, obj, validate=validate)
            return len(objs)
        rows = self.schema(schema_name).rows(objs, validate=validate)
        daemons = self.daemons
        nd = len(daemons)
        rr = self._rr
        for i, daemon in enumerate(daemons):
            daemon.insert_rows(schema_name, rows[(i - rr) % nd :: nd])
        self._rr = (rr + len(rows)) % nd
        if len(rows) < len(objs):
            self.insert(schema_name, objs[len(rows)], validate=validate)
        return len(objs)

    def insert_replicated(
        self,
        schema_name: str,
        obj: dict,
        *,
        trace_id: str = "",
        validate: bool = True,
    ) -> IngestAck:
        """Quorum write: land the object on every live replica of its
        shard and report how many acked.

        A write is *stored* once ``write_quorum`` replicas ack; with
        fewer (but nonzero) acks it is stored-degraded (repair owes the
        missing copies); with zero live replicas it is rejected and no
        sequence number is consumed — the caller accounts the drop.
        """
        if not self.sharded:
            raise SchemaError("insert_replicated requires a sharded cluster")
        # Rejected before a sequence number or a WAL record exists.
        schema = self.schema(schema_name)
        row = schema.row(obj, validate=validate)
        if validate:
            # Logged as stored: an int under a float attribute as a float.
            obj = dict(zip(schema.attrs, row))
        shard = self.shard_of(schema_name, obj)
        replicas = self.replica_sets[shard]
        live = [r for r in replicas if r.alive]
        self.writes += 1
        if not live:
            self.rejected_writes += 1
            return IngestAck(shard, None, 0, self.replication, self.write_quorum)
        seq = self._next_seq[shard]
        self._next_seq[shard] = seq + 1
        self._seq_schema[shard].append(schema_name)
        # Encode the WAL record once; every live replica appends it.
        frame = WalRecord.make(seq, schema_name, obj, trace_id).encode()
        for replica in live:
            replica.insert_seq(
                schema_name, seq, obj, trace_id=trace_id, frame=frame, row=row,
            )
        acks = len(live)
        self._copies[shard][seq] = acks
        self._copy_hist[shard][acks] += 1
        ack = IngestAck(shard, seq, acks, self.replication, self.write_quorum)
        if not ack.quorum_met:
            self.quorum_degraded_writes += 1
        return ack

    def count(self, schema_name: str) -> int:
        """Stored objects: distinct (replicated mode) or total (legacy,
        where every object has exactly one copy)."""
        if self.sharded:
            return self.count_distinct(schema_name)
        return sum(d.count(schema_name) for d in self.daemons)

    def count_distinct(self, schema_name: str) -> int:
        """Distinct surviving objects of one schema across all shards."""
        if not self.sharded:
            return self.count(schema_name)
        self.schema(schema_name)
        total = 0
        for shard in range(self.shards):
            copies = self._copies[shard]
            names = self._seq_schema[shard]
            total += sum(
                1
                for seq, n in copies.items()
                if n > 0 and names[seq] == schema_name
            )
        return total

    # -- crash / recovery / repair -----------------------------------------

    def _resolve(self, daemon) -> Dsosd:
        if isinstance(daemon, Dsosd):
            return daemon
        return self.daemons[daemon]

    def _bump_copies(self, shard: int, seq: int, delta: int) -> None:
        copies = self._copies[shard]
        hist = self._copy_hist[shard]
        old = copies[seq]
        new = old + delta
        copies[seq] = new
        hist[old] -= 1
        if not hist[old]:
            del hist[old]
        hist[new] += 1

    def crash_daemon(self, daemon, *, tear_tail: bool = False,
                     tear_bytes: int = 7) -> Dsosd:
        """Crash one daemon, keeping the cluster's copy accounting exact."""
        d = self._resolve(daemon)
        if not self.sharded:
            raise SchemaError("crash_daemon requires a sharded cluster")
        if d.alive:
            lost_seqs = set(d.applied)
            d.fail(tear_tail=tear_tail, tear_bytes=tear_bytes)
            for seq in lost_seqs:
                self._bump_copies(d.shard_id, seq, -1)
        return d

    def recover_daemon(self, daemon) -> WalRecovery:
        """Restart one daemon: WAL replay, then copy accounting catch-up.

        Anti-entropy repair (:meth:`repair_daemon`) is a separate step —
        the caller decides whether repair runs (the ``repair_enabled``
        knob gates the drill's behavior, not this method).
        """
        d = self._resolve(daemon)
        recovery = d.recover()
        for record in recovery.entries:
            self._bump_copies(d.shard_id, record.seq, +1)
        return recovery

    def shard_converged(self, shard: int) -> bool:
        """True when no live replica of ``shard`` lacks an object a live
        peer holds, so repairing any of them would pull nothing.

        Copy counts are exact over live replicas, so that is when every
        object sits on all of them or on none (or fewer than two are
        live).  Quorum reads check this once per shard instead of
        repairing every replica.
        """
        live = sum(r.alive for r in self.replica_sets[shard])
        return live < 2 or all(
            not n or n == live for n in self._copy_hist[shard]
        )

    def repair_daemon(self, daemon) -> list[tuple]:
        """Anti-entropy: pull objects this replica is missing from its
        live peers.  Returns the pulled ``(seq, trace_id)`` pairs."""
        d = self._resolve(daemon)
        if not d.alive:
            raise StoreDownError(f"cannot repair crashed daemon {d.name}")
        peers = [
            r for r in self.replica_sets[d.shard_id]
            if r is not d and r.alive
        ]
        if not peers or self.shard_converged(d.shard_id):
            return []
        union: set[int] = set()
        for p in peers:
            union |= p.applied
        missing = union - d.applied
        pulled = []
        for peer in peers:
            if not missing:
                break
            for seq, schema_name, obj, trace_id in peer.records_for(sorted(missing)):
                d.apply_repair(seq, schema_name, obj, trace_id)
                self._bump_copies(d.shard_id, seq, +1)
                pulled.append((seq, trace_id))
                missing.discard(seq)
        pulled.sort()
        return pulled

    def repair_all(self) -> dict:
        """Run anti-entropy on every live replica; daemon → pulled pairs."""
        if not self.sharded:
            return {}
        return {
            d.name: self.repair_daemon(d)
            for d in self.daemons
            if d.alive
        }

    # -- census / health ---------------------------------------------------

    def census(self) -> StoreCensus:
        """Replica accounting right now (run after recovery + repair to
        check convergence; mid-outage it reports the damage)."""
        if not self.sharded:
            objects = sum(
                d.count(name) for d in self.daemons for name in self.schemas
            )
            return StoreCensus(objects, 0, 0, 0, ())
        lost = under = replicas_down = 0
        degraded = []
        for shard in range(self.shards):
            replicas = self.replica_sets[shard]
            live = sum(1 for r in replicas if r.alive)
            down = len(replicas) - live
            replicas_down += down
            target = min(self.replication, live)
            hist = self._copy_hist[shard]
            shard_lost = hist.get(0, 0)
            shard_under = sum(
                n for copies, n in hist.items() if 0 < copies < target
            )
            lost += shard_lost
            under += shard_under
            if shard_lost or shard_under or down:
                degraded.append(shard)
        objects = sum(self._next_seq)
        return StoreCensus(objects, lost, under, replicas_down, tuple(degraded))

    def health_summary(self) -> dict:
        """The store gauges the diagnosis engine samples every tick."""
        if not self.sharded:
            return {
                "replicas_down": 0,
                "under_replicated": 0,
                "lost": 0,
                "replica_lag": 0,
                "shard_skew": 0,
            }
        census = self.census()
        lag = 0
        for replicas in self.replica_sets:
            live_counts = [len(r.applied) for r in replicas if r.alive]
            if len(live_counts) > 1:
                lag = max(lag, max(live_counts) - min(live_counts))
        skew = 0
        if self.shards > 1:
            visible = [
                self._next_seq[s] - self._copy_hist[s].get(0, 0)
                for s in range(self.shards)
            ]
            skew = max(visible) - min(visible)
        return {
            "replicas_down": census.replicas_down,
            "under_replicated": census.under_replicated,
            "lost": census.lost,
            "replica_lag": lag,
            "shard_skew": skew,
        }

    def shard_layout(self) -> list[dict]:
        """Topology description for ``repro store --topology``."""
        if not self.sharded:
            return [{
                "shard": 0,
                "daemons": [d.name for d in self.daemons],
                "alive": [d.alive for d in self.daemons],
                "objects": [
                    sum(d.count(name) for name in self.schemas)
                    for d in self.daemons
                ],
            }]
        return [
            {
                "shard": s,
                "daemons": [d.name for d in replicas],
                "alive": [d.alive for d in replicas],
                "objects": [len(d.applied) for d in replicas],
            }
            for s, replicas in enumerate(self.replica_sets)
        ]

    def stats_snapshot(self) -> dict:
        """Cluster + per-daemon counters, every series qualified by
        daemon name and shard id."""
        snap = {
            "cluster": self.name,
            "sharded": self.sharded,
            "shards": self.shards,
            "replication": self.replication,
            "write_quorum": self.write_quorum if self.sharded else 1,
            "daemons": [d.stats_snapshot() for d in self.daemons],
        }
        if self.sharded:
            snap.update(
                writes=self.writes,
                quorum_degraded_writes=self.quorum_degraded_writes,
                rejected_writes=self.rejected_writes,
            )
        return snap

    # -- query ------------------------------------------------------------

    def query(self, schema_name: str, index_name: str) -> Query:
        """Start building a query against ``index_name``."""
        schema = self.schema(schema_name)
        if index_name not in schema.indices:
            raise SchemaError(
                f"schema {schema_name!r} has no index {index_name!r}; "
                f"available: {sorted(schema.indices)}"
            )
        return Query(self, schema_name, index_name)
