"""The black-box flight recorder: bounded always-on incident capture.

A :class:`FlightRecorder` arms against a campaign
:class:`~repro.experiments.world.World` and keeps one sim-time
:class:`RingBuffer` per evidence stream — alert transitions, retained
span tails, rule-window snapshots, hop recovery events, store census
deltas, probe straggler flags and applied faults (:data:`STREAMS`).
Every ring is capacity-capped with an eviction counter and the exact
reconciliation invariant ``captured == retained + evicted`` per stream.

When a trigger fires — an alert enters ``firing``, a quorum-degraded
write lands, a ``StoreCrash`` is injected, or the dead-letter count
grows — the recorder freezes a :class:`ForensicBundle`: a canonical-
JSON, byte-stable snapshot of a ±window around the trigger, carrying
cross-layer evidence links (trace ids into the span registry, rule →
signal-catalog entries, store sequence high-waters).  Bundles are
serialized through the store's WAL framing
(:func:`repro.dsos.journal.recover_entries`), so a torn
:class:`BundleLog` truncates-doesn't-trust on reload exactly like the
``dsosd`` durability log.

Purity: recording is observation only.  The recorder's tick is a *weak*
simulation event, every hook is an append into host-side state, it
draws no randomness and schedules nothing — a seeded campaign with the
recorder armed is byte-identical to one without, on both lanes
(pinned by ``tests/property/test_flightrec_properties.py``).  All
recorded times are epoch-relative, so same-seed runs freeze
byte-identical bundles regardless of ``campaign_offset_days``.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.telemetry.trace import QUORUM_DEGRADED, STORED

__all__ = [
    "BundleLog",
    "FlightRecorder",
    "FlightRecorderConfig",
    "ForensicBundle",
    "RECORDER_METRICS",
    "RingBuffer",
    "STREAMS",
    "canonical_json",
]

#: Every evidence stream the recorder keeps a ring for, as ``(name,
#: description)`` — the declarative registry the forensics tooling and
#: the self-metric exposition iterate.
STREAMS = (
    ("alerts", "alert lifecycle transitions (pending/firing/resolved)"),
    ("rules", "rule-window snapshots at each diagnosis tick"),
    ("spans", "retained span tails: stored messages with e2e latency"),
    ("recovery", "hop recovery events: replays, failovers, dedups"),
    ("store", "store census deltas: replication health changes"),
    ("probes", "probe straggler flags and lost probes"),
    ("faults", "applied faults from the injector's ground-truth log"),
    ("verdicts", "post-hoc bottleneck verdicts from the explain layer"),
)

#: Recorder self-metrics, as ``(name, unit, description)`` — registered
#: in the signal catalog (:mod:`repro.diagnosis.signals`) and emitted by
#: the OpenMetrics exporter so drift detection covers the recorder.
RECORDER_METRICS = (
    ("flightrec_captured_total", "records",
     "ring records captured per stream so far (cumulative)"),
    ("flightrec_evicted_total", "records",
     "ring records evicted by the capacity cap (cumulative)"),
    ("flightrec_retained", "records",
     "ring records currently retained per stream"),
    ("flightrec_bundles_frozen_total", "bundles",
     "forensic bundles frozen by triggers so far (cumulative)"),
    ("flightrec_bundle_bytes_total", "bytes",
     "serialized bytes appended to the bundle log (cumulative)"),
    ("flightrec_triggers_dropped_total", "triggers",
     "triggers ignored by coalescing or the bundle cap (cumulative)"),
)


def canonical_json(obj) -> str:
    """The house canonical form: sorted keys, compact separators.

    Identical to the WAL payload encoding in
    :meth:`repro.dsos.journal.WalRecord.make`; float formatting is
    ``repr`` (shortest round-trip), so equal values always serialize to
    equal bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class RingBuffer:
    """A bounded sim-time event ring with an exact eviction ledger.

    ``captured`` counts every append ever made; ``retained`` is what the
    ring still holds; ``evicted`` counts what the capacity cap pushed
    out.  ``captured == retained + evicted`` holds at every instant —
    :meth:`reconciles` is the invariant forensics ``--check`` asserts
    per stream.
    """

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._items: deque = deque()
        self.captured = 0
        self.evicted = 0

    @property
    def retained(self) -> int:
        return len(self._items)

    def append(self, t: float, record: dict) -> None:
        """Record one event at epoch-relative instant ``t``."""
        self.captured += 1
        if len(self._items) >= self.capacity:
            self._items.popleft()
            self.evicted += 1
        self._items.append((t, record))

    def window(self, t_begin: float, t_end: float) -> list:
        """Retained ``(t, record)`` pairs with ``t_begin <= t <= t_end``."""
        return [(t, r) for t, r in self._items if t_begin <= t <= t_end]

    def all(self) -> list:
        return list(self._items)

    def reconciles(self) -> bool:
        return self.captured == self.retained + self.evicted

    def __len__(self) -> int:
        return len(self._items)


@dataclass(frozen=True)
class FlightRecorderConfig:
    """Tuning for one recorder: cadence, ring caps, freeze windows."""

    #: Simulated seconds between recorder ticks (census/dead-letter
    #: sampling and pending-freeze processing).
    tick_period_s: float = 0.1
    #: Default per-stream ring capacity.
    capacity: int = 512
    #: Per-stream capacity overrides, ``{stream: capacity}``.
    capacities: dict = field(default_factory=dict)
    #: Bundle window reaches this far *before* the trigger instant...
    pre_window_s: float = 1.0
    #: ...and this far after (the freeze happens once the clock passes
    #: ``t_trigger + post_window_s``, or at :meth:`FlightRecorder.flush`).
    post_window_s: float = 0.25
    #: Hard cap on frozen bundles per run (further triggers are counted
    #: in ``triggers_dropped``, never recorded as bundles).
    max_bundles: int = 16
    #: Evidence cap on trace ids per bundle (the count of distinct ids
    #: is always reported; only the listing is truncated).
    trace_id_cap: int = 32

    def __post_init__(self):
        if self.tick_period_s <= 0:
            raise ValueError("tick_period_s must be positive")
        if self.pre_window_s < 0 or self.post_window_s < 0:
            raise ValueError("freeze windows must be >= 0")
        if self.max_bundles < 1:
            raise ValueError("max_bundles must be >= 1")

    def stream_capacity(self, stream: str) -> int:
        return int(self.capacities.get(stream, self.capacity))


@dataclass
class ForensicBundle:
    """One frozen incident snapshot: ±window of every stream, linked.

    All times are epoch-relative simulated seconds.  ``streams`` maps
    stream name → ``{"records": [{"t": ..., ...}], "captured": ...,
    "evicted": ..., "retained": ...}`` (the ring's ledger at freeze
    time); ``evidence`` carries the cross-layer links — trace ids into
    the span registry, rules with the signal-catalog entries feeding
    them, incident ids, and per-shard store sequence high-waters.
    """

    bundle_id: str
    trigger_kind: str
    trigger_detail: str
    rule: str
    t_trigger: float
    window: tuple
    streams: dict
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "trigger_kind": self.trigger_kind,
            "trigger_detail": self.trigger_detail,
            "rule": self.rule,
            "t_trigger": self.t_trigger,
            "window": list(self.window),
            "streams": self.streams,
            "evidence": self.evidence,
        }

    def to_canonical_json(self) -> str:
        """Byte-stable serialization — equal bundles, equal bytes."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ForensicBundle":
        return cls(
            bundle_id=d["bundle_id"],
            trigger_kind=d["trigger_kind"],
            trigger_detail=d["trigger_detail"],
            rule=d["rule"],
            t_trigger=d["t_trigger"],
            window=tuple(d["window"]),
            streams=d["streams"],
            evidence=d["evidence"],
        )

    def records(self, stream: str) -> list:
        return self.streams.get(stream, {}).get("records", [])

    def n_records(self) -> int:
        return sum(len(s["records"]) for s in self.streams.values())


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


@dataclass(frozen=True)
class _BundleRecord:
    """One framed bundle-log record (same discipline as the store WAL)."""

    bundle_id: str
    payload: str  # canonical JSON of the bundle
    checksum: int = -1

    @staticmethod
    def compute_checksum(bundle_id: str, payload: str) -> int:
        return _crc(f"{bundle_id}|{payload}")

    @classmethod
    def make(cls, bundle: ForensicBundle) -> "_BundleRecord":
        payload = bundle.to_canonical_json()
        return cls(bundle.bundle_id, payload,
                   cls.compute_checksum(bundle.bundle_id, payload))

    @property
    def valid(self) -> bool:
        return self.checksum == self.compute_checksum(
            self.bundle_id, self.payload
        )

    def encode(self) -> bytes:
        return f"{self.bundle_id}|{self.payload}|{self.checksum:08x}\n".encode()

    @classmethod
    def decode(cls, line: bytes) -> "_BundleRecord | None":
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        # Split from both ends so only the JSON payload may absorb
        # embedded separators (same framing trick as WalRecord).
        parts = text.split("|")
        if len(parts) < 3:
            return None
        bundle_id, crc_text = parts[0], parts[-1]
        payload = "|".join(parts[1:-1])
        try:
            record = cls(bundle_id, payload, int(crc_text, 16))
        except ValueError:
            return None
        return record if record.valid else None


class BundleLog:
    """Append-only serialized bundle archive with torn-tail recovery.

    The byte buffer is the "disk": :meth:`append` serializes each frozen
    bundle eagerly, :meth:`tear_tail` simulates a crash landing
    mid-append, and :meth:`recover` replays the longest clean prefix —
    truncate, don't trust, exactly like
    :class:`repro.dsos.journal.StoreWal`.
    """

    def __init__(self):
        self._buf = bytearray()
        self.records_appended = 0
        self.torn_writes = 0

    def append(self, bundle: ForensicBundle) -> int:
        """Serialize one bundle; returns the bytes appended."""
        encoded = _BundleRecord.make(bundle).encode()
        self._buf += encoded
        self.records_appended += 1
        return len(encoded)

    def to_bytes(self) -> bytes:
        return bytes(self._buf)

    def tear_tail(self, drop_bytes: int = 7) -> None:
        """Simulate a torn write: the last ``drop_bytes`` never landed."""
        if drop_bytes <= 0:
            raise ValueError("drop_bytes must be positive")
        del self._buf[max(0, len(self._buf) - drop_bytes):]
        self.torn_writes += 1

    def recover(self):
        """Replay the longest clean prefix; torn bytes are truncated.

        Returns ``(bundles, truncated_bytes)``.
        """
        bundles, truncated = BundleLog.load(bytes(self._buf))
        if truncated:
            del self._buf[len(self._buf) - truncated:]
        return bundles, truncated

    @staticmethod
    def load(data: bytes):
        """Decode a serialized archive: ``(bundles, truncated_bytes)``."""
        from repro.dsos.journal import recover_entries

        recovery = recover_entries(data, _BundleRecord.decode)
        bundles = [
            ForensicBundle.from_dict(json.loads(rec.payload))
            for rec in recovery.entries
        ]
        return bundles, recovery.truncated_bytes

    def __len__(self) -> int:
        return self.records_appended


@dataclass(frozen=True)
class _PendingTrigger:
    """A trigger waiting for its post-window to elapse before freezing."""

    t: float  # absolute sim time of the trigger
    kind: str
    detail: str
    rule: str


class FlightRecorder:
    """Always-on bounded capture of one world's evidence streams."""

    def __init__(self, world, config: FlightRecorderConfig | None = None):
        self.world = world
        self.config = config or FlightRecorderConfig()
        self.rings: dict[str, RingBuffer] = {
            name: RingBuffer(name, self.config.stream_capacity(name))
            for name, _ in STREAMS
        }
        self.bundles: list[ForensicBundle] = []
        self.log = BundleLog()
        self.bundles_frozen = 0
        self.bundle_bytes = 0
        self.triggers_dropped = 0
        self.ticks = 0
        self._pending: list[_PendingTrigger] = []
        self._last_trigger: dict[tuple, float] = {}
        self._last_census: dict | None = None
        self._last_dead_letters = 0
        self._probe_idx = 0
        self._stragglers_seen: set[str] = set()
        self._snapshots = 0
        self._catalog = None
        self._armed = False

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        """Install every observer hook and the weak recorder tick.

        Must run after the fault injector is built (its applied-log
        observer) and before the express spine (whose arming guard
        must see the recorder's store ingest observer).
        """
        if self._armed:
            raise RuntimeError("flight recorder already armed")
        self._armed = True
        world = self.world
        world.env.every(self.config.tick_period_s, self.tick, weak=True)
        world.store.add_ingest_observer(self._on_stored)
        if world.telemetry is not None:
            world.telemetry.add_recovery_observer(self._on_recovery)
        if world.diagnosis is not None:
            world.diagnosis.add_transition_observer(self._on_alert)
            world.diagnosis.add_tick_observer(self._on_diagnosis_tick)
        if world.fault_injector is not None:
            world.fault_injector.add_observer(self._on_fault)

    def _rel(self, t: float) -> float:
        return t - self.world.config.epoch

    def _record(self, stream: str, t: float, record: dict) -> None:
        self.rings[stream].append(self._rel(t), record)

    def record_verdicts(self, report) -> None:
        """Append an explain report's verdicts as evidence records.

        The explain layer runs post-hoc, so this is a host-side append
        at the current instant — one record per verdict, linking the
        verdict back to its incidents and exemplar trace.
        """
        now = self.world.env.now
        for verdict in report.verdicts:
            evidence = verdict.evidence or {}
            self._record("verdicts", now, {
                "event": "verdict",
                "job_id": report.job_id,
                "class": verdict.cls,
                "score": verdict.score,
                "strategy": verdict.strategy,
                "incidents": list(evidence.get("incidents", ())),
                "trace_id": evidence.get("trace_id", ""),
            })

    # -- observer hooks ------------------------------------------------

    def _on_alert(self, alert, transition: str, now: float) -> None:
        self._record("alerts", now, {
            "event": transition,
            "rule": alert.rule,
            "severity": alert.severity,
            "id": alert.incident_id,
            "value": alert.peak_value,
            "detail": alert.detail,
        })
        if transition == "firing":
            self._trigger(now, "alert_firing", alert.rule, alert.rule)

    def _on_diagnosis_tick(self, engine, now: float) -> None:
        self._record("rules", now, {
            "event": "windows",
            "values": {
                name: series.latest
                for name, series in engine.rule_series.items()
            },
        })

    def _on_stored(self, message, n_rows: int) -> None:
        trace_id = getattr(message, "trace_id", "")
        e2e = None
        collector = self.world.telemetry
        if collector is not None and trace_id:
            trace = collector.traces.get(trace_id)
            if trace is not None:
                for hop in reversed(trace.hops):
                    if hop.outcome == STORED:
                        e2e = hop.t_out - trace.t_begin
                        break
        self._record("spans", self.world.env.now, {
            "event": "stored",
            "trace": trace_id,
            "rows": n_rows,
            "e2e_s": e2e,
        })

    def _on_recovery(self, trace_id: str, stage: str, node: str,
                     outcome: str, t: float) -> None:
        self._record("recovery", t, {
            "event": outcome,
            "trace": trace_id,
            "stage": stage,
            "node": node,
        })
        if outcome == QUORUM_DEGRADED:
            self._trigger(t, "quorum_degraded", node, "under_replication")

    def _on_fault(self, fault) -> None:
        self._record("faults", fault.t, {
            "event": fault.kind,
            "detail": fault.detail,
        })
        if fault.kind == "store_crash":
            self._trigger(fault.t, "store_crash", fault.detail,
                          "under_replication")

    # -- the recorder tick ---------------------------------------------

    def tick(self) -> None:
        """One weak tick: sample census/dead-letter/probe state, then
        freeze any pending trigger whose post-window has elapsed."""
        now = self.world.env.now
        self.ticks += 1
        self._sample_census(now)
        self._sample_dead_letters(now)
        self._sample_probes(now)
        self._process_pending(now)

    def _sample_census(self, now: float) -> None:
        summary = self.world.dsos.cluster.health_summary()
        if summary != self._last_census:
            self._record("store", now, dict({"event": "census"}, **summary))
            self._last_census = summary

    def _sample_dead_letters(self, now: float) -> None:
        total = 0
        for daemon in self.world.fabric.all_daemons():
            for fwd in daemon.stats_snapshot()["forwards"]:
                total += fwd["dead_letters"]
        if total > self._last_dead_letters:
            self._record("recovery", now, {
                "event": "dead_letter_growth",
                "total": total,
                "delta": total - self._last_dead_letters,
            })
            self._trigger(now, "deadletter_growth", f"total={total}",
                          "deadletter_growth")
        self._last_dead_letters = total

    def _sample_probes(self, now: float) -> None:
        scanner = self.world.probe_scanner
        if scanner is None or len(scanner.samples) <= self._probe_idx:
            return
        for sample in scanner.samples[self._probe_idx:]:
            if sample.lost:
                self._record("probes", sample.t, {
                    "event": "probe_lost",
                    "node": sample.node,
                    "reason": sample.reason,
                })
        self._probe_idx = len(scanner.samples)
        for node in scanner.report().stragglers:
            if node not in self._stragglers_seen:
                self._stragglers_seen.add(node)
                self._record("probes", now, {
                    "event": "straggler",
                    "node": node,
                })

    # -- triggers and freezing -----------------------------------------

    def _trigger(self, t: float, kind: str, detail: str, rule: str) -> None:
        key = (kind, detail)
        cooldown = self.config.pre_window_s + self.config.post_window_s
        last = self._last_trigger.get(key)
        if last is not None and t - last < cooldown:
            self.triggers_dropped += 1
            return
        if len(self.bundles) + len(self._pending) >= self.config.max_bundles:
            self.triggers_dropped += 1
            return
        self._last_trigger[key] = t
        self._pending.append(_PendingTrigger(t, kind, detail, rule))

    def _process_pending(self, now: float) -> None:
        due = [
            p for p in self._pending
            if now >= p.t + self.config.post_window_s
        ]
        if not due:
            return
        self._pending = [p for p in self._pending if p not in due]
        for trigger in due:
            self._freeze(trigger)

    def flush(self) -> None:
        """Freeze every still-pending trigger (end-of-run path: the last
        post-window may lie beyond the final simulation event)."""
        pending, self._pending = self._pending, []
        for trigger in pending:
            self._freeze(trigger)

    def _freeze(self, trigger: _PendingTrigger) -> None:
        t_rel = self._rel(trigger.t)
        window = (t_rel - self.config.pre_window_s,
                  t_rel + self.config.post_window_s)
        bundle = self._build_bundle(
            bundle_id=f"fb-{len(self.bundles)}",
            kind=trigger.kind, detail=trigger.detail, rule=trigger.rule,
            t_trigger=t_rel, window=window,
        )
        self._commit(bundle)

    def snapshot(self, bundle_id: str | None = None) -> ForensicBundle:
        """Freeze a manual whole-run bundle (the clean-run side of a
        forensic diff needs a snapshot even though nothing triggered)."""
        if bundle_id is None:
            bundle_id = f"snap-{self._snapshots}"
        self._snapshots += 1
        now_rel = self._rel(self.world.env.now)
        bundle = self._build_bundle(
            bundle_id=bundle_id, kind="manual", detail="snapshot", rule="",
            t_trigger=now_rel, window=(0.0, now_rel),
        )
        self._commit(bundle)
        return bundle

    def _commit(self, bundle: ForensicBundle) -> None:
        self.bundle_bytes += self.log.append(bundle)
        self.bundles_frozen += 1
        self.bundles.append(bundle)

    def _build_bundle(self, *, bundle_id: str, kind: str, detail: str,
                      rule: str, t_trigger: float, window: tuple
                      ) -> ForensicBundle:
        streams = {}
        for name, ring in self.rings.items():
            records = [
                dict({"t": t}, **record)
                for t, record in ring.window(window[0], window[1])
            ]
            streams[name] = {
                "records": records,
                "captured": ring.captured,
                "evicted": ring.evicted,
                "retained": ring.retained,
            }
        return ForensicBundle(
            bundle_id=bundle_id,
            trigger_kind=kind,
            trigger_detail=detail,
            rule=rule,
            t_trigger=t_trigger,
            window=window,
            streams=streams,
            evidence=self._evidence(rule, streams),
        )

    def _evidence(self, rule: str, streams: dict) -> dict:
        rules = {rule} if rule else set()
        incidents = set()
        for record in streams["alerts"]["records"]:
            rules.add(record["rule"])
            if record["id"] >= 0:
                incidents.add(record["id"])
        trace_ids = set()
        for stream in ("spans", "recovery"):
            for record in streams[stream]["records"]:
                trace_id = record.get("trace", "")
                if trace_id:
                    trace_ids.add(trace_id)
        signals = sorted(
            s.name for s in self._signal_catalog() if s.rule and s.rule in rules
        )
        cluster = self.world.dsos.cluster
        store_seq = []
        if cluster.sharded:
            store_seq = [
                {"shard": shard, "next_seq": seq}
                for shard, seq in enumerate(cluster._next_seq)
            ]
        listed = sorted(trace_ids)
        return {
            "rules": sorted(rules),
            "signals": signals,
            "incidents": sorted(incidents),
            "trace_ids": listed[: self.config.trace_id_cap],
            "trace_id_count": len(listed),
            "store_seq": store_seq,
        }

    def _signal_catalog(self):
        if self._catalog is None:
            from repro.diagnosis.signals import default_catalog

            self._catalog = default_catalog()
        return self._catalog

    # -- introspection -------------------------------------------------

    def reconciliation(self) -> dict:
        """Per-stream ``captured == retained + evicted`` verdicts."""
        return {name: ring.reconciles() for name, ring in self.rings.items()}

    def reconciles(self) -> bool:
        return all(self.reconciliation().values())

    def bundle(self, bundle_id: str) -> ForensicBundle | None:
        for b in self.bundles:
            if b.bundle_id == bundle_id:
                return b
        return None

    def stats(self) -> dict:
        """The self-metric payload behind the signal-catalog rows."""
        return {
            "streams": {
                name: {
                    "captured": ring.captured,
                    "evicted": ring.evicted,
                    "retained": ring.retained,
                }
                for name, ring in self.rings.items()
            },
            "bundles_frozen": self.bundles_frozen,
            "bundle_bytes": self.bundle_bytes,
            "triggers_dropped": self.triggers_dropped,
            "ticks": self.ticks,
        }
