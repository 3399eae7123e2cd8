"""LDMS → DSOS store plugin.

Terminal stage of the paper's pipeline (Figure 4): subscribes to the
connector's stream tag on the final aggregator, flattens each JSON
message (one database object per ``seg`` entry, like the CSV store) and
inserts it into the ``darshan_data`` schema.

Fast lane: the attribute → source mapping is precompiled into a row
plan (no per-attribute name tests on the hot path), a columnar message
builds its row from a compiled per-shape spec with no message dict, and
inside a bus batch window (a forwarder handing over its transfer batch)
rows are buffered and landed with one ``insert_many`` per batch instead
of one ``insert`` per row.  All of these produce byte-identical objects
in the identical round-robin placement.
"""

from __future__ import annotations

import json

from repro.core.batch import ColumnarMessage
from repro.dsos.client import DsosClient
from repro.dsos.journal import IngestJournal
from repro.dsos.schema import DARSHAN_DATA_SCHEMA
from repro.telemetry.collector import collector_for
from repro.telemetry.trace import (
    DROP_PARSE_ERROR,
    DROP_STORE_DOWN,
    DUP_IGNORED,
    QUORUM_DEGRADED,
    STAGE_INGEST,
    STORED,
)

__all__ = ["DsosStreamStore"]

# Defaults for attributes absent from a message (mirrors the "N/A"/-1
# conventions of Figure 3).
_INT_DEFAULT = -1
_STR_DEFAULT = "N/A"
_FLOAT_DEFAULT = -1.0

_EXACT_TYPES = {"int": int, "float": float, "string": str}

#: Varying-slot index per message field, by slot-tuple arity — the two
#: template layouts of :meth:`repro.core.json_format._Shape.parsed`.
_VAR_OUTER = {"record_id": 0, "max_byte": 1, "switches": 2, "flushes": 3, "cnt": 4}
_VAR_SEG_9 = {"off": 5, "len": 6, "dur": 7, "timestamp": 8}
_VAR_SEG_14 = {
    "pt_sel": 5, "irreg_hslab": 6, "reg_hslab": 7, "ndims": 8,
    "npoints": 9, "off": 10, "len": 11, "dur": 12, "timestamp": 13,
}


class DsosStreamStore:
    """Streams-subscriber that lands connector messages in DSOS."""

    def __init__(
        self,
        daemon,
        tag: str,
        client: DsosClient,
        schema=DARSHAN_DATA_SCHEMA,
        *,
        fast: bool = True,
        journal: bool = True,
    ):
        self.daemon = daemon
        self.tag = tag
        self.client = client
        self.schema = schema
        client.ensure_schema(schema)
        self.parse_errors = 0
        self.objects_stored = 0
        self._fast = fast
        #: Replicated cluster: route per message through quorum ingest
        #: (bypassing the batch buffer — acks are per write).
        self._sharded = getattr(client.cluster, "sharded", False)
        #: Messages stored below write quorum / rejected outright.
        self.quorum_degraded = 0
        self.store_down_drops = 0
        #: Idempotent ingest: upstream recovery (spill replay, retry on
        #: lost acks, failover) may resend a message; the journal admits
        #: each trace id once.  With no duplicates it only costs a set
        #: lookup, so it is on by default.
        self.journal = IngestJournal(daemon.env) if journal else None
        #: Slow-store episode state (repro.faults): while slow, inserts
        #: defer into _slow_pending with an open ingest hop; the episode
        #: end flushes them, stamping the episode's latency on each.
        self._slow = False
        self._slow_pending: list[tuple] = []
        #: (attr_name, comes-from-seg, source key, exact type, type name)
        #: per schema attribute, in schema order.
        self._row_plan = self._compile_row_plan(schema)
        #: id(shape) -> (shape, var-spec | None): the columnar row
        #: builder per message shape (None = self-check failed, build
        #: through the parsed dict instead).  The shape reference keeps
        #: the id stable for the cache's lifetime.
        self._columnar_plans: dict[int, tuple] = {}
        self._bus = daemon.streams
        self._pending_rows: list[dict] = []
        #: Live-tail observers: ``cb(message, n_rows)`` called the
        #: instant a message's rows land (repro.diagnosis rides this).
        #: With no observers the hot path pays one truthiness test —
        #: observation-only, nothing simulated changes.
        self._observers: list = []
        daemon.streams.subscribe(tag, self.on_message)
        daemon.streams.add_batch_sink(self._flush_batch)

    #: Express-spine back-pointer (set while an armed spine owns this
    #: store's ingest; any guard-relevant mutation de-arms it first).
    _express_spine = None

    def add_ingest_observer(self, callback) -> None:
        """Register a live tail: ``callback(message, n_rows)`` fires at
        the simulated instant each message's rows are stored."""
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        self._observers.append(callback)

    @staticmethod
    def _compile_row_plan(schema) -> list[tuple]:
        plan = []
        for attr in schema.attrs.values():
            if attr.name == "timestamp":
                source = (True, "timestamp")
            elif attr.name.startswith("seg_"):
                source = (True, attr.name[4:])
            else:
                source = (False, attr.name)
            plan.append(
                (attr.name, *source, _EXACT_TYPES[attr.type], attr.type)
            )
        return plan

    def on_message(self, message) -> None:
        data = None
        if not (self._fast and type(message) is ColumnarMessage):
            # Fast lane: a publisher that template-built the payload
            # ships the equal-by-construction dict alongside it — skip
            # the parse.  (A columnar message needs no dict at all; its
            # rows build straight from its shape in :meth:`_rows`.)
            data = message.parsed if self._fast else None
            if data is None:
                try:
                    data = json.loads(message.payload)
                except json.JSONDecodeError:
                    self.parse_errors += 1
                    self._ingest_hop(message, DROP_PARSE_ERROR)
                    return
                if not isinstance(data, dict):
                    self.parse_errors += 1
                    self._ingest_hop(message, DROP_PARSE_ERROR)
                    return
        if self.journal is not None and not self.journal.admit(message.trace_id):
            self._ingest_hop(message, DUP_IGNORED)
            return
        if self._slow:
            self._slow_pending.append((message, self._rows(message, data)))
            if message.trace_id:
                collector = collector_for(self.daemon.env)
                if collector is not None:
                    collector.open_hop(
                        message.trace_id, STAGE_INGEST, self.daemon.node.name
                    )
            return
        if self._sharded:
            outcome, degraded, n_rows = self._store_replicated(
                message, self._rows(message, data)
            )
            self._ingest_hop(message, outcome)
            if degraded:
                self._ingest_hop(message, QUORUM_DEGRADED)
            if outcome is STORED and self._observers:
                for cb in self._observers:
                    cb(message, n_rows)
            return
        if self._fast:
            rows = self._rows(message, data)
            if self._bus.in_batch:
                # Buffered for one insert_many when the window closes.
                # The hop and the counter stamp now — no simulated time
                # passes before the flush, so records are identical.
                self._pending_rows.extend(rows)
            else:
                insert = self.client.cluster.insert
                name = self.schema.name
                for obj in rows:
                    insert(name, obj, validate=False)
            self.objects_stored += len(rows)
            n_rows = len(rows)
        else:
            n_rows = 0
            for obj in self._flatten(data):
                # _flatten+_coerce already guarantee schema conformance;
                # skip per-object validation on this hot ingest path.
                self.client.cluster.insert(self.schema.name, obj, validate=False)
                self.objects_stored += 1
                n_rows += 1
        self._ingest_hop(message, STORED)
        if self._observers:
            for cb in self._observers:
                cb(message, n_rows)

    def _rows(self, message, data) -> list[dict]:
        """One admitted message's database rows.

        ``data is None`` only for a fast-lane :class:`ColumnarMessage`:
        its rows come from the compiled per-shape spec
        (:meth:`columnar_rows`), equal to flattening its parsed dict.
        """
        if data is None:
            return self.columnar_rows(message.shape, message.values)
        if self._fast:
            return self._flatten_fast(data)
        return list(self._flatten(data))

    def _flush_batch(self) -> None:
        rows = self._pending_rows
        if rows:
            self._pending_rows = []
            self.client.cluster.insert_many(self.schema.name, rows, validate=False)

    # -- replicated ingest (sharded clusters) -----------------------------

    def _store_replicated(self, message, rows) -> tuple:
        """Quorum write of one message's rows; ``(outcome, degraded, n)``.

        All rows of one message share a job id, hence a shard and a
        replica set, so acks are uniform across the message: it is
        *stored* (W acks), stored-degraded (fewer, repair owes copies)
        or rejected (``drop_store_down`` — no live replica held any
        copy).
        """
        insert = self.client.cluster.insert_replicated
        name = self.schema.name
        trace_id = message.trace_id
        accepted = True
        degraded = False
        for obj in rows:
            ack = insert(name, obj, trace_id=trace_id, validate=False)
            if not ack.accepted:
                accepted = False
            elif not ack.quorum_met:
                degraded = True
        if not accepted:
            self.store_down_drops += 1
            return DROP_STORE_DOWN, degraded, 0
        if degraded:
            self.quorum_degraded += 1
        self.objects_stored += len(rows)
        return STORED, degraded, len(rows)

    # -- slow-store episodes (repro.faults) ------------------------------

    @property
    def slow(self) -> bool:
        return self._slow

    @property
    def slow_pending(self) -> int:
        """Messages deferred by the current slow episode."""
        return len(self._slow_pending)

    def begin_slow_episode(self) -> None:
        """Storage stalls: arriving messages defer until the episode ends.

        Episodes must be ended (finite) — deferred messages are neither
        stored nor dropped until :meth:`end_slow_episode` flushes them,
        and a run that ends mid-episode reconciles them as in-flight.
        """
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        self._slow = True

    def end_slow_episode(self) -> None:
        """Flush everything the episode deferred, in arrival order.

        Each deferred message's ingest hop closes here, so its recorded
        ingest latency is the stall it actually suffered.
        """
        if not self._slow:
            return
        self._slow = False
        pending, self._slow_pending = self._slow_pending, []
        if not pending:
            return
        if self._sharded:
            collector = collector_for(self.daemon.env)
            node = self.daemon.node.name
            for message, rows in pending:
                outcome, degraded, n_rows = self._store_replicated(message, rows)
                if message.trace_id and collector is not None:
                    collector.close_hop(
                        message.trace_id, STAGE_INGEST, node, outcome
                    )
                    if degraded:
                        collector.hop(
                            message.trace_id, STAGE_INGEST, node, QUORUM_DEGRADED
                        )
                if outcome is STORED and self._observers:
                    for cb in self._observers:
                        cb(message, n_rows)
            return
        all_rows = [row for _, rows in pending for row in rows]
        if all_rows:
            self.client.cluster.insert_many(
                self.schema.name, all_rows, validate=False
            )
        collector = collector_for(self.daemon.env)
        node = self.daemon.node.name
        for message, rows in pending:
            self.objects_stored += len(rows)
            if message.trace_id and collector is not None:
                collector.close_hop(message.trace_id, STAGE_INGEST, node, STORED)
            if self._observers:
                for cb in self._observers:
                    cb(message, len(rows))

    def _ingest_hop(self, message, outcome: str) -> None:
        """Terminal telemetry hop: the message either landed or died here."""
        if not message.trace_id:
            return
        collector = collector_for(self.daemon.env)
        if collector is not None:
            collector.hop(
                message.trace_id, STAGE_INGEST, self.daemon.node.name, outcome
            )

    def _flatten_fast(self, data: dict) -> list[dict]:
        """Row-plan flatten: same objects as :meth:`_flatten`, with the
        already-right-typed common case skipping coercion."""
        segments = data.get("seg") or ({},)
        plan = self._row_plan
        coerce = self._coerce
        rows = []
        for seg in segments:
            obj = {}
            for name, from_seg, key, exact, tname in plan:
                raw = seg.get(key) if from_seg else data.get(key)
                if type(raw) is exact:
                    obj[name] = raw
                else:
                    obj[name] = coerce(raw, tname)
            rows.append(obj)
        return rows

    # -- columnar ingest (the express spine's terminal hop) ----------------

    def columnar_rows(self, shape, values) -> list[dict]:
        """Database rows for one columnar row — no message dict, no parse.

        The spine hands over the compiled message shape plus its varying
        slot values; a per-shape *var spec* maps each schema attribute
        either to a pre-coerced static (from the shape's templates) or
        to a slot index.  The first build per shape is self-checked
        against the reference ``_flatten_fast`` path; a mismatching
        shape falls back to building through its parsed dict forever.
        """
        plans = self._columnar_plans
        entry = plans.get(id(shape))
        if entry is None or entry[0] is not shape:
            spec = self._compile_columnar_spec(shape, values)
            if spec is not None:
                built = self._build_columnar(spec, values)
                if built != self._flatten_fast(shape.parsed(values)):
                    spec = None
            plans[id(shape)] = entry = (shape, spec)
        spec = entry[1]
        if spec is None:
            return self._flatten_fast(shape.parsed(values))
        # _build_columnar, inlined (the per-event express path).
        template, var_spec = spec
        coerce = self._coerce
        obj = template.copy()
        for name, idx, exact, tname in var_spec:
            raw = values[idx]
            obj[name] = raw if type(raw) is exact else coerce(raw, tname)
        return [obj]

    def _compile_columnar_spec(self, shape, values):
        if shape.base is None or shape.seg_base is None:
            return None
        if len(values) == 14:
            seg_map = _VAR_SEG_14
        elif len(values) == 9:
            seg_map = _VAR_SEG_9
        else:
            return None
        # Row template in row-plan attribute order, statics pre-coerced
        # and var slots as placeholders: a ``dict.copy`` of it preserves
        # the exact key order the reference builder produces, and the
        # per-row loop then touches only the varying attributes.
        template = {}
        var_spec = []
        for name, from_seg, key, exact, tname in self._row_plan:
            idx = seg_map.get(key) if from_seg else _VAR_OUTER.get(key)
            if idx is None:
                raw = shape.seg_base.get(key) if from_seg else shape.base.get(key)
                template[name] = raw if type(raw) is exact else self._coerce(raw, tname)
            else:
                template[name] = None
                var_spec.append((name, idx, exact, tname))
        return (template, tuple(var_spec))

    def _build_columnar(self, spec, values) -> list[dict]:
        template, var_spec = spec
        coerce = self._coerce
        obj = template.copy()
        for name, idx, exact, tname in var_spec:
            raw = values[idx]
            obj[name] = raw if type(raw) is exact else coerce(raw, tname)
        # Template shapes carry exactly one seg entry — one row.
        return [obj]

    def _flatten(self, data: dict):
        segments = data.get("seg") or [{}]
        for seg in segments:
            obj = {}
            for attr in self.schema.attrs.values():
                if attr.name == "timestamp":
                    raw = seg.get("timestamp")
                elif attr.name.startswith("seg_"):
                    raw = seg.get(attr.name[4:])
                else:
                    raw = data.get(attr.name)
                obj[attr.name] = self._coerce(raw, attr.type)
            yield obj

    @staticmethod
    def _coerce(raw, type_name: str):
        if type_name == "string":
            return str(raw) if raw is not None else _STR_DEFAULT
        if raw is None or raw == "N/A":
            return _INT_DEFAULT if type_name == "int" else _FLOAT_DEFAULT
        try:
            return int(raw) if type_name == "int" else float(raw)
        except (TypeError, ValueError):
            return _INT_DEFAULT if type_name == "int" else _FLOAT_DEFAULT
