"""LDMS → DSOS store plugin.

Terminal stage of the paper's pipeline (Figure 4): subscribes to the
connector's stream tag on the final aggregator, flattens each JSON
message (one database object per ``seg`` entry, like the CSV store) and
inserts it into the ``darshan_data`` schema.

Each delivered message lands before the next one is delivered, through
one path (:meth:`DsosStreamStore._land`): a quorum write per row on a
sharded store, an ``insert`` per row on a flat one.  A slow-store
episode defers admitted messages and lands them the same way when it
ends.

A message with a payload string (the reference lane, a fast-lane
shape miss, the ``format_mode="none"`` ablation) is parsed and
flattened by :meth:`DsosStreamStore._flatten`, the reference walk.  A
fast-lane :class:`~repro.core.batch.ColumnarMessage` carries no payload
string: its row builds from a per-shape spec compiled from the
message shape's statics, self-checked once per shape against the
reference walk of its rendered payload.  Both produce byte-identical
objects in the identical placement.
"""

from __future__ import annotations

import json

from repro.core.batch import ColumnarMessage
from repro.dsos.client import DsosClient
from repro.dsos.journal import IngestJournal
from repro.dsos.schema import DARSHAN_DATA_SCHEMA, INT_MAX, INT_MIN, TYPES
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

# Defaults for attributes absent from a message or unparseable (mirrors
# the "N/A"/-1 conventions of Figure 3); an int outside int64 (±inf,
# NaN, 1e30, 2**70) is unparseable too.
_INT_DEFAULT = -1
_STR_DEFAULT = "N/A"
_FLOAT_DEFAULT = -1.0

#: Varying-slot index per message field, by slot-tuple arity — the two
#: slot layouts of :meth:`repro.core.json_format.MessageBuilder._values`.
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
    ):
        self.daemon = daemon
        self.tag = tag
        self.client = client
        self.schema = schema
        client.ensure_schema(schema)
        self.parse_errors = 0
        self.objects_stored = 0
        #: Replicated cluster: each row is a quorum write, acked per write.
        self._sharded = getattr(client.cluster, "sharded", False)
        #: Messages stored below write quorum / rejected outright (a
        #: rejected message may land on a later resend).
        self.quorum_degraded = 0
        self.store_down_drops = 0
        #: Idempotent ingest: upstream recovery (spill replay, retry on
        #: lost acks, failover) may resend a message; the journal admits
        #: each trace id once.  With no duplicates it only costs a set
        #: lookup, so it is always on.
        self.journal = IngestJournal(daemon.env)
        #: Slow-store episode state (repro.faults): while slow, admitted
        #: messages defer into _slow_pending with an open ingest hop;
        #: the episode end lands them, stamping the episode's latency
        #: on each.
        self._slow = False
        self._slow_pending: list[tuple] = []
        #: (attr_name, comes-from-seg, source key, exact type, type name)
        #: per schema attribute, in schema order.  Every row the plan
        #: builds holds exactly those types, ints within int64, so the
        #: store takes it with ``validate=False``.
        self._row_plan = self._compile_row_plan(schema)
        #: id(shape) -> (shape, var-spec | None): the columnar row
        #: builder per message shape (None = self-check failed, build
        #: through the reference walk instead).  The shape reference
        #: keeps the id stable for the cache's lifetime.
        self._columnar_plans: dict[int, tuple] = {}
        #: ``stored`` subscribers of the observer hub, called the
        #: instant a message's rows land (repro.diagnosis rides this).
        self._on_stored = daemon.env.observers.stored
        daemon.streams.subscribe(tag, self.on_message)

    #: Express-spine back-pointer (set while an armed spine owns this
    #: store's ingest; any guard-relevant mutation de-arms it first).
    _express_spine = None

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
                (attr.name, *source, TYPES[attr.type][0], attr.type)
            )
        return plan

    def on_message(self, message) -> None:
        columnar = type(message) is ColumnarMessage
        if not columnar:
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
        if not self.journal.admit(message.trace_id):
            self._ingest_hop(message, DUP_IGNORED)
            return
        if columnar:
            rows = self.columnar_rows(message.shape, message.values)
        else:
            rows = list(self._flatten(data))
        if self._slow:
            self._slow_pending.append((message, rows))
            if message.trace_id:
                collector = collector_for(self.daemon.env)
                if collector is not None:
                    collector.open_hop(
                        message.trace_id, STAGE_INGEST, self.daemon.node.name
                    )
            return
        self._land(message, rows)

    def _land(self, message, rows: list, *, opened: bool = False) -> None:
        """Store one admitted message's rows and record its ingest hop
        (closing the hop a slow episode ``opened``).

        A flat store inserts each row round-robin.  A sharded store
        makes one quorum write per row.  All rows of one message share
        a job id, hence a shard and a replica set, so acks are uniform
        across the message: it is *stored* (W acks), stored-degraded
        (fewer, repair owes copies) or rejected (``drop_store_down`` —
        no live replica held any copy).  A rejected message leaves the
        journal, so a resend of it is landed, not skipped as a
        duplicate.
        """
        cluster = self.client.cluster
        name = self.schema.name
        degraded = False
        if self._sharded:
            trace_id = message.trace_id
            accepted = True
            for obj in rows:
                ack = cluster.insert_replicated(
                    name, obj, trace_id=trace_id, validate=False
                )
                if not ack.accepted:
                    accepted = False
                elif not ack.quorum_met:
                    degraded = True
            if not accepted:
                self.store_down_drops += 1
                self.journal.withdraw(trace_id)
                self._ingest_hop(message, DROP_STORE_DOWN, opened=opened)
                return
            if degraded:
                self.quorum_degraded += 1
        else:
            insert = cluster.insert
            for obj in rows:
                insert(name, obj, validate=False)
        self.objects_stored += len(rows)
        self._ingest_hop(
            message, STORED, len(rows), degraded=degraded, opened=opened
        )

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
        for message, rows in pending:
            self._land(message, rows, opened=True)

    def _ingest_hop(
        self, message, outcome: str, n_rows: int = 0, *,
        degraded: bool = False, opened: bool = False,
    ) -> None:
        """Terminal hop: the message either landed or died here.

        Closes the ingest hop a slow episode ``opened``, adds the
        ``quorum_degraded`` hop of a ``degraded`` write, then hands a
        stored message to the hub's ``stored`` subscribers.
        """
        env = self.daemon.env
        trace_id = message.trace_id
        if trace_id:
            collector = collector_for(env)
            if collector is not None:
                node = self.daemon.node.name
                if opened:
                    collector.close_hop(trace_id, STAGE_INGEST, node, outcome)
                else:
                    collector.hop(trace_id, STAGE_INGEST, node, outcome)
                if degraded:
                    collector.hop(trace_id, STAGE_INGEST, node, QUORUM_DEGRADED)
        if outcome is STORED and self._on_stored:
            t = env.now
            for callback in self._on_stored:
                callback(t, message, n_rows)

    # -- columnar ingest (the express spine's terminal hop) ----------------

    def columnar_rows(self, shape, values) -> list[dict]:
        """Database rows for one columnar row — no message dict, no parse.

        The spine hands over the compiled message shape plus its varying
        slot values; a per-shape *var spec* maps each schema attribute
        either to a pre-coerced static (from the shape's templates) or
        to a slot index.  The first build per shape is self-checked
        against the reference walk of the rendered payload
        (:meth:`_reference_rows`); a mismatching shape builds through
        that walk forever.
        """
        plans = self._columnar_plans
        entry = plans.get(id(shape))
        if entry is None or entry[0] is not shape:
            plans[id(shape)] = (shape, self._compile_columnar_spec(shape, values))
            built = self.columnar_rows(shape, values)
            reference = self._reference_rows(shape, values)
            if built == reference:
                return built
            plans[id(shape)] = (shape, None)
            return reference
        spec = entry[1]
        if spec is None:
            return self._reference_rows(shape, values)
        template, var_spec = spec
        coerce = self._coerce
        obj = template.copy()
        # Template shapes carry exactly one seg entry: one row.
        for name, idx, exact, tname in var_spec:
            raw = values[idx]
            if type(raw) is exact and (
                exact is not int or INT_MIN <= raw <= INT_MAX
            ):
                obj[name] = raw
            else:
                obj[name] = coerce(raw, tname)
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
                template[name] = self._coerce(raw, tname)
            else:
                template[name] = None
                var_spec.append((name, idx, exact, tname))
        return (template, tuple(var_spec))

    def _reference_rows(self, shape, values) -> list[dict]:
        """One columnar row's rows the reference way: render, parse,
        flatten."""
        return list(self._flatten(json.loads(shape.render(values)[0])))

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
        """``raw`` as an attribute of type ``type_name`` stores it, with
        the defaults for None and for anything unparseable."""
        if type_name == "string":
            return str(raw) if raw is not None else _STR_DEFAULT
        try:
            if type_name == "float":
                return float(raw)
            value = int(raw)
        except (TypeError, ValueError, OverflowError):
            return _INT_DEFAULT if type_name == "int" else _FLOAT_DEFAULT
        return value if INT_MIN <= value <= INT_MAX else _INT_DEFAULT
