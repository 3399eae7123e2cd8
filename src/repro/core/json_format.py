"""Message assembly and the JSON-formatting cost model.

Section VI-A's finding, mechanized: "In order to send a json message,
all integers must be converted to strings and this conversion comes at
a performance cost."  :class:`FormatCostModel` charges simulated CPU
time per numeric field converted plus a small per-character
serialization term.  The default constants are calibrated so that the
paper's regimes reproduce:

* HMMER (3–4 M messages, 1.5–2.4 k msg/s) suffers multiple-X slowdowns;
* HACC-IO / MPI-IO-TEST (< 100 msg/s) stay within measurement noise;
* the ``mode="none"`` ablation (Streams send without sprintf) lands
  well under 1 %.

Per-message arithmetic: a Figure-3 message has ~18 numeric fields, so
``18 × 25 µs ≈ 0.45 ms`` per event — matching the paper's implied
0.4–0.7 ms/event overhead on HMMER.

The fast lane
-------------

The *simulated* cost above is authoritative; how fast the host computes
the payload is not.  Messages from one (context, module, op) shape
differ only in a handful of numeric fields, so the builder precompiles
a payload template per shape — the static JSON chunks rendered once,
the varying numerics rendered per event — and memoizes the
numeric-field count instead of walking every message.
:meth:`MessageBuilder.format_columnar` computes the accounting from
the varying slots and defers rendering the payload until something
reads it; :meth:`MessageBuilder.format` is the reference
``json.dumps`` walk.  Each template's payload and numeric count are
verified against the reference once at compile time (and, with the
accounting and cost, per message under ``REPRO_FORMAT_DEBUG=1``), so
both paths are byte-identical by construction; shapes that fail the
self-check fall back to the reference.

A fast-lane row is always ``(shape, values)``: the express spine, the
lazy :class:`~repro.core.batch.ColumnarMessage` and the connector's
spill buffer all carry it as is, and the DSOS store builds its
database row from it.  A payload string exists only on the reference
lane, for a shape that failed its self-check and for the
``mode="none"`` ablation, or when a consumer reads
``ColumnarMessage.payload``.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.metrics import MESSAGE_FIELDS, SEG_FIELDS
from repro.darshan.runtime import IOEvent

__all__ = [
    "FormatCostModel",
    "MessageBuilder",
    "FormattedMessage",
    "ColumnarFormatted",
]

#: Per-message template verification + wire-format asserts (slow).
FORMAT_DEBUG = bool(os.environ.get("REPRO_FORMAT_DEBUG"))

_INF = float("inf")
_MISSING = object()

#: Powers of ten for closed-form ``len(repr(int))``: an n-digit
#: non-negative int v satisfies ``_POW10[n-2] <= v < _POW10[n-1]``, so
#: ``bisect_right(_POW10, v) + 1`` is its digit count.  63-bit record
#: ids top out at 19 digits; the table's headroom covers any plausible
#: counter, with a ``repr`` fallback beyond it.
_POW10 = tuple(10**k for k in range(1, 26))
_POW10_MAX = _POW10[-1]


@dataclass(frozen=True)
class FormatCostModel:
    """CPU seconds charged to the application per formatted message."""

    base_s: float = 4.0e-6
    per_numeric_field_s: float = 25.0e-6
    per_char_s: float = 2.0e-9
    #: Cost of the bare Streams send call when formatting is disabled.
    none_mode_s: float = 1.0e-6

    def cost(self, numeric_fields: int, payload_chars: int) -> float:
        """Formatting cost of one message."""
        if numeric_fields < 0 or payload_chars < 0:
            raise ValueError("counts must be non-negative")
        return (
            self.base_s
            + numeric_fields * self.per_numeric_field_s
            + payload_chars * self.per_char_s
        )


@dataclass(frozen=True)
class FormattedMessage:
    """A ready-to-publish payload plus its accounting."""

    payload: str
    numeric_conversions: int
    format_cost_s: float


def _scalar(value) -> str:
    """Render one scalar exactly as ``json.dumps`` embeds it.

    CPython's encoder uses ``int.__repr__``/``float.__repr__`` for
    finite numbers; everything else (strings, bools, None, non-finite
    floats, exotic subclasses) goes through ``json.dumps`` itself, whose
    standalone rendering of a scalar equals its embedded rendering.
    """
    t = type(value)
    if t is int:
        return repr(value)
    if t is float:
        if value == value and value != _INF and value != -_INF:
            return float.__repr__(value)
        return json.dumps(value)
    return json.dumps(value)


class _Shape:
    """One compiled message template: static chunks around varying slots."""

    __slots__ = (
        "statics", "static_numeric", "static_chars", "context",
        "base", "seg_base",
    )

    def __init__(self, statics: tuple, static_numeric: int, context):
        self.statics = statics
        self.static_numeric = static_numeric
        #: Characters contributed by the static chunks; the rendered
        #: payload length is exactly ``static_chars + Σ len(value_str)``
        #: because the join interleaves statics and value strings with
        #: nothing in between.
        self.static_chars = sum(map(len, statics))
        # Strong reference: the cache key uses id(context), which must
        # not be reused by a new context while this shape is cached.
        self.context = context
        #: The compiling event's message dict and its seg entry: the
        #: statics the DSOS store precompiles its per-shape row
        #: template from (the varying slots' values in them are that
        #: event's, and nothing reads them).
        self.base: dict | None = None
        self.seg_base: dict | None = None

    def render(self, values) -> tuple[str, int]:
        """Interpolate ``values`` (one per slot); returns (payload, numeric)."""
        statics = self.statics
        parts = [statics[0]]
        append = parts.append
        n = self.static_numeric
        i = 1
        for v in values:
            t = type(v)
            if t is int:
                append(repr(v))
                n += 1
            elif t is float:
                if v == v and v != _INF and v != -_INF:
                    append(float.__repr__(v))
                else:
                    append(json.dumps(v))
                n += 1
            else:
                append(json.dumps(v))
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    n += 1
            append(statics[i])
            i += 1
        return "".join(parts), n

    def render_meta(self, values) -> tuple[int, int]:
        """Accounting only: ``(numeric, payload_chars)``, nothing rendered.

        Exactly ``render(values)``'s numeric count and payload length —
        int slot lengths come from the digit-count table instead of
        ``repr``, floats still repr for their length (no closed form
        exists) — but no string is built.  The fast lane needs only the
        accounting; a consumer that reads the payload renders it then.
        """
        n = self.static_numeric + len(values)
        chars = self.static_chars
        for v in values:
            t = type(v)
            if t is int:
                if 0 <= v:
                    if v < _POW10_MAX:
                        chars += bisect_right(_POW10, v) + 1
                    else:
                        chars += len(repr(v))
                else:
                    nv = -v
                    if nv < _POW10_MAX:
                        chars += bisect_right(_POW10, nv) + 2
                    else:
                        chars += len(repr(v))
            elif t is float:
                if v == v and v != _INF and v != -_INF:
                    chars += len(float.__repr__(v))
                else:
                    chars += len(json.dumps(v))
            else:
                s = json.dumps(v)
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    n -= 1
                chars += len(s)
        return n, chars


class ColumnarFormatted:
    """One event formatted column-wise: the shape and its slot values
    plus the usual accounting, with the payload render deferred.  The
    fast lane hands the shape and values straight to the express spine
    or a lazy :class:`~repro.core.batch.ColumnarMessage`; the payload is
    only ever rendered if something downstream actually reads it."""

    __slots__ = (
        "shape", "values", "numeric_conversions", "payload_chars",
        "format_cost_s",
    )

    def __init__(self, shape, values, numeric, nchars, cost):
        self.shape = shape
        self.values = values
        self.numeric_conversions = numeric
        self.payload_chars = nchars
        self.format_cost_s = cost


class MessageBuilder:
    """Builds Figure-3 JSON messages from Darshan IOEvents."""

    def __init__(
        self,
        cost_model: FormatCostModel | None = None,
        *,
        debug: bool | None = None,
    ):
        self.cost_model = cost_model or FormatCostModel()
        self._debug = FORMAT_DEBUG if debug is None else debug
        #: shape key -> _Shape (or None: self-check failed, use format()).
        self._shapes: dict[tuple, "_Shape | None"] = {}

    # -- message assembly ---------------------------------------------------

    def message_dict(self, event: IOEvent) -> dict:
        """The message as a dict, in Figure-3 field order.

        ``type`` is ``MET`` for open events (static metadata: absolute
        paths of exe and file are included) and ``MOD`` otherwise
        (paths replaced by ``N/A`` to cut message size and latency).
        """
        is_meta = event.op == "open"
        h5 = event.hdf5 or {}
        seg = {
            "data_set": h5.get("data_set", "N/A"),
            "pt_sel": h5.get("pt_sel", -1),
            "irreg_hslab": h5.get("irreg_hslab", -1),
            "reg_hslab": h5.get("reg_hslab", -1),
            "ndims": h5.get("ndims", -1),
            "npoints": h5.get("npoints", -1),
            "off": event.offset,
            "len": event.nbytes,
            "dur": event.duration,
            "timestamp": event.end,
        }
        message = {
            "uid": event.context.uid,
            "exe": event.context.exe if is_meta else "N/A",
            "job_id": event.context.job_id,
            "rank": event.context.rank,
            "ProducerName": event.context.node_name,
            "file": event.path if is_meta else "N/A",
            "record_id": event.record_id,
            "module": event.module,
            "type": "MET" if is_meta else "MOD",
            "max_byte": event.max_byte,
            "switches": event.switches,
            "flushes": event.flushes,
            "cnt": event.cnt,
            "op": event.op,
            "seg": [seg],
        }
        if self._debug:
            # Field order is part of the reproduced wire format.
            assert tuple(message) == MESSAGE_FIELDS
            assert tuple(seg) == SEG_FIELDS
        return message

    @staticmethod
    def count_numeric_fields(message: dict) -> int:
        """Numbers needing int/float→string conversion (the sprintf tax)."""
        n = 0
        for value in message.values():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                n += 1
            elif isinstance(value, list):
                for seg in value:
                    for v in seg.values():
                        if isinstance(v, (int, float)) and not isinstance(v, bool):
                            n += 1
        return n

    # -- the fast lane ------------------------------------------------------

    @staticmethod
    def _shape_key(event: IOEvent) -> tuple:
        h5 = event.hdf5
        return (
            id(event.context),
            event.module,
            event.op,
            event.path if event.op == "open" else None,
            h5.get("data_set", "N/A") if h5 else None,
        )

    @staticmethod
    def _values(event: IOEvent) -> tuple:
        """The varying slot values, in template order."""
        h5 = event.hdf5
        if h5:
            return (
                event.record_id, event.max_byte, event.switches,
                event.flushes, event.cnt,
                h5.get("pt_sel", -1), h5.get("irreg_hslab", -1),
                h5.get("reg_hslab", -1), h5.get("ndims", -1),
                h5.get("npoints", -1),
                event.offset, event.nbytes, event.end - event.start,
                event.end,
            )
        return (
            event.record_id, event.max_byte, event.switches,
            event.flushes, event.cnt,
            event.offset, event.nbytes, event.end - event.start, event.end,
        )

    def _compile(self, event: IOEvent) -> "_Shape | None":
        """Build the template for ``event``'s shape and self-check it
        against the full ``json.dumps`` path (None = check failed)."""
        ctx = event.context
        is_meta = event.op == "open"
        h5 = event.hdf5 or {}
        statics = [
            '{"uid":' + _scalar(ctx.uid)
            + ',"exe":' + _scalar(ctx.exe if is_meta else "N/A")
            + ',"job_id":' + _scalar(ctx.job_id)
            + ',"rank":' + _scalar(ctx.rank)
            + ',"ProducerName":' + _scalar(ctx.node_name)
            + ',"file":' + _scalar(event.path if is_meta else "N/A")
            + ',"record_id":',
            ',"module":' + _scalar(event.module)
            + ',"type":' + ('"MET"' if is_meta else '"MOD"')
            + ',"max_byte":',
            ',"switches":',
            ',"flushes":',
            ',"cnt":',
        ]
        seg_head = (
            ',"op":' + _scalar(event.op)
            + ',"seg":[{"data_set":' + _scalar(h5.get("data_set", "N/A"))
            + ',"pt_sel":'
        )
        if event.hdf5:
            statics += [
                seg_head,
                ',"irreg_hslab":',
                ',"reg_hslab":',
                ',"ndims":',
                ',"npoints":',
                ',"off":',
            ]
        else:
            statics.append(
                seg_head + _scalar(-1)
                + ',"irreg_hslab":' + _scalar(-1)
                + ',"reg_hslab":' + _scalar(-1)
                + ',"ndims":' + _scalar(-1)
                + ',"npoints":' + _scalar(-1)
                + ',"off":'
            )
        statics += [',"len":', ',"dur":', ',"timestamp":', "}]}"]

        message = self.message_dict(event)
        reference = json.dumps(message, separators=(",", ":"))
        ref_count = self.count_numeric_fields(message)
        shape = _Shape(tuple(statics), 0, ctx)
        shape.base = message
        shape.seg_base = message["seg"][0]
        payload, varying = shape.render(self._values(event))
        shape.static_numeric = ref_count - varying
        if payload != reference or shape.static_numeric < 0:
            return None
        return shape

    def _format_slow(self, event: IOEvent) -> FormattedMessage:
        message = self.message_dict(event)
        payload = json.dumps(message, separators=(",", ":"))
        numeric = self.count_numeric_fields(message)
        cost = self.cost_model.cost(numeric, len(payload))
        return FormattedMessage(
            payload=payload, numeric_conversions=numeric, format_cost_s=cost
        )

    def format(self, event: IOEvent, mode: str = "json") -> FormattedMessage:
        """Assemble and serialize; returns payload + charged cost.

        The reference path: the full message dict through ``json.dumps``.
        ``mode="json"`` is the production path; ``mode="none"`` is the
        paper's ablation — the send function is called with a constant
        placeholder payload and no conversions happen.
        """
        if mode == "none":
            return FormattedMessage(
                payload="", numeric_conversions=0,
                format_cost_s=self.cost_model.none_mode_s,
            )
        if mode != "json":
            raise ValueError(f"unknown format mode {mode!r} (use 'json' or 'none')")
        return self._format_slow(event)

    def format_columnar(
        self, event: IOEvent, mode: str = "json"
    ) -> "ColumnarFormatted | FormattedMessage":
        """The fast lane's formatter: accounting now, payload on demand.

        Returns a :class:`ColumnarFormatted` when the shape compiles:
        :meth:`_Shape.render_meta` supplies the numeric/char accounting
        without building a string, and any consumer that does need the
        payload renders it from ``values`` — the express spine never
        does.  Falls back to :meth:`format`'s FormattedMessage for the
        ``mode="none"`` ablation and shapes that failed their
        self-check.  Costs and counts are identical either way:
        ``payload_chars`` is exactly the rendered payload's length.
        """
        if mode != "json":
            return self.format(event, mode)
        shapes = self._shapes
        key = self._shape_key(event)
        shape = shapes.get(key, _MISSING)
        if shape is _MISSING:
            shape = shapes[key] = self._compile(event)
        if shape is None:
            return self._format_slow(event)
        values = self._values(event)
        numeric, nchars = shape.render_meta(values)
        cost = self.cost_model.cost(numeric, nchars)
        if self._debug:
            reference = self._format_slow(event)
            payload = shape.render(values)[0]
            assert payload == reference.payload, (payload, reference.payload)
            assert nchars == len(payload)
            assert numeric == reference.numeric_conversions
            assert cost == reference.format_cost_s
        return ColumnarFormatted(shape, values, numeric, nchars, cost)
