"""LDMS Streams: the tag-addressed publish/subscribe bus.

One bus lives inside each ldmsd.  Publishing is synchronous, local and
best-effort: each message is handed to the callbacks subscribed to its
tag *at that moment*; if none exist the message is dropped and counted.
There is no replay — exactly the "no caching, subscribe before publish"
behaviour the paper calls out in Section IV-B.  Delivery is per
message on both lanes: a forwarded batch reaches the bus as that many
separate publishes, and each subscriber does its work (the DSOS store
lands its rows) before the next message is delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StreamMessage", "StreamsBus"]


@dataclass(frozen=True, slots=True)
class StreamMessage:
    """One stream datum: a tagged string/JSON payload with provenance."""

    tag: str
    payload: str
    fmt: str = "json"  # "json" or "string", per the Streams API
    src_node: str = ""
    publish_time: float = 0.0
    #: Optional pipeline-telemetry trace id (repro.telemetry).  Carried
    #: out of band — never part of the payload, so tracing cannot change
    #: message sizes or costs.
    trace_id: str = ""
    #: Fast-lane sidecar: the dict ``json.loads(payload)`` yields,
    #: attached by publishers that built the payload from a compiled
    #: template.  Out of band like ``trace_id`` — consumers that use it
    #: (the DSOS store) skip the parse; everything else ignores it.
    parsed: dict | None = None

    def __post_init__(self) -> None:
        if self.fmt not in ("json", "string"):
            raise ValueError(f"stream format must be json or string, got {self.fmt!r}")

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


@dataclass
class BusStats:
    """Delivery accounting for one bus."""

    published: int = 0
    delivered: int = 0
    dropped_no_subscriber: int = 0
    bytes_published: int = 0


class StreamsBus:
    """Per-daemon pub/sub fabric."""

    #: Express-spine back-pointer (repro.core.batch): while an armed
    #: spine virtualizes traffic over this bus, topology edits must
    #: de-arm it first so in-flight virtual rows deliver to the
    #: topology they were sent into.
    _express_spine = None

    def __init__(self):
        self._subscribers: dict[str, list] = {}
        self.stats = BusStats()
        #: Optional telemetry hook with ``on_publish(message, delivered)``
        #: (set by the owning daemon; None on standalone buses).
        self.telemetry = None

    def publish_batch(self, messages) -> int:
        """Publish several messages in order: sequential :meth:`publish`
        calls; returns the number of messages published.

        Nothing in the pipeline calls it (forwarded batches arrive
        through :meth:`repro.ldms.Ldmsd.receive_batch`); it stays
        defined because ``perfbench/tracer.py`` times it by name.
        """
        n = 0
        for message in messages:
            self.publish(message)
            n += 1
        return n

    def subscribe(self, tag: str, callback) -> None:
        """Register ``callback(message)`` for messages matching ``tag``."""
        if not callable(callback):
            raise TypeError(f"subscriber callback {callback!r} is not callable")
        if self._express_spine is not None:
            self._express_spine.on_subscribe(self, tag)
        self._subscribers.setdefault(tag, []).append(callback)

    def unsubscribe(self, tag: str, callback) -> None:
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        try:
            self._subscribers.get(tag, []).remove(callback)
        except ValueError:
            raise KeyError(f"callback not subscribed to tag {tag!r}") from None

    def subscriber_count(self, tag: str) -> int:
        return len(self._subscribers.get(tag, ()))

    def publish(self, message: StreamMessage) -> int:
        """Deliver to current subscribers; returns the delivery count.

        Zero subscribers means the datum is gone — counted, not raised,
        because best-effort delivery is the protocol.
        """
        self.stats.published += 1
        self.stats.bytes_published += message.size_bytes
        callbacks = self._subscribers.get(message.tag)
        if not callbacks:
            self.stats.dropped_no_subscriber += 1
            if self.telemetry is not None:
                self.telemetry.on_publish(message, 0)
            return 0
        # Count each *successful* callback invocation: a callback that
        # raises or mutates the subscription list mid-delivery must not
        # skew the ledger (delivery is to the snapshot taken above).
        delivered = 0
        for callback in list(callbacks):
            callback(message)
            delivered += 1
            self.stats.delivered += 1
        if self.telemetry is not None:
            self.telemetry.on_publish(message, delivered)
        return delivered
