"""The Darshan-LDMS Connector itself.

A run-time listener on the Darshan runtime (Figure 2): each I/O event
is sampled, formatted (charging the formatting cost to the issuing
rank), and published to the compute node's ldmsd under the connector's
single stream tag (Figure 1's "Tag A").  The connector never blocks on
downstream transport — publishing hands the message to the local
daemon, push-based, exactly the design argument of Section IV-B.
"""

from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass, field
from zlib import crc32

from repro.core.batch import ColumnarMessage, spine_for
from repro.core.json_format import (
    ColumnarFormatted,
    FormatCostModel,
    MessageBuilder,
)
from repro.core.sampling import EventSampler
from repro.darshan.runtime import DarshanRuntime, IOEvent
from repro.ldms.resilience import RetryPolicy
from repro.telemetry.collector import collector_for
from repro.telemetry.trace import (
    REPLAYED,
    SPILLED,
    STAGE_PUBLISH,
    make_trace_id,
)

__all__ = ["ConnectorConfig", "ConnectorStats", "DarshanLdmsConnector"]

#: The single stream tag the connector publishes on (Section IV-C).
DEFAULT_STREAM_TAG = "darshanConnector"


@dataclass(frozen=True)
class ConnectorConfig:
    """Connector feature switches."""

    stream_tag: str = DEFAULT_STREAM_TAG
    #: "json" = production; "none" = the 0.37 %-overhead ablation
    #: (Streams send called, no sprintf formatting).
    format_mode: str = "json"
    #: Publish every n-th read/write event (1 = everything, the paper's
    #: current behaviour; >1 = the future-work sampling).
    sample_every: int = 1
    cost_model: FormatCostModel = field(default_factory=FormatCostModel)
    #: Spill-to-Darshan-log fallback (the real connector's behaviour
    #: when the local ldmsd is unreachable): events buffer in order,
    #: a reconnect loop backs off exponentially with deterministic
    #: jitter, and the buffer replays in order on reconnect.  Off by
    #: default — the paper's connector path is bit-for-bit unchanged.
    spill: bool = False
    reconnect_base_s: float = 0.05
    reconnect_cap_s: float = 2.0
    reconnect_max_attempts: int = 30
    #: Compatibility keyword only: the columnar path *is* the fast
    #: lane, and the lane is the world's.  Only ``True`` is accepted;
    #: stored nowhere.
    columnar: InitVar[bool | None] = None

    def __post_init__(self, columnar: bool | None) -> None:
        if self.format_mode not in ("json", "none"):
            raise ValueError(f"format_mode must be json or none, got {self.format_mode!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.reconnect_max_attempts < 1:
            raise ValueError("reconnect_max_attempts must be >= 1")
        if columnar is not None and not columnar:
            raise ValueError(
                "the connector takes its lane from the world it publishes "
                "into: use WorldConfig(fast_lane=False) for the reference "
                "lane, not ConnectorConfig(columnar=False)"
            )


@dataclass
class ConnectorStats:
    """Per-run accounting (feeds Table II's message columns)."""

    events_seen: int = 0
    messages_published: int = 0
    messages_suppressed: int = 0
    numeric_conversions: int = 0
    format_seconds: float = 0.0
    publish_seconds: float = 0.0
    bytes_published: int = 0
    # -- spill/replay (zero unless ConnectorConfig(spill=True) and the
    #    local daemon actually went down) --
    events_spilled: int = 0
    events_replayed: int = 0
    reconnect_attempts: int = 0

    @property
    def overhead_seconds(self) -> float:
        """Total app-side time the connector charged."""
        return self.format_seconds + self.publish_seconds


class DarshanLdmsConnector:
    """Glue between a Darshan runtime and the LDMS streams fabric."""

    def __init__(
        self,
        runtime: DarshanRuntime,
        daemon_for_node,
        config: ConnectorConfig = ConnectorConfig(),
    ):
        """``daemon_for_node`` maps a node name to its ldmsd — pass an
        :class:`~repro.ldms.aggregator.AggregationFabric`'s
        ``daemon_for`` or any equivalent callable."""
        if not runtime.config.absolute_timestamps:
            raise ValueError(
                "the connector requires the absolute-timestamp-modified "
                "Darshan runtime (DarshanConfig(absolute_timestamps=True))"
            )
        self.runtime = runtime
        self.env = runtime.env
        self.config = config
        self._daemon_for_node = daemon_for_node
        self.builder = MessageBuilder(config.cost_model)
        self.sampler = EventSampler(config.sample_every)
        self.stats = ConnectorStats()
        # Frozen-config fields the per-event path reads, hoisted to
        # plain attributes (one lookup instead of two, 62k+ times).
        self._stream_tag = config.stream_tag
        self._format_mode = config.format_mode
        self._spill_enabled = config.spill
        self._sample_all = config.sample_every == 1
        self._job_id = runtime.job_id
        #: Per-rank message sequence numbers: the deterministic basis of
        #: telemetry trace ids (no RNG, no wall clock — stamping traces
        #: cannot perturb a seeded campaign).
        self._trace_seq: dict[int, int] = {}
        #: rank -> "job:rank:" id prefix (validated once per rank).
        self._trace_prefix: dict[int, str] = {}
        #: node name -> FIFO of (trace_id, body, nbytes) awaiting a
        #: reconnect replay (the in-memory stand-in for the events the
        #: real connector leaves in the post-run Darshan log); ``body``
        #: is a fast-lane row's ColumnarFormatted or a payload string.
        self._spill: dict[str, deque] = {}
        self._reconnecting: set[str] = set()
        self._reconnect_policy = RetryPolicy(
            max_attempts=config.reconnect_max_attempts,
            base_s=config.reconnect_base_s,
            cap_s=config.reconnect_cap_s,
        )
        runtime.add_event_listener(self)

    # -- the listener hook (runs on the application rank's clock) -----------

    def on_io_event(self, event: IOEvent):
        """Darshan listener hook: sample, format (charging the rank),
        publish to the node's ldmsd.

        The lane is the daemon's: a fast-lane world builds fast-lane
        daemons, and the connector formats and publishes the way the
        daemon it hands the message to carries it.
        """
        stats = self.stats
        stats.events_seen += 1
        if self._sample_all:
            # admit() with every_n == 1 is unconditionally True; keep
            # its one side effect without the call.
            self.sampler.admitted += 1
        elif not self.sampler.admit(event):
            stats.messages_suppressed += 1
            return

        daemon = self._daemon_for_node(event.context.node_name)
        if daemon.fast_lane:
            formatted = self.builder.format_columnar(
                event, mode=self._format_mode
            )
            if type(formatted) is ColumnarFormatted and not self._spill_enabled:
                pending = self._publish_columnar(event, formatted, daemon)
                if pending is not None:
                    yield from pending
                return
            # else: a spill run, a shape miss or ablation mode —
            # continue through the publish paths below.
        else:
            formatted = self.builder.format(event, mode=self._format_mode)
        stats.numeric_conversions += formatted.numeric_conversions
        stats.format_seconds += formatted.format_cost_s
        if type(formatted) is ColumnarFormatted:
            # A fast-lane spill run keeps the row: the spill buffer and
            # the send carry (shape, values), never a payload string.
            body, nbytes = formatted, formatted.payload_chars
        else:
            body = formatted.payload or "{}"
            nbytes = len(body)
        trace_id = self._next_trace_id(event.context.rank)

        if self._spill_enabled:
            yield from self._publish_or_spill(
                event, body, nbytes, formatted.format_cost_s, daemon, trace_id
            )
        elif daemon.fast_lane:
            # Coalesced publish: one engine trip instead of two.  The
            # slow lane advances the clock twice — to t_pub after the
            # format timeout, then to t_done after the publish cost — so
            # the fast lane computes both instants with the identical
            # float operand order and sleeps straight to t_done.
            env = self.env
            t_pub = env.now + formatted.format_cost_s
            t_done = t_pub + daemon.publish_cost(nbytes)
            yield env.timeout_at(t_done)
            collector = collector_for(env)
            if collector is not None:
                collector.begin(
                    trace_id,
                    self.runtime.job_id,
                    event.context.rank,
                    event.context.node_name,
                    t_begin=t_pub,
                )
            daemon.publish_prepaid(
                self.config.stream_tag, body, fmt="json",
                trace_id=trace_id, publish_time=t_pub,
            )
            stats.publish_seconds += t_done - t_pub
        else:
            # The sprintf tax: charged synchronously to the issuing rank.
            yield self.env.timeout(formatted.format_cost_s)
            collector = collector_for(self.env)
            if collector is not None:
                collector.begin(
                    trace_id,
                    self.runtime.job_id,
                    event.context.rank,
                    event.context.node_name,
                )
            t0 = self.env.now
            yield from daemon.publish(
                self.config.stream_tag, body, fmt="json",
                trace_id=trace_id,
            )
            stats.publish_seconds += self.env.now - t0
        stats.messages_published += 1
        # Count what actually went on the wire: format_mode="none"
        # publishes the two-byte "{}" placeholder, not the empty string.
        stats.bytes_published += nbytes

    def _publish_columnar(self, event: IOEvent, formatted: ColumnarFormatted,
                          daemon):
        """The fast lane's publish half for a column-wise formatted event.

        Express path (armed spine): both lane instants — ``t_pub`` and
        ``t_done`` — are computed with the fast lane's exact float
        operand order, the engine clock fast-forwards with **zero**
        events when no other process is due in the window, and the
        event enters the spine's virtual transport as one row.  That
        path is a plain call — no generator exists for it; this returns
        ``None`` when the event is fully handled, or a generator the
        caller must drive (a real engine wait, after which the spine is
        *re-checked*: a de-armed or unarmed spine sends the event down
        the per-message path, where a lazy
        :class:`~repro.core.batch.ColumnarMessage` rides the
        event-driven pipeline).
        """
        stats = self.stats
        stats.numeric_conversions += formatted.numeric_conversions
        stats.format_seconds += formatted.format_cost_s
        nbytes = formatted.payload_chars
        ctx = event.context
        trace_id = self._next_trace_id(ctx.rank)
        env = self.env
        t_pub = env.now + formatted.format_cost_s
        # daemon.publish_cost, inlined (same expression, same float
        # operand order; one method call fewer per event).
        t_done = t_pub + (
            daemon.publish_overhead_s + nbytes / daemon.loopback_bandwidth_bps
        )
        spine = spine_for(env)
        if (
            spine is not None
            and spine.accepts(daemon, self._stream_tag)
            and env.advance_if_idle(t_done)
        ):
            spine.append(
                daemon, formatted.shape, formatted.values, nbytes,
                trace_id, t_pub, self._job_id, ctx.rank,
            )
            stats.publish_seconds += t_done - t_pub
            stats.messages_published += 1
            stats.bytes_published += nbytes
            return None
        return self._publish_columnar_wait(
            event, formatted, daemon, trace_id, nbytes, t_pub, t_done
        )

    def _publish_columnar_wait(
        self, event, formatted, daemon, trace_id, nbytes, t_pub, t_done
    ):
        """The fast-lane publish that needs a real engine wait."""
        env = self.env
        yield env.timeout_at(t_done)
        spine = spine_for(env)
        if spine is not None and spine.accepts(daemon, self.config.stream_tag):
            spine.append(
                daemon, formatted.shape, formatted.values, nbytes,
                trace_id, t_pub, self.runtime.job_id, event.context.rank,
            )
        else:
            collector = collector_for(env)
            if collector is not None:
                collector.begin(
                    trace_id,
                    self.runtime.job_id,
                    event.context.rank,
                    event.context.node_name,
                    t_begin=t_pub,
                )
            daemon.publish_prepaid_message(
                ColumnarMessage(
                    self.config.stream_tag,
                    formatted.shape, formatted.values, nbytes,
                    src_node=daemon.node.name,
                    publish_time=t_pub,
                    trace_id=trace_id,
                )
            )
        stats = self.stats
        stats.publish_seconds += t_done - t_pub
        stats.messages_published += 1
        stats.bytes_published += nbytes

    def _next_trace_id(self, rank: int) -> str:
        seq = self._trace_seq.get(rank, 0)
        self._trace_seq[rank] = seq + 1
        prefix = self._trace_prefix.get(rank)
        if prefix is None:
            # The first id for a rank validates all three components
            # (make_trace_id rejects bools, negatives, non-ints); the
            # cached "job:rank:" prefix then skips revalidating the two
            # constants on every subsequent message.
            tid = make_trace_id(self.runtime.job_id, rank, seq)
            self._trace_prefix[rank] = tid[: tid.rfind(":") + 1]
            return tid
        return prefix + str(seq)

    # -- spill/replay: the Darshan-log fallback -----------------------------

    def _publish_or_spill(self, event: IOEvent, body, nbytes: int,
                          format_cost_s: float, daemon, trace_id: str):
        """Publish with the down-daemon fallback (``spill=True`` runs).

        Format cost is charged first (the event was formatted either
        way); if the local ldmsd is down at send time the event parks in
        the spill buffer at zero further cost — the real connector's
        failed send is immediate — and a reconnect loop takes over.
        """
        env = self.env
        node_name = event.context.node_name
        rank = event.context.rank
        yield env.timeout(format_cost_s)
        collector = collector_for(env)
        if collector is not None:
            collector.begin(trace_id, self.runtime.job_id, rank, node_name)
        if not daemon.failed:
            t_pub = env.now
            t_done = t_pub + daemon.publish_cost(nbytes)
            yield env.timeout_at(t_done)
            if not daemon.failed:
                self._send(daemon, trace_id, body, nbytes, t_pub)
                self.stats.publish_seconds += t_done - t_pub
                return
            # Crashed inside the send window: fall through to the spill
            # (the send never completed; its cost was paid in vain).
        self._spill_event(node_name, daemon, trace_id, body, nbytes)

    def _send(self, daemon, trace_id: str, body, nbytes: int,
              publish_time: float) -> None:
        """Hand one spill-run event to ``daemon``: a payload string as
        is, a fast-lane row as a lazy ColumnarMessage."""
        if type(body) is str:
            daemon.publish_prepaid(
                self._stream_tag, body, fmt="json",
                trace_id=trace_id, publish_time=publish_time,
            )
        else:
            daemon.publish_prepaid_message(
                ColumnarMessage(
                    self._stream_tag, body.shape, body.values, nbytes,
                    src_node=daemon.node.name,
                    publish_time=publish_time,
                    trace_id=trace_id,
                )
            )

    def _spill_event(self, node_name: str, daemon, trace_id: str, body,
                     nbytes: int) -> None:
        buffer = self._spill.get(node_name)
        if buffer is None:
            buffer = self._spill[node_name] = deque()
        buffer.append((trace_id, body, nbytes))
        self.stats.events_spilled += 1
        collector = collector_for(self.env)
        if collector is not None:
            collector.hop(trace_id, STAGE_PUBLISH, node_name, SPILLED)
        if node_name not in self._reconnecting:
            self._reconnecting.add(node_name)
            self.env.process(self._reconnect_loop(node_name, daemon))

    def _reconnect_loop(self, node_name: str, daemon):
        """Back off until the local ldmsd answers, then replay the spill.

        Attempts are bounded; on exhaustion whatever is still buffered
        stays there — the post-run-Darshan-log outcome, reconciled as
        ``in_flight_spill`` rather than a drop.  A later spill on the
        same node starts a fresh loop (fresh attempt budget).
        """
        policy = self._reconnect_policy
        key = crc32(node_name.encode())
        try:
            for attempt in range(1, policy.max_attempts + 1):
                self.stats.reconnect_attempts += 1
                yield self.env.timeout(policy.delay(attempt, key))
                if daemon.failed:
                    continue
                drained = yield from self._replay(node_name, daemon)
                if drained:
                    return
        finally:
            self._reconnecting.discard(node_name)

    def _replay(self, node_name: str, daemon):
        """In-order replay of one node's spill buffer.

        Publish cost per event is charged to the connector's reconnect
        process (the replay reads the log off the application's clock).
        Returns False if the daemon dies again mid-replay — undelivered
        entries stay queued for the next reconnect attempt.
        """
        buffer = self._spill[node_name]
        collector = collector_for(self.env)
        while buffer:
            trace_id, body, nbytes = buffer[0]
            yield self.env.timeout(daemon.publish_cost(nbytes))
            if daemon.failed:
                return False
            if collector is not None:
                collector.hop(trace_id, STAGE_PUBLISH, node_name, REPLAYED)
            self._send(daemon, trace_id, body, nbytes, self.env.now)
            buffer.popleft()
            self.stats.events_replayed += 1
        return True

    def spill_pending(self) -> int:
        """Events still parked in spill buffers (``in_flight_spill``)."""
        return sum(len(b) for b in self._spill.values())

    # -- derived reporting -----------------------------------------------------

    def message_rate(self, runtime_seconds: float) -> float:
        """Messages per second, Table II's "Rate (msgs/sec)" column."""
        if runtime_seconds <= 0:
            raise ValueError("runtime_seconds must be positive")
        return self.stats.messages_published / runtime_seconds
