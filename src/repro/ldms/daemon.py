"""ldmsd: the LDMS daemon and its stream-forwarding transport.

Each daemon owns a local :class:`~repro.ldms.streams.StreamsBus`.
Forward rules push matching messages to a peer daemon over the cluster
network through a *bounded* FIFO outbox drained by a forwarder process;
when the outbox is full the message is dropped (best-effort, no resend —
the Streams semantics the paper documents).  Samplers publish periodic
metric sets onto reserved ``metrics/<name>`` tags riding the same
fabric.

The application-facing :meth:`Ldmsd.publish` is a generator charging a
small, size-dependent publish cost to the caller — deliberately tiny,
because the paper's ablation shows the Streams API itself costs ~0.37 %;
it is the JSON *formatting* upstream that hurts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from zlib import crc32

from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.ldms.resilience import RetryPolicy
from repro.ldms.streams import StreamMessage, StreamsBus
from repro.sim import Environment, Event, Interrupt, Store
from repro.telemetry import trace as _trace
from repro.telemetry.collector import collector_for

__all__ = ["Ldmsd", "ForwardStats"]


class _BusTelemetry:
    """Bridge from one daemon's bus to the env's trace collector.

    Installed unconditionally; with no collector installed every hook
    is one failed attribute lookup on the environment
    (:func:`~repro.telemetry.collector.collector_for`), so the untraced
    hot path is untouched.
    """

    __slots__ = ("env", "node")

    def __init__(self, daemon: "Ldmsd"):
        self.env = daemon.env
        self.node = daemon.node.name

    def on_publish(self, message: StreamMessage, delivered: int) -> None:
        if not message.trace_id:
            return
        collector = collector_for(self.env)
        if collector is None:
            return
        outcome = _trace.DELIVERED if delivered else _trace.DROP_NO_SUBSCRIBER
        collector.hop(message.trace_id, _trace.STAGE_BUS, self.node, outcome)


@dataclass
class ForwardStats:
    """Accounting for one forward rule."""

    enqueued: int = 0
    forwarded: int = 0
    dropped_overflow: int = 0
    bytes_forwarded: int = 0
    max_queue_depth: int = 0
    # -- resilience counters (all zero unless retry/flaky configured,
    #    except purged_on_crash, which any owner crash can raise) --
    retries: int = 0
    redelivered: int = 0
    failovers: int = 0
    dead_letters: int = 0
    purged_on_crash: int = 0


class _FlakyTransport:
    """Probabilistic send errors on one forward rule.

    ``mode="lost"`` drops the batch on the wire; ``mode="unacked"``
    delivers it but loses the acknowledgement, so the sender retries
    and the peer sees a duplicate — the case the idempotent ingest
    journal exists for.  Draws come from a seeded stream, so error
    sequences replay exactly.
    """

    __slots__ = ("error_rate", "mode", "rng")

    def __init__(self, error_rate: float, mode: str, rng):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        if mode not in ("lost", "unacked"):
            raise ValueError("mode must be 'lost' or 'unacked'")
        self.error_rate = error_rate
        self.mode = mode
        self.rng = rng

    def draw(self) -> str | None:
        """The error mode this send suffers, or ``None`` (clean send)."""
        return self.mode if self.rng.random() < self.error_rate else None


class _Forwarder:
    """Pushes one tag's messages to one peer over the network.

    Messages queued behind the head of the outbox are coalesced into
    one network transfer of up to ``batch_size`` messages — the
    batching a real aggregation hop performs, and the reason stream
    transport keeps up with event bursts.

    Two drive modes share the outbox, all accounting and delivery: a
    batch whose transfer completes goes to ``peer.receive_batch``, one
    ``receive`` per message, so the receiving store lands each message
    before the next is delivered.

    * ``batch_deliver=False`` — the reference path: a persistent
      process blocks on the outbox and walks each batch through
      :meth:`Network.transfer`.
    * ``batch_deliver=True`` — the fast lane: no persistent process.
      :meth:`enqueue` schedules a same-timestep drain callback when the
      forwarder is idle (behind the rest of the current timestep, so
      burst/overflow behaviour matches the blocked-process wakeup), and
      each uncontended single-link transfer is one fused engine event
      whose completion callback delivers the batch and drains again.
      Completion instants are float-identical to the reference path;
      only the event *count* differs, so simulated results can diverge
      solely on exact float-time ties.
    """

    def __init__(
        self,
        env: Environment,
        owner: "Ldmsd",
        tag: str,
        peer: "Ldmsd",
        queue_depth: int,
        batch_size: int = 64,
        batch_deliver: bool = True,
        retry: RetryPolicy | None = None,
        standby: "Ldmsd | None" = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.env = env
        self.owner = owner
        self.tag = tag
        self.peer = peer
        self.batch_size = batch_size
        #: Drive mode: event callbacks (True) or a process (False).
        self.batch_deliver = batch_deliver
        #: Optional self-healing (repro.faults).  With ``retry=None``
        #: and no flaky transport, delivery is the legacy best-effort
        #: path, bit-for-bit.  With a policy, failed sends back off and
        #: resend; with a ``standby``, delivery fails over (stickily)
        #: when the primary peer is down, re-resolving the route.
        self.retry = retry
        self.standby = standby
        self._active_peer = peer
        self._flaky: _FlakyTransport | None = None
        self._retry_seq = 0
        self._retry_key = crc32(f"{owner.node.name}/{tag}".encode())
        self.outbox = Store(env, capacity=queue_depth)
        self.stats = ForwardStats()
        #: Telemetry gauge for this outbox's depth, named once here
        #: rather than formatted per enqueue.
        self.depth_gauge = f"outbox_depth/{owner.node.name}/{tag}"
        if batch_deliver:
            self.process = None
            self._draining = False
        else:
            self.process = env.process(self._run())

    def set_flaky(self, error_rate: float, mode: str, rng) -> None:
        """Make sends error with probability ``error_rate`` (seeded)."""
        self._flaky = _FlakyTransport(error_rate, mode, rng)

    def clear_flaky(self) -> None:
        self._flaky = None

    def enqueue(self, message: StreamMessage) -> None:
        if self.outbox.try_put(message):
            self.stats.enqueued += 1
            depth = len(self.outbox)
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            collector = collector_for(self.env)
            if collector is not None:
                node = self.owner.node.name
                if message.trace_id:
                    # The forward hop spans outbox wait + batched transfer.
                    collector.open_hop(message.trace_id, _trace.STAGE_FORWARD, node)
                collector.gauge(self.depth_gauge, depth)
            if self.batch_deliver and not self._draining:
                self._draining = True
                kick = Event(self.env)
                kick.callbacks.append(self._kick)
                kick.succeed()
        else:
            self.stats.dropped_overflow += 1
            if message.trace_id:
                collector = collector_for(self.env)
                if collector is not None:
                    collector.hop(
                        message.trace_id,
                        _trace.STAGE_FORWARD,
                        self.owner.node.name,
                        _trace.DROP_OVERFLOW,
                    )

    # -- fast lane: event-callback drive --------------------------------------

    def _take_batch(self) -> list:
        batch = []
        outbox = self.outbox
        while len(batch) < self.batch_size:
            message = outbox.try_get()
            if message is None:
                break
            batch.append(message)
        return batch

    def _kick(self, _event: Event | None = None) -> None:
        """Run transfer cycles until the outbox is empty (fast lane)."""
        env = self.env
        network = self.owner.network
        src = self.owner.node.name
        while True:
            dst = self._active_peer.node.name
            batch = self._take_batch()
            if not batch:
                self._draining = False
                return
            total_bytes = sum(m.size_bytes for m in batch)
            if network is None or src == dst:
                self._complete(batch, total_bytes)
                continue
            if total_bytes:
                links = network.links_on_path(src, dst)
                if len(links) == 1:
                    link = links[0]
                    server = link._server
                    if (
                        link._up
                        and not link._approaching
                        and not server._holders
                        and not server._waiting
                    ):
                        factor = network.congestion_factor()
                        req = server.acquire()
                        done = env.timeout_at(
                            (env.now + link.latency_s * factor)
                            + link.transmit_time(total_bytes) * factor
                        )
                        done.callbacks.append(
                            lambda _ev, b=batch, t=total_bytes, r=req, s=server: (
                                s.release(r),
                                self._complete(b, t),
                                self._kick(),
                            )
                        )
                        return
            # Contended, multi-link or zero-byte route: walk this one
            # batch through the generator transfer, then drain again.
            env.process(self._finish_slow(batch, total_bytes))
            return

    def _finish_slow(self, batch: list, total_bytes: int):
        yield from self.owner.network.transfer_coalesced(
            self.owner.node.name, self._active_peer.node.name, total_bytes
        )
        self._complete(batch, total_bytes)
        self._kick()

    # -- delivery (both drive modes) -------------------------------------

    def _complete(self, batch: list, total_bytes: int) -> None:
        """A batch's network transfer finished: deliver, or start healing.

        With no retry policy and no flaky transport this is exactly the
        legacy best-effort path (synchronous delivery, drops recorded at
        the receiving daemon).  Otherwise the send can fail — flaky
        transport error, or the active peer is down — and the batch
        enters the retry/failover loop instead of being handed over.
        """
        peer = self._active_peer
        if self.retry is None and self._flaky is None:
            self._finish(batch, total_bytes, peer)
            return
        err = self._flaky.draw() if self._flaky is not None else None
        delivered = False
        if err == "unacked" and not peer.failed:
            # The batch arrived; only the ack was lost.  The peer has
            # the data now — the sender just doesn't know, and will
            # resend (the duplicate the ingest journal absorbs).
            self._finish(batch, total_bytes, peer)
            delivered = True
        if err is not None or peer.failed:
            if self.retry is None:
                if not delivered:
                    self._dead_letter(batch)
                return
            self._retry_seq += 1
            self.env.process(
                self._retry_loop(batch, total_bytes, delivered, self._retry_seq)
            )
            return
        self._finish(batch, total_bytes, peer)

    def _finish(
        self,
        batch: list,
        total_bytes: int,
        peer: "Ldmsd",
        recovery: tuple = (),
    ) -> None:
        """Hand a batch to ``peer``, closing forward hops.

        ``recovery`` lists extra outcome stamps (REDELIVERED, FAILOVER)
        to record per message before the FORWARDED close — the recovery-
        site ledger feeds off these.
        """
        self.stats.forwarded += len(batch)
        self.stats.bytes_forwarded += total_bytes
        collector = collector_for(self.env)
        if collector is not None:
            node = self.owner.node.name
            if not recovery:
                collector.close_hop_batch(
                    [m.trace_id for m in batch],
                    _trace.STAGE_FORWARD, node, _trace.FORWARDED,
                )
            else:
                for message in batch:
                    if message.trace_id:
                        for outcome in recovery:
                            collector.hop(
                                message.trace_id, _trace.STAGE_FORWARD, node, outcome
                            )
                        collector.close_hop(
                            message.trace_id, _trace.STAGE_FORWARD, node, _trace.FORWARDED
                        )
        peer.receive_batch(batch)

    def _dead_letter(self, batch: list) -> None:
        """Give up on a batch: attribute every message, drop it."""
        self.stats.dead_letters += len(batch)
        collector = collector_for(self.env)
        if collector is not None:
            # Count-weighted: the batch died as one unit, but every one
            # of its N messages is attributed to this drop site.
            collector.close_hop_batch(
                [m.trace_id for m in batch],
                _trace.STAGE_FORWARD,
                self.owner.node.name,
                _trace.DROP_DEAD_LETTER,
            )

    def _retry_loop(self, batch: list, total_bytes: int, delivered: bool, seq: int):
        """Back off, resend, fail over; dead-letter on exhaustion.

        ``delivered`` is True when an earlier send actually arrived
        (unacked-mode flaky error): the loop still resends — the sender
        has no ack — but exhaustion is then silent, not a drop.
        """
        policy = self.retry
        key = self._retry_key ^ seq
        failed_over = False
        network = self.owner.network
        src = self.owner.node.name
        for attempt in range(1, policy.max_attempts + 1):
            self.stats.retries += 1
            yield self.env.timeout(policy.delay(attempt, key))
            peer = self._active_peer
            if (
                peer.failed
                and self.standby is not None
                and peer is not self.standby
                and not self.standby.failed
            ):
                # Sticky failover: re-point the rule at the standby and
                # let route resolution find the new path.  Subsequent
                # batches go straight there with no FAILOVER stamp —
                # the stamp marks messages that lived through a switch.
                self._active_peer = peer = self.standby
                self.stats.failovers += 1
                failed_over = True
            if network is not None and src != peer.node.name:
                yield from network.transfer_coalesced(
                    src, peer.node.name, total_bytes
                )
            err = self._flaky.draw() if self._flaky is not None else None
            if err == "unacked" and not peer.failed:
                self._finish(
                    batch, total_bytes, peer,
                    recovery=self._recovery_stamps(failed_over, delivered),
                )
                delivered = True
                continue
            if err is not None or peer.failed:
                continue
            self._finish(
                batch, total_bytes, peer,
                recovery=self._recovery_stamps(failed_over, delivered),
            )
            self.stats.redelivered += len(batch)
            return
        if not delivered:
            self._dead_letter(batch)

    @staticmethod
    def _recovery_stamps(failed_over: bool, duplicate: bool) -> tuple:
        stamps = (_trace.FAILOVER,) if failed_over else ()
        # A resend that the peer already has is recovery bookkeeping at
        # the *ingest* dedup, not here; first arrivals get REDELIVERED.
        if not duplicate:
            stamps += (_trace.REDELIVERED,)
        return stamps

    def purge_on_crash(self) -> None:
        """The owner crashed: its queued, unsent messages die with it."""
        while True:
            message = self.outbox.try_get()
            if message is None:
                break
            self.stats.purged_on_crash += 1
            if message.trace_id:
                collector = collector_for(self.env)
                if collector is not None:
                    collector.close_hop(
                        message.trace_id,
                        _trace.STAGE_FORWARD,
                        self.owner.node.name,
                        _trace.DROP_DAEMON_FAILED,
                    )

    # -- reference path: blocking process -------------------------------------

    def _run(self):
        network = self.owner.network
        while True:
            try:
                first = yield self.outbox.get()
            except Interrupt:
                return
            batch = [first]
            while len(batch) < self.batch_size:
                extra = self.outbox.try_get()
                if extra is None:
                    break
                batch.append(extra)
            total_bytes = sum(m.size_bytes for m in batch)
            dst = self._active_peer.node.name
            if network is not None and self.owner.node.name != dst:
                yield from network.transfer(
                    self.owner.node.name, dst, total_bytes
                )
            self._complete(batch, total_bytes)


class Ldmsd:
    """One LDMS daemon on one node."""

    #: Express-spine back-pointer (repro.core.batch).  While an armed
    #: spine virtualizes this daemon's stream traffic, any publish or
    #: fault applied through the daemon itself de-arms the spine first —
    #: queued virtual rows complete delivery, then the per-message path
    #: handles everything from the mutation on.
    _express_spine = None

    def __init__(
        self,
        env: Environment,
        node: Node,
        network: Network | None = None,
        *,
        name: str = "ldmsd",
        forward_queue_depth: int = 65536,
        publish_overhead_s: float = 0.8e-6,
        loopback_bandwidth_bps: float = 4e9,
        fast_lane: bool = True,
    ):
        if forward_queue_depth < 1:
            raise ValueError("forward_queue_depth must be >= 1")
        self.env = env
        self.node = node
        self.network = network
        self.name = name
        self.publish_overhead_s = publish_overhead_s
        self.loopback_bandwidth_bps = loopback_bandwidth_bps
        #: Forwarders drive their outboxes with event callbacks instead
        #: of a process (see :class:`_Forwarder` for the one way their
        #: results can differ).  False keeps the process-driven
        #: reference path.  A connector publishing here takes this as
        #: its lane too.
        self.fast_lane = fast_lane
        self.streams = StreamsBus()
        self.streams.telemetry = _BusTelemetry(self)
        self._forwarders: list[_Forwarder] = []
        self._samplers: list = []
        self._failed = False
        #: Messages discarded because the daemon was down.
        self.dropped_while_failed = 0
        node.register_daemon(name, self)

    # -- stream topology -----------------------------------------------------

    def add_stream_forward(
        self,
        tag: str,
        peer: "Ldmsd",
        queue_depth: int | None = None,
        retry: RetryPolicy | None = None,
        standby: "Ldmsd | None" = None,
    ) -> None:
        """Push every message on ``tag`` to ``peer`` (aggregation hop).

        ``retry``/``standby`` opt this rule into the self-healing
        delivery path (see :class:`_Forwarder`); left at ``None`` the
        rule is the paper's best-effort Streams transport, unchanged.
        """
        if peer is self:
            raise ValueError("a daemon cannot forward to itself")
        if standby is self:
            raise ValueError("a daemon cannot fail over to itself")
        fwd = _Forwarder(
            self.env,
            self,
            tag,
            peer,
            queue_depth or 65536,
            batch_deliver=self.fast_lane,
            retry=retry,
            standby=standby,
        )
        self._forwarders.append(fwd)
        self.streams.subscribe(tag, fwd.enqueue)

    def set_flaky(self, error_rate: float, mode: str, rng, tag: str | None = None) -> None:
        """Make forward sends (on ``tag``, or all rules) error randomly."""
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        for fwd in self._forwarders:
            if tag is None or fwd.tag == tag:
                fwd.set_flaky(error_rate, mode, rng)

    def clear_flaky(self, tag: str | None = None) -> None:
        for fwd in self._forwarders:
            if tag is None or fwd.tag == tag:
                fwd.clear_flaky()

    def forward_stats(self) -> list[ForwardStats]:
        return [f.stats for f in self._forwarders]

    def stats_snapshot(self) -> dict:
        """Merged bus + per-rule forward accounting as one plain dict.

        The single entry point health reports (and operators) use —
        callers no longer reach into ``_Forwarder`` internals.
        """
        return {
            "name": self.name,
            "node": self.node.name,
            "failed": self._failed,
            "dropped_while_failed": self.dropped_while_failed,
            "bus": {
                "published": self.streams.stats.published,
                "delivered": self.streams.stats.delivered,
                "dropped_no_subscriber": self.streams.stats.dropped_no_subscriber,
                "bytes_published": self.streams.stats.bytes_published,
            },
            "forwards": [
                {
                    "tag": f.tag,
                    "peer": f"{f.peer.node.name}/{f.peer.name}",
                    "active_peer": (
                        f"{f._active_peer.node.name}/{f._active_peer.name}"
                    ),
                    "enqueued": f.stats.enqueued,
                    "forwarded": f.stats.forwarded,
                    "dropped_overflow": f.stats.dropped_overflow,
                    "bytes_forwarded": f.stats.bytes_forwarded,
                    "max_queue_depth": f.stats.max_queue_depth,
                    "queue_depth": len(f.outbox),
                    "retries": f.stats.retries,
                    "redelivered": f.stats.redelivered,
                    "failovers": f.stats.failovers,
                    "dead_letters": f.stats.dead_letters,
                    "purged_on_crash": f.stats.purged_on_crash,
                }
                for f in self._forwarders
            ],
        }

    # -- the app-facing Streams API -------------------------------------------

    def publish(self, tag: str, payload, fmt: str = "json", trace_id: str = ""):
        """Generator: publish to the local bus, charging publish cost.

        ``payload`` may be a pre-formatted string or any JSON-serializable
        object (serialized here as the API does).

        Best-effort all the way down: publishing into a failed daemon
        costs the caller the same tiny send time and silently loses the
        message — monitoring failure never breaks the application.
        """
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        if not isinstance(payload, str):
            payload = json.dumps(payload, separators=(",", ":"))
        message = StreamMessage(
            tag=tag,
            payload=payload,
            fmt=fmt,
            src_node=self.node.name,
            publish_time=self.env.now,
            trace_id=trace_id,
        )
        cost = self.publish_cost(message.size_bytes)
        t0 = self.env.now
        yield self.env.timeout(cost)
        if self._failed:
            self.dropped_while_failed += 1
            self._record_hop(trace_id, _trace.STAGE_PUBLISH, _trace.DROP_DAEMON_FAILED)
            return 0
        self._record_hop(trace_id, _trace.STAGE_PUBLISH, _trace.PUBLISHED, t_in=t0)
        delivered = self.streams.publish(message)
        return delivered

    def publish_cost(self, nbytes: int) -> float:
        """Simulated seconds one publish of ``nbytes`` charges the caller."""
        return self.publish_overhead_s + nbytes / self.loopback_bandwidth_bps

    def publish_prepaid(
        self,
        tag: str,
        payload: str,
        fmt: str = "json",
        trace_id: str = "",
        publish_time: float | None = None,
        parsed: dict | None = None,
    ) -> int:
        """The post-timeout half of :meth:`publish`, for callers that
        already charged :meth:`publish_cost` themselves (the connector's
        coalesced fast lane).  ``publish_time`` is the instant the
        two-trip path would have stamped (format done, cost not yet
        charged); failure is checked *now*, exactly like :meth:`publish`
        checks after its own timeout.
        """
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        t_pub = self.env.now if publish_time is None else publish_time
        if self._failed:
            self.dropped_while_failed += 1
            self._record_hop(trace_id, _trace.STAGE_PUBLISH, _trace.DROP_DAEMON_FAILED)
            return 0
        message = StreamMessage(
            tag=tag,
            payload=payload,
            fmt=fmt,
            src_node=self.node.name,
            publish_time=t_pub,
            trace_id=trace_id,
            parsed=parsed,
        )
        self._record_hop(trace_id, _trace.STAGE_PUBLISH, _trace.PUBLISHED, t_in=t_pub)
        return self.streams.publish(message)

    def publish_prepaid_message(self, message) -> int:
        """:meth:`publish_prepaid` for a caller-built message object.

        The fast lane's per-message path publishes a lazy
        :class:`~repro.core.batch.ColumnarMessage` whose payload renders
        only if something downstream reads it; semantics (failure
        check, publish hop, bus delivery) are identical.
        """
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        if self._failed:
            self.dropped_while_failed += 1
            self._record_hop(
                message.trace_id, _trace.STAGE_PUBLISH, _trace.DROP_DAEMON_FAILED
            )
            return 0
        self._record_hop(
            message.trace_id, _trace.STAGE_PUBLISH, _trace.PUBLISHED,
            t_in=message.publish_time,
        )
        return self.streams.publish(message)

    def publish_now(self, tag: str, payload, fmt: str = "json", trace_id: str = "") -> int:
        """Zero-cost publish for daemon-internal producers (samplers)."""
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        if self._failed:
            self.dropped_while_failed += 1
            self._record_hop(trace_id, _trace.STAGE_PUBLISH, _trace.DROP_DAEMON_FAILED)
            return 0
        if not isinstance(payload, str):
            payload = json.dumps(payload, separators=(",", ":"))
        message = StreamMessage(
            tag=tag,
            payload=payload,
            fmt=fmt,
            src_node=self.node.name,
            publish_time=self.env.now,
            trace_id=trace_id,
        )
        return self.streams.publish(message)

    def _record_hop(
        self, trace_id: str, stage: str, outcome: str, t_in: float | None = None
    ) -> None:
        if not trace_id:
            return
        collector = collector_for(self.env)
        if collector is not None:
            collector.hop(trace_id, stage, self.node.name, outcome, t_in=t_in)

    # -- receiving from peers ----------------------------------------------------

    def receive(self, message: StreamMessage) -> None:
        """Deliver a forwarded message to this daemon's local bus."""
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        if self._failed:
            self.dropped_while_failed += 1
            self._record_hop(
                message.trace_id, _trace.STAGE_RECEIVE, _trace.DROP_DAEMON_FAILED
            )
            return
        self.streams.publish(message)

    def receive_batch(self, messages: list) -> None:
        """Deliver a forwarder batch: one :meth:`receive` per message,
        in order.  A subscriber that fails this daemon mid-batch makes
        every message behind it drop at receive, as sequential
        delivery does."""
        for message in messages:
            self.receive(message)

    # -- failure injection ------------------------------------------------

    @property
    def failed(self) -> bool:
        return self._failed

    def fail(self) -> None:
        """Crash the daemon: everything sent to it from now on is lost
        (Streams is best-effort — no reconnect, no resend), and its own
        queued-but-unsent outbox contents die with the process.  Batches
        already mid-transfer are packets on the wire and complete."""
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        self._failed = True
        for fwd in self._forwarders:
            fwd.purge_on_crash()

    def recover(self) -> None:
        """Restart the daemon.  Nothing lost in between comes back."""
        self._failed = False

    # -- samplers -------------------------------------------------------------------

    def add_sampler(self, plugin, interval_s: float) -> None:
        """Run ``plugin`` every ``interval_s``, publishing metric sets."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        proc = self.env.process(self._sampler_loop(plugin, interval_s))
        self._samplers.append(proc)

    def _sampler_loop(self, plugin, interval_s: float):
        tag = f"metrics/{plugin.name}"
        while True:
            try:
                yield self.env.timeout(interval_s)
            except Interrupt:
                return
            metrics = plugin.sample(self.env.now)
            self.publish_now(
                tag,
                {
                    "producer": self.node.name,
                    "timestamp": self.env.now,
                    "metrics": metrics,
                },
            )

    def stop(self) -> None:
        """Stop sampler loops (forwarders idle out on their own)."""
        for proc in self._samplers:
            if proc.is_alive:
                proc.interrupt("daemon stopping")
        self._samplers.clear()
