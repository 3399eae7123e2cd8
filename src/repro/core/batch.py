"""The fast lane's columnar rows and the express spine.

Two pieces:

* :class:`ColumnarMessage` — a lazy, StreamMessage-duck-typed view of
  one formatted row, for the per-message path: the payload and the
  parsed dict materialize only if something downstream actually reads
  them (chaos paths, CSV stores).
* :class:`ColumnarSpine` — the express spine: when an armed guard
  proves nothing can observe the difference, the publish → forward →
  ingest pipeline for connector traffic is *virtualized*.  Each hop's
  timing recurrence (outbox drain, fused link transfer, deferred
  same-instant kick) is computed arithmetically on a small private
  heap instead of through engine events, so ``engine_events`` scales
  with application I/O, not with monitoring messages.  Every
  externally observable artifact — bus/forward counters (the *real*
  stats objects are mutated), DSOS rows and their round-robin
  placement, ingest-journal WAL entries, telemetry hops with exact
  ``t_in``/``t_out``, gauges, histograms — is produced identically, at
  the identical simulated instants, with the identical float
  arithmetic as the event-driven path.

A virtual transfer carries the outbox's row tuples
``(trace_id, nbytes, shape, values, t_enqueue)`` as they are; no
per-row dict exists until the terminal store builds the database
object.

Same-instant bursts
-------------------

An idle real forwarder drains on a zero-delay kick event, behind every
event already due at that instant, so rows published at one instant
leave as one batch.  The spine keeps that schedule at both hops:

* L0 (compute daemons): when the engine still has an event due at the
  row's instant, the drain is deferred to a real zero-delay engine
  event — the same place in the event order the real kick takes.
  Otherwise nothing else can join the batch first and the hop drains
  at once; an instant whose row is provably alone on an idle spine
  runs the closed-form fused path (both hops as arithmetic).
* L1 (the head relay): rows arrive only from virtual completions, so
  the deferred kick is a drain entry on the spine's own heap, ordered
  behind every completion already due at that instant.

Guard discipline
----------------

The spine arms only when the world is *inert*: no fault plan, no retry
policy, no standby aggregator, no subscriber on the observer hub
(diagnosis, the flight recorder), no probe scanner, no CSV store,
single-link routes, fast-lane daemons and store.
Telemetry may be armed — the spine emits exact hop records.  Any
mutation that could break the mirror (a daemon failing or turning
flaky, a link partition/degrade, congestion attach, a subscriber
joining or leaving a spine bus, samplers starting, a foreign publish
on the spine's tag, a hub subscription, a store stall) *de-arms
first*: queued virtual traffic completes delivery to the pre-mutation
topology, then the pipeline returns to the per-message path.  De-arm
is one-way for the mutating scenario and slightly generous — rows a
real crash would have purged from an outbox instead finish delivery —
which is why every guard-breaking scenario falls back *before* the
mutation applies.

Ties at identical float times between *unrelated* instants (a transfer
completing exactly when a publish lands) may still resolve in a
different order than the event-driven path; with continuous service
times such ties do not occur — the same caveat
:meth:`~repro.cluster.network.Network.transfer_coalesced` documents.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.sim import Event
from repro.telemetry import trace as _trace
from repro.telemetry.collector import collector_for

__all__ = [
    "ColumnarMessage",
    "ColumnarSpine",
    "SpineStats",
    "spine_for",
]

#: Attribute the armed spine is stored under on the Environment.
_ENV_ATTR = "_repro_express_spine"


def spine_for(env) -> "ColumnarSpine | None":
    """The armed express spine for ``env``, or ``None``."""
    return getattr(env, _ENV_ATTR, None)


class ColumnarMessage:
    """A StreamMessage-shaped view of one columnar row, lazily rendered.

    Duck-types the frozen :class:`~repro.ldms.streams.StreamMessage`
    for every consumer in the tree (buses, forwarders, stores, spill
    buffers): same attributes, same ``size_bytes``.  The payload string
    and the parsed dict are built on first access and cached — on paths
    that never read them (counters-only delivery) they never exist.
    """

    __slots__ = (
        "tag", "fmt", "src_node", "publish_time", "trace_id",
        "size_bytes", "_shape", "_values", "_payload", "_parsed",
    )

    def __init__(
        self, tag, shape, values, nbytes,
        src_node="", publish_time=0.0, trace_id="",
    ):
        self.tag = tag
        self.fmt = "json"
        self.src_node = src_node
        self.publish_time = publish_time
        self.trace_id = trace_id
        self.size_bytes = nbytes
        self._shape = shape
        self._values = values
        self._payload = None
        self._parsed = None

    @property
    def shape(self):
        """The compiled :class:`~repro.core.json_format._Shape`."""
        return self._shape

    @property
    def values(self) -> tuple:
        """The shape's varying slot values for this row."""
        return self._values

    @property
    def payload(self) -> str:
        payload = self._payload
        if payload is None:
            payload = self._payload = self._shape.render(self._values)[0]
        return payload

    @property
    def parsed(self) -> dict:
        parsed = self._parsed
        if parsed is None:
            parsed = self._parsed = self._shape.parsed(self._values)
        return parsed


@dataclass
class SpineStats:
    """Batch accounting for one express spine."""

    #: Rows appended (one per published event while armed).
    rows: int = 0
    #: Transfers started at the first hop (one batch of rows each).
    record_batches: int = 0
    #: Rows carried by those transfers (== rows, minus overflow drops).
    batch_rows: int = 0
    max_batch_rows: int = 0
    #: ``insert_many`` flushes of the ingest slab.
    ingest_flushes: int = 0
    #: Times the spine de-armed (0 on a clean express campaign).
    dearms: int = 0

    @property
    def mean_batch_rows(self) -> float:
        if not self.record_batches:
            return 0.0
        return self.batch_rows / self.record_batches


class _VirtualForwarder:
    """The timing mirror of one real :class:`_Forwarder` hop.

    Reproduces, arithmetically: the bounded outbox (same capacity and
    overflow rule as ``Store.try_put``), depth accounting against the
    *real* ``ForwardStats``, the drain of up to ``batch_size`` rows,
    and the fused uncontended single-link completion time
    ``(t + latency·f) + transmit(total)·f`` with the identical float
    operand order as ``_Forwarder._kick`` — so completion instants are
    bit-identical to the event-driven schedule.

    Occupancy is a timestamp, not a flag: ``busy_until`` is the instant
    the hop frees up.  A transfer started by :meth:`drain` leaves a
    completion entry in the spine's heap (``tracked``) that drains the
    hop again when it lands, as the real completion callback does.  A
    transfer fused closed-form by the spine leaves only the timestamp.
    Any other drain is a heap entry queued by :meth:`queue_drain`
    (``drain_queued``): the deferred same-instant kick, or the instant
    a fused transfer frees the hop.
    """

    __slots__ = (
        "spine", "fwd", "fstats", "link", "node", "tag", "outbox",
        "capacity", "busy_until", "tracked", "drain_queued",
    )

    def __init__(self, spine, fwd, link):
        self.spine = spine
        self.fwd = fwd  # the real _Forwarder: stats live there
        self.fstats = fwd.stats
        self.link = link
        self.node = fwd.owner.node.name
        self.tag = fwd.tag
        self.outbox: deque = deque()
        self.capacity = fwd.outbox.capacity
        self.busy_until = float("-inf")
        self.tracked = False
        self.drain_queued = False

    def queue_drain(self, t: float) -> None:
        """Rows are waiting at ``t``: drain behind everything already
        due then (the real forwarder's zero-delay kick), or when the
        fused transfer holding the hop frees it.  A tracked transfer
        drains on its own completion; a queued drain covers new rows."""
        if not self.tracked and not self.drain_queued:
            self.drain_queued = True
            busy = self.busy_until
            self.spine._push(t if t > busy else busy, self, None, 0)

    def drain(self, t: float) -> None:
        """Start a transfer at ``t`` (the hop is free) if rows are queued."""
        outbox = self.outbox
        if not outbox:
            return
        take = min(len(outbox), self.fwd.batch_size)
        rows = [outbox.popleft() for _ in range(take)]
        total = sum(row[1] for row in rows)
        # Same fused arithmetic as _Forwarder._kick (factor is 1.0 by
        # guard; multiplying keeps the operand order literal).
        factor = 1.0
        link = self.link
        done = (t + link.latency_s * factor) + link.transmit_time(total) * factor
        self.busy_until = done
        self.tracked = True
        self.spine._push(done, self, rows, total)


class ColumnarSpine:
    """Virtualized publish→forward→ingest for one stream tag."""

    def __init__(self, world):
        self.world = world
        self.env = world.env
        self.tag = world.fabric.tag
        self.store = world.store
        self.fabric = world.fabric
        self.stats = SpineStats()
        self._armed = False
        #: (time, seq, vfwd, rows | None, total_bytes) virtual
        #: completions (rows) and queued drains (None).
        self._heap: list = []
        self._hseq = 0
        #: L0 hops whose same-instant kick waits on a real engine event.
        self._kicks: list[_VirtualForwarder] = []
        self._l0: dict[str, _VirtualForwarder] = {}
        self._l1: _VirtualForwarder | None = None
        #: Cross-group ingest slab: DSOS rows awaiting one insert_many.
        #: Round-robin placement makes insert_many ≡ sequential inserts,
        #: so flush boundaries are free (``DsosCluster.insert_many``).
        self._slab: list[dict] = []
        self._slab_cap = 1024
        self.last_time = float("-inf")
        self._hooked: list = []
        # Hot-loop references, resolved at arm time (attribute chases
        # the fused per-row path must not repeat 62k times).
        self._journal = None
        self._sbus_stats = None
        self._rows_fn = None
        self._l1bus_stats = None

    # -- arming ----------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    def accepts(self, daemon, tag: str) -> bool:
        """True iff this armed spine carries ``tag`` traffic published
        at ``daemon`` (one of the virtualized L0 entry points)."""
        return (
            self._armed and tag == self.tag and daemon.node.name in self._l0
        )

    def try_arm(self) -> bool:
        """Arm iff the world is provably inert (see module docstring)."""
        world, fabric, store = self.world, self.fabric, self.store
        cfg = world.config
        if (
            cfg.faults is not None or cfg.retry is not None
            or cfg.standby_l1 or cfg.probe is not None or cfg.keep_csv
            or not cfg.fast_lane
        ):
            return False
        # Diagnosis and the flight recorder subscribe to the hub.
        if self.env.observers:
            return False
        if world._samplers_running or world._pipeline_samplers_running:
            return False
        if not store._fast or store._slow:
            return False
        # Replicated DSOS: quorum acks and per-write sequence numbers
        # are not virtualizable — the express spine only serves the
        # legacy flat cluster.
        if store._sharded:
            return False
        net = world.cluster.network
        if net._congestion is not None:
            return False
        daemons = [*fabric.compute_daemons.values(), fabric.l1, fabric.l2]
        for d in daemons:
            if d.failed or not d.fast_lane:
                return False
            for f in d._forwarders:
                if f._flaky is not None or f.retry is not None or len(f.outbox):
                    return False
        # Exactly one forward rule per relay daemon, on our tag, over a
        # healthy single-link route, with an undisturbed subscriber list.
        l1 = fabric.l1
        if len(l1._forwarders) != 1 or l1._forwarders[0].tag != self.tag:
            return False
        if fabric.l2.streams._subscribers.get(self.tag) != [store.on_message]:
            return False
        if l1.streams._subscribers.get(self.tag) != [l1._forwarders[0].enqueue]:
            return False
        links = net.links_on_path(l1.node.name, fabric.l2.node.name)
        if len(links) != 1 or not links[0]._up or links[0]._degrade != 1.0:
            return False
        self._l1 = _VirtualForwarder(self, l1._forwarders[0], links[0])
        for name, d in fabric.compute_daemons.items():
            if len(d._forwarders) != 1 or d._forwarders[0].tag != self.tag:
                return False
            if d.streams._subscribers.get(self.tag) != [d._forwarders[0].enqueue]:
                return False
            dlinks = net.links_on_path(name, l1.node.name)
            if len(dlinks) != 1 or not dlinks[0]._up or dlinks[0]._degrade != 1.0:
                return False
            self._l0[name] = _VirtualForwarder(self, d._forwarders[0], dlinks[0])
        self._journal = store.journal
        self._sbus_stats = store.daemon.streams.stats
        self._rows_fn = store.columnar_rows
        self._l1bus_stats = l1.streams.stats
        self._install_hooks(daemons, net)
        self._armed = True
        setattr(self.env, _ENV_ATTR, self)
        return True

    def _install_hooks(self, daemons, net) -> None:
        """Point every guard-relevant object back at this spine."""
        targets = [net, *daemons, self.store, self.env.observers]
        for d in daemons:
            targets.append(d.streams)
        for vf in (*self._l0.values(), self._l1):
            targets.append(vf.link)
        for obj in targets:
            obj._express_spine = self
            self._hooked.append(obj)

    def dearm(self) -> None:
        """Complete all in-flight virtual traffic, then stand down.

        Queued rows finish delivery to the pre-mutation topology (their
        completion instants may lie beyond ``env.now``; the records they
        produce are stamped at those instants).  Afterwards every
        publish takes the per-message path again.
        """
        if not self._armed:
            return
        self._armed = False
        self.stats.dearms += 1
        self.drain_all()
        for obj in self._hooked:
            obj._express_spine = None
        self._hooked.clear()
        if getattr(self.env, _ENV_ATTR, None) is self:
            delattr(self.env, _ENV_ATTR)

    # -- the virtual clock ------------------------------------------------

    def _push(self, t: float, vfwd, rows, total: int) -> None:
        heapq.heappush(self._heap, (t, self._hseq, vfwd, rows, total))
        self._hseq += 1

    def _kick_later(self, vfwd: _VirtualForwarder) -> None:
        """Defer an L0 drain to a zero-delay engine event: the engine
        still has events due at this instant, and rows they publish
        must join the batch exactly as they join the real outbox
        before the real kick fires."""
        vfwd.drain_queued = True
        self._kicks.append(vfwd)
        kick = Event(self.env)
        kick.callbacks.append(lambda _event: self._kick(vfwd))
        kick.succeed()

    def _kick(self, vfwd: _VirtualForwarder) -> None:
        if vfwd.drain_queued:  # else a de-arm already drained the hop
            self._kicks.remove(vfwd)
            vfwd.drain_queued = False
            now = self.env.now
            self.advance(now)
            vfwd.drain(now)

    def advance(self, now: float) -> None:
        """Apply every virtual completion due at or before ``now``."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            t, _, vfwd, rows, total = heapq.heappop(heap)
            self._complete(vfwd, rows, total, t)
        if len(self._slab) >= self._slab_cap:
            self._flush_slab()

    def drain_all(self) -> float:
        """Run the virtual schedule dry (end of run / de-arm).

        Returns the last virtual completion instant, ``-inf`` if the
        spine never carried traffic.
        """
        if self._kicks:
            # De-arm before a pending same-instant kick fired: drain
            # those hops now (the real kick is due at this instant).
            now = self.env.now
            self.advance(now)
            for vfwd in self._kicks:
                vfwd.drain_queued = False
                vfwd.drain(now)
            self._kicks.clear()
        heap = self._heap
        while heap:
            t, _, vfwd, rows, total = heapq.heappop(heap)
            self._complete(vfwd, rows, total, t)
        self._flush_slab()
        return self.last_time

    # -- hop mirrors ------------------------------------------------------

    def append(
        self, daemon, shape, values, nbytes: int,
        trace_id: str, t_pub: float, job_id: int, rank: int,
    ) -> None:
        """One published event enters the spine at ``env.now``.

        The caller (the connector's fast lane) has already advanced the
        clock to the publish-completion instant ``t_done`` and charged
        its own stats; this mirrors ``publish_prepaid`` → bus →
        forwarder-enqueue exactly, then lets the virtual transport run.
        """
        env = self.env
        now = env.now
        # Does the engine still have events due at this instant?  Their
        # publishes would join this row's first-hop batch.
        alone = env.peek() > now
        if self._heap:
            self.advance(now)
        elif len(self._slab) >= self._slab_cap:
            self._flush_slab()
        self.stats.rows += 1
        node = daemon.node.name
        vfwd = self._l0[node]
        fwd = vfwd.fwd
        bus_stats = daemon.streams.stats
        bus_stats.published += 1
        bus_stats.bytes_published += nbytes
        l1 = self._l1
        if (
            alone
            and not self._heap
            and not vfwd.outbox and vfwd.busy_until <= now
            and not l1.outbox
            and 0 < vfwd.capacity and 0 < l1.capacity
        ):
            # Nothing in flight anywhere on the spine, the first hop is
            # idle and nothing else is due at this instant: the row's
            # completion instant is closed-form — enqueue → drain →
            # transfer → deliver → transfer → ingest collapsed to
            # arithmetic.  Valid only because both hops are provably
            # idle, the heap empty and the instant this row's alone, so
            # the row is a one-row batch at each hop and nothing can
            # reorder around it.
            # Emits the identical stats, hops, gauges, journal
            # admissions and DSOS rows — in the identical per-trace
            # order, at the identical instants — as the generic
            # outbox/heap walk would.  ``busy_until`` stamps keep later
            # rows honest: one published before ``t0`` (or ``t1``)
            # queues behind this transfer exactly as the real
            # forwarders would make it.
            link = vfwd.link
            t0 = (now + link.latency_s * 1.0) + link.transmit_time(nbytes) * 1.0
            if l1.busy_until <= t0:
                bus_stats.delivered += 1
                l1link = l1.link
                t1 = (
                    (t0 + l1link.latency_s * 1.0)
                    + l1link.transmit_time(nbytes) * 1.0
                )
                fstats = vfwd.fstats
                fstats.enqueued += 1
                if fstats.max_queue_depth < 1:
                    fstats.max_queue_depth = 1
                fstats.forwarded += 1
                fstats.bytes_forwarded += nbytes
                stats = self.stats
                stats.record_batches += 1
                stats.batch_rows += 1
                if stats.max_batch_rows < 1:
                    stats.max_batch_rows = 1
                l1bus = self._l1bus_stats
                l1bus.published += 1
                l1bus.bytes_published += nbytes
                l1bus.delivered += 1
                l1stats = l1.fstats
                l1stats.enqueued += 1
                if l1stats.max_queue_depth < 1:
                    l1stats.max_queue_depth = 1
                l1stats.forwarded += 1
                l1stats.bytes_forwarded += nbytes
                sbus = self._sbus_stats
                sbus.published += 1
                sbus.bytes_published += nbytes
                sbus.delivered += 1
                if trace_id:
                    self._journal.admit_at(trace_id, t1)
                rows = self._rows_fn(shape, values)
                slab = self._slab
                slab.extend(rows)
                self.store.objects_stored += len(rows)
                if len(slab) >= self._slab_cap:
                    self._flush_slab()
                vfwd.busy_until = t0
                l1.busy_until = t1
                if t1 > self.last_time:
                    self.last_time = t1
                collector = collector_for(env)
                if collector is not None:
                    self._fused_telemetry(
                        collector, vfwd, l1, trace_id, t_pub,
                        job_id, rank, now, t0, t1,
                    )
                return
        collector = collector_for(env)
        if collector is not None:
            collector.begin(trace_id, job_id, rank, node, t_begin=t_pub)
            collector.hop(
                trace_id, _trace.STAGE_PUBLISH, node, _trace.PUBLISHED, t_in=t_pub
            )
        if len(vfwd.outbox) < vfwd.capacity:
            vfwd.outbox.append((trace_id, nbytes, shape, values, now))
            fwd.stats.enqueued += 1
            depth = len(vfwd.outbox)
            if depth > fwd.stats.max_queue_depth:
                fwd.stats.max_queue_depth = depth
            if collector is not None:
                collector.open_hop(trace_id, _trace.STAGE_FORWARD, node)
                collector.gauge(fwd.depth_gauge, depth)
        else:
            fwd.stats.dropped_overflow += 1
            if collector is not None:
                collector.hop(
                    trace_id, _trace.STAGE_FORWARD, node, _trace.DROP_OVERFLOW
                )
        bus_stats.delivered += 1
        if collector is not None:
            collector.hop(trace_id, _trace.STAGE_BUS, node, _trace.DELIVERED)
        if not (vfwd.tracked or vfwd.drain_queued):
            if vfwd.busy_until > now:
                vfwd.queue_drain(now)
            elif alone:
                vfwd.drain(now)
            else:
                self._kick_later(vfwd)
        if now > self.last_time:
            self.last_time = now

    def _fused_telemetry(
        self, collector, vfwd, l1,
        trace_id: str, t_pub: float, job_id: int, rank: int,
        now: float, t0: float, t1: float,
    ) -> None:
        """Exact hop/gauge records for one fused row — the per-trace
        order and ``t_in``/``t_out`` instants the generic walk emits."""
        node = vfwd.node
        l1node = l1.node
        collector.begin(trace_id, job_id, rank, node, t_begin=t_pub)
        collector.hop(
            trace_id, _trace.STAGE_PUBLISH, node, _trace.PUBLISHED,
            t_in=t_pub,
        )
        collector.gauge(vfwd.fwd.depth_gauge, 1)
        collector.hop(trace_id, _trace.STAGE_BUS, node, _trace.DELIVERED)
        collector.hop(
            trace_id, _trace.STAGE_FORWARD, node, _trace.FORWARDED,
            t_in=now, t_out=t0,
        )
        collector.gauge(l1.fwd.depth_gauge, 1)
        collector.hop(
            trace_id, _trace.STAGE_BUS, l1node, _trace.DELIVERED,
            t_in=t0, t_out=t0,
        )
        collector.hop(
            trace_id, _trace.STAGE_FORWARD, l1node, _trace.FORWARDED,
            t_in=t0, t_out=t1,
        )
        l2node = self.fabric.l2.node.name
        collector.hop(
            trace_id, _trace.STAGE_INGEST, l2node, _trace.STORED,
            t_in=t1, t_out=t1,
        )
        collector.hop(
            trace_id, _trace.STAGE_BUS, l2node, _trace.DELIVERED,
            t_in=t1, t_out=t1,
        )

    def _complete(self, vfwd, rows, total: int, t: float) -> None:
        """A heap entry is due at ``t``: a queued drain (``rows`` is
        None) or a finished transfer — deliver it, then drain again."""
        if rows is None:
            vfwd.drain_queued = False
            vfwd.drain(t)
            return
        n = len(rows)
        fstats = vfwd.fstats
        fstats.forwarded += n
        fstats.bytes_forwarded += total
        collector = collector_for(self.env)
        if collector is not None:
            self._close_forward_hops(collector, vfwd, rows, t)
        if vfwd is self._l1:
            self._ingest(rows, t)
        else:
            stats = self.stats
            stats.record_batches += 1
            stats.batch_rows += n
            if n > stats.max_batch_rows:
                stats.max_batch_rows = n
            self._deliver_to_l1(rows, t)
        vfwd.tracked = False
        vfwd.drain(t)
        if t > self.last_time:
            self.last_time = t

    def _close_forward_hops(self, collector, vfwd, rows, t: float) -> None:
        node = vfwd.node
        stage = _trace.STAGE_FORWARD
        if vfwd is self._l1:
            # L1 entry times travel with the rows (no collector._open
            # entry exists for the virtual hop).
            for tid, _, _, _, t_in in rows:
                collector.hop(tid, stage, node, _trace.FORWARDED, t_in=t_in, t_out=t)
        else:
            open_hops = collector._open
            for row in rows:
                tid = row[0]
                t_in = open_hops.pop((tid, stage, node), t)
                collector.hop(tid, stage, node, _trace.FORWARDED, t_in=t_in, t_out=t)

    def _deliver_to_l1(self, rows, t: float) -> None:
        """Group-enqueue at the L1 relay, then one deferred drain.

        Mirrors ``receive_batch``: every row passes through the L1 bus
        (stats + hops) into the L1 outbox; the drain is queued behind
        every completion already due at ``t`` — the real deferred
        same-instant kick, which fires after every first-hop batch
        landing at ``t`` has been delivered.
        """
        l1 = self._l1
        fwd = l1.fwd
        fstats = l1.fstats
        bus_stats = self._l1bus_stats
        node = l1.node
        outbox = l1.outbox
        capacity = l1.capacity
        collector = collector_for(self.env)
        gauge_name = fwd.depth_gauge
        for tid, nbytes, shape, values, _ in rows:
            bus_stats.published += 1
            bus_stats.bytes_published += nbytes
            if len(outbox) < capacity:
                outbox.append((tid, nbytes, shape, values, t))
                fstats.enqueued += 1
                depth = len(outbox)
                if depth > fstats.max_queue_depth:
                    fstats.max_queue_depth = depth
                if collector is not None:
                    collector.gauge(gauge_name, depth)
            else:
                fstats.dropped_overflow += 1
                if collector is not None:
                    collector.hop(
                        tid, _trace.STAGE_FORWARD, node,
                        _trace.DROP_OVERFLOW, t_in=t, t_out=t,
                    )
            bus_stats.delivered += 1
            if collector is not None:
                collector.hop(
                    tid, _trace.STAGE_BUS, node, _trace.DELIVERED, t_in=t, t_out=t
                )
        l1.queue_drain(t)

    def _ingest(self, rows, t: float) -> None:
        """Terminal delivery: L2 bus accounting + columnar DSOS ingest.

        The guard pinned the L2 subscriber list to exactly the store's
        ``on_message``, so delivery is a pure columnar handoff: journal
        admission in arrival order, shape-compiled row construction
        (``DsosStreamStore.columnar_rows``), rows into the cross-group
        slab for one ``insert_many``.
        """
        store = self.store
        bus_stats = self._sbus_stats
        journal = self._journal
        node = self.fabric.l2.node.name
        collector = collector_for(self.env)
        slab = self._slab
        rows_fn = self._rows_fn
        for tid, nbytes, shape, values, _ in rows:
            bus_stats.published += 1
            bus_stats.bytes_published += nbytes
            if tid:
                journal.admit_at(tid, t)
            built = rows_fn(shape, values)
            slab.extend(built)
            store.objects_stored += len(built)
            bus_stats.delivered += 1
            if collector is not None:
                collector.hop(
                    tid, _trace.STAGE_INGEST, node, _trace.STORED, t_in=t, t_out=t
                )
                collector.hop(
                    tid, _trace.STAGE_BUS, node, _trace.DELIVERED, t_in=t, t_out=t
                )

    def _flush_slab(self) -> None:
        slab = self._slab
        if slab:
            self._slab = []
            self.stats.ingest_flushes += 1
            self.store.client.cluster.insert_many(
                self.store.schema.name, slab, validate=False
            )

    # -- guard-breaking hooks (called by the hooked objects) --------------

    def on_mutation(self) -> None:
        """Something guard-relevant is about to change: stand down."""
        self.dearm()

    def on_subscribe(self, bus, tag: str) -> None:
        """A new subscriber on a spine bus: de-arm before it attaches
        (in-flight rows deliver to the topology they were sent into)."""
        self.dearm()
