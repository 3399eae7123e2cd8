"""Interconnect model.

The Aries DragonFly network of the XC40 is modelled at the fidelity the
experiments need: a graph of :class:`Link` objects (latency + bandwidth,
serialized per link), over which point-to-point transfers pick the
shortest path and charge propagation latency per hop plus serialization
on every traversed link.  Intra-node transfers are free.

The graph is a plain adjacency dict ``{node: {peer: Link}}`` and routes
are found by breadth-first search (fewest hops): the fabrics built here
are stars and chains, where every pair has exactly one route.

The topology used by :class:`~repro.cluster.cluster.Cluster` is a
two-level star (compute nodes → head node → remote analysis cluster),
which is exactly the multi-hop LDMS aggregation route of the paper's
environment section: samplers on compute nodes, one aggregator on the
head node, a second-level aggregator on Shirley.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim import Environment, Event, Resource

__all__ = ["Link", "Network", "TransferResult"]


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one point-to-point transfer."""

    src: str
    dst: str
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Link:
    """A physical link: propagation latency plus serialized bandwidth."""

    #: Express-spine back-pointer (repro.core.batch): while an armed
    #: spine virtualizes transfers over this link, any state change
    #: (partition, degrade) must de-arm it first so in-flight virtual
    #: batches complete against the timing they were launched with.
    _express_spine = None

    def __init__(
        self,
        env: Environment,
        latency_s: float,
        bandwidth_bps: float,
        channels: int = 1,
    ):
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self._server = Resource(env, capacity=channels)
        # Transfers currently in their propagation-latency phase: they
        # hold no channel yet, but their serialization request is
        # already in flight.  transfer_coalesced() must see them, or it
        # would grab a channel ahead of an earlier arrival.
        self._approaching = 0
        # Fault state (repro.faults): a partitioned link admits no new
        # traversals (transfers already past their entry — mid-latency
        # or serializing — complete; the partition cut them "behind the
        # packet").  Degradation multiplies serialization time.
        self._up = True
        self._up_waiters: Event | None = None
        self._degrade = 1.0

    @property
    def up(self) -> bool:
        """False while the link is partitioned (see :meth:`set_up`)."""
        return self._up

    @property
    def degrade_factor(self) -> float:
        return self._degrade

    def set_up(self, up: bool) -> None:
        """Partition (``False``) or heal (``True``) the link.

        Healing wakes every transfer waiting at the link's entry, in
        FIFO order (they all resume on one event, and the engine
        processes same-time resumes in scheduling order).
        """
        if up == self._up:
            return
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        self._up = up
        if up and self._up_waiters is not None:
            waiters, self._up_waiters = self._up_waiters, None
            waiters.succeed()

    def set_degrade(self, factor: float) -> None:
        """Multiply serialization times by ``factor`` (1.0 = healthy)."""
        if factor <= 0:
            raise ValueError("degrade factor must be positive")
        if self._express_spine is not None and factor != self._degrade:
            self._express_spine.on_mutation()
        self._degrade = factor

    def wait_up(self) -> Event:
        """An event that fires when the link is (or comes back) up."""
        if self._up:
            done = Event(self.env)
            done.succeed()
            return done
        if self._up_waiters is None:
            self._up_waiters = Event(self.env)
        return self._up_waiters

    def transmit_time(self, nbytes: int) -> float:
        """Serialization time for ``nbytes`` on this link."""
        return nbytes * self._degrade / self.bandwidth_bps

    def transmit(self, nbytes: int):
        """Generator: occupy one channel for the serialization time."""
        yield from self._server.use(self.transmit_time(nbytes))

    def transmit_scaled(self, nbytes: int, factor: float):
        """Like :meth:`transmit`, with a congestion multiplier."""
        yield from self._server.use(self.transmit_time(nbytes) * factor)


class Network:
    """A graph of named endpoints joined by :class:`Link` objects."""

    #: Express-spine back-pointer (see :class:`Link`).
    _express_spine = None

    def __init__(self, env: Environment):
        self.env = env
        #: node -> {peer: Link}; an undirected edge appears under both ends.
        self._adj: dict[str, dict[str, Link]] = {}
        # Optional shared-fabric congestion: a LoadProcess-like object
        # whose factor(t) multiplies serialization times ("network
        # congestion" is one of the paper's named variability sources).
        self._congestion = None
        # (src, dst) -> [Link, ...]: routes are static between topology
        # edits, and shortest-path per transfer dominated stream-path
        # profiles; invalidated whenever the graph changes.
        self._route_cache: dict[tuple[str, str], list[Link]] = {}

    def set_congestion(self, load_process) -> None:
        """Attach a time-varying congestion factor to every link."""
        if not hasattr(load_process, "factor"):
            raise TypeError("congestion source needs a factor(t) method")
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        self._congestion = load_process

    def congestion_factor(self) -> float:
        return (
            self._congestion.factor(self.env.now)
            if self._congestion is not None
            else 1.0
        )

    def add_node(self, name: str) -> None:
        self._adj.setdefault(name, {})
        self._route_cache.clear()

    def add_link(
        self,
        a: str,
        b: str,
        latency_s: float = 1.5e-6,
        bandwidth_bps: float = 10e9,
        channels: int = 1,
    ) -> Link:
        """Join endpoints ``a`` and ``b`` with a new link."""
        link = Link(self.env, latency_s, bandwidth_bps, channels)
        self._adj.setdefault(a, {})[b] = link
        self._adj.setdefault(b, {})[a] = link
        self._route_cache.clear()
        return link

    # -- fault control (repro.faults) ----------------------------------

    def link_between(self, a: str, b: str) -> Link:
        """The direct link joining ``a`` and ``b`` (a single edge)."""
        try:
            return self._adj[a][b]
        except KeyError as exc:
            raise ValueError(f"no direct link {a!r} -- {b!r}") from exc

    def partition(self, a: str, b: str) -> None:
        """Take the ``a``--``b`` link down: new traversals block at its
        entry until :meth:`heal`.  Routes are unchanged — a partition is
        an outage, not a topology edit."""
        self.link_between(a, b).set_up(False)

    def heal(self, a: str, b: str) -> None:
        """Bring the ``a``--``b`` link back up, waking blocked transfers."""
        self.link_between(a, b).set_up(True)

    def degrade(self, a: str, b: str, factor: float) -> None:
        """Multiply the ``a``--``b`` link's serialization times."""
        self.link_between(a, b).set_degrade(factor)

    def restore(self, a: str, b: str) -> None:
        """Undo :meth:`degrade` on the ``a``--``b`` link."""
        self.link_between(a, b).set_degrade(1.0)

    def path(self, src: str, dst: str) -> list[str]:
        """Node sequence of the route used for ``src`` → ``dst``: a
        fewest-hop path by breadth-first search."""
        adj = self._adj
        if src not in adj:
            raise ValueError(f"no route {src!r} -> {dst!r}")
        parent = {src: None}
        frontier = deque((src,))
        while frontier and dst not in parent:
            node = frontier.popleft()
            for peer in adj[node]:
                if peer not in parent:
                    parent[peer] = node
                    frontier.append(peer)
        if dst not in parent:
            raise ValueError(f"no route {src!r} -> {dst!r}")
        nodes = [dst]
        while nodes[-1] != src:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        return nodes

    def links_on_path(self, src: str, dst: str) -> list[Link]:
        links = self._route_cache.get((src, dst))
        if links is None:
            nodes = self.path(src, dst)
            links = [self._adj[u][v] for u, v in zip(nodes, nodes[1:])]
            self._route_cache[(src, dst)] = links
        return links

    def one_way_latency(self, src: str, dst: str) -> float:
        """Pure propagation latency of the route (no queueing)."""
        return sum(l.latency_s for l in self.links_on_path(src, dst))

    def transfer(self, src: str, dst: str, nbytes: int):
        """Generator: move ``nbytes`` from ``src`` to ``dst``.

        Charges propagation latency per hop and serialization (with
        contention) per link, store-and-forward.  Returns a
        :class:`TransferResult`.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        start = self.env.now
        if src != dst:
            factor = self.congestion_factor()
            for link in self.links_on_path(src, dst):
                while not link._up:
                    yield link.wait_up()
                link._approaching += 1
                try:
                    yield self.env.timeout(link.latency_s * factor)
                finally:
                    link._approaching -= 1
                if nbytes:
                    yield from link.transmit_scaled(nbytes, factor)
        return TransferResult(src, dst, nbytes, start, self.env.now)

    def transfer_coalesced(self, src: str, dst: str, nbytes: int):
        """Generator: :meth:`transfer` in one engine event per idle link.

        When a link has no channel holder, no waiter, and no transfer in
        its latency phase, the propagation + serialization of this hop
        is a single fused ``timeout_at`` (same float operand order as
        the two-step path, so completion times are bit-identical) while
        the channel is held synchronously for the whole window.

        Why holding through the latency window is safe: every user of a
        link reaches its serialization request only *after* paying that
        link's propagation latency, which is the same constant for all
        of them.  A competitor entering the link later than us would
        therefore also request later than our two-step self would have —
        it finds the channel busy exactly when it would have found it
        busy (or queued behind us) in the two-step schedule.  Transfers
        already past their entry but still mid-latency are the one case
        with an *earlier* claim than ours; ``Link._approaching`` makes
        them visible and falls this hop back to the two-step path.

        Ties at identical float times may resolve in a different event
        order than :meth:`transfer` (the fused path schedules fewer
        events); with continuous service times such ties do not occur.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        env = self.env
        start = env.now
        if src != dst:
            factor = self.congestion_factor()
            for link in self.links_on_path(src, dst):
                while not link._up:
                    yield link.wait_up()
                server = link._server
                if (
                    nbytes
                    and not link._approaching
                    and not server._holders
                    and not server._waiting
                ):
                    req = server.acquire()
                    try:
                        yield env.timeout_at(
                            (env.now + link.latency_s * factor)
                            + link.transmit_time(nbytes) * factor
                        )
                    finally:
                        server.release(req)
                else:
                    link._approaching += 1
                    try:
                        yield env.timeout(link.latency_s * factor)
                    finally:
                        link._approaching -= 1
                    if nbytes:
                        yield from link.transmit_scaled(nbytes, factor)
        return TransferResult(src, dst, nbytes, start, env.now)
