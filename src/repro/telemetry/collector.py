"""The per-environment trace collector.

A :class:`TraceCollector` is *installed* against one simulation
:class:`~repro.sim.Environment`; instrumented pipeline stages (the
streams bus, forwarder outboxes, daemon receive paths, store plugins)
look it up with :func:`collector_for` at each hop and append
:class:`~repro.telemetry.trace.HopRecord`\\ s.  When no collector is
installed every hook is a dictionary miss and the pipeline behaves
byte-identically — telemetry observes, it never perturbs: no RNG draws,
no scheduled events, no payload changes.
"""

from __future__ import annotations

from repro.telemetry.histogram import GaugeStats, LogHistogram
from repro.telemetry.trace import (
    RECOVERY_OUTCOMES,
    STORED,
    HopRecord,
    MessageTrace,
    parse_trace_id,
)

__all__ = ["TraceCollector", "collector_for", "install", "uninstall"]

#: Synthetic stage for the full publish-begin → stored span.
END_TO_END = "end_to_end"

#: Attribute the collector is stored under on the Environment.  A plain
#: attribute beats the previous WeakKeyDictionary: collector_for runs
#: ~10× per message, and the weakref machinery was measurable in
#: campaign profiles.  Lifetime is identical (the collector dies with
#: its env) since the env owns the reference.
_ENV_ATTR = "_repro_trace_collector"


def install(env) -> "TraceCollector":
    """Attach (or return the existing) collector for ``env``."""
    collector = getattr(env, _ENV_ATTR, None)
    if collector is None:
        collector = TraceCollector(env)
        setattr(env, _ENV_ATTR, collector)
    return collector


def collector_for(env) -> "TraceCollector | None":
    """The collector installed for ``env``, or ``None`` (the hot path)."""
    return getattr(env, _ENV_ATTR, None)


def uninstall(env) -> None:
    """Detach any collector from ``env``."""
    if getattr(env, _ENV_ATTR, None) is not None:
        delattr(env, _ENV_ATTR)


class TraceCollector:
    """Hop traces, per-stage latency histograms and gauges for one env."""

    def __init__(self, env):
        self.env = env
        #: trace_id -> MessageTrace
        self.traces: dict[str, MessageTrace] = {}
        #: (trace_id, stage, node) -> t_in of a hop in progress
        self._open: dict[tuple[str, str, str], float] = {}
        #: stage -> LogHistogram of hop latencies (positive spans only)
        self.histograms: dict[str, LogHistogram] = {}
        #: name -> GaugeStats (queue depths, etc.)
        self.gauges: dict[str, GaugeStats] = {}
        #: ``(e2e_latency_s, trace_id)`` of the slowest stored message
        #: seen so far — the live exemplar diagnosis rules cite.
        self.slowest_stored: tuple[float, str] | None = None
        #: ``cb(trace_id, stage, node, outcome, t)`` fired for hops with
        #: a recovery outcome (replay, failover, dedup, quorum degrade).
        #: Empty on a plain collector so the hot path stays one falsy
        #: check; observers must be read-only host-side appends.
        self._recovery_observers: list = []

    # -- trace lifecycle -----------------------------------------------

    def begin(
        self,
        trace_id: str,
        job_id: int,
        rank: int,
        node: str = "",
        t_begin: float | None = None,
    ) -> MessageTrace:
        """Register a message at its origin (the connector, pre-publish).

        ``t_begin`` lets a caller that already advanced past the origin
        instant (the coalesced-publish fast lane) stamp the exact time
        the reference path would have.
        """
        trace = MessageTrace(
            trace_id, job_id, rank, self.env.now if t_begin is None else t_begin
        )
        self.traces[trace_id] = trace
        return trace

    def _trace(self, trace_id: str, t_begin: float) -> MessageTrace:
        """Register a trace first seen at a hop (a ``traces`` miss).

        A hop for a message begun before this collector existed (or
        stamped outside the connector): recover (job, rank) from the id
        itself so reconciliation still groups it.
        """
        parsed = parse_trace_id(trace_id) or (-1, -1, -1)
        trace = MessageTrace(
            trace_id=trace_id, job_id=parsed[0], rank=parsed[1], t_begin=t_begin
        )
        self.traces[trace_id] = trace
        return trace

    # -- hops ----------------------------------------------------------

    def hop(
        self,
        trace_id: str,
        stage: str,
        node: str,
        outcome: str,
        t_in: float | None = None,
        t_out: float | None = None,
    ) -> HopRecord:
        """Append one hop; instantaneous unless ``t_in``/``t_out`` given.

        Runs 7× per message on the observed path, so the trace and
        histogram lookups are inlined: one ``dict.get`` each, with the
        creating path taken only on a miss.
        """
        if t_out is None:
            t_out = self.env.now
        if t_in is None:
            t_in = t_out
        trace = self.traces.get(trace_id)
        if trace is None:
            trace = self._trace(trace_id, t_in)
        record = HopRecord(stage, node, t_in, t_out, outcome)
        trace.hops.append(record)
        if self._recovery_observers and outcome in RECOVERY_OUTCOMES:
            for callback in self._recovery_observers:
                callback(trace_id, stage, node, outcome, t_out)
        if t_out > t_in:
            hist = self.histograms.get(stage)
            if hist is None:
                hist = self._histogram(stage)
            hist.observe(t_out - t_in)
        if outcome == STORED and t_out > trace.t_begin:
            e2e = t_out - trace.t_begin
            self._histogram(END_TO_END).observe(e2e)
            if self.slowest_stored is None or e2e > self.slowest_stored[0]:
                self.slowest_stored = (e2e, trace_id)
        return record

    def add_recovery_observer(self, callback) -> None:
        """Subscribe to recovery-outcome hops (the flight recorder's
        feed).  Purity bar: callbacks observe, they never perturb."""
        self._recovery_observers.append(callback)

    def open_hop(self, trace_id: str, stage: str, node: str) -> None:
        """Mark a hop's entry time (e.g. enqueue into an outbox)."""
        self._open[(trace_id, stage, node)] = self.env.now

    def close_hop(self, trace_id: str, stage: str, node: str, outcome: str) -> HopRecord:
        """Complete a hop opened with :meth:`open_hop`."""
        t_in = self._open.pop((trace_id, stage, node), None)
        return self.hop(trace_id, stage, node, outcome, t_in=t_in)

    # -- count-weighted batch hops --------------------------------------
    #
    # A forwarder batch moving as one unit still represents N messages: a
    # hop (or drop) at a batch boundary must attribute all N, not 1, or
    # the reconciliation ledger under-counts exactly when batching is
    # on.  These helpers stamp one record per trace id — identical
    # records, in list order, to N single calls — while hoisting the
    # per-call time/NaN bookkeeping out of the loop.

    def hop_batch(
        self,
        trace_ids,
        stage: str,
        node: str,
        outcome: str,
        t_in: float | None = None,
        t_out: float | None = None,
    ) -> None:
        """:meth:`hop` for every id in ``trace_ids`` (falsy ids skipped)."""
        if t_out is None:
            t_out = self.env.now
        if t_in is None:
            t_in = t_out
        for trace_id in trace_ids:
            if trace_id:
                self.hop(trace_id, stage, node, outcome, t_in=t_in, t_out=t_out)

    def close_hop_batch(self, trace_ids, stage: str, node: str, outcome: str) -> None:
        """:meth:`close_hop` for every id in ``trace_ids`` (falsy skipped)."""
        for trace_id in trace_ids:
            if trace_id:
                self.close_hop(trace_id, stage, node, outcome)

    def _histogram(self, stage: str) -> LogHistogram:
        hist = self.histograms.get(stage)
        if hist is None:
            hist = self.histograms[stage] = LogHistogram()
        return hist

    # -- gauges --------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        stats = self.gauges.get(name)
        if stats is None:
            stats = self.gauges[name] = GaugeStats()
        stats.observe(value)

    # -- aggregation ---------------------------------------------------

    def drop_sites(self, job_id: int | None = None) -> dict[tuple[str, str, str], int]:
        """``(stage, node, outcome) -> count`` over terminally dropped traces."""
        sites: dict[tuple[str, str, str], int] = {}
        for trace in self.traces.values():
            if job_id is not None and trace.job_id != job_id:
                continue
            if trace.status != "dropped":
                continue
            site = trace.drop_site
            sites[site] = sites.get(site, 0) + 1
        return sites

    def recovery_sites(self, job_id: int | None = None) -> dict[tuple[str, str, str], int]:
        """``(stage, node, outcome) -> count`` over recovery hops.

        Counts every replay, retry redelivery, standby failover and
        dedup skip — the self-healing ledger complementing
        :meth:`drop_sites`.  One message may contribute several entries
        (e.g. spilled twice and replayed twice).
        """
        sites: dict[tuple[str, str, str], int] = {}
        for trace in self.traces.values():
            if job_id is not None and trace.job_id != job_id:
                continue
            for hop in trace.hops:
                if hop.outcome in RECOVERY_OUTCOMES:
                    sites[hop.site] = sites.get(hop.site, 0) + 1
        return sites

    def reconcile(self, job_id: int | None = None) -> dict[tuple[int, int], dict]:
        """Per-(job, rank) ledger: published, stored, drops by site.

        The pipeline invariant — ``published == stored + Σ drops(site)
        + in_flight_spill`` — holds exactly for every group once the
        simulation has drained (``in_flight == 0``); anything else is a
        telemetry bug.  ``spilled`` counts messages parked in a
        connector's fallback buffer awaiting a reconnect.
        """
        groups: dict[tuple[int, int], dict] = {}
        for trace in self.traces.values():
            if job_id is not None and trace.job_id != job_id:
                continue
            key = (trace.job_id, trace.rank)
            g = groups.get(key)
            if g is None:
                g = groups[key] = {
                    "published": 0,
                    "stored": 0,
                    "dropped": 0,
                    "spilled": 0,
                    "in_flight": 0,
                    "drops": {},
                }
            g["published"] += 1
            status = trace.status
            if status == "stored":
                g["stored"] += 1
            elif status == "dropped":
                g["dropped"] += 1
                site = trace.drop_site
                g["drops"][site] = g["drops"].get(site, 0) + 1
            elif status == "spilled":
                g["spilled"] += 1
            else:
                g["in_flight"] += 1
        return groups
