"""The fault injector: a plan, armed against one world.

Arming translates each fault into simulation machinery — timeout-driven
processes for timed faults, a bus subscription for message-count
triggers — and keeps an ``applied`` log of what fired when, which chaos
tests assert against.  An empty plan arms to *nothing*: no processes,
no subscriptions, no RNG stream, so a world with an empty plan is
bit-identical to one with no injector at all (pinned by the property
suite).

All randomness (only flaky-transport error draws) comes from the
world's seeded ``"faults"`` stream; everything else is deterministic
clockwork, so a chaos campaign replays exactly under its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import (
    DaemonCrash,
    FaultPlan,
    FlakyTransport,
    LinkDegrade,
    LinkPartition,
    SlowStore,
    StoreCrash,
)

__all__ = ["AppliedFault", "FaultInjector"]


@dataclass(frozen=True)
class AppliedFault:
    """One log line: something the injector actually did."""

    t: float
    kind: str
    detail: str


class FaultInjector:
    """Schedules a :class:`FaultPlan` against a campaign ``World``."""

    def __init__(self, world, plan: FaultPlan):
        self.world = world
        self.plan = plan
        self.applied: list[AppliedFault] = []
        #: ``fault`` subscribers of the observer hub, fired as each log
        #: line lands (the flight recorder's ground-truth feed).
        self._on_fault = world.env.observers.fault
        self._rng = None
        self._armed = False

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        """Install every fault.  Idempotence guard: arm once."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        if self.plan.needs_rng:
            self._rng = self.world.rng.stream("faults")
        for fault in self.plan.faults:
            if isinstance(fault, DaemonCrash):
                self._arm_crash(fault)
            elif isinstance(fault, LinkPartition):
                self.world.env.process(self._partition_proc(fault))
            elif isinstance(fault, LinkDegrade):
                self.world.env.process(self._degrade_proc(fault))
            elif isinstance(fault, SlowStore):
                self.world.env.process(self._slow_store_proc(fault))
            elif isinstance(fault, StoreCrash):
                cluster = self.world.dsos.cluster
                if not cluster.sharded:
                    raise ValueError(
                        "plan contains a StoreCrash but the DSOS cluster "
                        "is not replicated (WorldConfig(dsos_replication"
                        "=R) or dsos_shards=S with R or S > 1)"
                    )
                if fault.daemon >= len(cluster.daemons):
                    raise ValueError(
                        f"StoreCrash targets daemon {fault.daemon} but the "
                        f"cluster has {len(cluster.daemons)} daemons"
                    )
                self.world.env.process(self._store_crash_proc(fault))
            elif isinstance(fault, FlakyTransport):
                self.world.env.process(self._flaky_proc(fault))

    def _log(self, kind: str, detail: str) -> None:
        fault = AppliedFault(self.world.env.now, kind, detail)
        self.applied.append(fault)
        for callback in self._on_fault:
            callback(fault.t, fault)

    def _resolve(self, target: str):
        """Map a plan target to a daemon of the world's fabric."""
        fabric = self.world.fabric
        if target == "l1":
            return fabric.l1
        if target == "l2":
            return fabric.l2
        if target == "l1-standby":
            if fabric.l1_standby is None:
                raise ValueError(
                    "plan targets 'l1-standby' but the world was built "
                    "without one (WorldConfig(standby_l1=True))"
                )
            return fabric.l1_standby
        return fabric.daemon_for(target)

    # -- daemon crashes ------------------------------------------------

    def _arm_crash(self, fault: DaemonCrash) -> None:
        daemon = self._resolve(fault.target)
        if fault.at is not None:
            self.world.env.process(self._crash_at_proc(fault, daemon))
            return
        # Message-count trigger: one extra bus subscriber.  Note this is
        # a behavioural presence — triggered plans are not no-ops even
        # before firing — which is why triggers live in plans, not in
        # default-on machinery.
        from repro.experiments.world import STREAM_TAG

        seen = {"n": 0}

        def trip_wire(message):
            seen["n"] += 1
            if seen["n"] == fault.after_messages:
                self._crash(daemon, fault)

        daemon.streams.subscribe(STREAM_TAG, trip_wire)

    def _crash_at_proc(self, fault: DaemonCrash, daemon):
        yield self.world.env.timeout(fault.at)
        self._crash(daemon, fault)

    def _crash(self, daemon, fault: DaemonCrash) -> None:
        if daemon.failed:
            return
        daemon.fail()
        self._log("daemon_crash", f"{fault.target} ({daemon.node.name})")
        if fault.down_for is not None:
            self.world.env.process(self._recover_proc(daemon, fault))

    def _recover_proc(self, daemon, fault: DaemonCrash):
        yield self.world.env.timeout(fault.down_for)
        daemon.recover()
        self._log("daemon_recover", f"{fault.target} ({daemon.node.name})")

    # -- links ---------------------------------------------------------

    def _partition_proc(self, fault: LinkPartition):
        env = self.world.env
        network = self.world.cluster.network
        yield env.timeout(fault.at)
        network.partition(fault.a, fault.b)
        self._log("link_partition", f"{fault.a} -- {fault.b}")
        yield env.timeout(fault.duration)
        network.heal(fault.a, fault.b)
        self._log("link_heal", f"{fault.a} -- {fault.b}")

    def _degrade_proc(self, fault: LinkDegrade):
        env = self.world.env
        network = self.world.cluster.network
        yield env.timeout(fault.at)
        network.degrade(fault.a, fault.b, fault.factor)
        self._log("link_degrade", f"{fault.a} -- {fault.b} x{fault.factor:g}")
        yield env.timeout(fault.duration)
        network.restore(fault.a, fault.b)
        self._log("link_restore", f"{fault.a} -- {fault.b}")

    # -- store ---------------------------------------------------------

    def _slow_store_proc(self, fault: SlowStore):
        env = self.world.env
        store = self.world.store
        yield env.timeout(fault.at)
        store.begin_slow_episode()
        self._log("slow_store_begin", store.daemon.node.name)
        yield env.timeout(fault.duration)
        store.end_slow_episode()
        self._log("slow_store_end", store.daemon.node.name)

    def _store_crash_proc(self, fault: StoreCrash):
        env = self.world.env
        cluster = self.world.dsos.cluster
        yield env.timeout(fault.at)
        daemon = cluster.daemons[fault.daemon]
        if not daemon.alive:
            return
        cluster.crash_daemon(daemon, tear_tail=fault.tear_tail)
        detail = f"{daemon.name} (shard {daemon.shard_id})"
        if fault.tear_tail:
            detail += " torn-tail"
        self._log("store_crash", detail)
        if fault.down_for is not None:
            yield env.timeout(fault.down_for)
            recovery = cluster.recover_daemon(daemon)
            self._log(
                "store_recover",
                f"{daemon.name} replayed={len(recovery.entries)} "
                f"truncated={recovery.truncated_bytes}B",
            )
            from repro.telemetry.trace import REPAIR_PULLED, WAL_REPLAYED

            self._stamp_store_hops(
                daemon, (r.trace_id for r in recovery.entries), WAL_REPLAYED
            )
            if cluster.repair_enabled:
                pulled = cluster.repair_daemon(daemon)
                self._log(
                    "store_repair", f"{daemon.name} pulled={len(pulled)}"
                )
                self._stamp_store_hops(
                    daemon, (tid for _, tid in pulled), REPAIR_PULLED
                )

    def _stamp_store_hops(self, daemon, trace_ids, outcome: str) -> None:
        """One recovery hop per distinct message a restart re-earned.

        The node field is the *dsosd* name, not the host — two daemons
        on one node must stay two recovery sites.
        """
        from repro.telemetry.collector import collector_for

        collector = collector_for(self.world.env)
        if collector is None:
            return
        from repro.telemetry.trace import STAGE_INGEST

        seen = set()
        for trace_id in trace_ids:
            if trace_id and trace_id not in seen:
                seen.add(trace_id)
                collector.hop(trace_id, STAGE_INGEST, daemon.name, outcome)

    # -- transport -----------------------------------------------------

    def _flaky_proc(self, fault: FlakyTransport):
        env = self.world.env
        daemon = self._resolve(fault.target)
        yield env.timeout(fault.at)
        daemon.set_flaky(fault.error_rate, fault.mode, self._rng)
        self._log(
            "flaky_on",
            f"{fault.target} p={fault.error_rate:g} mode={fault.mode}",
        )
        yield env.timeout(fault.duration)
        daemon.clear_flaky()
        self._log("flaky_off", fault.target)
