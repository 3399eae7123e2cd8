"""Fleet scans: run the proactive probe campaign on every cluster.

A :class:`FleetClusterSpec` is a reproducible recipe for one cluster's
scan world (seed, size, fault plan, resilience options).
:func:`scan_cluster` builds that world with telemetry + diagnosis + the
probe scanner armed, drives a short deterministic I/O campaign through
it (the probe traffic itself is weak-event / read-only, so the campaign
is byte-identical to an unscanned run), and folds the resulting
surfaces into one :class:`~repro.fleet.scorecard.HealthScore`.
:func:`scan_fleet` maps that over a fleet and returns a
:class:`FleetReport` whose ``to_dict()`` is the byte-stable payload
behind ``repro fleet --json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.probe import ProbeConfig
from repro.fleet.scorecard import HealthScore, build_scorecard

__all__ = [
    "ClusterReadiness",
    "FleetClusterSpec",
    "FleetReport",
    "default_fleet",
    "scan_cluster",
    "scan_fleet",
]

#: Probe cadence: the diagnosis cadence of
#: :func:`~repro.experiments.chaos.diagnosis_config`, fast enough to see
#: sub-second fault windows inside the short scan campaign.
_SCAN_EVAL_PERIOD_S = 0.05


@dataclass(frozen=True)
class FleetClusterSpec:
    """One cluster's reproducible scan recipe."""

    name: str
    seed: int = 42
    n_compute_nodes: int = 4
    #: A :class:`~repro.faults.FaultPlan` for chaos-lane scans.
    faults: object | None = None
    #: Resilience options mirrored from :class:`WorldConfig`.
    retry: object | None = None
    standby_l1: bool = False
    #: Connector-side spill buffering for the scan campaign.
    spill: bool = False
    #: DSOS store topology (1/1 = the legacy flat store; anything else
    #: scans a replicated sharded cluster with quorum ingest).
    dsos_shards: int = 1
    dsos_replication: int = 1
    dsos_write_quorum: int | None = None
    dsos_repair: bool = True

    def world_config(self, *, fast_lane: bool = True):
        """The :class:`~repro.experiments.world.WorldConfig` this spec
        scans under (telemetry + diagnosis + probes all armed)."""
        from repro.experiments.chaos import diagnosis_config
        from repro.experiments.world import WorldConfig

        return WorldConfig(
            seed=self.seed,
            quiet=True,
            n_compute_nodes=self.n_compute_nodes,
            telemetry=True,
            fast_lane=fast_lane,
            faults=self.faults,
            retry=self.retry,
            standby_l1=self.standby_l1,
            dsos_shards=self.dsos_shards,
            dsos_replication=self.dsos_replication,
            dsos_write_quorum=self.dsos_write_quorum,
            dsos_repair=self.dsos_repair,
            diagnosis=diagnosis_config(),
            probe=ProbeConfig(period_s=_SCAN_EVAL_PERIOD_S),
            flightrec=True,
        )


@dataclass(frozen=True)
class ClusterReadiness:
    """One scanned cluster: its scorecard and the surfaces behind it."""

    spec: FleetClusterSpec
    score: HealthScore
    probe_report: object
    incidents: object
    health: object
    runtime_s: float
    #: End-of-scan values of every diagnosis sampled series (name →
    #: last sampled value) — what the OpenMetrics exporter exposes.
    gauges: dict
    #: ``DsosCluster.stats_snapshot()`` at scan end — per-(shard,
    #: daemon) store counters (empty dict on a legacy flat store so
    #: non-replicated payloads stay unchanged).
    store: dict = field(default_factory=dict)
    #: ``FlightRecorder.stats()`` at scan end — per-stream ring
    #: ledgers and bundle counters (empty dict when the recorder is
    #: not armed so legacy payloads stay unchanged).
    recorder: dict = field(default_factory=dict)
    #: Post-hoc bottleneck explanation of the scan job (verdict rows +
    #: the four ``explain_*`` gauges) — empty dict when the scan world
    #: has no diagnosis engine so legacy payloads stay unchanged.
    explain: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name

    def to_dict(self) -> dict:
        out = {
            "cluster": self.spec.name,
            "seed": self.spec.seed,
            "n_compute_nodes": self.spec.n_compute_nodes,
            "chaos": self.spec.faults is not None,
            "runtime_s": self.runtime_s,
            "scorecard": self.score.to_dict(),
            "probe": self.probe_report.to_dict(),
            "incidents": len(self.incidents),
            "gauges": dict(sorted(self.gauges.items())),
            "health": self.health.to_dict(),
        }
        if self.store:
            out["store"] = self.store
        if self.recorder:
            out["recorder"] = self.recorder
        if self.explain:
            out["explain"] = self.explain
        return out


class FleetReport:
    """The fleet-wide roll-up behind the console and ``repro fleet``."""

    def __init__(self, clusters: list[ClusterReadiness], fast_lane: bool):
        self.clusters = list(clusters)
        self.fast_lane = fast_lane

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    @property
    def all_ready(self) -> bool:
        return all(c.score.ready for c in self.clusters)

    @property
    def all_reconcile(self) -> bool:
        return all(c.score.reconciles() for c in self.clusters)

    def worst(self) -> ClusterReadiness:
        return min(self.clusters, key=lambda c: (c.score.score, c.name))

    def to_dict(self) -> dict:
        return {
            "fast_lane": self.fast_lane,
            "clusters": [c.to_dict() for c in self.clusters],
            "fleet_ready": self.all_ready,
            "worst_cluster": self.worst().name if self.clusters else None,
        }


def default_fleet() -> tuple:
    """The three-cluster demo fleet: two clean, one deliberately sick.

    ``attaway`` runs the scan under an injected L1 crash plus a
    slow-store episode with *no* retry/standby/spill, so probes are
    lost, alerts fire and the ledger records drops — its scorecard must
    come out below the ready line while the clean clusters stay at or
    near 100 (pinned by ``tests/fleet/test_scan.py``).
    """
    from repro.faults import DaemonCrash, FaultPlan, SlowStore

    return (
        FleetClusterSpec(name="voltrino", seed=42),
        FleetClusterSpec(name="chama", seed=7, n_compute_nodes=6),
        FleetClusterSpec(
            name="attaway", seed=13,
            faults=FaultPlan((
                DaemonCrash("l1", at=0.15, down_for=0.5),
                SlowStore(at=0.1, duration=0.4),
            )),
        ),
    )


def scan_cluster(spec: FleetClusterSpec, *,
                 fast_lane: bool = True) -> ClusterReadiness:
    """Scan one cluster: probe campaign → surfaces → scorecard."""
    from repro.apps import MpiIoTest
    from repro.core import ConnectorConfig
    from repro.experiments.runner import run_job
    from repro.experiments.world import World

    world = World(spec.world_config(fast_lane=fast_lane))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=2, iterations=8,
        block_size=2**20, collective=False, sync_per_iteration=False,
    )
    # No inter-job gap: the campaign starts at t=0 so chaos-lane fault
    # windows (sub-second offsets) land inside the I/O burst.
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=spec.spill),
        inter_job_gap_s=0.0,
    )

    from repro.diagnosis.engine import SAMPLED_SERIES

    if world.flight_recorder:
        world.flight_recorder.flush()
    probe_report = world.probe_scanner.report()
    incidents = world.diagnosis.incidents
    health = world.pipeline_health_report()
    gauges = {
        name: world.diagnosis.series(name).latest
        for name, _, _ in SAMPLED_SERIES
    }
    from repro.diagnosis.explain import explain_gauges, explain_job

    explain_report = explain_job(world, result.job_id)
    if world.flight_recorder:
        world.flight_recorder.record_verdicts(explain_report)
    explain = {
        "job_id": explain_report.job_id,
        "primary": explain_report.primary.cls,
        "healthy": explain_report.healthy,
        "verdicts": [
            {"class": v.cls, "score": v.score, "strategy": v.strategy}
            for v in explain_report.verdicts
        ],
        "gauges": explain_gauges(explain_report),
    }

    dsos_cluster = world.dsos.cluster
    score = build_scorecard(
        spec.name,
        probe_report=probe_report,
        incidents=incidents,
        health=health,
        snapshots=world.fabric.health_snapshots(),
        slow_pending=world.store.slow_pending,
        store_census=dsos_cluster.census() if dsos_cluster.sharded else None,
    )
    return ClusterReadiness(
        spec=spec,
        score=score,
        probe_report=probe_report,
        incidents=incidents,
        health=health,
        runtime_s=result.runtime_s,
        gauges=gauges,
        store=dsos_cluster.stats_snapshot() if dsos_cluster.sharded else {},
        recorder=(world.flight_recorder.stats()
                  if world.flight_recorder else {}),
        explain=explain,
    )


def scan_fleet(specs=None, *, fast_lane: bool = True) -> FleetReport:
    """Scan every cluster of ``specs`` (default: :func:`default_fleet`)."""
    if specs is None:
        specs = default_fleet()
    return FleetReport(
        [scan_cluster(spec, fast_lane=fast_lane) for spec in specs],
        fast_lane=fast_lane,
    )
