"""The benchmark's three workloads: world, campaign, query phase, fingerprint.

Every workload is one HPC job driven end to end through the simulated
pipeline (application → Darshan → connector → LDMS → DSOS), followed by
the workload's query phase.  The seed given on the command line is
turned into the world's RNG seed here; the program under test receives
only that generated seed and the fixed campaign below.

Sizes live in :data:`SIZES`; ``scale="tiny"`` shrinks every campaign for
the harness smoke test (its fingerprints are not recorded).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter_ns

__all__ = [
    "WORKLOADS",
    "SIZES",
    "Campaign",
    "QueryMeter",
    "build",
    "fingerprint",
    "invariant_failures",
    "world_seed",
]

WORKLOADS = ("hmmer-inert", "hmmer-observed-live", "mpiio-chaos-sharded")

#: Campaign and query-phase sizes per workload and scale.
#:
#: * HMMER: 100 families (15,545 events).  Every live refresh re-reads
#:   and re-sorts the whole store, so live cost grows with the square of
#:   the input; this size keeps one observed rep near 10 s on a 2-core
#:   host.  A refresh every 2 simulated seconds gives four refreshes.
#: * Chaos: 100 iterations of 4 MiB blocks stretch the job to about 45
#:   simulated seconds at about 70 messages/s, so the four planned
#:   faults (0.2–2.3 s after arming) all land inside the I/O burst.
#:   50 quorum-read passes make the query phase about one second long.
SIZES = {
    "full": {
        "hmmer-inert": {"n_families": 100, "passes": 1},
        "hmmer-observed-live": {"n_families": 100, "refresh_s": 2.0},
        "mpiio-chaos-sharded": {"iterations": 100, "block_size": 4 * 2**20,
                                "passes": 50},
    },
    "tiny": {
        "hmmer-inert": {"n_families": 4, "passes": 1},
        "hmmer-observed-live": {"n_families": 4, "refresh_s": 0.1},
        "mpiio-chaos-sharded": {"iterations": 30, "block_size": 4 * 2**20,
                                "passes": 1},
    },
}

#: Refreshes skip until the store holds this many rows (the figure
#: analyses need read and write rows to draw anything).
LIVE_MIN_ROWS = 64

#: The explain plan's four fault classes, by the log kind that marks
#: each one being applied.
PLANNED_FAULTS = ("link_degrade", "slow_store_begin", "daemon_crash",
                  "store_crash")


def world_seed(workload: str, seed: int) -> int:
    """The world RNG seed generated from a workload seed."""
    return random.Random(f"{workload}/{seed}").getrandbits(31)


@dataclass
class QueryMeter:
    """Rows returned by query-phase calls and host time spent inside them."""

    rows: int = 0
    ns: int = 0
    calls: int = 0

    def add(self, rows: int, ns: int) -> None:
        self.rows += rows
        self.ns += ns
        self.calls += 1


@dataclass
class Campaign:
    """One workload instance: everything a rep needs to run and check."""

    workload: str
    world_config: object
    app: object
    connector_config: object
    #: ``query(world, result, meter)``: the post-run query phase.
    query: object = None
    #: ``arm(world, meter)``: live reads armed before the campaign.
    arm_live: object = None


# -- dashboards -------------------------------------------------------------


def _job_of(df) -> int:
    return int(df.col("job_id")[0])


def figure_dashboard(job_id: int | None):
    """The Figs 5–9 Grafana dashboard, one panel per figure.

    Each panel issues its own DSOS query, as Grafana panels do.  With
    ``job_id=None`` the panels read the whole store (the live view).
    """
    from repro.webservices import analysis
    from repro.webservices.grafana import Dashboard, Panel

    by_rank = {"index": "job_rank_time"}
    by_time = {"index": "job_time_rank"}
    if job_id is not None:
        by_rank["prefix"] = (job_id,)
        by_time["prefix"] = (job_id,)
    board = Dashboard("darshan job I/O")
    board.add_panel(Panel(
        "fig5 op counts", by_rank,
        lambda df: analysis.op_counts_with_ci(df), "bars"))
    board.add_panel(Panel(
        "fig6 open/close per node", by_rank,
        lambda df: analysis.ops_per_node(df), "bars"))
    board.add_panel(Panel(
        "fig7 read/write durations", by_rank,
        lambda df: analysis.duration_stats_per_job(df), "table"))
    board.add_panel(Panel(
        "fig8 timeline", by_time,
        lambda df: analysis.timeline(df, _job_of(df)), "scatter"))
    board.add_panel(Panel(
        "fig9 throughput", by_time,
        lambda df: analysis.throughput_series(df, _job_of(df), bucket_s=1.0),
        "timeseries"))
    return board


def _render(board, source, meter: QueryMeter) -> None:
    t0 = perf_counter_ns()
    panels = board.render(source)
    meter.add(sum(p.rows_queried for p in panels), perf_counter_ns() - t0)


def _figure_pass(world, result, meter: QueryMeter, passes: int) -> None:
    """Post-run analysis: the figure dashboard rendered ``passes`` times."""
    from repro.webservices.grafana import DsosDataSource

    source = DsosDataSource(world.dsos)
    board = figure_dashboard(result.job_id)
    for _ in range(passes):
        _render(board, source, meter)


def _arm_live_dashboard(world, meter: QueryMeter, refresh_s: float) -> None:
    """Refresh the figure dashboard on a weak engine tick during the run."""
    from repro.webservices.grafana import DsosDataSource

    source = DsosDataSource(world.dsos)
    board = figure_dashboard(None)
    client = world.dsos

    def refresh():
        if client.count("darshan_data") >= LIVE_MIN_ROWS:
            _render(board, source, meter)

    world.env.every(refresh_s, refresh, weak=True)


def _quorum_pass(world, result, meter: QueryMeter, passes: int) -> None:
    """Post-run quorum reads: per rank, then the whole job in time order."""
    cluster = world.dsos.cluster
    job = result.job_id
    ranks = range(result.app.n_ranks)
    for _ in range(passes):
        for rank in ranks:
            t0 = perf_counter_ns()
            res = cluster.query("darshan_data", "job_rank_time") \
                .prefix(job, rank).quorum().execute()
            meter.add(len(res.rows), perf_counter_ns() - t0)
        t0 = perf_counter_ns()
        res = cluster.query("darshan_data", "job_time_rank") \
            .prefix(job).quorum().execute()
        meter.add(len(res.rows), perf_counter_ns() - t0)


# -- campaigns --------------------------------------------------------------


def build(workload: str, seed: int, scale: str = "full",
          live: bool = True) -> Campaign:
    """The campaign for ``workload`` at ``seed``.

    ``live=False`` leaves the live dashboard of ``hmmer-observed-live``
    unarmed: the dashboard-free control its fingerprint must match.
    """
    from repro.core import ConnectorConfig
    from repro.experiments import WorldConfig

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (use {WORKLOADS})")
    size = SIZES[scale][workload]
    wseed = world_seed(workload, seed)

    if workload == "hmmer-inert":
        from repro.apps import Hmmer

        return Campaign(
            workload,
            WorldConfig(seed=wseed, quiet=True, n_compute_nodes=2,
                        columnar=True),
            Hmmer(ranks_per_node=8, n_families=size["n_families"]),
            ConnectorConfig(columnar=True),
            query=lambda w, r, m: _figure_pass(w, r, m, size["passes"]),
        )

    if workload == "hmmer-observed-live":
        from repro.apps import Hmmer
        from repro.diagnosis import DiagnosisConfig

        return Campaign(
            workload,
            WorldConfig(seed=wseed, quiet=True, n_compute_nodes=2,
                        columnar=True, telemetry=True,
                        diagnosis=DiagnosisConfig(), flightrec=True),
            Hmmer(ranks_per_node=8, n_families=size["n_families"]),
            ConnectorConfig(columnar=True),
            arm_live=(
                (lambda w, m: _arm_live_dashboard(w, m, size["refresh_s"]))
                if live else None
            ),
        )

    # mpiio-chaos-sharded: the explain plan's four fault classes with
    # every recovery mechanism armed, on a 2 shards × 2 replicas store.
    from repro.apps import MpiIoTest
    from repro.diagnosis import DiagnosisConfig, explain_plan
    from repro.ldms.resilience import RetryPolicy
    from repro.telemetry.flightrec import FlightRecorderConfig

    return Campaign(
        workload,
        WorldConfig(
            seed=wseed, quiet=True, n_compute_nodes=4, columnar=True,
            telemetry=True, faults=explain_plan(), retry=RetryPolicy(),
            standby_l1=True,
            diagnosis=DiagnosisConfig(
                eval_period_s=0.05, window_s=0.25, for_duration_s=0.1,
                latency_slo_s=0.25, slo_min_count=8,
                queue_depth_threshold=64,
            ),
            flightrec=FlightRecorderConfig(
                tick_period_s=0.05, pre_window_s=0.5, post_window_s=0.25,
            ),
            dsos_shards=2, dsos_replication=2, dsos_write_quorum=2,
            # No anti-entropy at restart: the post-run quorum reads
            # repair the restarted replica.
            dsos_repair=False,
        ),
        MpiIoTest(
            n_nodes=2, ranks_per_node=4, iterations=size["iterations"],
            block_size=size["block_size"], collective=False,
            sync_per_iteration=False,
        ),
        ConnectorConfig(columnar=True, spill=True),
        query=lambda w, r, m: _quorum_pass(w, r, m, size["passes"]),
    )


# -- fingerprint and checks ------------------------------------------------


def fingerprint(world, result, meter: QueryMeter) -> dict:
    """The simulated outcome of one rep (host timings excluded)."""
    stats = result.connector.stats
    injector = world.fault_injector
    return {
        "sim": {
            "events_seen": stats.events_seen,
            "messages_published": stats.messages_published,
            "bytes_published": stats.bytes_published,
            "objects_stored": world.store.objects_stored,
            "sim_runtime_s": result.runtime_s,
            "fault_kinds": [] if injector is None
            else [a.kind for a in injector.applied],
            "loss_ledger_exact": (
                None if result.health is None else result.health.verify()
            ),
        },
        "queries": {"calls": meter.calls, "rows": meter.rows},
    }


def invariant_failures(campaign: Campaign, world, result,
                       meter: QueryMeter) -> list[str]:
    """Checks every rep must pass whether or not a reference exists."""
    out = []
    stats = result.connector.stats
    if result.health is not None and not result.health.verify():
        out.append("loss ledger does not close")
    if stats.events_seen < 1 or world.store.objects_stored < 1:
        out.append("nothing reached the store")
    if world.store.objects_stored > stats.events_seen:
        out.append("more objects stored than events seen")
    queried = campaign.query is not None or campaign.arm_live is not None
    if queried and (meter.rows < 1 or meter.calls < 1):
        out.append("query phase returned no rows")
    if campaign.workload.startswith("hmmer"):
        if stats.messages_published != stats.events_seen:
            out.append("events not all published")
        if world.store.objects_stored != stats.messages_published:
            out.append("published messages not all stored")
    # Every workload runs on the columnar lane, so every world has a
    # spine; only the inert one may arm it.
    if world.spine is None:
        out.append("no columnar spine was built")
    elif campaign.workload == "hmmer-inert":
        if not world.spine.armed or world.spine.stats.rows < 1:
            out.append("express spine did not carry the inert world")
    elif world.spine.armed:
        out.append("express spine armed on an observed world")
    if campaign.workload == "mpiio-chaos-sharded":
        out.extend(_fault_burst_failures(world, result))
    return out


def _fault_burst_failures(world, result) -> list[str]:
    """Each planned fault must apply while the job is doing I/O."""
    rows = world.dsos.cluster.query("darshan_data", "job_time_rank") \
        .prefix(result.job_id).execute().rows
    if not rows:
        return ["no stored rows to bound the I/O burst"]
    first, last = rows[0]["timestamp"], rows[-1]["timestamp"]
    applied = {}
    for fault in world.fault_injector.applied:
        applied.setdefault(fault.kind, fault.t)
    out = []
    for kind in PLANNED_FAULTS:
        t = applied.get(kind)
        if t is None:
            out.append(f"planned fault {kind} never applied")
        elif not first <= t <= last:
            out.append(f"fault {kind} at {t:.3f} outside the I/O burst "
                       f"[{first:.3f}, {last:.3f}]")
    return out
