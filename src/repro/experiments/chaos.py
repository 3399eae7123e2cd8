"""The shared chaos campaign and the decisions every fault drill shares.

The fault-injecting CLI modes (``chaos``, ``store``, ``diagnose``,
``trace``, ``forensics``, ``explain``) all run one campaign: a quiet
4-node world with retry/backoff forwarders and a hot-standby L1, and
one 2-node MPI-IO-test job with the spill connector, started at t=0 so
the timed fault windows land inside the I/O burst.  They differ only in
the fault plan, the lane, the job length and a few observer/store
fields, which is what :func:`run_campaign` takes.  Also defined once
here: the lane table (:data:`LANES`), the chaos/trace fault plan, the
observer cadences and the ``--check`` lane loop.
"""

from __future__ import annotations

__all__ = [
    "CHECK_LANES",
    "LANES",
    "check_lanes",
    "diagnosis_config",
    "flightrec_config",
    "lane_name",
    "partition_plan",
    "run_campaign",
]

#: Lane name -> the switches it sets on *both* WorldConfig and
#: ConnectorConfig, slowest first.  ``slow`` is the per-message
#: reference path; ``fast`` arms the express spine wherever its guard
#: allows.  Simulated results are bit-identical on both lanes.
LANES = {
    "slow": {"fast_lane": False},
    "fast": {"fast_lane": True},
}

#: Lanes the ``forensics``/``explain`` checks exercise: both, so the
#: fast lane's spine must refuse to arm under the observers and the
#: event-driven path must match the reference.
CHECK_LANES = tuple(LANES)


def lane_name(fast: bool = True) -> str:
    """The :data:`LANES` key for a ``fast_lane`` switch."""
    return "fast" if fast else "slow"


def partition_plan(fail_after: int = 50):
    """The chaos plan: an L1 crash after ``fail_after`` messages (it
    restarts half a second later), a partitioned compute uplink and a
    store stall."""
    from repro.faults import DaemonCrash, FaultPlan, LinkPartition, SlowStore

    return FaultPlan((
        DaemonCrash("l1", after_messages=fail_after, down_for=0.5),
        LinkPartition("nid00001", "head", at=0.2, duration=0.3),
        SlowStore(at=0.1, duration=0.4),
    ))


def diagnosis_config(**overrides):
    """Diagnosis tuned to the sub-second fault windows: 50 ms ticks,
    250 ms windows, 100 ms firing hysteresis."""
    from repro.diagnosis import DiagnosisConfig

    return DiagnosisConfig(
        eval_period_s=0.05, window_s=0.25, for_duration_s=0.1,
        latency_slo_s=0.25, slo_min_count=8, **overrides,
    )


def flightrec_config():
    """The flight recorder at the diagnosis cadence: 50 ms ticks, bundles
    spanning 0.5 s before and 0.25 s after their trigger."""
    from repro.telemetry.flightrec import FlightRecorderConfig

    return FlightRecorderConfig(
        tick_period_s=0.05, pre_window_s=0.5, post_window_s=0.25,
    )


def run_campaign(seed: int, *, lane: str = "fast", faults=None,
                 iterations: int = 8, ranks_per_node: int = 4,
                 telemetry=True, **fields):
    """Run the chaos campaign once; returns ``(world, result)``.

    ``faults`` is the :class:`~repro.faults.FaultPlan` (``None`` = a
    clean control run); ``fields`` are the remaining
    :class:`~repro.experiments.WorldConfig` fields a caller sets
    (``diagnosis``, ``flightrec``, ``dsos_*``).
    """
    from repro.apps import MpiIoTest
    from repro.core import ConnectorConfig
    from repro.experiments import World, WorldConfig, run_job
    from repro.ldms.resilience import RetryPolicy

    switches = LANES[lane]
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=telemetry,
        faults=faults, retry=RetryPolicy(), standby_l1=True,
        **switches, **fields,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=ranks_per_node, iterations=iterations,
        block_size=2**20, collective=False, sync_per_iteration=False,
    )
    result = run_job(world, app, "nfs",
                     connector_config=ConnectorConfig(spill=True, **switches),
                     inter_job_gap_s=0.0)
    return world, result


def check_lanes(run, canonical, judge, *, what: str, lanes=CHECK_LANES):
    """The shared ``--check`` loop; returns ``(ok, lines)``.

    Per lane: ``run(lane)`` twice with the same seed, require
    ``canonical(campaign)`` (its canonical JSON) identical across the
    two, then ``judge(campaign, lane)`` returns ``(failures, summary)``.
    Emits one ``FAIL[lane]: ...`` line per failure, else one
    ``OK[lane]: summary`` line.
    """
    ok = True
    lines = []
    for lane in lanes:
        first, second = run(lane), run(lane)
        failures = []
        if canonical(first) != canonical(second):
            failures.append(f"{what} not byte-stable across same-seed runs")
        more, summary = judge(first, lane)
        failures += more
        if failures:
            ok = False
            lines += [f"FAIL[{lane}]: {failure}" for failure in failures]
        else:
            lines.append(f"OK[{lane}]: {summary}")
    return ok, lines
