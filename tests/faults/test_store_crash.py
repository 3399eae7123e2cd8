"""StoreCrash fault injection: crash a dsosd replica under live ingest.

The campaign-level pins: under quorum replication, a replica crash
(with or without restart, with or without a torn WAL tail) leaves zero
unaccounted events — the extended ledger
``published == stored + Σ drops + in_flight_spill`` closes exactly,
recovery hops (``wal_replayed`` / ``repair_pulled`` /
``quorum_degraded``) land in the telemetry recovery ledger, and after
repair the replica census is complete again.
"""

import pytest

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.experiments import World, WorldConfig, run_job
from repro.faults import FaultPlan, StoreCrash
from repro.ldms.resilience import RetryPolicy


def _campaign(plan, *, seed=42, repair=True, fast=True):
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, faults=plan,
        retry=RetryPolicy(), standby_l1=True,
        dsos_shards=2, dsos_replication=2, dsos_write_quorum=2,
        dsos_repair=repair,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True),
        inter_job_gap_s=0.0,
    )
    return world, result


_DRILL = FaultPlan((
    StoreCrash(0, at=0.15, down_for=0.3, tear_tail=True),
    StoreCrash(3, at=0.25, down_for=0.25),
))


# ------------------------------------------------------------- plan


def test_store_crash_plan_validation():
    with pytest.raises(ValueError, match="daemon"):
        StoreCrash(-1, at=0.1)
    with pytest.raises(ValueError, match="at"):
        StoreCrash(0, at=-0.1)
    with pytest.raises(ValueError, match="down_for"):
        StoreCrash(0, at=0.1, down_for=0.0)


def test_store_crash_requires_replicated_cluster():
    with pytest.raises(ValueError, match="not replicated"):
        World(WorldConfig(
            seed=1, quiet=True, telemetry=True,
            faults=FaultPlan((StoreCrash(0, at=0.1),)),
        ))


def test_store_crash_daemon_index_bounds_checked():
    with pytest.raises(ValueError, match="4 daemons"):
        World(WorldConfig(
            seed=1, quiet=True, telemetry=True,
            faults=FaultPlan((StoreCrash(9, at=0.1),)),
            dsos_shards=2, dsos_replication=2,
        ))


# --------------------------------------------------------- campaigns


def test_crash_with_restart_reconciles_and_converges():
    world, result = _campaign(_DRILL)
    health = result.health
    assert health.published > 0
    assert health.verify()  # zero unaccounted events, exact ledger

    kinds = [f.kind for f in world.fault_injector.applied]
    assert kinds.count("store_crash") == 2
    assert kinds.count("store_recover") == 2
    assert kinds.count("store_repair") == 2

    recoveries = health.recovery_sites()
    outcomes = {site[2] for site in recoveries}
    assert "wal_replayed" in outcomes
    assert "repair_pulled" in outcomes
    assert "quorum_degraded" in outcomes
    # Recovery hops are qualified by the daemon that re-earned them.
    nodes = {site[1] for site in recoveries if site[2] == "wal_replayed"}
    assert any("dsosd0" in node for node in nodes)

    census = world.dsos.cluster.census()
    assert census.complete and census.replicas_down == 0
    assert world.dsos.cluster.quorum_degraded_writes > 0


def test_permanent_crash_still_reconciles():
    plan = FaultPlan((StoreCrash(0, at=0.15, tear_tail=True),))
    world, result = _campaign(plan)
    assert result.health.verify()
    census = world.dsos.cluster.census()
    assert census.replicas_down == 1
    assert census.lost == 0  # the surviving replica holds everything
    assert world.dsos.cluster.count("darshan_data") > 0
    # Down replica never recovered: no replay/repair hops, only the
    # degraded-quorum acks of writes that landed single-copy.
    outcomes = {s[2] for s in result.health.recovery_sites()}
    assert "wal_replayed" not in outcomes
    assert "quorum_degraded" in outcomes


def test_repair_disabled_leaves_torn_tail_under_replicated():
    world, result = _campaign(_DRILL, repair=False)
    assert result.health.verify()  # the ledger still closes
    census = world.dsos.cluster.census()
    assert census.replicas_down == 0  # both replicas restarted
    assert census.under_replicated > 0  # but the torn tail stayed lost
    assert not census.complete


def test_crash_drill_replays_bit_identically():
    world_a, result_a = _campaign(_DRILL, seed=7)
    world_b, result_b = _campaign(_DRILL, seed=7)
    assert [
        (f.t, f.kind, f.detail) for f in world_a.fault_injector.applied
    ] == [
        (f.t, f.kind, f.detail) for f in world_b.fault_injector.applied
    ]
    assert result_a.health.to_dict() == result_b.health.to_dict()
    assert (world_a.dsos.cluster.stats_snapshot()
            == world_b.dsos.cluster.stats_snapshot())
    assert world_a.env.now == world_b.env.now
