"""The acceptance campaign: every fault class at once, exact books.

One seeded run arms the full self-healing stack — spill/replay
connector, retry/backoff forwarders, hot-standby L1, journaled ingest —
against an L1 crash-and-restart, a link partition and a slow-store
episode, all landing inside the job's I/O burst.  The run must
reconcile exactly, store each event at most once, and replay
bit-for-bit under its seed.
"""

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.experiments import World, WorldConfig, run_job
from repro.faults import DaemonCrash, FaultPlan, LinkPartition, SlowStore
from repro.ldms.resilience import RetryPolicy


def _plan():
    return FaultPlan((
        DaemonCrash("l1", after_messages=50, down_for=0.5),
        LinkPartition("nid00001", "head", at=0.2, duration=0.3),
        SlowStore(at=0.1, duration=0.4),
    ))


def _campaign(seed: int, fast: bool = True):
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, faults=_plan(), retry=RetryPolicy(),
        standby_l1=True,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    # No inter-job gap, so the timed fault windows overlap the traffic.
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True),
        inter_job_gap_s=0.0,
    )
    return world, result


def test_acceptance_campaign_reconciles_exactly():
    world, result = _campaign(seed=7)

    # All three faults fired — and healed.
    kinds = [f.kind for f in world.fault_injector.applied]
    assert kinds.count("daemon_crash") == 1
    assert kinds.count("daemon_recover") == 1
    assert kinds.count("link_partition") == 1
    assert kinds.count("link_heal") == 1
    assert kinds.count("slow_store_begin") == 1
    assert kinds.count("slow_store_end") == 1

    health = result.health
    assert health.published > 0
    assert health.verify()  # published == stored + Σ drops + spill
    assert health.in_flight == 0
    assert health.in_flight_spill == 0  # everything replayed or stored

    # Zero duplicate rows under replay/retry: the WAL admitted each
    # trace id at most once and the row count matches the ledger.
    journal = world.store.journal
    wal_ids = [entry.trace_id for entry in journal.wal]
    assert len(wal_ids) == len(set(wal_ids))
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    assert len(rows) == health.stored

    # End-of-run flush: no residue in any batch or slow-store buffer.
    assert world.store._pending_rows == []
    assert world.store.slow_pending == 0
    assert not world.fabric.l2.streams.in_batch
    assert result.connector.spill_pending() == 0


def test_same_seed_campaign_is_bit_identical():
    """Replayability: the same seeded campaign twice gives the same
    fault log, the same ledger, and the same final DSOS rows."""
    world_a, result_a = _campaign(seed=42)
    world_b, result_b = _campaign(seed=42)

    epoch_a, epoch_b = world_a.config.epoch, world_b.config.epoch
    log_a = [(f.t - epoch_a, f.kind, f.detail)
             for f in world_a.fault_injector.applied]
    log_b = [(f.t - epoch_b, f.kind, f.detail)
             for f in world_b.fault_injector.applied]
    assert log_a == log_b

    ha, hb = result_a.health, result_b.health
    assert (ha.published, ha.stored, ha.dropped, ha.in_flight_spill) == (
        hb.published, hb.stored, hb.dropped, hb.in_flight_spill
    )
    assert ha.drop_sites() == hb.drop_sites()
    assert ha.recovery_sites() == hb.recovery_sites()

    rows_a = [dict(obj) for obj in world_a.query_job(result_a.job_id)]
    rows_b = [dict(obj) for obj in world_b.query_job(result_b.job_id)]
    assert rows_a == rows_b
    assert len(rows_a) > 0


def test_different_seeds_still_reconcile():
    for seed in (3, 11):
        world, result = _campaign(seed=seed)
        assert result.health.verify(), f"seed {seed} failed to reconcile"
