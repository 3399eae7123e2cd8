"""Connector spill/replay: a dead local ldmsd costs spilled events
nothing but latency.

With ``ConnectorConfig(spill=True)`` the connector buffers events it
cannot publish (local daemon down) in an in-memory Darshan-log buffer,
reconnects with capped exponential backoff, and replays in order once
the daemon returns.  The health ledger must stay exact through all of
it: ``published == stored + Σ drops + in_flight_spill``.
"""

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.core.batch import ColumnarMessage
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.faults import DaemonCrash, FaultPlan
from repro.telemetry.collector import collector_for
from repro.telemetry.trace import REPLAYED, SPILLED


def _app(iterations=8):
    return MpiIoTest(
        n_nodes=2, ranks_per_node=2, iterations=iterations, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )


def _world(plan, seed=3):
    return World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=True, faults=plan,
    ))


def test_spill_then_replay_loses_nothing_at_the_connector():
    # Crash the first compute-node daemon mid-job, bring it back soon.
    plan = FaultPlan((
        DaemonCrash("nid00001", after_messages=10, down_for=0.3),
    ))
    world = _world(plan)
    result = run_job(world, _app(), "nfs",
                     connector_config=ConnectorConfig(spill=True))
    stats = result.connector.stats

    # The outage really happened and the spill path really ran.
    kinds = [f.kind for f in world.fault_injector.applied]
    assert kinds.count("daemon_crash") == 1
    assert kinds.count("daemon_recover") == 1
    assert stats.events_spilled > 0
    assert stats.events_replayed == stats.events_spilled  # all came back
    assert stats.reconnect_attempts >= 1
    assert result.connector.spill_pending() == 0

    # Spilled events still count as published, and the ledger closes.
    health = result.health
    assert health.published == stats.messages_published
    assert health.in_flight_spill == 0
    assert health.verify()

    # Recovery-site attribution names the replay at the publish stage.
    outcomes = {outcome for (_, _, outcome) in health.recovery_sites()}
    assert REPLAYED in outcomes


def test_permanent_crash_leaves_spill_in_flight_but_exact():
    # The daemon never comes back: reconnect budget exhausts and the
    # buffered events stay in the spill — visibly, not as silent loss.
    plan = FaultPlan((DaemonCrash("nid00001", after_messages=10),))
    world = _world(plan)
    config = ConnectorConfig(
        spill=True, reconnect_max_attempts=3, reconnect_base_s=0.01,
        reconnect_cap_s=0.05,
    )
    result = run_job(world, _app(), "nfs", connector_config=config)
    stats = result.connector.stats

    assert stats.events_spilled > 0
    assert stats.events_replayed == 0
    pending = result.connector.spill_pending()
    assert pending == stats.events_spilled

    health = result.health
    assert health.in_flight_spill == pending
    # The extended invariant absorbs the spill: still EXACT.
    assert health.verify()
    assert health.published == (
        health.stored + health.dropped + health.in_flight_spill
    )
    # Spilled-but-never-replayed traces carry the spill marker.
    outcomes = {outcome for (_, _, outcome) in health.recovery_sites()}
    assert REPLAYED not in outcomes
    assert SPILLED not in outcomes  # spill alone is not a recovery


def test_spill_replay_stores_each_event_exactly_once():
    """Replayed events land in the database exactly once — the ingest
    journal confirms replay introduced no duplicate trace ids."""
    plan = FaultPlan((
        DaemonCrash("nid00001", after_messages=10, down_for=0.3),
    ))
    world = _world(plan)
    result = run_job(world, _app(), "nfs",
                     connector_config=ConnectorConfig(spill=True))

    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    assert len(rows) == result.health.stored
    assert world.store.journal is not None
    assert world.store.journal.duplicates_skipped == 0
    # Every event that survived the outage is in the database.
    assert result.health.stored + result.health.dropped == (
        result.health.published
    )


def test_without_spill_a_dead_daemon_still_drops():
    """spill=False keeps the paper's best-effort behaviour unchanged."""
    plan = FaultPlan((
        DaemonCrash("nid00001", after_messages=10, down_for=0.3),
    ))
    world = _world(plan)
    result = run_job(world, _app(), "nfs",
                     connector_config=ConnectorConfig(spill=False))
    stats = result.connector.stats
    assert stats.events_spilled == 0
    assert stats.events_replayed == 0
    health = result.health
    assert health.dropped > 0  # the outage cost data, as designed
    assert health.verify()  # but every loss is attributed


def _spill_world_run():
    """The spill world above on the fast lane, with every message the
    L2 store receives recorded: (world, result, messages)."""
    plan = FaultPlan((
        DaemonCrash("nid00001", after_messages=10, down_for=0.3),
    ))
    world = _world(plan)
    assert world.config.fast_lane
    received = []
    # Subscribed after the store, so each message is recorded once the
    # store has ingested it.
    world.fabric.l2.streams.subscribe(STREAM_TAG, received.append)
    result = run_job(world, _app(), "nfs",
                     connector_config=ConnectorConfig(spill=True))
    return world, result, received


def test_fast_lane_spill_world_renders_no_payload():
    """A fast-lane spill run carries each row as (shape, values) from
    the connector to the store: every message the L2 store receives is
    a lazy ColumnarMessage, and nothing renders its payload, replayed
    messages included."""
    world, result, received = _spill_world_run()
    assert result.connector.stats.events_replayed > 0
    assert received
    for message in received:
        assert type(message) is ColumnarMessage
        assert message._payload is None
    replayed = {
        trace_id
        for trace_id, trace in collector_for(world.env).traces.items()
        if any(hop.outcome == REPLAYED for hop in trace.hops)
    }
    assert replayed
    assert replayed <= {message.trace_id for message in received}
    assert result.health.verify()

    # The run is deterministic: a same-seed rerun stores the same rows
    # and reports the same health.
    again, rerun, _ = _spill_world_run()
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    assert rows
    assert rows == [dict(obj) for obj in again.query_job(rerun.job_id)]
    assert result.health.to_dict() == rerun.health.to_dict()
