"""Forwarder-batch regression tests (the fast lane under fire).

A forwarder coalesces queued messages into one transfer and hands the
batch to ``Ldmsd.receive_batch``, one ``receive`` per message.  Three
things must hold:

* a receiver that crashes in the middle of a batch *attributes* every
  message behind the trip wire (receive-stage ``drop_daemon_failed``),
  never silently vanishes one;
* the run leaves nothing deferred in the store;
* multi-message batches into a flat multi-daemon store place every
  row on the same daemon as the reference lane does.
"""

from repro.apps import MpiIoTest
from repro.cluster import Cluster, ClusterSpec
from repro.core import ConnectorConfig
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.ldms import Ldmsd
from repro.sim import Environment, RngRegistry
from repro.telemetry import (
    DROP_DAEMON_FAILED,
    install,
    make_trace_id,
)

TAG = "darshanConnector"


# ---------------------------------------------------------------- unit


def test_mid_window_crash_attributes_every_message():
    """A 5-message batch whose receiver dies at message 2: the two
    delivered messages stay delivered, the three behind the trip wire
    drop with receive-stage attribution — exactly as sequential
    delivery would have behaved."""
    env = Environment()
    cluster = Cluster(env, RngRegistry(4), ClusterSpec(n_compute_nodes=3))
    collector = install(env)
    src = Ldmsd(env, cluster.compute_nodes[0], cluster.network, name="src")
    dst = Ldmsd(env, cluster.head_node, cluster.network, name="dst")
    src.add_stream_forward(TAG, dst, queue_depth=64)

    delivered = []
    def trip_wire(message):
        delivered.append(message.trace_id)
        if len(delivered) == 2:
            dst.fail()
    dst.streams.subscribe(TAG, trip_wire)

    # Burst in zero simulated time: the drain callback runs behind the
    # burst, so all 5 coalesce into one forwarder batch.
    ids = [make_trace_id(1, 0, seq) for seq in range(5)]
    for tid in ids:
        collector.begin(tid, 1, 0, src.node.name)
        src.publish_now(TAG, {"k": 1}, trace_id=tid)
    env.run()

    assert delivered == ids[:2]  # the batch really was cut short
    for tid in ids[:2]:
        assert collector.traces[tid].drop_site is None
    for tid in ids[2:]:
        assert collector.traces[tid].drop_site == (
            "receive", dst.node.name, DROP_DAEMON_FAILED
        )
    assert dst.dropped_while_failed == 3


# ------------------------------------------------------------ campaign


def _track_batches(daemon) -> dict:
    """Wrap ``daemon.receive_batch`` to expose the batch being
    delivered: its length (0 between batches), and every batch size
    seen."""
    state = {"size": 0, "sizes": []}
    receive_batch = daemon.receive_batch

    def tracked(messages):
        state["size"] = len(messages)
        state["sizes"].append(len(messages))
        try:
            receive_batch(messages)
        finally:
            state["size"] = 0

    daemon.receive_batch = tracked
    return state


def test_l1_crash_inside_a_batch_window_stays_exact():
    """L1 dies in the middle of a multi-message fast-lane forwarder
    batch mid-campaign.  All losses are attributed and the ledger
    closes."""
    world = World(WorldConfig(
        seed=11, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=True,
    ))
    l1 = world.fabric.l1
    batch = _track_batches(l1)
    # Messages of the cut batch still to come when L1 failed.
    behind = []

    def trip_wire(message):
        if behind or batch["size"] < 2:
            return
        # The batch's first message: the rest of it is still to come.
        behind.append(batch["size"] - 1)
        l1.fail()

    l1.streams.subscribe(STREAM_TAG, trip_wire)

    app = MpiIoTest(
        n_nodes=2, ranks_per_node=2, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(world, app, "nfs", connector_config=ConnectorConfig())

    # The scenario is real: a batch was cut short with messages left.
    assert behind and behind[0] > 0

    health = result.health
    assert health.verify()  # nothing silently vanished
    assert health.dropped > 0
    drop_outcomes = {
        (stage, outcome)
        for (stage, _, outcome) in health.drop_sites()
    }
    assert ("receive", DROP_DAEMON_FAILED) in drop_outcomes

    # End of run: nothing deferred in the store.
    assert world.store.slow_pending == 0


def test_healthy_campaign_leaves_no_batch_residue():
    """Regression pin for the end-of-run audit: after a clean fast-lane
    campaign every published message is a stored DSOS row."""
    world = World(WorldConfig(
        seed=11, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=True,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=2, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(world, app, "nfs", connector_config=ConnectorConfig())

    assert world.store.slow_pending == 0
    health = result.health
    assert health.verify()
    assert health.dropped == 0
    assert health.stored == health.published
    # Every published event is a queryable DSOS row.
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    assert len(rows) == health.published


def test_multi_message_batches_place_rows_as_the_reference_lane():
    """A flat 4-daemon store fed multi-message forwarder batches holds
    the same rows on the same daemons, in the same order, on the fast
    lane (spine stood down) as on the process-driven reference lane."""
    placements, sizes = {}, {}
    for fast_lane in (True, False):
        world = World(WorldConfig(
            seed=11, quiet=True, n_compute_nodes=4, fast_lane=fast_lane,
        ))
        if world.spine is not None:
            world.spine.dearm()
        batches = _track_batches(world.fabric.l2)
        app = MpiIoTest(
            n_nodes=2, ranks_per_node=2, iterations=8, block_size=2**20,
            collective=False, sync_per_iteration=False,
        )
        run_job(world, app, "nfs", connector_config=ConnectorConfig())
        daemons = world.dsos.cluster.daemons
        assert len(daemons) == 4 and not world.dsos.cluster.sharded
        placements[fast_lane] = [
            d._shard("darshan_data").rows(range(d.count("darshan_data")))
            for d in daemons
        ]
        sizes[fast_lane] = batches["sizes"]

    assert max(sizes[True]) > 1  # the batches really held several
    assert sizes[True] == sizes[False]
    assert placements[True] == placements[False]
    assert all(placements[True])  # every daemon holds rows
