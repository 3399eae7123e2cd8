"""Tests for the LDMS → DSOS store plugin."""

import json
import math

import pytest

from repro.apps import MpiIoTest
from repro.cluster import Cluster, ClusterSpec
from repro.core import ConnectorConfig
from repro.dsos import DARSHAN_DATA_SCHEMA, DsosClient, DsosCluster, DsosStreamStore
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.faults import FaultPlan, SlowStore
from repro.ldms import Ldmsd, StreamMessage
from repro.sim import Environment, RngRegistry
from repro.telemetry import install
from repro.telemetry.trace import (
    DROP_STORE_DOWN,
    STAGE_INGEST,
    STORED,
    make_trace_id,
)

TAG = "darshanConnector"


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def daemon(env):
    cluster = Cluster(env, RngRegistry(0), ClusterSpec(n_compute_nodes=1))
    return Ldmsd(env, cluster.analysis_node, cluster.network)


@pytest.fixture
def client():
    return DsosClient(DsosCluster("shirley", n_daemons=2))


def _message(op="write", rank=3, ts=1650000100.25):
    return {
        "uid": 99066,
        "exe": "/apps/hacc-io",
        "job_id": 259903,
        "rank": rank,
        "ProducerName": "nid00046",
        "file": "/scratch/part.dat",
        "record_id": 123456789,
        "module": "POSIX",
        "type": "MOD",
        "max_byte": 1048575,
        "switches": 2,
        "flushes": -1,
        "cnt": 7,
        "op": op,
        "seg": [
            {
                "data_set": "N/A",
                "pt_sel": -1,
                "irreg_hslab": -1,
                "reg_hslab": -1,
                "ndims": -1,
                "npoints": -1,
                "off": 0,
                "len": 1048576,
                "dur": 0.125,
                "timestamp": ts,
            }
        ],
    }


def test_store_inserts_flattened_objects(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    daemon.publish_now(TAG, _message())
    assert store.objects_stored == 1
    assert client.count("darshan_data") == 1
    rows = client.query("darshan_data", "job_rank_time", prefix=(259903,)).rows
    assert rows[0]["seg_len"] == 1048576
    assert rows[0]["seg_dur"] == 0.125
    assert rows[0]["timestamp"] == 1650000100.25
    assert rows[0]["module"] == "POSIX"


def test_store_queryable_by_paper_index(env, daemon, client):
    DsosStreamStore(daemon, TAG, client)
    for rank in (2, 0, 1):
        for t in range(3):
            daemon.publish_now(TAG, _message(rank=rank, ts=1650000000.0 + t))
    res = client.query("darshan_data", "job_rank_time", prefix=(259903, 1))
    assert len(res) == 3
    assert [r["rank"] for r in res.rows] == [1, 1, 1]
    stamps = [r["timestamp"] for r in res.rows]
    assert stamps == sorted(stamps)


def test_store_handles_na_values(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    msg = _message(op="open")
    msg["max_byte"] = "N/A"
    msg["seg"][0]["len"] = "N/A"
    daemon.publish_now(TAG, msg)
    row = client.query("darshan_data", "job_id", prefix=(259903,)).rows[0]
    assert row["max_byte"] == -1
    assert row["seg_len"] == -1
    assert store.parse_errors == 0


#: Int fields holding values no int64 holds, as ``json.dumps`` writes
#: them: ``Infinity``, ``-Infinity`` and ``NaN`` (floats to
#: ``json.loads``), ``1e+30``, and ints beyond int64.
_BEYOND_INT64 = {"max_byte": math.inf, "flushes": -math.inf, "cnt": 1e30,
                 "switches": 2**70}
_BEYOND_INT64_SEG = {"off": math.nan, "len": -(2**70)}


@pytest.mark.parametrize("replicas", [1, 2], ids=["flat", "2x2"])
@pytest.mark.parametrize("fast_lane", [True, False], ids=["fast", "slow"])
def test_ints_beyond_int64_in_raw_json_are_stored_as_the_default(
    fast_lane, replicas
):
    """An int field that parses to no int64 is unparseable: stored as
    -1 on both lanes, flat and replicated, and the message's ledger
    closes as stored."""
    world = World(WorldConfig(
        seed=5, quiet=True, n_compute_nodes=1, telemetry=True,
        fast_lane=fast_lane, dsos_shards=replicas, dsos_replication=replicas,
    ))
    msg = _message()
    msg.update(_BEYOND_INT64)
    msg["seg"][0].update(_BEYOND_INT64_SEG)
    trace_id = make_trace_id(259903, 3, 0)
    world.telemetry.begin(trace_id, 259903, 3)
    world.fabric.l2.publish_now(STREAM_TAG, json.dumps(msg), trace_id=trace_id)
    (row,) = world.dsos.query("darshan_data", "job_id", prefix=(259903,)).rows
    for attr in [*_BEYOND_INT64, *("seg_" + k for k in _BEYOND_INT64_SEG)]:
        assert type(row[attr]) is int and row[attr] == -1, attr
    assert row["seg_dur"] == 0.125 and row["rank"] == 3
    assert world.store.parse_errors == 0 and world.store.objects_stored == 1
    ledger = world.telemetry.reconcile()
    assert ledger == {(259903, 3): {"published": 1, "stored": 1, "dropped": 0,
                                    "spilled": 0, "in_flight": 0,
                                    "drops": {}}}


def test_store_counts_garbage(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    daemon.publish_now(TAG, "{oops", fmt="string")
    daemon.publish_now(TAG, '["not","an","object"]')
    assert store.parse_errors == 2
    assert store.objects_stored == 0


def test_store_multiple_segments_multiple_objects(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    msg = _message()
    msg["seg"] = [dict(msg["seg"][0]), dict(msg["seg"][0])]
    msg["seg"][1]["timestamp"] = msg["seg"][0]["timestamp"] + 1
    daemon.publish_now(TAG, msg)
    assert store.objects_stored == 2
    assert client.count("darshan_data") == 2


@pytest.mark.parametrize("replicas", [1, 2], ids=["flat", "2x2"])
@pytest.mark.parametrize("fast_lane", [True, False], ids=["fast", "slow"])
def test_stored_instant_is_the_ingest_landing(fast_lane, replicas):
    """Each ``stored`` callback's ``t`` is the ``t_out`` of its message's
    STORED ingest hop, on both lanes, flat and replicated, including
    the messages a slow-store episode deferred and then flushed."""
    world = World(WorldConfig(
        seed=5, quiet=True, n_compute_nodes=2, telemetry=True,
        fast_lane=fast_lane, dsos_shards=replicas, dsos_replication=replicas,
        faults=FaultPlan((SlowStore(at=0.1, duration=0.4),)),
    ))
    landed = []
    world.env.observers.subscribe(
        stored=lambda t, message, n_rows: landed.append((t, message.trace_id))
    )
    app = MpiIoTest(n_nodes=2, ranks_per_node=2, iterations=8,
                    block_size=2**20, collective=False,
                    sync_per_iteration=False)
    run_job(world, app, "nfs", connector_config=ConnectorConfig(),
            inter_job_gap_s=0.0)
    traces = world.telemetry.traces
    stored_hops = {
        trace_id: [h for h in trace.hops
                   if h.stage == STAGE_INGEST and h.outcome == STORED]
        for trace_id, trace in traces.items()
    }
    assert len(landed) == sum(1 for hops in stored_hops.values() if hops) > 0
    deferred = 0
    for t, trace_id in landed:
        hops = stored_hops[trace_id]
        assert [hop.t_out for hop in hops] == [t]
        deferred += hops[0].t_in < hops[0].t_out
    assert deferred > 0  # the episode's flush is covered


@pytest.mark.parametrize("deferred", [False, True], ids=["direct", "slow-episode"])
def test_a_write_the_store_rejected_lands_when_resent(env, daemon, deferred):
    """A message rejected because every replica of its shard is down
    (``drop_store_down``) leaves no admission in the ingest journal, so
    its resend after recovery lands instead of being skipped as a
    duplicate — delivered directly or deferred by a slow episode."""
    cluster = DsosCluster("shirley", 2, shards=1, replication=2)
    client = DsosClient(cluster)
    store = DsosStreamStore(daemon, TAG, client)
    collector = install(env)
    trace_id = make_trace_id(259903, 3, 0)
    collector.begin(trace_id, 259903, 3, daemon.node.name)
    message = StreamMessage(TAG, json.dumps(_message()), trace_id=trace_id)

    for d in cluster.daemons:
        cluster.crash_daemon(d)
    if deferred:
        store.begin_slow_episode()
    daemon.receive(message)
    if deferred:
        store.end_slow_episode()
    assert store.store_down_drops == 1
    assert trace_id not in store.journal and store.journal.wal == []
    assert collector.traces[trace_id].drop_site == (
        STAGE_INGEST, daemon.node.name, DROP_STORE_DOWN
    )

    for d in cluster.daemons:
        cluster.recover_daemon(d)
    daemon.receive(message)  # a resend, as an ``unacked`` retry makes
    assert store.journal.duplicates_skipped == 0
    assert store.objects_stored == 1
    assert client.count("darshan_data") == 1
    assert [a.trace_id for a in store.journal.wal] == [trace_id]
    assert collector.traces[trace_id].status == "stored"
    assert collector.reconcile()[(259903, 3)]["stored"] == 1
    assert collector.drop_sites() == {}
