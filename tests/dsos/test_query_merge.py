"""Sharded query fan-out: index-ordered merge, replica fallback.

Satellite pins from the replication issue: the per-shard merge keeps
index order with duplicate keys across shards, tolerates an empty
shard, answers from the surviving replica when one is down, raises
:class:`StoreDownError` only when a whole replica set is dead, and
``.quorum()`` read-repairs a lagging primary before scanning it.
"""

import pytest

from repro.dsos import Attr, DsosCluster, Schema
from repro.dsos.daemon import StoreDownError


def _schema():
    return Schema(
        "events",
        [
            Attr("job_id", "int"),
            Attr("rank", "int"),
            Attr("timestamp", "float"),
        ],
        {
            "time_job": ("timestamp", "job_id"),
            "job_time": ("job_id", "timestamp"),
        },
    )


def _event(job, rank, ts):
    return {"job_id": job, "rank": rank, "timestamp": float(ts)}


@pytest.fixture
def cluster():
    c = DsosCluster("q", shards=2, replication=2)
    c.attach_schema(_schema())
    return c


def _job_for_shard(c):
    """shard -> a job id routing there."""
    out = {}
    for job in range(1000):
        out.setdefault(c.shard_of("events", _event(job, 0, 0.0)), job)
        if len(out) == c.shards:
            return out
    raise AssertionError("job-hash never covered the shards")


def test_duplicate_keys_across_shards_merge_in_index_order(cluster):
    jobs = _job_for_shard(cluster)
    # The same timestamps land on both shards: the merged stream must
    # be globally sorted on the full (timestamp, job_id) index key, so
    # equal timestamps interleave deterministically by job id.
    for ts in (0.3, 0.1, 0.2):
        for shard in (0, 1):
            cluster.insert_replicated("events", _event(jobs[shard], 0, ts))
    result = cluster.query("events", "time_job").execute()
    keys = [(r["timestamp"], r["job_id"]) for r in result]
    assert keys == sorted(keys)
    assert len(result) == 6
    assert result.stats.shards_queried == 2
    assert result.stats.replicas_skipped == 0


def test_empty_shard_contributes_nothing_but_is_scanned(cluster):
    jobs = _job_for_shard(cluster)
    for i in range(5):
        cluster.insert_replicated("events", _event(jobs[0], 0, 0.1 * i))
    result = cluster.query("events", "time_job").execute()
    assert len(result) == 5
    assert result.stats.shards_queried == 2
    assert sorted(result.stats.rows_scanned_per_shard) == [0, 5]


def test_one_dead_replica_per_shard_is_tolerated(cluster):
    jobs = _job_for_shard(cluster)
    for i in range(8):
        for shard in (0, 1):
            cluster.insert_replicated(
                "events", _event(jobs[shard], i % 2, 0.1 * i)
            )
    full = cluster.query("events", "time_job").execute()
    # Kill one replica in each shard (the primary in shard 0, the
    # secondary in shard 1): the fan-out must route around both.
    cluster.crash_daemon(cluster.replica_sets[0][0])
    cluster.crash_daemon(cluster.replica_sets[1][1])
    degraded = cluster.query("events", "time_job").execute()
    assert degraded.rows == full.rows
    assert degraded.stats.replicas_skipped == 2


def test_whole_replica_set_down_raises_store_down(cluster):
    jobs = _job_for_shard(cluster)
    cluster.insert_replicated("events", _event(jobs[0], 0, 0.0))
    for d in cluster.replica_sets[1]:
        cluster.crash_daemon(d)
    with pytest.raises(StoreDownError, match="shard 1"):
        cluster.query("events", "time_job").execute()


def test_quorum_read_repairs_lagging_primary(cluster):
    jobs = _job_for_shard(cluster)
    for i in range(10):
        cluster.insert_replicated("events", _event(jobs[0], 0, 0.1 * i))
    primary = cluster.replica_sets[0][0]
    cluster.crash_daemon(primary, tear_tail=True, tear_bytes=60)
    cluster.recover_daemon(primary)  # torn tail: primary is short
    assert len(primary.applied) < 10

    # A plain read answers from the lagging primary and misses rows.
    plain = cluster.query("events", "time_job").execute()
    assert len(plain) == len(primary.applied)

    # A quorum read repairs it first and sees every surviving object.
    quorum = cluster.query("events", "time_job").quorum().execute()
    assert len(quorum) == 10
    assert quorum.stats.read_repaired == 10 - len(plain)
    assert cluster.census().complete
    # And the repair is durable: plain reads are whole again.
    assert len(cluster.query("events", "time_job").execute()) == 10


def test_filters_and_limit_compose_with_sharded_merge(cluster):
    jobs = _job_for_shard(cluster)
    for i in range(12):
        for shard in (0, 1):
            cluster.insert_replicated(
                "events", _event(jobs[shard], i % 3, 0.1 * i)
            )
    result = (
        cluster.query("events", "time_job")
        .where("rank", "==", 0)
        .limit(5)
        .execute()
    )
    assert len(result) == 5
    assert all(r["rank"] == 0 for r in result)
    keys = [(r["timestamp"], r["job_id"]) for r in result]
    assert keys == sorted(keys)


def test_legacy_query_path_unchanged():
    c = DsosCluster("flat", n_daemons=3)
    c.attach_schema(_schema())
    for i in range(9):
        c.insert("events", _event(1, i % 3, 0.1 * i))
    result = c.query("events", "time_job").execute()
    assert len(result) == 9
    assert result.stats.shards_queried == 3  # one per daemon, not shard
    assert result.stats.replicas_skipped == 0
    assert result.stats.read_repaired == 0


# ---------------------------------------------------------- merge order
#
# A multi-stream read sorts the key tuples stably: the stable sort of
# the concatenated per-shard index streams on their stored keys
# (``heapq.merge``'s order whenever the keys are totally ordered, which
# NaN keys are not).


def _merged(objs, n_daemons, index):
    """The inserted objects as each daemon's index stream (round-robin
    placement, stable sort on the key), concatenated and stably sorted
    on the keys."""
    attrs = _schema().indices[index]

    def key(obj):
        return tuple(obj[a] for a in attrs)

    streams = [sorted(objs[i::n_daemons], key=key) for i in range(n_daemons)]
    return sorted((o for s in streams for o in s), key=key)


def _cells(rows):
    """Rows by value: keys in order, each value's type and repr (so NaN
    equals NaN and -0.0 differs from 0.0)."""
    return [[(k, type(v), repr(v)) for k, v in r.items()] for r in rows]


def _flat(n_daemons=3):
    c = DsosCluster("flat", n_daemons=n_daemons)
    c.attach_schema(_schema())
    return c


@pytest.mark.parametrize("stamps", [
    [0.5, 0.0, 0.5, -0.0, 0.25, 0.0, 0.5, 1e300, -float("inf")],
    [0.5, float("nan"), 0.0, 0.5, float("nan"), 0.25],
    [0.5, 1, 0.0, 1.0, 0, 0.25],
], ids=["floats", "nan", "int-and-float"])
def test_multi_stream_merge_is_the_stable_sort_of_the_streams(stamps):
    """Stamps are inserted through the schema check, so the ints of
    ``int-and-float`` land as floats and merge by value with them."""
    c = _flat()
    objs = [{"job_id": i % 2, "rank": i % 3, "timestamp": ts}
            for i, ts in enumerate(stamps)]
    for obj in objs:
        c.insert("events", obj)
    objs = [{**obj, "timestamp": float(obj["timestamp"])} for obj in objs]
    for index in ("time_job", "job_time"):
        got = c.query("events", index).execute().rows
        want = _merged(objs, len(c.daemons), index)
        assert len(got) == len(want) == len(stamps)
        # Rows are built from the columns: equal by value, not the
        # inserted objects themselves.
        assert _cells(got) == _cells(want), index


def test_equal_keys_come_from_the_earlier_stream_first():
    c = _flat()
    for i in range(9):
        c.insert("events", _event(1, i, 0.5))
    rows = c.query("events", "time_job").execute().rows
    # Round-robin puts rank i on daemon i % 3; stream order breaks ties.
    assert [r["rank"] for r in rows] == [0, 3, 6, 1, 4, 7, 2, 5, 8]


# ------------------------------------------- quorum reads skip converged


def _count_repairs(monkeypatch, cluster) -> list:
    calls = []
    repair = cluster.repair_daemon

    def counted(daemon):
        calls.append(daemon.name)
        return repair(daemon)

    monkeypatch.setattr(cluster, "repair_daemon", counted)
    return calls


def test_converged_store_quorum_read_makes_no_repair_calls(cluster,
                                                            monkeypatch):
    jobs = _job_for_shard(cluster)
    for i in range(6):
        for shard in (0, 1):
            cluster.insert_replicated("events", _event(jobs[shard], 0, i))
    calls = _count_repairs(monkeypatch, cluster)
    for _ in range(3):
        result = cluster.query("events", "time_job").quorum().execute()
        assert len(result) == 12
        assert result.stats.read_repaired == 0
    assert calls == []


def test_restarted_replica_is_repaired_on_the_first_quorum_read(cluster,
                                                                monkeypatch):
    jobs = _job_for_shard(cluster)
    for i in range(10):
        for shard in (0, 1):
            cluster.insert_replicated("events", _event(jobs[shard], 0, i))
    primary = cluster.replica_sets[0][0]
    cluster.crash_daemon(primary, tear_tail=True, tear_bytes=60)
    cluster.recover_daemon(primary)
    lost = 10 - len(primary.applied)
    assert lost > 0
    calls = _count_repairs(monkeypatch, cluster)

    first = cluster.query("events", "job_time").quorum().execute()
    assert first.stats.read_repaired == lost
    assert len(first) == 20
    # Only the lagging shard's live replicas are asked.
    assert calls == [r.name for r in cluster.replica_sets[0]]
    assert cluster.census().complete

    calls.clear()
    second = cluster.query("events", "job_time").quorum().execute()
    assert second.stats.read_repaired == 0
    assert second.rows == first.rows
    assert calls == []
