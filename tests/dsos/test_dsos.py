"""Tests for DSOS: schemas, indices, sharded ingest, parallel queries."""

import numpy as np
import pytest

from repro.dsos import (
    Attr,
    DARSHAN_DATA_SCHEMA,
    DsosClient,
    DsosCluster,
    Schema,
    SchemaError,
)
from repro.dsos.daemon import _Shard


@pytest.fixture
def schema():
    return Schema(
        "events",
        [
            Attr("job_id", "int"),
            Attr("rank", "int"),
            Attr("timestamp", "float"),
            Attr("op", "string"),
        ],
        {
            "job_rank_time": ("job_id", "rank", "timestamp"),
            "time": ("timestamp",),
        },
    )


@pytest.fixture
def cluster(schema):
    c = DsosCluster("test", n_daemons=3)
    c.attach_schema(schema)
    return c


def _event(job, rank, ts, op="write"):
    return {"job_id": job, "rank": rank, "timestamp": float(ts), "op": op}


# ------------------------------------------------------------------ Schema


def test_schema_validation_accepts_good_object(schema):
    schema.validate(_event(1, 0, 1.5))


def test_schema_rejects_missing_and_unknown_attrs(schema):
    with pytest.raises(SchemaError, match="missing"):
        schema.validate({"job_id": 1})
    with pytest.raises(SchemaError, match="unknown attribute"):
        schema.validate({**_event(1, 0, 1.0), "bogus": 2})


def test_schema_rejects_wrong_type(schema):
    bad = _event(1, 0, 1.0)
    bad["rank"] = "three"
    with pytest.raises(SchemaError, match="expects int"):
        schema.validate(bad)


def test_int_accepted_where_float_declared(schema, cluster):
    obj = _event(1, 0, 1.0)
    obj["timestamp"] = 7  # int into float attr
    schema.validate(obj)
    # Stored as a float, as SOS stores a double attribute.
    cluster.insert("events", obj)
    (row,) = cluster.query("events", "time").execute().rows
    assert type(row["timestamp"]) is float and row["timestamp"] == 7.0


def test_schema_definition_errors():
    with pytest.raises(SchemaError):
        Attr("x", "blob")
    with pytest.raises(SchemaError):
        Schema("", [Attr("a", "int")], {})
    with pytest.raises(SchemaError):
        Schema("s", [], {})
    with pytest.raises(SchemaError):
        Schema("s", [Attr("a", "int"), Attr("a", "int")], {})
    with pytest.raises(SchemaError):
        Schema("s", [Attr("a", "int")], {"idx": ("ghost",)})
    with pytest.raises(SchemaError):
        Schema("s", [Attr("a", "int")], {"idx": ()})


def test_key_for_joint_index(schema):
    key = schema.key_for("job_rank_time", _event(5, 2, 9.0))
    assert key == (5, 2, 9.0)
    with pytest.raises(SchemaError):
        schema.key_for("nope", _event(1, 1, 1.0))


def test_darshan_schema_has_paper_indices():
    assert "job_rank_time" in DARSHAN_DATA_SCHEMA.indices
    assert DARSHAN_DATA_SCHEMA.indices["job_rank_time"] == (
        "job_id",
        "rank",
        "timestamp",
    )
    assert "timestamp" in DARSHAN_DATA_SCHEMA.attrs
    assert "seg_dur" in DARSHAN_DATA_SCHEMA.attrs


# ------------------------------------------------------------------- Index


def _indexed(*attrs):
    """A shard of int attributes ``attrs`` and its index ``t`` over all
    of them."""
    shard = _Shard(Schema("s", [Attr(a, "int") for a in attrs], {"t": attrs}))
    return shard, shard.indices["t"]


def test_sorted_index_orders_lazily():
    shard, idx = _indexed("a")
    for v in [5, 1, 3, 2, 4]:
        shard.add((v,))
    # Storing a row does no index work; the first read orders them.
    assert len(idx) == 5 and len(idx._oids) == 0
    assert shard.values("a", idx.range()) == [1, 2, 3, 4, 5]
    assert len(idx._oids) == 5


def test_sorted_index_range_half_open():
    shard, idx = _indexed("a")
    shard.add_many([(i,) for i in range(10)])
    assert idx.range((3,), (7,)).tolist() == [3, 4, 5, 6]
    # The ids are a view of the index's own intp array.
    assert idx.range((3,), (7,)).dtype == np.intp
    assert idx.range(None, (2,)).tolist() == [0, 1]
    assert idx.range((8,), None).tolist() == [8, 9]


def test_sorted_index_prefix_range():
    shard, idx = _indexed("job", "rank")
    for job in (1, 2):
        for rank in range(3):
            shard.add((job, rank))
    assert idx.prefix_range((1,)).tolist() == [0, 1, 2]
    assert idx.prefix_range((2,)).tolist() == [3, 4, 5]
    assert idx.prefix_range((2, 1)).tolist() == [4]
    with pytest.raises(ValueError):
        idx.prefix_range((1, 2, 3))


def test_sorted_index_add_after_query():
    shard, idx = _indexed("a")
    shard.add((2,))
    assert idx.range(None, None).tolist() == [0]
    shard.add((1,))  # add after materialization
    assert idx.range(None, None).tolist() == [1, 0]


# ----------------------------------------------------------------- Cluster


def test_ingest_round_robins_across_daemons(cluster):
    for i in range(9):
        cluster.insert("events", _event(1, i, float(i)))
    counts = [d.count("events") for d in cluster.daemons]
    assert counts == [3, 3, 3]
    assert cluster.count("events") == 9


def test_query_merges_shards_in_index_order(cluster):
    import random

    rng = random.Random(0)
    ts = list(range(50))
    rng.shuffle(ts)
    for t in ts:
        cluster.insert("events", _event(1, t % 4, float(t)))
    result = cluster.query("events", "time").execute()
    stamps = [r["timestamp"] for r in result]
    assert stamps == sorted(stamps)
    assert len(result) == 50
    assert result.stats.shards_queried == 3


def test_query_prefix_selects_job_and_rank(cluster):
    for job in (10, 20):
        for rank in range(4):
            for t in range(5):
                cluster.insert("events", _event(job, rank, float(t)))
    result = cluster.query("events", "job_rank_time").prefix(20, 2).execute()
    assert len(result) == 5
    assert all(r["job_id"] == 20 and r["rank"] == 2 for r in result)
    # The paper's example: ordered by time within the (job, rank) prefix.
    assert [r["timestamp"] for r in result] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_query_range_on_joint_key(cluster):
    for t in range(20):
        cluster.insert("events", _event(1, 0, float(t)))
    result = (
        cluster.query("events", "job_rank_time")
        .range((1, 0, 5.0), (1, 0, 10.0))
        .execute()
    )
    assert [r["timestamp"] for r in result] == [5.0, 6.0, 7.0, 8.0, 9.0]


def test_query_where_filter_and_stats(cluster):
    for t in range(30):
        cluster.insert("events", _event(1, 0, float(t), op="write" if t % 3 else "read"))
    result = (
        cluster.query("events", "time").where("op", "==", "read").execute()
    )
    assert all(r["op"] == "read" for r in result)
    assert result.stats.rows_scanned == 30
    assert result.stats.rows_returned == 10
    assert result.stats.est_latency_s > 0


def test_query_limit(cluster):
    for t in range(30):
        cluster.insert("events", _event(1, 0, float(t)))
    result = cluster.query("events", "time").limit(7).execute()
    assert len(result) == 7
    with pytest.raises(ValueError):
        cluster.query("events", "time").limit(0)


def test_query_unknown_index_and_schema(cluster):
    with pytest.raises(SchemaError):
        cluster.query("events", "bogus_index")
    with pytest.raises(SchemaError):
        cluster.query("ghosts", "time")
    with pytest.raises(SchemaError):
        cluster.insert("ghosts", {})


def test_query_bad_filter_op(cluster):
    cluster.insert("events", _event(1, 0, 1.0))
    with pytest.raises(ValueError):
        cluster.query("events", "time").where("op", "~=", "x").execute()


_BAD_FILTERS = [
    (("job_id", "~=", 1), ValueError, "unknown filter op"),
    (("ghost", "==", 1), SchemaError, "unknown attribute 'ghost'"),
]


@pytest.mark.parametrize("bad, error, match", _BAD_FILTERS)
@pytest.mark.parametrize("topology", [{"n_daemons": 3}, {"shards": 2, "replication": 2}])
@pytest.mark.parametrize("rows", [0, 1, 6])
def test_bad_filter_fails_the_same_on_empty_and_populated_stores(
    schema, topology, rows, bad, error, match
):
    c = DsosCluster("f", **topology)
    c.attach_schema(schema)
    for i in range(rows):
        c.insert(schema.name, _event(1, i % 2, float(i)))
    with pytest.raises(error, match=match):
        c.query("events", "time").where(*bad).execute()


@pytest.mark.parametrize("bad, error, match", _BAD_FILTERS)
def test_bad_filter_fails_on_an_empty_range(cluster, bad, error, match):
    for i in range(6):
        cluster.insert("events", _event(1, 0, float(i)))
    q = cluster.query("events", "time").range((100.0,), (200.0,))
    with pytest.raises(error, match=match):
        q.where("rank", "==", 0).where(*bad).execute()


def test_cluster_validation(schema):
    with pytest.raises(ValueError):
        DsosCluster("x", n_daemons=0)
    c = DsosCluster("x", 1)
    c.attach_schema(schema)
    with pytest.raises(SchemaError):
        c.attach_schema(schema)


def test_index_choice_changes_scan_cost(cluster):
    """The paper: "each index provided a different query performance"."""
    for job in range(5):
        for t in range(40):
            cluster.insert("events", _event(job, t % 4, float(t)))
    # Query for job 3 via the job-prefixed index: narrow scan.
    narrow = cluster.query("events", "job_rank_time").prefix(3).execute()
    # Same rows via the time index with a filter: full scan.
    wide = cluster.query("events", "time").where("job_id", "==", 3).execute()
    assert len(narrow) == len(wide) == 40
    assert narrow.stats.rows_scanned < wide.stats.rows_scanned
    assert narrow.stats.est_latency_s < wide.stats.est_latency_s


# ------------------------------------------------------------------ Client


def test_client_roundtrip(cluster):
    client = DsosClient(cluster)
    client.insert_many("events", (_event(1, 0, float(t)) for t in range(10)))
    assert client.count("events") == 10
    res = client.query("events", "job_rank_time", prefix=(1, 0), limit=3)
    assert len(res) == 3


def test_client_ensure_schema_idempotent():
    c = DsosCluster("x", 2)
    client = DsosClient(c)
    client.ensure_schema(DARSHAN_DATA_SCHEMA)
    client.ensure_schema(DARSHAN_DATA_SCHEMA)  # no error
    assert "darshan_data" in c.schemas
