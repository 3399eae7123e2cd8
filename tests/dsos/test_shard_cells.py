"""Shard cells and the key-exactness flag are taken at append.

Every path that stores an object (flat ``insert``/``insert_many``,
replicated ``insert_seq``, WAL ``recover`` and read-repair) goes through
``_Shard.add``/``add_many``, which record the object's value of every
schema attribute in one cell list per attribute and keep the flag that
says every object holds exactly the schema's attributes.  A frame's
columns are folded from those cells, so they must stay in step with the
objects: ``cells[a][oid]`` is ``objects[oid]``'s value of ``a``.
"""

import pytest

from repro.dsos import Attr, DsosCluster, Query, Schema, SchemaError
from repro.webservices import DataFrame

_SCHEMA = Schema(
    "events",
    [
        Attr("job_id", "int"),
        Attr("rank", "int"),
        Attr("timestamp", "float"),
        Attr("op", "string"),
    ],
    {"job_rank_time": ("job_id", "rank", "timestamp")},
)


def _event(job, rank, ts, op="write"):
    return {"job_id": job, "rank": rank, "timestamp": float(ts), "op": op}


def _flat(n_daemons=1):
    c = DsosCluster("cells", n_daemons=n_daemons)
    c.attach_schema(_SCHEMA)
    return c


def _shards(cluster):
    return [d._shard("events") for d in cluster.daemons]


def _assert_cells_in_step(shard):
    for name, cells in shard.cells.items():
        assert len(cells) == len(shard.objects), name
        for cell, obj in zip(cells, shard.objects):
            assert cell is obj.get(name), name


#: Objects without exactly the schema's attributes (all carry the
#: indexed ones, so the index accepts them).
_INEXACT = {
    "missing": {"job_id": 1, "rank": 0, "timestamp": 2.0},
    "extra": {**_event(1, 0, 2.0), "bogus": 7},
    "swapped": {"job_id": 1, "rank": 0, "timestamp": 2.0, "opp": "write"},
}


def test_exact_objects_keep_the_flag():
    c = _flat()
    c.insert("events", _event(1, 0, 0.5))
    c.insert("events", _event(1, 1, 0.25), validate=False)
    c.insert_many("events", [_event(2, 0, 1.0), _event(2, 1, 1.5)],
                  validate=False)
    c.insert_many("events", [], validate=False)
    (shard,) = _shards(c)
    assert shard.keys_exact
    _assert_cells_in_step(shard)
    assert shard.cells["rank"] == [0, 1, 0, 1]


@pytest.mark.parametrize("case", sorted(_INEXACT))
def test_an_inexact_insert_clears_the_flag_for_good(case):
    c = _flat()
    c.insert("events", _event(1, 0, 0.5), validate=False)
    (shard,) = _shards(c)
    assert shard.keys_exact
    c.insert("events", dict(_INEXACT[case]), validate=False)
    assert not shard.keys_exact
    c.insert("events", _event(1, 1, 3.0), validate=False)
    c.insert_many("events", [_event(1, 2, 4.0)], validate=False)
    assert not shard.keys_exact
    _assert_cells_in_step(shard)


@pytest.mark.parametrize("case", sorted(_INEXACT))
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_mixed_batch_clears_the_flag(case, at):
    batch = [_event(1, r, float(r)) for r in range(3)]
    batch[at] = dict(_INEXACT[case])
    c = _flat()
    c.insert_many("events", batch, validate=False)
    (shard,) = _shards(c)
    assert not shard.keys_exact
    _assert_cells_in_step(shard)


def test_a_validated_batch_stops_in_step_at_the_bad_object():
    c = _flat()
    batch = [_event(1, 0, 0.0), {**_event(1, 1, 1.0), "bogus": 1},
             _event(1, 2, 2.0)]
    with pytest.raises(SchemaError):
        c.insert_many("events", batch)
    (shard,) = _shards(c)
    assert len(shard.objects) == 1
    assert shard.keys_exact
    _assert_cells_in_step(shard)



# An object lacking an indexed attribute is rejected before anything
# is stored: objects, cells, index entries and the daemon's count stay
# as they were (a batch keeps exactly the prefix sequential inserts
# would have stored).

#: Lacks ``rank``, which the index keys on.
_UNKEYED = {"job_id": 1, "timestamp": 2.0, "op": "write"}


def _assert_stored(cluster, n):
    (daemon,) = cluster.daemons
    (shard,) = _shards(cluster)
    assert cluster.count("events") == n
    assert daemon.objects_stored == n
    for index in shard.indices.values():
        assert len(index) == n
        assert sorted(oid for _, oid in index.iter_sorted()) == list(range(n))
    _assert_cells_in_step(shard)


def test_an_insert_missing_an_indexed_attribute_stores_nothing():
    c = _flat()
    c.insert("events", _event(1, 0, 0.0))
    with pytest.raises(KeyError):
        c.insert("events", dict(_UNKEYED), validate=False)
    _assert_stored(c, 1)
    c.insert("events", _event(1, 1, 1.0))
    _assert_stored(c, 2)


@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_batch_missing_an_indexed_attribute_stores_its_prefix(at):
    c = _flat()
    batch = [_event(1, 0, 0.0), _event(1, 1, 1.0), _event(1, 2, 2.0)]
    batch.insert(at, dict(_UNKEYED))
    with pytest.raises(KeyError):
        c.insert_many("events", batch, validate=False)
    (shard,) = _shards(c)
    assert shard.objects == batch[:at]
    _assert_stored(c, at)
    rows = c.query("events", "job_rank_time").execute().rows
    assert [r["rank"] for r in rows] == list(range(at))


def _replicated():
    c = DsosCluster("hot", shards=2, replication=2)
    c.attach_schema(_SCHEMA)
    jobs, seen = [], set()
    for job in range(1000):
        shard = c.shard_of("events", _event(job, 0, 0.0))
        if shard not in seen:
            seen.add(shard)
            jobs.append(job)
        if len(jobs) == 2:
            break
    for i in range(30):
        job = jobs[i % 2]
        c.insert_replicated("events", _event(job, i % 4, 0.1 * i),
                            trace_id=f"{job}:{i}")
    return c


@pytest.mark.parametrize("torn", [False, True])
def test_cells_follow_crash_recover_and_repair(torn):
    c = _replicated()
    for victim in c.daemons:
        before = sorted(victim.applied)
        c.crash_daemon(victim, tear_tail=torn, tear_bytes=40)
        assert all(not cells for cells in
                   victim._shard("events").cells.values())
        c.recover_daemon(victim)
        _assert_cells_in_step(victim._shard("events"))
        c.repair_daemon(victim)
        assert sorted(victim.applied) == before
    for shard in _shards(c):
        assert shard.keys_exact
        _assert_cells_in_step(shard)
        for name in _SCHEMA.attrs:
            assert len(shard.cells[name]) == len(shard.objects)


def test_cells_follow_a_quorum_read_repair():
    c = _replicated()
    victim = c.replica_sets[1][0]
    c.crash_daemon(victim, tear_tail=True, tear_bytes=40)
    c.recover_daemon(victim)
    result = Query(c, "events", "job_rank_time").quorum().execute()
    assert result.stats.read_repaired
    for shard in _shards(c):
        assert shard.keys_exact
        _assert_cells_in_step(shard)
    df = result.frame()
    want = DataFrame.from_records(result.rows)
    for name in want.columns:
        assert df.col(name).tolist() == want.col(name).tolist()
