"""Shards keep objects only as columns, and store only exact objects.

Every path that stores an object (flat ``insert``/``insert_many``,
replicated ``insert_seq``, WAL ``recover`` and read-repair) hands the
shard the object's schema row (``Schema.row``), so an object must hold
exactly the schema's attributes: a missing or an extra key raises
``SchemaError`` before anything is stored, WAL record included, with
``validate=False`` too.  A validated insert also refuses a value of
another type (a bool, an int beyond int64, a str in an int attribute,
a None), with nothing stored.  The shard appends each value to its
attribute's tail and folds the tails into columns of the attribute's
dtype; reads build row dicts from the columns, equal by value to the
objects inserted.

The flag-era test names are kept; each now pins the contract that
replaced the flag (the object is refused, with nothing stored).
"""

import numpy as np
import pytest

from repro.dsos import Attr, DsosCluster, Query, Schema, SchemaError
from repro.dsos import daemon as dsosd
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


def _stored(shard) -> list:
    return shard.rows(range(len(shard)))


def _assert_columns_in_step(shard, want=None):
    """Every column, every index and the row count agree; with
    ``want``, the stored rows equal it by value and in schema order."""
    n = len(shard)
    for name, attr in _SCHEMA.attrs.items():
        col = shard.column(name)
        assert len(col) == n and col.dtype == attr.dtype, name
    for index in shard.indices.values():
        assert len(index) == n
        assert sorted(index.range().tolist()) == list(range(n))
    rows = _stored(shard)
    assert all(list(r) == list(_SCHEMA.attrs) for r in rows)
    if want is not None:
        assert rows == want


#: Objects without exactly the schema's attributes (all carry the
#: indexed ones, so only the exact-keys check can refuse them).
_INEXACT = {
    "missing": {"job_id": 1, "rank": 0, "timestamp": 2.0},
    "extra": {**_event(1, 0, 2.0), "bogus": 7},
    "swapped": {"job_id": 1, "rank": 0, "timestamp": 2.0, "opp": "write"},
}


def test_exact_objects_keep_the_flag():
    """Exact objects are stored, through every flat insert path."""
    c = _flat()
    objs = [_event(1, 0, 0.5), _event(1, 1, 0.25), _event(2, 0, 1.0),
            _event(2, 1, 1.5)]
    c.insert("events", objs[0])
    c.insert("events", objs[1], validate=False)
    c.insert_many("events", objs[2:], validate=False)
    c.insert_many("events", [], validate=False)
    (shard,) = _shards(c)
    _assert_columns_in_step(shard, objs)
    assert shard.values("rank", range(4)) == [0, 1, 0, 1]


@pytest.mark.parametrize("case", sorted(_INEXACT))
def test_an_inexact_insert_clears_the_flag_for_good(case):
    """An unvalidated inexact insert raises and stores nothing; exact
    inserts after it land as before."""
    c = _flat()
    objs = [_event(1, 0, 0.5)]
    c.insert("events", objs[0], validate=False)
    with pytest.raises(SchemaError):
        c.insert("events", dict(_INEXACT[case]), validate=False)
    objs += [_event(1, 1, 3.0), _event(1, 2, 4.0)]
    c.insert("events", objs[1], validate=False)
    c.insert_many("events", objs[2:], validate=False)
    (shard,) = _shards(c)
    assert c.daemons[0].objects_stored == 3
    _assert_columns_in_step(shard, objs)


@pytest.mark.parametrize("case", sorted(_INEXACT))
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_mixed_batch_clears_the_flag(case, at):
    """A batch holding an inexact object stores the objects before it
    and raises, as sequential inserts do."""
    batch = [_event(1, r, float(r)) for r in range(3)]
    batch[at] = dict(_INEXACT[case])
    c = _flat()
    with pytest.raises(SchemaError):
        c.insert_many("events", batch, validate=False)
    (shard,) = _shards(c)
    assert c.daemons[0].objects_stored == at
    _assert_columns_in_step(shard, batch[:at])


def test_a_validated_batch_stops_in_step_at_the_bad_object():
    c = _flat()
    batch = [_event(1, 0, 0.0), {**_event(1, 1, 1.0), "bogus": 1},
             _event(1, 2, 2.0)]
    with pytest.raises(SchemaError):
        c.insert_many("events", batch)
    (shard,) = _shards(c)
    _assert_columns_in_step(shard, batch[:1])


# An object lacking an indexed attribute is rejected before anything
# is stored: columns, index entries and the daemon's count stay as they
# were (a batch keeps exactly the prefix sequential inserts would have
# stored).

#: Lacks ``rank``, which the index keys on.
_UNKEYED = {"job_id": 1, "timestamp": 2.0, "op": "write"}


def _assert_stored(cluster, n):
    (daemon,) = cluster.daemons
    (shard,) = _shards(cluster)
    assert cluster.count("events") == n
    assert daemon.objects_stored == n
    _assert_columns_in_step(shard)


def test_an_insert_missing_an_indexed_attribute_stores_nothing():
    c = _flat()
    c.insert("events", _event(1, 0, 0.0))
    with pytest.raises(SchemaError):
        c.insert("events", dict(_UNKEYED), validate=False)
    _assert_stored(c, 1)
    c.insert("events", _event(1, 1, 1.0))
    _assert_stored(c, 2)


@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_batch_missing_an_indexed_attribute_stores_its_prefix(at):
    c = _flat()
    batch = [_event(1, 0, 0.0), _event(1, 1, 1.0), _event(1, 2, 2.0)]
    batch.insert(at, dict(_UNKEYED))
    with pytest.raises(SchemaError):
        c.insert_many("events", batch, validate=False)
    (shard,) = _shards(c)
    assert _stored(shard) == batch[:at]
    _assert_stored(c, at)
    rows = c.query("events", "job_rank_time").execute().rows
    assert [r["rank"] for r in rows] == list(range(at))


# --------------------------------------- flat batches ≡ sequential inserts


_PAIR = Schema(
    "e",
    [Attr("job_id", "int"), Attr("rank", "int")],
    {"job_rank": ("job_id", "rank")},
)


def _pair_cluster(**kw):
    c = DsosCluster("pair", **kw)
    c.attach_schema(_PAIR)
    return c


def _placement(cluster):
    return [d._shard("e").rows(range(d.count("e"))) for d in cluster.daemons]


@pytest.mark.parametrize("bad", [{"job_id": 1}, {"job_id": 1, "rank": 1, "x": 0}],
                         ids=["missing-rank", "extra-key"])
def test_flat_insert_many_stores_what_sequential_inserts_store(bad):
    """On 2 daemons, ``[ok, bad, ok]`` as one batch stores exactly what
    three sequential inserts store, leaves the cursor where they do,
    and raises the same error."""
    batch = [{"job_id": 1, "rank": 0}, bad, {"job_id": 1, "rank": 2}]
    seq, many = _pair_cluster(n_daemons=2), _pair_cluster(n_daemons=2)
    with pytest.raises(SchemaError) as seq_err:
        for obj in batch:
            seq.insert("e", dict(obj), validate=False)
    with pytest.raises(SchemaError) as many_err:
        many.insert_many("e", [dict(o) for o in batch], validate=False)
    assert str(many_err.value) == str(seq_err.value)
    assert _placement(many) == _placement(seq) == [[batch[0]], []]
    assert many.count("e") == seq.count("e") == 1
    assert many._rr == seq._rr
    # The next objects land on the same daemons either way.
    for c in (seq, many):
        c.insert_many("e", [{"job_id": 2, "rank": r} for r in range(3)])
    assert _placement(many) == _placement(seq)


def test_insert_seq_checks_keys_before_the_wal():
    """A replicated insert of a key-less object raises with no WAL
    record logged, and every replica still crashes and recovers
    cleanly."""
    c = _pair_cluster(shards=1, replication=2)
    c.insert("e", {"job_id": 1, "rank": 0})
    before = [d.wal.records_appended for d in c.daemons]
    with pytest.raises(SchemaError):
        c.insert("e", {"job_id": 1}, validate=False)
    with pytest.raises(SchemaError):
        c.daemons[0].insert_seq("e", 1, {"job_id": 1}, validate=False)
    assert [d.wal.records_appended for d in c.daemons] == before
    assert c.census().objects == 1
    for d in c.daemons:
        assert d.count("e") == 1
        c.crash_daemon(d)
        recovery = c.recover_daemon(d)
        assert not recovery.truncated
        assert d._shard("e").rows([0]) == [{"job_id": 1, "rank": 0}]
    assert c.census().complete


# ------------------------------------------------------------ fold cadence


def test_the_tail_never_exceeds_the_fold_constant():
    n = dsosd._FOLD_ROWS
    c = _flat()
    (shard,) = _shards(c)
    want = []
    for size in (1, n - 2, 1, 1, 2 * n + 3, 0, n, 1):
        objs = [_event(len(want) + i, 0, 0.0) for i in range(size)]
        if size == 1:
            c.insert("events", objs[0])
        else:
            c.insert_many("events", objs, validate=False)
        want += objs
        assert max(map(len, shard._tails)) < n
        assert len(shard) == len(want)
    _assert_columns_in_step(shard, want)


def test_a_column_is_its_stored_array():
    c = _flat()
    c.insert_many("events", [_event(1, r, 0.5) for r in range(3)])
    (shard,) = _shards(c)
    col = shard.column("rank")
    assert col.dtype == np.int64 and col.tolist() == [0, 1, 2]
    assert shard.column("rank") is col  # no second copy per read
    assert not shard._tails[1]
    # Each column's dtype is its attribute's, fixed by the schema.
    assert [shard.column(a).dtype for a in _SCHEMA.attrs] == [
        np.int64, np.int64, np.float64, object]
    with pytest.raises(SchemaError):
        c.insert("events", _event(1, 2**64, 0.5))
    assert shard.column("rank") is col


# ------------------------------------------------ validated inserts

#: ``(attribute, value)`` a validated insert refuses.
_WRONG = {
    "bool": ("rank", True),
    "beyond-int64": ("rank", 2**63),
    "below-int64": ("rank", -(2**63) - 1),
    "str-in-int": ("rank", "3"),
    "none": ("op", None),
    "bool-in-float": ("timestamp", False),
    "beyond-float": ("timestamp", 10**400),
    "int-in-string": ("op", 3),
}


def _wrong(case, rank=1):
    attr, value = _WRONG[case]
    return {**_event(1, rank, 1.0), attr: value}


@pytest.mark.parametrize("case", sorted(_WRONG))
def test_a_validated_insert_refuses_a_wrong_type(case):
    c = _flat()
    c.insert("events", _event(1, 0, 0.0))
    with pytest.raises(SchemaError, match="expects"):
        c.insert("events", _wrong(case))
    _assert_stored(c, 1)


@pytest.mark.parametrize("case", sorted(_WRONG))
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_validated_batch_stores_the_prefix_before_a_wrong_type(case, at):
    c = _flat()
    batch = [_event(1, r, float(r)) for r in range(3)]
    batch[at] = _wrong(case, rank=at)
    with pytest.raises(SchemaError, match="expects"):
        c.insert_many("events", batch)
    (shard,) = _shards(c)
    assert _stored(shard) == batch[:at]
    _assert_stored(c, at)


@pytest.mark.parametrize("case", sorted(_WRONG))
def test_a_validated_replicated_insert_refuses_a_wrong_type(case):
    """Refused before a sequence number or a WAL record exists."""
    c = DsosCluster("typed", shards=2, replication=2)
    c.attach_schema(_SCHEMA)
    c.insert("events", _event(1, 0, 0.0))
    seqs = list(c._next_seq)
    records = [d.wal.records_appended for d in c.daemons]
    with pytest.raises(SchemaError, match="expects"):
        c.insert_replicated("events", _wrong(case))
    assert c._next_seq == seqs and c.writes == 1
    assert [d.wal.records_appended for d in c.daemons] == records
    assert c.census().objects == c.count("events") == 1
    for d in c.daemons:
        _assert_columns_in_step(d._shard("events"))


def test_an_int_under_a_float_attribute_is_stored_and_logged_as_a_float():
    c = DsosCluster("typed", shards=1, replication=2)
    c.attach_schema(_SCHEMA)
    c.insert("events", {**_event(1, 0, 0.0), "timestamp": 7})
    for d in c.daemons:
        c.crash_daemon(d)
        c.recover_daemon(d)
        (row,) = d._shard("events").rows([0])
        assert type(row["timestamp"]) is float and row["timestamp"] == 7.0
        # Replayed from the WAL record, which logged the float: the
        # index finds it by its exact float key.
        index = d._shard("events").indices["job_rank_time"]
        assert index.prefix_range((1, 0, 7.0)).tolist() == [0]


# ------------------------------------------------- crash, recover, repair


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


def _by_value(rows):
    return sorted(tuple(r.values()) for r in rows)


@pytest.mark.parametrize("torn", [False, True])
def test_cells_follow_crash_recover_and_repair(torn):
    c = _replicated()
    for victim in c.daemons:
        before = sorted(victim.applied)
        want = _by_value(_stored(victim._shard("events")))
        c.crash_daemon(victim, tear_tail=torn, tear_bytes=40)
        assert len(victim._shard("events")) == 0
        c.recover_daemon(victim)
        _assert_columns_in_step(victim._shard("events"))
        c.repair_daemon(victim)
        assert sorted(victim.applied) == before
        # Recovered and repaired rows come back in schema order.
        shard = victim._shard("events")
        _assert_columns_in_step(shard)
        assert _by_value(_stored(shard)) == want


def test_cells_follow_a_quorum_read_repair():
    c = _replicated()
    victim = c.replica_sets[1][0]
    c.crash_daemon(victim, tear_tail=True, tear_bytes=40)
    c.recover_daemon(victim)
    result = Query(c, "events", "job_rank_time").quorum().execute()
    assert result.stats.read_repaired
    for shard in _shards(c):
        _assert_columns_in_step(shard)
    df = result.frame()
    want = DataFrame.from_records(result.rows)
    assert df.columns == want.columns == list(_SCHEMA.attrs)
    for name in want.columns:
        assert df.col(name).tolist() == want.col(name).tolist()
