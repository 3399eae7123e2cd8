"""Differential pin: rows built from the columns equal what was inserted.

A shard keeps each object only as its values, one column per schema
attribute: appended to a Python tail, folded into an array of the
attribute's dtype every few rows and whenever a read needs rows past
the last fold.  ``QueryResult.rows`` builds dicts from those columns
and ``frame()`` takes its columns straight from them, so both must
equal a reference list of the inserted objects by value: keys in
schema attribute order, and every value's type and repr (NaN reads
back as NaN, ``-0.0`` as ``-0.0``, the int64 extremes as themselves).

Hypothesis draws the fold cadence (so folds land on every boundary),
exact-typed values (ints up to the int64 extremes; floats with NaN,
±inf and ``-0.0``; strs), validated chunks whose float attributes may
hold ints (stored as floats), inserts split between ``insert`` and
``insert_many``, objects whose keys come in any order, and reads
between the inserts, some of them read again only at the end.  Flat
stores of 1–4 daemons and 2×2 replicated stores run it; the replicated
ones also crash replicas (torn WAL tails included), recover them and
read-repair them through quorum reads.  A replica crashes only while
its live peer holds every object it holds, so no object is ever left
with no live copy to read.
"""

import math
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.dsos import Attr, DsosCluster, Schema
from repro.dsos import daemon as dsosd
from repro.webservices import DataFrame

_SCHEMA = Schema(
    "ev",
    [
        Attr("job_id", "int"),
        Attr("rank", "int"),
        Attr("ts", "float"),
        Attr("seq", "int"),
        Attr("a", "float"),
        Attr("b", "string"),
        Attr("c", "int"),
    ],
    {"job_rank_ts": ("job_id", "rank", "ts"), "by_seq": ("seq",)},
)

_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf])

#: The values each free attribute draws, by the attribute's type.
_FREE = {
    "ts": _FLOATS,
    "a": _FLOATS,
    "b": st.text(max_size=3),
    "c": st.integers(-(2**40), 2**40) | st.sampled_from([-(2**63), 2**63 - 1]),
}

#: What a validated chunk's float attributes may also hold.
_INTS = st.integers(-(2**70), 2**70)


@contextmanager
def _fold_every(rows: int):
    saved = dsosd._FOLD_ROWS
    dsosd._FOLD_ROWS = rows
    try:
        yield
    finally:
        dsosd._FOLD_ROWS = saved


def _by_value(rows) -> list:
    return [[(k, type(v), repr(v)) for k, v in r.items()] for r in rows]


def _cells(arr) -> list:
    return [(type(v), repr(v)) for v in arr.tolist()]


class _Store:
    """A cluster plus the objects it must hold, by ``seq``."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.ref: dict[int, dict] = {}

    def chunk(self, draw, validated: bool) -> list:
        objs = []
        for _ in range(draw(st.integers(1, 7))):
            seq = len(self.ref) + len(objs)
            obj = {"job_id": draw(st.integers(0, 3)),
                   "rank": draw(st.integers(0, 2)), "seq": seq}
            for name, values in _FREE.items():
                if validated and values is _FLOATS:
                    values = values | _INTS
                obj[name] = draw(values)
            # Any key order goes in; rows come out in schema order.
            keys = draw(st.permutations(list(obj)))
            objs.append({k: obj[k] for k in keys})
        return objs

    def insert(self, objs, batched: bool, validated: bool) -> None:
        if batched:
            self.cluster.insert_many(_SCHEMA.name, objs, validate=validated)
        else:
            for obj in objs:
                self.cluster.insert(_SCHEMA.name, obj, validate=validated)
        for obj in objs:
            self.ref[obj["seq"]] = {
                k: float(obj[k]) if attr.type == "float" else obj[k]
                for k, attr in _SCHEMA.attrs.items()
            }

    def read(self):
        """A whole-store read in ``seq`` order, and the rows it must
        return."""
        q = self.cluster.query(_SCHEMA.name, "by_seq")
        if self.cluster.sharded:
            q.quorum()
        return q.execute(), [self.ref[s] for s in sorted(self.ref)]


def _assert_tails_bounded(cluster):
    for daemon in cluster.daemons:
        shard = daemon._shard(_SCHEMA.name)
        assert max(map(len, shard._tails)) < dsosd._FOLD_ROWS


def _assert_reads(draw, result, want):
    rows = result.rows
    assert len(rows) == len(result) == len(want)
    assert _by_value(rows) == _by_value(want)
    if want:
        i = draw(st.integers(-len(want), len(want) - 1))
        assert _by_value([rows[i]]) == _by_value([want[i]])
        start, stop = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        step = draw(st.sampled_from([1, 2, -1, -3]))
        assert _by_value(rows[start:stop:step]) == \
            _by_value(want[start:stop:step])
        got = result.frame()
        ref = DataFrame.from_records(want)
        assert got.columns == ref.columns == list(_SCHEMA.attrs)
        for name in draw(st.permutations(ref.columns)):
            assert got.col(name).dtype == ref.col(name).dtype, name
            assert _cells(got.col(name)) == _cells(ref.col(name)), name


@settings(max_examples=150, deadline=None)
@given(
    topology=st.sampled_from(["flat", "flat", "replicated"]),
    n_daemons=st.integers(1, 4),
    fold=st.integers(1, 6),
    data=st.data(),
)
def test_rows_and_frames_equal_the_inserted_objects(topology, n_daemons,
                                                    fold, data):
    draw = data.draw
    with _fold_every(fold):
        if topology == "flat":
            cluster = DsosCluster("c", n_daemons=n_daemons)
        else:
            cluster = DsosCluster("c", shards=2, replication=2)
        cluster.attach_schema(_SCHEMA)
        store = _Store(cluster)
        steps = ["insert", "insert_many", "read"]
        if cluster.sharded:
            steps += ["crash", "recover", "repair"]
        held = []
        for _ in range(draw(st.integers(1, 14))):
            step = draw(st.sampled_from(steps))
            if step.startswith("insert"):
                validated = draw(st.booleans())
                store.insert(store.chunk(draw, validated),
                             step == "insert_many", validated)
            elif step == "read":
                result, want = store.read()
                if draw(st.booleans()):
                    held.append((result, want))  # read at the end
                else:
                    _assert_reads(draw, result, want)
            else:
                replicas = cluster.replica_sets[draw(st.integers(0, 1))]
                target = replicas[draw(st.integers(0, 1))]
                peer = replicas[1] if target is replicas[0] else replicas[0]
                # A crash never takes the only live copy of an object:
                # the peer must hold all the target holds (a replica
                # recovered but not yet repaired may lag behind it).
                if (step == "crash" and target.alive and peer.alive
                        and target.applied <= peer.applied):
                    cluster.crash_daemon(target, tear_tail=draw(st.booleans()))
                elif step == "recover" and not target.alive:
                    cluster.recover_daemon(target)
                elif step == "repair" and target.alive:
                    cluster.repair_daemon(target)
            _assert_tails_bounded(cluster)
        held.append(store.read())
        for result, want in held:
            _assert_reads(draw, result, want)
