"""Differential pins on the DSOS → DataFrame read path.

* **Query path.**  :meth:`Query.execute` must return exactly what the
  straightforward algorithm returns: rebuild every object's key with
  :meth:`Schema.key_for`, sort each daemon's objects stably on it, cut
  the range or prefix, filter row by row, merge the streams with
  ``heapq.merge`` and stop at the limit.  Rows are compared by value
  (type and repr of every value; each object's ``seq`` is unique) and
  in order, together with the :class:`QueryStats`, over flat and
  replicated topologies, keys duplicated across shards, crashed and
  recovered replicas, and inserts interleaved with the queries (so
  scans also meet rows the index has not ordered yet).  Every index's
  order must be the stable sort of its objects' ``key_for`` keys.
* **DataFrame construction.**  :meth:`DataFrame.from_records` must pick
  the same dtype and values as the per-cell ``isinstance`` rule, for
  columns mixing int, float, bool, str, None, ints beyond int64 and
  numpy scalars; a record missing a column raises the same error.
"""

import heapq

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dsos import Attr, DsosCluster, Schema
from repro.dsos.query import QueryStats
from repro.webservices import DataFrame

# --------------------------------------------------------- query oracle

_SCHEMA = Schema(
    "ev",
    [
        Attr("job_id", "int"),
        Attr("rank", "int"),
        Attr("timestamp", "float"),
        Attr("op", "string"),
        Attr("seq", "int"),
    ],
    {
        "job_rank_time": ("job_id", "rank", "timestamp"),
        "time": ("timestamp",),
        "rank_time": ("rank", "timestamp"),
        "op_time": ("op", "timestamp"),
    },
)

#: Small domains so equal keys are common, within and across shards;
#: a validated insert stores the int timestamps as floats, and an
#: unvalidated batch (whose caller vouches for exact types) is handed
#: them as floats.
_DOMAIN = {
    "job_id": st.integers(0, 4),
    "rank": st.integers(0, 2),
    "timestamp": st.sampled_from([0, 0.5, 1, 1.0, 2, 2.5]),
    "op": st.sampled_from(["open", "read", "write"]),
    "seq": st.integers(0, 40),
}

_ORACLE_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _stored(shard) -> list:
    """Every object a shard holds, in oid order, built from its
    columns."""
    return shard.rows(range(len(shard)))


def _by_value(rows) -> list:
    return [[(k, type(v), repr(v)) for k, v in r.items()] for r in rows]


def _stream(daemon, spec):
    """One daemon's (key, obj) stream and its scanned count, the slow
    way: keys rebuilt per object, stable sort, range cut, row filter."""
    name = spec["index"]
    objects = _stored(daemon._shard(_SCHEMA.name))
    keyed = sorted(
        ((_SCHEMA.key_for(name, obj), obj) for obj in objects),
        key=lambda kv: kv[0],
    )
    prefix, begin, end = spec["prefix"], spec["begin"], spec["end"]
    if prefix is not None:
        keyed = [kv for kv in keyed if kv[0][: len(prefix)] == prefix]
    else:
        keyed = [
            kv for kv in keyed
            if (begin is None or begin <= kv[0]) and (end is None or kv[0] < end)
        ]
    rows = [
        kv for kv in keyed
        if all(_ORACLE_OPS[op](kv[1][a], v) for a, op, v in spec["where"])
    ]
    return rows, len(keyed)


def _oracle(cluster, spec):
    stats = QueryStats(filters_applied=len(spec["where"]))
    if cluster.sharded:
        daemons = []
        for replicas in cluster.replica_sets:
            live = [r for r in replicas if r.alive]
            stats.replicas_skipped += len(replicas) - len(live)
            daemons.append(live[0])
    else:
        daemons = cluster.daemons
    streams = []
    for daemon in daemons:
        rows, scanned = _stream(daemon, spec)
        streams.append(rows)
        stats.shards_queried += 1
        stats.rows_scanned_per_shard.append(scanned)
    out = []
    for _, obj in heapq.merge(*streams, key=lambda kv: kv[0]):
        out.append(obj)
        if spec["limit"] is not None and len(out) >= spec["limit"]:
            break
    stats.rows_returned = len(out)
    return out, stats


@st.composite
def _key_part(draw, index):
    attrs = _SCHEMA.indices[index]
    n = draw(st.integers(1, len(attrs)))
    return tuple(draw(_DOMAIN[a]) for a in attrs[:n])


@st.composite
def _query_spec(draw):
    index = draw(st.sampled_from(sorted(_SCHEMA.indices)))
    spec = {"index": index, "prefix": None, "begin": None, "end": None}
    shape = draw(st.sampled_from(["all", "prefix", "range"]))
    if shape == "prefix":
        spec["prefix"] = draw(_key_part(index))
    elif shape == "range":
        spec["begin"] = draw(st.none() | _key_part(index))
        spec["end"] = draw(st.none() | _key_part(index))
    where = []
    for _ in range(draw(st.integers(0, 2))):
        attr = draw(st.sampled_from(sorted(_SCHEMA.attrs)))
        where.append((attr, draw(st.sampled_from(sorted(_ORACLE_OPS))),
                      draw(_DOMAIN[attr])))
    spec["where"] = where
    spec["limit"] = draw(st.none() | st.integers(1, 12))
    return spec


def _execute(cluster, spec):
    q = cluster.query(_SCHEMA.name, spec["index"])
    if spec["prefix"] is not None:
        q.prefix(*spec["prefix"])
    if spec["begin"] is not None or spec["end"] is not None:
        q.range(spec["begin"], spec["end"])
    for clause in spec["where"]:
        q.where(*clause)
    if spec["limit"] is not None:
        q.limit(spec["limit"])
    return q.execute()


def _objects(draw, seq, *, exact: bool):
    n = draw(st.integers(1, 6))
    objs = []
    for i in range(n):
        obj = {a: draw(_DOMAIN[a]) for a in ("job_id", "rank", "timestamp", "op")}
        if exact:
            obj["timestamp"] = float(obj["timestamp"])
        obj["seq"] = seq + i
        objs.append(obj)
    return objs


def _assert_index_order_is_key_for(cluster):
    """Every index orders its shard's objects as the stable sort of
    their ``key_for`` keys, in oid order."""
    for daemon in cluster.daemons:
        shard = daemon._shard(_SCHEMA.name)
        objects = _stored(shard)
        for name, index in shard.indices.items():
            keys = [_SCHEMA.key_for(name, obj) for obj in objects]
            want = sorted(range(len(keys)), key=keys.__getitem__)
            assert index.range().tolist() == want


@settings(max_examples=150, deadline=None)
@given(
    shards=st.sampled_from([1, 2, 3]),
    replication=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_query_execute_matches_key_for_merge_oracle(shards, replication, data):
    if shards == 1 and replication == 1:
        cluster = DsosCluster("p", n_daemons=data.draw(st.integers(1, 3)))
    else:
        cluster = DsosCluster("p", shards=shards, replication=replication)
    cluster.attach_schema(_SCHEMA)
    seq = 0
    for _ in range(data.draw(st.integers(1, 14))):
        step = data.draw(st.sampled_from(
            ["insert", "insert_many", "insert_batch", "query", "query",
             "crash", "recover"]
        ))
        if step.startswith("insert"):
            objs = _objects(data.draw, seq, exact=step == "insert_batch")
            seq += len(objs)
            if step == "insert":
                for obj in objs:
                    cluster.insert(_SCHEMA.name, obj)
            else:
                # An unvalidated flat batch takes the shard's add_many.
                cluster.insert_many(
                    _SCHEMA.name, objs, validate=step == "insert_many"
                )
        elif step == "query":
            spec = data.draw(_query_spec())
            want_rows, want_stats = _oracle(cluster, spec)
            got = _execute(cluster, spec)
            assert _by_value(got.rows) == _by_value(want_rows)
            assert got.stats == want_stats
        elif cluster.sharded and replication == 2:
            replicas = cluster.replica_sets[data.draw(st.integers(0, shards - 1))]
            target = replicas[data.draw(st.integers(0, 1))]
            if step == "crash" and target.alive and any(
                r.alive for r in replicas if r is not target
            ):
                target.fail(tear_tail=data.draw(st.booleans()))
            elif step == "recover" and not target.alive:
                target.recover()
    _assert_index_order_is_key_for(cluster)


# ---------------------------------------------------- from_records oracle


def _isinstance_rule(records):
    """The per-cell rule ``from_records`` must agree with."""
    columns = {}
    for name in list(records[0].keys()):
        values = [r[name] for r in records]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            try:
                columns[name] = np.asarray(values, dtype=float if any(
                    isinstance(v, float) for v in values
                ) else int)
            except OverflowError:
                columns[name] = np.asarray(values, dtype=object)
        else:
            columns[name] = np.asarray(values, dtype=object)
    return columns


_CELLS = [
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    # Beyond int64, and beyond float range.
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7, 10**400]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False, width=64).map(np.float64),
]


@st.composite
def _records(draw):
    n_rows = draw(st.integers(1, 12))
    columns = {}
    for c in range(draw(st.integers(1, 5))):
        kinds = draw(st.lists(st.sampled_from(range(len(_CELLS))),
                              min_size=1, max_size=3, unique=True))
        cell = st.one_of(*(_CELLS[k] for k in kinds))
        columns[f"c{c}"] = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
    return [{name: col[i] for name, col in columns.items()} for i in range(n_rows)]


def _cells(arr):
    return [(type(v), repr(v)) for v in arr.tolist()]


@settings(max_examples=300, deadline=None)
@given(records=_records())
def test_from_records_matches_isinstance_rule(records):
    df = DataFrame.from_records(records)
    want = _isinstance_rule(records)
    assert df.columns == list(want)
    for name, arr in want.items():
        got = df.col(name)
        assert got.dtype == arr.dtype
        assert _cells(got) == _cells(arr)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(records=_records(), data=st.data())
def test_from_records_missing_column_raises_like_the_rule(records, data):
    row = data.draw(st.integers(0, len(records) - 1))
    name = data.draw(st.sampled_from(sorted(records[row])))
    records[row] = {k: v for k, v in records[row].items() if k != name}
    want = _raised(lambda recs: DataFrame(_isinstance_rule(recs)), records)
    got = _raised(DataFrame.from_records, records)
    assert got is want
    if row > 0:
        assert got is KeyError
