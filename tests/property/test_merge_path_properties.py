"""Differential pin: both multi-stream merge paths give the oracle's rows.

A read over several shard streams is ordered by the one rule that
orders index keys (``repro.dsos.index.key_order``): a stable
``np.lexsort`` over the shards' typed key columns, each of its
attribute's dtype on every stream, string (object) columns included; a
NaN among the selected floats takes the stable sort of the key tuples.
Whichever path runs, the rows must be the oracle's: every object's key
rebuilt with :meth:`Schema.key_for`, each daemon's objects stably
sorted on it, cut to the prefix or range, filtered row by row, the streams merged with
``heapq.merge`` and cut at the limit (NaN keys are not totally ordered,
so there the oracle is the stable sort of the daemons' own index
streams).  Rows are compared by value (type and repr of every value,
each object's unique ``seq`` included) and in order; ``frame()``
must equal ``from_records`` of the rows; and a spy on the path choice
pins which path ran, so draws meant for ``np.lexsort`` do reach it.

Hypothesis draws flat clusters of 1–4 daemons and 2×2 replicated ones,
one key flavour per world (the type of the ``ts`` attribute and the
values drawn for it), and ingest interleaved with prefix, range,
``where`` and ``limit`` queries.  The ``converted`` flavour inserts
through the schema check, so ints (beyond int64 too) under the float
``ts`` land as floats.
"""

import bisect
import heapq
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.dsos import Attr, DsosCluster, Schema, SchemaError
from repro.dsos import query as dsos_query
from repro.webservices import DataFrame
from repro.webservices.dataframe import DataFrameError

_INDICES = {
    "job_rank_ts": ("job_id", "rank", "ts"),
    "ts_job": ("ts", "job_id"),
    "rank_ts": ("rank", "ts"),
    "tag_ts": ("tag", "ts"),
}


def _schema(ts_type: str) -> Schema:
    return Schema(
        "ev",
        [
            Attr("job_id", "int"),
            Attr("rank", "int"),
            Attr("ts", ts_type),
            Attr("tag", "string"),
            Attr("seq", "int"),
        ],
        _INDICES,
    )

_JOBS = st.integers(0, 3)
_RANKS = st.integers(0, 2)
_TAGS = st.sampled_from(["", "a", "b"])

_INT64 = [-(2**63), 2**63 - 1]
_FLOATS = [-math.inf, -1.5, -0.0, 0.0, 0.5, 2.0, math.inf]

#: Per key flavour: the type of ``ts``, and the values drawn for it.
#: ``nan`` makes a key the tuple sort must order; the others take
#: ``np.lexsort``.  ``converted`` draws ints (ints beyond
#: int64, and 2**53 + 1, which is above 2.0**53 in Python and equal to
#: it as a float, included) and floats, inserted with validation.
_FLAVOURS = {
    "int": ("int", st.sampled_from(_INT64) | st.integers(-3, 3)),
    "float": ("float", st.sampled_from(_FLOATS)),
    "nan": ("float", st.sampled_from(_FLOATS + [math.nan])),
    "text": ("string", _TAGS),
    "converted": ("float", st.sampled_from(
        [1, 2**53 + 1, -(2**63), 2**64 + 7, 1.0, 0.5, 2.0**53])),
}


def _cluster(topology: str, n_daemons: int, schema: Schema):
    if topology == "flat":
        cluster = DsosCluster("m", n_daemons=n_daemons)
    else:
        cluster = DsosCluster("m", shards=2, replication=2)
    cluster.attach_schema(schema)
    return cluster


class _World:
    """A cluster plus the drawing rules of its key flavour."""

    def __init__(self, topology, n_daemons, flavour):
        ts_type, self.ts_values = _FLAVOURS[flavour]
        self.schema = _schema(ts_type)
        self.cluster = _cluster(topology, n_daemons, self.schema)
        self.flavour = flavour
        self.validated = flavour == "converted"
        self.inserted = 0

    def domain(self, attr):
        if attr == "job_id":
            return _JOBS
        if attr == "rank":
            return _RANKS
        if attr == "tag":
            return _TAGS
        return self.ts_values

    def objects(self, draw) -> list:
        objs = []
        for _ in range(draw(st.integers(1, 6))):
            obj = {a: draw(self.domain(a)) for a in ("job_id", "rank", "tag")}
            obj["seq"] = self.inserted + len(objs)
            obj["ts"] = draw(self.domain("ts"))
            objs.append(obj)
        return objs

    def insert(self, objs, batched: bool) -> None:
        validate = self.validated
        if batched:
            self.cluster.insert_many("ev", objs, validate=validate)
        else:
            for obj in objs:
                self.cluster.insert("ev", obj, validate=validate)
        self.inserted += len(objs)


# ---------------------------------------------------------------- oracle

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _objects(shard) -> list:
    """Every object a shard holds, in oid order, built from its
    columns."""
    return shard.rows(range(len(shard)))


def _by_value(rows) -> list:
    return [[(k, type(v), repr(v)) for k, v in r.items()] for r in rows]


def _daemons(cluster):
    if not cluster.sharded:
        return cluster.daemons
    return [next(r for r in rs if r.alive) for rs in cluster.replica_sets]


def _in_cut(key, spec) -> bool:
    prefix, begin, end = spec["prefix"], spec["begin"], spec["end"]
    if prefix is not None:
        return key[: len(prefix)] == prefix
    return (begin is None or begin <= key) and (end is None or key < end)


def _kept(obj, spec) -> bool:
    return all(_OPS[op](obj[a], v) for a, op, v in spec["where"])


def _limited(objs, spec) -> list:
    objs = list(objs)
    return objs if spec["limit"] is None else objs[: spec["limit"]]


def _oracle(cluster, spec) -> list:
    """``key_for`` + stable per-daemon sort + ``heapq.merge``."""
    name = spec["index"]
    streams = []
    for daemon in _daemons(cluster):
        shard = daemon._shard("ev")
        keyed = sorted(
            ((shard.schema.key_for(name, o), o) for o in _objects(shard)),
            key=lambda kv: kv[0],
        )
        streams.append([kv for kv in keyed
                        if _in_cut(kv[0], spec) and _kept(kv[1], spec)])
    merged = heapq.merge(*streams, key=lambda kv: kv[0])
    return _limited((obj for _, obj in merged), spec)


def _nan_oracle(cluster, spec) -> list:
    """NaN keys are not totally ordered: the stable sort, on their
    ``key_for`` keys, of the daemons' own index streams concatenated in
    stream order.  A lone non-empty stream is taken as it is (sorting a
    list holding NaN keys again can reorder it)."""
    entries, streams = [], 0
    for daemon in _daemons(cluster):
        oids, _ = daemon.query_shard(
            "ev", spec["index"], begin=spec["begin"],
            end=spec["end"], prefix=spec["prefix"], filters=spec["where"],
        )
        shard = daemon._shard("ev")
        entries += [(shard.schema.key_for(spec["index"], obj), obj)
                    for obj in shard.rows(oids)]
        streams += bool(len(oids))
    if streams > 1:
        entries.sort(key=lambda kv: kv[0])
    return _limited((obj for _, obj in entries), spec)


# ------------------------------------------------------------ path spy


@contextmanager
def _path_spy():
    """Record the path each multi-stream merge's ``key_order`` call
    takes: ``lexsort`` if it called ``np.lexsort``, else ``tuple``."""
    paths = []
    key_order = dsos_query.key_order
    lexsort = np.lexsort

    def spy(cols):
        calls = []

        def counted(keys):
            calls.append(keys)
            return lexsort(keys)

        np.lexsort = counted
        try:
            order = key_order(cols)
        finally:
            np.lexsort = lexsort
        paths.append("lexsort" if calls else "tuple")
        return order

    dsos_query.key_order = spy
    try:
        yield paths
    finally:
        dsos_query.key_order = key_order


def _expected_path(result, attrs) -> str:
    """The documented rule, restated on the stored objects: the tuple
    sort when the selections hold a NaN key part, else ``np.lexsort``
    (string key attributes included)."""
    # The selections, not the rows: the limit cuts after the merge.
    selected = [o[a] for shard, oids in result.parts
                for o in shard.rows(oids) for a in attrs]
    if any(isinstance(v, float) and math.isnan(v) for v in selected):
        return "tuple"
    return "lexsort"


# ----------------------------------------------------------------- spec


@st.composite
def _key_part(draw, world, index):
    attrs = _INDICES[index]
    n = draw(st.integers(1, len(attrs)))
    return tuple(draw(world.domain(a)) for a in attrs[:n])


@st.composite
def _spec(draw, world):
    index = draw(st.sampled_from(sorted(_INDICES)))
    spec = {"index": index, "prefix": None, "begin": None, "end": None}
    shape = draw(st.sampled_from(["all", "all", "prefix", "range"]))
    if shape == "prefix":
        spec["prefix"] = draw(_key_part(world, index))
    elif shape == "range":
        spec["begin"] = draw(st.none() | _key_part(world, index))
        spec["end"] = draw(st.none() | _key_part(world, index))
    spec["where"] = [
        (attr, draw(st.sampled_from(sorted(_OPS))), draw(domain))
        for attr, domain in draw(st.lists(
            st.sampled_from([("job_id", _JOBS), ("seq", st.integers(0, 40))]),
            max_size=2,
        ))
    ]
    spec["limit"] = draw(st.none() | st.integers(1, 12))
    return spec


def _execute(cluster, spec):
    q = cluster.query("ev", spec["index"])
    if spec["prefix"] is not None:
        q.prefix(*spec["prefix"])
    if spec["begin"] is not None or spec["end"] is not None:
        q.range(spec["begin"], spec["end"])
    for clause in spec["where"]:
        q.where(*clause)
    if spec["limit"] is not None:
        q.limit(spec["limit"])
    return q.execute()


def _cells(arr):
    return [(type(v), repr(v)) for v in arr.tolist()]


def _assert_frame_is_from_records(result):
    if not len(result):
        with pytest.raises(DataFrameError):
            result.frame()
        return
    got = result.frame()
    want = DataFrame.from_records(result.rows)
    assert got.columns == want.columns
    for name in want.columns:
        assert got.col(name).dtype == want.col(name).dtype, name
        assert _cells(got.col(name)) == _cells(want.col(name)), name


def _check(world, spec) -> str | None:
    """Run ``spec``; assert rows, frame and path.  Returns the path."""
    cluster = world.cluster
    want = (_nan_oracle if world.flavour == "nan" else _oracle)(cluster, spec)
    with _path_spy() as paths:
        result = _execute(cluster, spec)
    # Frame first: the row list must not be needed to build it.
    _assert_frame_is_from_records(result)
    got = result.rows
    assert _by_value(got) == _by_value(want)
    assert len(result) == result.stats.rows_returned == len(want)
    if len(result.parts) < 2:
        assert paths == []
        return None
    attrs = _INDICES[spec["index"]]
    assert paths == [_expected_path(result, attrs)]
    return paths[0]


#: The ``float`` and ``int`` flavours are drawn as often as all the
#: flavours together.
_FLAVOUR = st.sampled_from(["float", "int"]) | st.sampled_from(sorted(_FLAVOURS))

_WHOLE = {"prefix": None, "begin": None, "end": None, "where": [],
          "limit": None}


@settings(max_examples=400, deadline=None)
@given(
    topology=st.sampled_from(["flat", "flat", "replicated"]),
    # A lone daemon never merges: drawn, but less often.
    n_daemons=st.sampled_from([2, 3, 4, 1, 2, 3, 4]),
    flavour=_FLAVOUR,
    data=st.data(),
)
def test_merge_paths_match_the_key_for_merge_oracle(topology, n_daemons,
                                                    flavour, data):
    world = _World(topology, n_daemons, flavour)
    world.insert(world.objects(data.draw), data.draw(st.booleans()))
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(["insert", "insert_many", "query"]))
        if step == "query":
            path = _check(world, data.draw(_spec(world)))
            event(f"{flavour}: {path or 'one stream'}")
        else:
            world.insert(world.objects(data.draw), step == "insert_many")
    path = _check(world, {"index": "job_rank_ts", **_WHOLE})
    event(f"{flavour}, whole store: {path or 'one stream'}")


# ------------------------------------------------ each path, on purpose


def _fixed_world(flavour, ts_values, *, n_daemons=3):
    """A flat world holding ``ts_values`` (``bool``, ``bigint`` and
    ``mix`` go through the schema check of the ``converted`` flavour:
    a bool is refused, an int lands as a float)."""
    validated = flavour in ("bool", "bigint", "mix")
    world = _World("flat", n_daemons, "converted" if validated else flavour)
    for i, ts in enumerate(ts_values):
        obj = {"job_id": i % 2, "rank": i % 3, "ts": ts, "tag": "a", "seq": i}
        if type(ts) is bool:
            with pytest.raises(SchemaError):
                world.insert([obj], batched=False)
        else:
            world.insert([obj], batched=False)
    return world


@pytest.mark.parametrize("flavour, ts_values, path", [
    ("int", [2**63 - 1, 0, -(2**63), 0, 3, 2**63 - 1, -1, 0, 2], "lexsort"),
    ("float", [0.5, -0.0, 0.0, math.inf, -math.inf, 0.0, 0.5, -0.0, 1e300],
     "lexsort"),
    ("nan", [0.5, math.nan, 0.0, 0.5, math.nan, 0.25], "tuple"),
    # The bools are refused; the ints land as floats.
    ("bool", [1, True, 0, False, 2, 1], "lexsort"),
    ("bigint", [2**64 + 7, 0, 1, 2, -3, 0], "lexsort"),
    ("text", ["b", "a", "", "a", "b", ""], "lexsort"),
    # Daemon 0 gets ints, daemons 1 and 2 floats; all land as floats,
    # so 2**53 + 1 ties 2.0**53.
    ("mix", [2**53 + 1, 2.0**53, 0.5, 1, 1.0, 2.0**53], "lexsort"),
], ids=lambda v: v if isinstance(v, str) else None)
@pytest.mark.parametrize("index", ["job_rank_ts", "ts_job"])
def test_each_key_flavour_takes_its_path(flavour, ts_values, path, index):
    world = _fixed_world(flavour, ts_values)
    assert _check(world, {"index": index, **_WHOLE}) == path


# ------------------------------------------ scan bounds numpy would miss


def _bisect_scan(keys, prefix) -> list:
    """Positions of the keys starting with ``prefix``, found as Python's
    ``bisect`` finds them over the key tuples in index order."""
    n = len(prefix)
    return list(range(bisect.bisect_left(keys, prefix),
                      bisect.bisect_right(keys, prefix, key=lambda k: k[:n])))


@pytest.mark.parametrize("flavour, ts_values, prefix", [
    # The int 2**53 + 1 lands as the float 2.0**53, and numpy would
    # round the bound to the same float: Python's comparison excludes
    # the row, ``np.searchsorted`` would return it.
    ("converted", [2**53 + 1, 1.0, 2.0**53 + 2], (0, 2**53 + 1)),
    # A NaN among the keys: the bounds are wherever ``bisect`` over the
    # key tuples finds them, where ``np.searchsorted`` puts NaN last.
    ("nan", [0.5, math.nan, 0.25, 0.5, math.nan, 0.75], (0, 0.5)),
], ids=["inexact-bound", "nan-run"])
def test_scan_bounds_take_python_comparison_where_numpy_differs(
        flavour, ts_values, prefix):
    world = _World("flat", 1, flavour)
    world.insert([{"job_id": 0, "rank": 0, "ts": ts, "tag": "a", "seq": i}
                  for i, ts in enumerate(ts_values)], batched=True)
    (daemon,) = world.cluster.daemons
    shard = daemon._shard("ev")
    index = shard.indices["rank_ts"]
    order = index.range()
    keys = [shard.schema.key_for("rank_ts", obj) for obj in shard.rows(order)]
    want = order[_bisect_scan(keys, prefix)].tolist()
    assert index.prefix_range(prefix).tolist() == want
    # What one ``np.searchsorted`` per key part would have returned.
    lo, hi = 0, len(order)
    for col, v in zip(index._cols, prefix):
        lo, hi = (lo + col[lo:hi].searchsorted(v, "left"),
                  lo + col[lo:hi].searchsorted(v, "right"))
    assert order[lo:hi].tolist() != want
    _check(world, {**_WHOLE, "index": "rank_ts", "prefix": prefix})
