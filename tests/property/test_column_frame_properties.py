"""Differential pin: a query's column frame equals ``from_records`` of its rows.

:meth:`QueryResult.frame` builds a DataFrame from each shard's typed
columns (the store's only copy of its rows) instead of transposing
row dicts.  It must equal
``DataFrame.from_records(result.rows)`` exactly: the same columns in
the same order, the same dtype, and the same ``(type, repr)`` for
every cell, or raise the same exception type.

Hypothesis draws flat clusters of 1–4 daemons and 2×2 replicated
clusters; objects whose cells have their attribute's type (floats with
NaN, ±inf and ``-0.0``, strs), and validated chunks whose float cells
may also be ints (beyond int64 too) or ``np.float64``, stored as
floats; ingest interleaved with queries, so folds happen mid-stream;
replica crashes (torn WAL tails replay as JSON, keys sorted),
recoveries and repairs; prefix, range, ``where`` and ``limit`` specs;
and, on flat clusters, unvalidated objects with a missing or an extra
attribute, which the store must refuse with nothing stored.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsos import Attr, DsosCluster, Schema, SchemaError
from repro.webservices import DataFrame
from repro.webservices.dataframe import DataFrameError

_SCHEMA = Schema(
    "ev",
    [
        Attr("job_id", "int"),
        Attr("rank", "int"),
        Attr("timestamp", "float"),
        Attr("op", "string"),
        Attr("a", "float"),
        Attr("b", "float"),
        Attr("c", "string"),
    ],
    {
        "job_rank_time": ("job_id", "rank", "timestamp"),
        "time_job": ("timestamp", "job_id"),
    },
)

#: Indexed cells: small domains, so keys repeat within and across
#: shards (``-0.0`` ties ``0.0``).  A chunk's timestamps are these
#: offsets past twice its ordinal, so time ranges and limits can select
#: earlier chunks alone.
_KEYED = {
    "job_id": st.integers(0, 3),
    "rank": st.integers(0, 2),
    "timestamp": st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    "op": st.sampled_from(["open", "read", "write"]),
}

#: Query-side timestamps, spanning the first chunks.
_QUERY_KEYS = {
    **_KEYED,
    "timestamp": st.sampled_from([0, 0.5, 1, 2, 2.5, 4, 6.0, 8, 10.5, 14]),
}

_INTS = st.integers(-(2**40), 2**40)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf])

#: Unindexed cells, by attribute type.
_CELLS = {"float": _FLOATS, "string": st.text(max_size=3)}

#: What a validated chunk's float cells may also be.
_CONVERTED = (
    _INTS
    | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7, 10**300])
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
)

_WILD = ("a", "b", "c")


def _keyed(draw, ordinal: int) -> dict:
    obj = {name: draw(cell) for name, cell in _KEYED.items()}
    if ordinal:
        obj["timestamp"] += 2 * ordinal
    return obj


def _chunk(draw, ordinal: int, validated: bool) -> list:
    """1–6 objects, each cell of its attribute's type, or for a
    ``validated`` chunk a number its float attribute converts."""
    objs = []
    for _ in range(draw(st.integers(1, 6))):
        obj = _keyed(draw, ordinal)
        for name in _WILD:
            kind = _SCHEMA.attrs[name].type
            cells = _CELLS[kind]
            if validated and kind == "float":
                cells = cells | _CONVERTED
            obj[name] = draw(cells)
        objs.append(obj)
    return objs


def _insert(draw, cluster, step, ordinal):
    validated = draw(st.booleans())
    objs = _chunk(draw, ordinal, validated)
    if step == "insert":
        for obj in objs:
            cluster.insert(_SCHEMA.name, obj, validate=validated)
    else:
        cluster.insert_many(_SCHEMA.name, objs, validate=validated)


def _odd_object(draw, ordinal: int) -> dict:
    """An unvalidated object without exactly the schema's attributes."""
    obj = _keyed(draw, ordinal)
    for name in _WILD:
        obj[name] = 1.5
    if draw(st.booleans()):
        del obj[draw(st.sampled_from(_WILD))]
    else:
        obj["extra"] = draw(_INTS)
    return obj


@st.composite
def _key_part(draw, index):
    attrs = _SCHEMA.indices[index]
    n = draw(st.integers(1, len(attrs)))
    return tuple(draw(_QUERY_KEYS[a]) for a in attrs[:n])


@st.composite
def _query(draw, cluster):
    index = draw(st.sampled_from(sorted(_SCHEMA.indices)))
    q = cluster.query(_SCHEMA.name, index)
    shape = draw(st.sampled_from(["all", "prefix", "range"]))
    if shape == "prefix":
        q.prefix(*draw(_key_part(index)))
    elif shape == "range":
        q.range(draw(st.none() | _key_part(index)),
                draw(st.none() | _key_part(index)))
    for _ in range(draw(st.integers(0, 2))):
        attr = draw(st.sampled_from(["job_id", "rank", "timestamp", "op"]))
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        q.where(attr, op, draw(_QUERY_KEYS[attr]))
    if draw(st.booleans()):
        q.limit(draw(st.integers(1, 12)))
    if cluster.sharded and draw(st.booleans()):
        q.quorum()
    return q


def _assert_refused(cluster, obj):
    """An object without exactly the schema's attributes raises, with
    nothing stored."""
    before = cluster.count(_SCHEMA.name)
    with pytest.raises(SchemaError):
        cluster.insert(_SCHEMA.name, obj, validate=False)
    assert cluster.count(_SCHEMA.name) == before


def _cells(arr):
    return [(type(v), repr(v)) for v in arr.tolist()]


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return None, type(exc)


def _assert_frame_is_from_records(result):
    got, got_exc = _outcome(result.frame)
    if not result.rows:
        assert got_exc is DataFrameError
        return
    want, want_exc = _outcome(lambda: DataFrame.from_records(result.rows))
    assert got_exc is want_exc
    if want is None:
        return
    assert got.columns == want.columns
    for name in want.columns:
        g, w = got.col(name), want.col(name)
        assert g.dtype == w.dtype, name
        assert _cells(g) == _cells(w), name
        assert not g.flags.writeable


@settings(max_examples=200, deadline=None)
@given(topology=st.sampled_from(["flat", "replicated"]), data=st.data())
def test_column_frame_equals_from_records_of_the_rows(topology, data):
    if topology == "flat":
        cluster = DsosCluster("p", n_daemons=data.draw(st.integers(1, 4)))
    else:
        cluster = DsosCluster("p", shards=2, replication=2)
    cluster.attach_schema(_SCHEMA)
    steps = ["insert", "insert_many", "query", "query", "query"]
    if topology == "flat":
        steps.append("odd")
    else:
        steps += ["crash", "recover", "repair"]
    for ordinal in range(data.draw(st.integers(1, 16))):
        step = data.draw(st.sampled_from(steps))
        if step.startswith("insert"):
            _insert(data.draw, cluster, step, ordinal)
            if data.draw(st.booleans()):
                # A whole-store frame folds every shard here, so the
                # next chunk lands in a fold of its own.
                _assert_frame_is_from_records(
                    cluster.query(_SCHEMA.name, "time_job").execute()
                )
        elif step == "odd":
            _assert_refused(cluster, _odd_object(data.draw, ordinal))
        elif step == "query":
            _assert_frame_is_from_records(
                data.draw(_query(cluster)).execute()
            )
        else:
            replicas = cluster.replica_sets[data.draw(st.integers(0, 1))]
            target = replicas[data.draw(st.integers(0, 1))]
            peer = replicas[1] if target is replicas[0] else replicas[0]
            if step == "crash" and target.alive and peer.alive:
                cluster.crash_daemon(target,
                                     tear_tail=data.draw(st.booleans()))
            elif step == "recover" and not target.alive:
                cluster.recover_daemon(target)
            elif step == "repair" and target.alive:
                cluster.repair_daemon(target)
    _assert_frame_is_from_records(cluster.query(_SCHEMA.name,
                                                "time_job").execute())


# ------------------------------------------------ on-demand columns
#
# A query's frame builds each column the first time it is read.  The
# pins below read a drawn subset of the columns in a drawn order,
# directly or through ``filter``, ``sort_by``, ``head`` or
# ``groupby(...).apply``, sometimes only after more objects have landed
# (or been refused), and compare each read column with the same read
# of the eager ``from_records`` frame.  Unvalidated objects may miss,
# add or swap an attribute; the store refuses them.


def _misfit_object(draw, ordinal: int) -> dict:
    """An unvalidated object missing, adding or swapping an attribute
    (a swap keeps the schema's attribute count with other keys)."""
    obj = _keyed(draw, ordinal)
    for name in _WILD:
        obj[name] = 1.5
    how = draw(st.sampled_from(["missing", "extra", "swapped"]))
    if how != "extra":
        del obj[draw(st.sampled_from(_WILD))]
    if how != "missing":
        obj["extra"] = draw(_INTS)
    return obj


#: Columns a sort and a group-by accept on every frame.
_SORTABLE = ("job_id", "rank", "timestamp", "op")


def _assert_same_cells(g, w, name):
    assert g.dtype == w.dtype, name
    assert _cells(g) == _cells(w), name
    assert not g.flags.writeable


def _assert_read_equal(draw, got, want):
    """Read a drawn subset of ``want``'s columns, in a drawn order,
    through a drawn view, from both frames, and compare."""
    assert got.columns == want.columns
    assert len(got) == len(want)
    names = draw(st.permutations(want.columns))
    names = names[: draw(st.integers(1, len(names)))]
    view = draw(st.sampled_from(["frame", "filter", "sort_by", "head",
                                 "groupby"]))
    if view == "filter":
        mask = draw(st.lists(st.booleans(), min_size=len(want),
                             max_size=len(want)))
        got, want = got.filter(np.asarray(mask)), want.filter(np.asarray(mask))
    elif view == "sort_by":
        keys = draw(st.lists(st.sampled_from(_SORTABLE), min_size=1,
                             max_size=2, unique=True))
        reverse = draw(st.booleans())
        got = got.sort_by(*keys, reverse=reverse)
        want = want.sort_by(*keys, reverse=reverse)
    elif view == "head":
        n = draw(st.integers(-3, len(want) + 2))
        got, want = got.head(n), want.head(n)
    elif view == "groupby":
        keys = draw(st.lists(st.sampled_from(["job_id", "rank", "op"]),
                             min_size=1, max_size=2, unique=True))
        got_groups = got.groupby(*keys).apply(lambda sub: sub)
        want_groups = want.groupby(*keys).apply(lambda sub: sub)
        assert list(got_groups) == list(want_groups)
        for key, sub in want_groups.items():
            assert len(got_groups[key]) == len(sub)
            for name in names:
                _assert_same_cells(got_groups[key].col(name), sub.col(name),
                                   name)
        return
    assert len(got) == len(want)
    for name in names:
        _assert_same_cells(got.col(name), want.col(name), name)


def _take_frame(result):
    """``(frame, rows)`` of a query, or None when it has no frame; the
    frame() call must raise exactly when ``from_records`` does."""
    got, got_exc = _outcome(result.frame)
    if not result.rows:
        assert got_exc is DataFrameError
        return None
    _, want_exc = _outcome(lambda: DataFrame.from_records(result.rows))
    assert got_exc is want_exc
    return None if got is None else (got, result.rows)


@settings(max_examples=200, deadline=None)
@given(topology=st.sampled_from(["flat", "replicated"]), data=st.data())
def test_columns_read_on_demand_equal_from_records(topology, data):
    if topology == "flat":
        cluster = DsosCluster("p", n_daemons=data.draw(st.integers(1, 4)))
    else:
        cluster = DsosCluster("p", shards=2, replication=2)
    cluster.attach_schema(_SCHEMA)
    steps = ["insert", "insert_many", "query", "query", "query"]
    if topology == "flat":
        steps.append("odd")
    else:
        steps += ["crash", "recover", "repair"]
    held = []
    for ordinal in range(data.draw(st.integers(1, 16))):
        step = data.draw(st.sampled_from(steps))
        if step.startswith("insert"):
            _insert(data.draw, cluster, step, ordinal)
        elif step == "odd":
            _assert_refused(cluster, _misfit_object(data.draw, ordinal))
        elif step == "query":
            taken = _take_frame(data.draw(_query(cluster)).execute())
            if taken is None:
                continue
            if data.draw(st.booleans()):
                # Read it only after the steps still to come.
                held.append(taken)
            else:
                got, rows = taken
                _assert_read_equal(data.draw, got, DataFrame.from_records(rows))
        else:
            replicas = cluster.replica_sets[data.draw(st.integers(0, 1))]
            target = replicas[data.draw(st.integers(0, 1))]
            peer = replicas[1] if target is replicas[0] else replicas[0]
            if step == "crash" and target.alive and peer.alive:
                cluster.crash_daemon(target,
                                     tear_tail=data.draw(st.booleans()))
            elif step == "recover" and not target.alive:
                cluster.recover_daemon(target)
            elif step == "repair" and target.alive:
                cluster.repair_daemon(target)
    taken = _take_frame(cluster.query(_SCHEMA.name, "time_job").execute())
    if taken is not None:
        held.append(taken)
    for got, rows in held:
        _assert_read_equal(data.draw, got, DataFrame.from_records(rows))
