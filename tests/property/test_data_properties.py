"""Property-based tests: DSOS indices, DataFrame algebra, striping."""

from operator import itemgetter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dsos import Attr, Schema
from repro.dsos.daemon import _Shard
from repro.fs import LoadProcess, LustreFileSystem, LustreParams
from repro.sim import Environment, RngRegistry
from repro.webservices import DataFrame


# ----------------------------------------------------------------- index


def _indexed(*types):
    """A shard of attributes ``a``, ``b``, ... of ``types`` and its
    index ``t`` over all of them, in order."""
    names = tuple("ab"[: len(types)])
    shard = _Shard(Schema("s", [Attr(n, t) for n, t in zip(names, types)],
                          {"t": names}))
    return shard, shard.indices["t"]


def _keys(shard, oids) -> list:
    """The keys of the rows at ``oids``, read from the shard's columns."""
    return list(zip(*[shard.values(a, oids) for a in shard.schema.attrs]))


@given(
    keys=st.lists(
        st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
        min_size=0,
        max_size=200,
    )
)
def test_sorted_index_iterates_in_key_order(keys):
    shard, idx = _indexed("int", "int")
    for key in keys:
        shard.add(key)
    assert _keys(shard, idx.range()) == sorted(keys)
    assert len(idx) == len(keys)


@given(
    keys=st.lists(st.integers(-50, 50), min_size=1, max_size=100),
    lo=st.integers(-60, 60),
    hi=st.integers(-60, 60),
)
def test_sorted_index_range_equals_filter(keys, lo, hi):
    shard, idx = _indexed("int")
    shard.add_many([(k,) for k in keys])
    got = set(idx.range((lo,), (hi,)).tolist())
    expected = {oid for oid, k in enumerate(keys) if lo <= k < hi}
    assert got == expected


@given(
    keys=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=80
    ),
    prefix=st.integers(0, 5),
)
def test_sorted_index_prefix_equals_filter(keys, prefix):
    shard, idx = _indexed("int", "int")
    for key in keys:
        shard.add(key)
    got = set(idx.prefix_range((prefix,)).tolist())
    expected = {oid for oid, key in enumerate(keys) if key[0] == prefix}
    assert got == expected


@given(
    before=st.lists(st.integers(-20, 20), min_size=0, max_size=40),
    after=st.lists(st.integers(-20, 20), min_size=0, max_size=40),
)
def test_sorted_index_interleaved_adds_and_queries(before, after):
    """Materialization is repeatable: add -> query -> add -> query."""
    shard, idx = _indexed("int")
    for k in before:
        shard.add((k,))
    idx.range(None, None)  # force materialization
    for k in after:
        shard.add((k,))
    assert _keys(shard, idx.range()) == sorted([(k,) for k in before + after])


#: Two-part keys from a small domain, so runs share keys; ``0.0`` and
#: ``-0.0`` are equal keys of different reprs, and ``"nan"`` stands for
#: a NaN (a fresh float each time).
_index_key = st.tuples(st.integers(0, 3),
                       st.sampled_from([0.0, -0.0, 0.5, 1.0, "nan"]))


def _fold(model: list, pending: list) -> list:
    """The order an index keeps after a read: the pending run sorted
    stably, then appended when it starts at or after the last indexed
    key, else stably sorted together with the indexed run.  Without a
    NaN this is ``sorted(model + pending)`` on the key."""
    pending = sorted(pending, key=itemgetter(0))
    if model and pending and pending[0][0] < model[-1][0]:
        return sorted(model + pending, key=itemgetter(0))
    return model + pending


@given(
    batches=st.lists(
        st.tuples(st.lists(_index_key, max_size=30), st.integers(0, 4),
                  st.booleans()),
        min_size=1, max_size=6,
    )
)
def test_sorted_index_materialize_is_a_stable_sort_of_both_runs(batches):
    """Each scan folds the pending run in; the index order then equals
    the stable sort of both runs (:func:`_fold`), duplicate keys kept
    in indexed-then-arrival order, and NaN runs in the order the tuple
    sorts give them.  A batch shifted up by ``lift`` mostly starts
    after the indexed run (the append branch)."""
    shard, idx = _indexed("int", "float")
    model: list = []
    for keys, lift, bulk in batches:
        rows = [(a + lift * len(model), float(b)) for a, b in keys]
        pending = [(row, len(shard) + i) for i, row in enumerate(rows)]
        if bulk:
            shard.add_many(rows)
        else:
            for row in rows:
                shard.add(row)
        model = _fold(model, pending)
        oids = idx.range()
        got = list(zip(_keys(shard, oids), oids.tolist()))
        assert [(repr(k), o) for k, o in got] == \
            [(repr(k), o) for k, o in model]
        assert len(idx) == len(model)


# ------------------------------------------------------------- dataframe


_records = st.lists(
    st.fixed_dictionaries(
        {
            "k": st.integers(0, 4),
            "v": st.floats(-1e6, 1e6, allow_nan=False),
            "s": st.sampled_from(["read", "write", "open"]),
        }
    ),
    min_size=1,
    max_size=100,
)


@given(records=_records)
def test_dataframe_groupby_sum_partitions_total(records):
    df = DataFrame.from_records(records)
    total = float(df["v"].sum())
    grouped = df.groupby("k").agg({"v": "sum"})
    np.testing.assert_allclose(float(np.sum(grouped["v_sum"])), total, rtol=1e-9)


@given(records=_records)
def test_dataframe_groupby_sizes_partition_rows(records):
    df = DataFrame.from_records(records)
    sizes = df.groupby("k", "s").size()
    assert int(np.sum(sizes["n"])) == len(df)


@given(records=_records, threshold=st.floats(-1e6, 1e6, allow_nan=False))
def test_dataframe_filter_complement(records, threshold):
    df = DataFrame.from_records(records)
    above = df.filter(df["v"] > threshold)
    below = df.filter(df["v"] <= threshold)
    assert len(above) + len(below) == len(df)


@given(records=_records)
def test_dataframe_sort_is_permutation(records):
    df = DataFrame.from_records(records)
    out = df.sort_by("v")
    assert sorted(out["v"].tolist()) == sorted(df["v"].tolist())
    assert list(out["v"]) == sorted(df["v"].tolist())


#: Small domains, so ties on every key (and on key tuples) are common.
_tied_records = st.lists(
    st.fixed_dictionaries(
        {
            "k": st.integers(0, 3),
            "v": st.sampled_from([-1.5, -0.0, 0.0, 2.25, 1e300]),
            "s": st.sampled_from(["read", "write", "open"]),
        }
    ),
    min_size=0,
    max_size=60,
)


@given(
    records=_tied_records,
    names=st.lists(st.sampled_from(["k", "v", "s"]), min_size=1, max_size=3,
                   unique=True),
    reverse=st.booleans(),
)
def test_dataframe_sort_by_matches_stable_sorted(records, names, reverse):
    # ``sorted`` is stable in both directions: equal keys keep row order.
    rows = [dict(r, row=i) for i, r in enumerate(records)]
    df = DataFrame.from_records(rows) if rows else DataFrame(
        {"k": [], "v": [], "s": [], "row": []}
    )
    got = df.sort_by(*names, reverse=reverse)["row"].tolist()
    want = sorted(
        range(len(rows)),
        key=lambda i: tuple(rows[i][n] for n in names),
        reverse=reverse,
    )
    assert got == want


@given(records=_records)
def test_dataframe_roundtrip_records(records):
    df = DataFrame.from_records(records)
    again = DataFrame.from_records(df.to_records())
    for col in df.columns:
        assert list(again[col]) == list(df[col])


# ------------------------------------------------------------- striping


@given(
    offset=st.integers(0, 2**34),
    nbytes=st.integers(1, 2**28),
    stripe_count=st.integers(1, 8),
)
@settings(max_examples=60)
def test_lustre_chunks_tile_extent_exactly(offset, nbytes, stripe_count):
    env = Environment()
    reg = RngRegistry(0)
    quiet = LoadProcess(
        reg.stream("l"), diurnal_amplitude=0, noise_sigma=0, n_modes=0,
        incident_rate=0,
    )
    fs = LustreFileSystem(
        env, quiet, reg.stream("f"),
        LustreParams(cv=0.0, n_osts=8, stripe_count=stripe_count),
    )
    chunks = fs.chunks_for_extent("/f", offset, nbytes)
    # Chunks tile [offset, offset+nbytes) without gaps or overlaps.
    pos = offset
    for ost, chunk_offset, chunk_len, _aligned in chunks:
        assert chunk_offset == pos
        assert chunk_len > 0
        assert 0 <= ost < 8
        pos += chunk_len
    assert pos == offset + nbytes
    # No chunk spans a stripe boundary.
    ssz = fs.params.stripe_size_bytes
    for _, chunk_offset, chunk_len, _ in chunks:
        assert chunk_offset // ssz == (chunk_offset + chunk_len - 1) // ssz
