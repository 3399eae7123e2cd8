"""Every producer the store trusts yields rows of exactly the schema's types.

The pipeline hands the store its rows with ``validate=False``: the
store keeps each value as given, in a column of its attribute's dtype,
so each such row must hold every schema attribute at the attribute's
exact Python type (an ``int`` within int64, a ``float``, a ``str``).
These producers build those rows:

- the store plugin's ``_flatten`` (every message carrying a payload
  string, landed through ``on_message``) and ``columnar_rows`` (fast
  lane and express spine), from messages whose fields Hypothesis draws
  from what a JSON payload can hold: ``"N/A"``, None, numeric strings,
  bools, ints beyond int64, NaN and ±inf, text and lists;
- the express spine's ingest slabs (``_flush_slab``);
- ``MetricStreamStore``, from drawn metric values (a message with a
  value that is not a number is a parse error, with nothing stored);
- the index ablation's objects.
"""

import json
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.apps import Hmmer
from repro.cluster import Cluster, ClusterSpec
from repro.core import ConnectorConfig, MessageBuilder
from repro.core.json_format import ColumnarFormatted
from repro.darshan.runtime import IOEvent
from repro import dsos
from repro.dsos import DARSHAN_DATA_SCHEMA, DsosClient, DsosCluster, DsosStreamStore
from repro.dsos.metric_store import MetricStreamStore
from repro.dsos.metrics_schema import LDMS_METRICS_SCHEMA
from repro.experiments import World, WorldConfig, ablations, run_job
from repro.fs.posix import IOContext
from repro.ldms import Ldmsd
from repro.ldms.streams import StreamMessage
from repro.sim import Environment, RngRegistry

_EXACT = {"int": int, "float": float, "string": str}


def _assert_exact(schema, rows) -> None:
    for row in rows:
        assert sorted(row) == sorted(schema.attrs)
        for name, attr in schema.attrs.items():
            value = row[name]
            assert type(value) is _EXACT[attr.type], (name, value)
            if attr.type == "int":
                assert -(2**63) <= value < 2**63, (name, value)


#: What a JSON payload can hold in any field.
_WILD = st.one_of(
    st.just("N/A"),
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70,
                     10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["12", "-3", "1.5", "1e30", "nan", "inf", "-Infinity",
                     " 7 ", str(2**70), "0x10"]),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)

_OUTER = [a for a in DARSHAN_DATA_SCHEMA.attrs
          if a != "timestamp" and not a.startswith("seg_")]
_SEG = ["timestamp"] + [a[4:] for a in DARSHAN_DATA_SCHEMA.attrs
                        if a.startswith("seg_")]


@st.composite
def _fields(draw, keys):
    present = draw(st.lists(st.sampled_from(keys), unique=True))
    return {key: draw(_WILD) for key in present}


def _daemon():
    env = Environment()
    cluster = Cluster(env, RngRegistry(0), ClusterSpec(n_compute_nodes=1))
    return Ldmsd(env, cluster.analysis_node, cluster.network)


def _store():
    client = DsosClient(DsosCluster("trusted", n_daemons=2))
    return DsosStreamStore(_daemon(), "darshanConnector", client)


@settings(max_examples=300, deadline=None)
@given(outer=_fields(_OUTER), segs=st.lists(_fields(_SEG), max_size=2))
def test_flattened_rows_are_exact(outer, segs):
    store = _store()
    data = {**outer, "seg": segs}
    # What json.loads gives back from the payload the message carries.
    payload = json.dumps(data)
    slow = list(store._flatten(json.loads(payload)))
    _assert_exact(DARSHAN_DATA_SCHEMA, slow)
    # What the store lands for a message carrying that payload: exactly
    # those rows, value for value.
    landed = []
    store.client.cluster.insert = (
        lambda name, obj, *, validate=True: landed.append(obj)
    )
    store.on_message(StreamMessage("darshanConnector", payload))
    _assert_exact(DARSHAN_DATA_SCHEMA, landed)
    assert [[(type(v), repr(v)) for v in r.values()] for r in landed] == \
        [[(type(v), repr(v)) for v in r.values()] for r in slow]


def _shape(hdf5: bool):
    """A columnar message shape: 9 varying slots, or 14 for HDF5."""
    ctx = IOContext(job_id=7, uid=99, rank=1, node_name="nid00001",
                    exe="/apps/bench", app="bench")
    event = IOEvent(
        module="H5D" if hdf5 else "POSIX", op="write", path="/scratch/a.dat",
        record_id=11, context=ctx, offset=0, nbytes=4096, start=1.0,
        end=1.5, cnt=1, switches=0, flushes=-1, max_byte=4095,
        hdf5={"data_set": "d", "ndims": 2, "npoints": 8, "pt_sel": 0,
              "reg_hslab": 1, "irreg_hslab": 0} if hdf5 else None,
    )
    formatted = MessageBuilder().format_columnar(event)
    assert type(formatted) is ColumnarFormatted
    return formatted.shape, formatted.values


@settings(max_examples=300, deadline=None)
@given(hdf5=st.booleans(), data=st.data())
def test_columnar_rows_are_exact(hdf5, data):
    store = _store()
    shape, values = _shape(hdf5)
    # The first build per shape compiles and self-checks its plan.
    _assert_exact(DARSHAN_DATA_SCHEMA, store.columnar_rows(shape, values))
    for _ in range(data.draw(st.integers(1, 3))):
        drawn = tuple(data.draw(_WILD | st.just(v)) for v in values)
        _assert_exact(DARSHAN_DATA_SCHEMA, store.columnar_rows(shape, drawn))


@settings(max_examples=200, deadline=None)
@given(
    metrics=st.dictionaries(st.text(max_size=3), _WILD, max_size=4),
    timestamp=_WILD,
    producer=_WILD,
)
def test_metric_rows_are_exact(metrics, timestamp, producer):
    daemon = _daemon()
    client = DsosClient(DsosCluster("metrics", n_daemons=1))
    store = MetricStreamStore(daemon, ["metrics/probe"], client)
    payload = {"producer": producer, "timestamp": timestamp, "metrics": metrics}
    daemon.publish_now("metrics/probe", json.dumps(payload))
    (shard,) = [d._shard("ldms_metrics") for d in client.cluster.daemons]
    # The tails, before a read folds them: what the producer handed over.
    tails = [dict(zip(LDMS_METRICS_SCHEMA.attrs, values))
             for values in zip(*shard._tails)]
    _assert_exact(LDMS_METRICS_SCHEMA, tails)
    if all(_is_number(v) for v in [timestamp, *metrics.values()]):
        assert store.parse_errors == 0 and len(tails) == len(metrics)
    else:
        assert store.parse_errors == 1 and len(shard) == 0


def _is_number(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), families=st.integers(1, 6))
def test_spine_slabs_are_exact(seed, families):
    world = World(WorldConfig(seed=seed, quiet=True, n_compute_nodes=2))
    slabs = []
    flush = world.spine._flush_slab

    def spied():
        slabs.extend(world.spine._slab)
        flush()

    world.spine._flush_slab = spied
    run_job(world, Hmmer(ranks_per_node=2, n_families=families), "nfs",
            connector_config=ConnectorConfig())
    assert world.spine.stats.ingest_flushes and slabs
    assert len(slabs) == world.dsos.count("darshan_data")
    _assert_exact(DARSHAN_DATA_SCHEMA, slabs)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), ranks=st.integers(1, 3))
def test_index_ablation_objects_are_exact(seed, ranks):
    seen = []
    real = dsos.DsosCluster

    def spied(*args, **kw):
        cluster = real(*args, **kw)
        insert = cluster.insert

        def spy(name, obj, *, validate=True):
            assert not validate
            seen.append(obj)
            return insert(name, obj, validate=validate)

        cluster.insert = spy
        return cluster

    with patch.object(dsos, "DsosCluster", spied):
        ablations.ablation_dsos_index(n_jobs=2, ranks=ranks,
                                      events_per_rank=3, seed=seed)
    assert len(seen) == 2 * ranks * 3
    _assert_exact(DARSHAN_DATA_SCHEMA, seen)
