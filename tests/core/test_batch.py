"""Unit tests for the fast lane's columnar rows and the express spine.

Covers the pieces ``tests/property/test_fastlane_properties.py`` drives
only end to end: the lazy ColumnarMessage view and the accounting-only
render it relies on, the virtual forwarder's batching edges — a
single-event batch, a burst split across the ``batch_size`` window and
a same-instant burst leaving as one batch — the guard hooks that must
de-arm the spine before a mutation, and the ``columnar`` compatibility
keyword.
"""

import dataclasses
import json

import pytest

from repro.apps import Hmmer
from repro.core import ConnectorConfig, MessageBuilder
from repro.core.batch import ColumnarMessage
from repro.core.json_format import ColumnarFormatted
from repro.darshan.runtime import IOEvent
from repro.experiments import run_job
from repro.experiments.world import STREAM_TAG, World, WorldConfig
from repro.fs.posix import IOContext


def _event(op="write", offset=0, nbytes=512):
    ctx = IOContext(
        job_id=77, uid=1000, rank=3, node_name="nid00001",
        exe="/apps/bench", app="bench",
    )
    return IOEvent(
        module="POSIX", op=op, path="/scratch/a.dat", record_id=12345,
        context=ctx, offset=offset, nbytes=nbytes,
        start=10.0, end=10.5, cnt=4, switches=1, flushes=-1,
        max_byte=offset + nbytes - 1,
    )


def _columnar(event):
    formatted = MessageBuilder().format_columnar(event)
    assert type(formatted) is ColumnarFormatted
    return formatted


# -------------------------------------------------------- ColumnarMessage


def _reference_rows(store, payload):
    """The store's reference walk: parse ``payload`` and flatten it."""
    return list(store._flatten(json.loads(payload)))


def _store_rows(store, msg):
    """The rows ``store`` builds from ``msg``'s shape and values with
    its compiled per-shape spec (which must pass its self-check: a
    failed one would hand back the reference walk's rows instead)."""
    rows = store.columnar_rows(msg.shape, msg.values)
    assert store._columnar_plans[id(msg.shape)][1] is not None
    return rows


def test_columnar_message_matches_reference_payload(dsos_store):
    event = _event()
    f = _columnar(event)
    reference = MessageBuilder().format(event)
    msg = ColumnarMessage(
        "darshanConnector", f.shape, f.values, f.payload_chars,
        src_node="nid00001", publish_time=1.0, trace_id="77:3:0",
    )
    assert msg.size_bytes == len(reference.payload)
    assert msg.payload == reference.payload
    assert _store_rows(dsos_store, msg) == _reference_rows(
        dsos_store, reference.payload
    )
    # Cached after first access.
    assert msg.payload is msg.payload


def test_columnar_message_lazy_rerenders_from_values(dsos_store):
    event = _event()
    f = _columnar(event)
    reference = MessageBuilder().format(event)
    # The accounting needs no rendered string...
    assert f.numeric_conversions == reference.numeric_conversions
    assert f.payload_chars == len(reference.payload)
    assert f.format_cost_s == reference.format_cost_s
    msg = ColumnarMessage("darshanConnector", f.shape, f.values,
                          f.payload_chars)
    assert msg._payload is None
    # ...the store builds the reference rows from the slot values
    # without one...
    assert _store_rows(dsos_store, msg) == _reference_rows(
        dsos_store, reference.payload
    )
    assert msg._payload is None
    # ...and a reader renders it from the slot values on first access.
    assert msg.payload == reference.payload


def test_render_meta_matches_render_parts():
    for op, nbytes in (("write", 0), ("read", 7), ("write", 2**30 + 17)):
        event = _event(op=op, nbytes=nbytes, offset=2**40)
        shape = _columnar(event).shape
        values = MessageBuilder._values(event)
        payload, numeric = shape.render(values)
        assert shape.render_meta(values) == (numeric, len(payload))


# ------------------------------------------------ virtual forwarder edges


def _armed_world():
    world = World(WorldConfig(seed=7, quiet=True, n_compute_nodes=2))
    assert world.spine is not None and world.spine.armed
    return world


def _stuff_rows(world, vfwd, n):
    f = _columnar(_event())
    for i in range(n):
        vfwd.outbox.append((f"77:3:{i}", 100, f.shape, f.values, 0.0))


def test_single_event_batch_drains_whole():
    world = _armed_world()
    spine = world.spine
    vfwd = next(iter(spine._l0.values()))
    _stuff_rows(world, vfwd, 1)
    vfwd.drain(0.0)
    assert not vfwd.outbox          # the lone row left immediately
    assert vfwd.tracked             # completion entry on the heap
    spine.drain_all()
    assert spine.stats.record_batches >= 1
    assert spine.stats.max_batch_rows == 1
    assert world.store.objects_stored == 1


def test_burst_splits_across_batch_size_window():
    world = _armed_world()
    spine = world.spine
    vfwd = next(iter(spine._l0.values()))
    cap = vfwd.fwd.batch_size
    _stuff_rows(world, vfwd, cap + 6)
    vfwd.drain(0.0)
    # First window takes exactly batch_size rows; the tail waits for
    # the transfer to complete.
    assert len(vfwd.outbox) == 6
    spine.drain_all()
    assert not vfwd.outbox
    assert spine.stats.batch_rows == cap + 6
    assert spine.stats.max_batch_rows == cap
    assert world.store.objects_stored == cap + 6


def test_same_instant_rows_leave_as_one_batch():
    """Rows joining an idle hop at one instant drain together behind a
    queued kick, as the real forwarder's zero-delay kick drains them."""
    world = _armed_world()
    spine = world.spine
    l1 = spine._l1
    f = _columnar(_event())
    for i in range(3):
        l1.outbox.append((f"77:3:{i}", 100, f.shape, f.values, 0.0))
        l1.queue_drain(0.0)
    assert len(l1.outbox) == 3 and l1.drain_queued
    spine.advance(0.0)
    assert not l1.outbox and l1.tracked and not l1.drain_queued
    spine.drain_all()
    assert l1.fstats.forwarded == 3
    assert world.store.objects_stored == 3


def _hmmer_campaign(mutate):
    """A 2-node HMMER job, seed 3, after ``mutate(world)`` ran on an
    armed fast-lane world; returns ``(world, result)``."""
    world = World(WorldConfig(seed=3, quiet=True, n_compute_nodes=2))
    assert world.spine.armed
    mutate(world)
    result = run_job(
        world, Hmmer(ranks_per_node=4, n_families=4), "nfs",
        connector_config=ConnectorConfig(),
    )
    return world, result


def test_unsubscribing_the_store_dearms_the_spine():
    """Regression: unsubscribe changed the subscriber list the guard
    pins without de-arming, so the spine kept storing rows that the
    event-driven path drops for want of a subscriber."""
    world, result = _hmmer_campaign(
        lambda w: w.fabric.l2.streams.unsubscribe(
            STREAM_TAG, w.store.on_message)
    )
    assert world.spine.stats.dearms == 1 and world.spine.stats.rows == 0
    published = result.connector.stats.messages_published
    assert published > 0
    assert world.store.objects_stored == 0
    bus = world.fabric.l2.streams.stats
    assert bus.dropped_no_subscriber == published
    assert bus.delivered == 0


def test_slow_store_episode_dearms_the_spine():
    """Regression: a slow episode defers ingest, but the armed spine
    stored straight through it."""
    world, result = _hmmer_campaign(lambda w: w.store.begin_slow_episode())
    assert world.spine.stats.dearms == 1 and world.spine.stats.rows == 0
    published = result.connector.stats.messages_published
    assert world.store.objects_stored == 0
    assert world.store.slow_pending == published > 0


def test_stored_subscription_dearms_the_spine():
    """A ``stored`` observer needs per-message landings: subscribing one
    after the spine armed de-arms it before any row goes express, and
    every message still lands once, in front of the observer."""
    landed = []
    world, result = _hmmer_campaign(
        lambda w: w.env.observers.subscribe(
            stored=lambda t, message, n_rows: landed.append(message.trace_id))
    )
    assert world.spine.stats.dearms == 1 and world.spine.stats.rows == 0
    published = result.connector.stats.messages_published
    assert published > 0
    assert len(landed) == len(set(landed)) == published
    assert world.fabric.l2.streams.stats.delivered == published


def test_columnar_requires_fast_lane():
    """``columnar`` survives only as a keyword that must agree with
    the lane; it is not a field and is stored nowhere.  The connector
    has no lane switch of its own (it follows its world's daemons), so
    only ``columnar=True`` constructs one and ``False`` points at the
    world's switch."""
    connector_fields = {f.name for f in dataclasses.fields(ConnectorConfig)}
    assert not {"columnar", "fast_lane"} & connector_fields
    assert ConnectorConfig(columnar=True) == ConnectorConfig()
    with pytest.raises(ValueError, match=r"WorldConfig\(fast_lane=False\)"):
        ConnectorConfig(columnar=False)
    assert "columnar" not in {f.name for f in dataclasses.fields(WorldConfig)}
    assert WorldConfig(columnar=True) == WorldConfig()
    assert (WorldConfig(columnar=False, fast_lane=False)
            == WorldConfig(fast_lane=False))
    for columnar, fast in ((True, False), (False, True)):
        with pytest.raises(ValueError, match="fast_lane"):
            WorldConfig(columnar=columnar, fast_lane=fast)
    world = World(WorldConfig(seed=1, quiet=True, n_compute_nodes=2,
                              columnar=True))
    assert world.spine.armed
