"""Tests for message assembly and the formatting cost model."""

import json

import pytest

from repro.core import (
    FormatCostModel,
    MESSAGE_FIELDS,
    METRIC_DEFINITIONS,
    MessageBuilder,
    SEG_FIELDS,
)
from repro.core.json_format import ColumnarFormatted
from repro.darshan.runtime import IOEvent
from repro.fs.posix import IOContext


def _event(op="write", module="POSIX", hdf5=None, **kw):
    ctx = IOContext(
        job_id=259903,
        uid=99066,
        rank=3,
        node_name="nid00046",
        exe="/apps/mpi-io-test",
        app="mpi-io-test",
    )
    defaults = dict(
        module=module,
        op=op,
        path="/scratch/mpi-io-test.tmp.dat",
        record_id=1601543006480906062,
        context=ctx,
        offset=0,
        nbytes=16777216,
        start=1650000000.0,
        end=1650000000.125,
        cnt=2,
        switches=0,
        flushes=-1,
        max_byte=16777215,
        hdf5=hdf5,
    )
    defaults.update(kw)
    return IOEvent(**defaults)


def test_message_field_order_matches_figure3():
    msg = MessageBuilder().message_dict(_event())
    assert tuple(msg) == MESSAGE_FIELDS
    assert tuple(msg["seg"][0]) == SEG_FIELDS


def test_metric_definitions_cover_message_fields():
    for f in MESSAGE_FIELDS:
        assert f in METRIC_DEFINITIONS
    for f in SEG_FIELDS:
        assert f"seg:{f}" in METRIC_DEFINITIONS or f in ("off", "len", "dur")


def test_open_event_is_met_with_absolute_paths():
    msg = MessageBuilder().message_dict(_event(op="open", nbytes=0, max_byte=-1))
    assert msg["type"] == "MET"
    assert msg["exe"] == "/apps/mpi-io-test"
    assert msg["file"] == "/scratch/mpi-io-test.tmp.dat"


def test_data_event_is_mod_with_na_paths():
    msg = MessageBuilder().message_dict(_event(op="write"))
    assert msg["type"] == "MOD"
    assert msg["exe"] == "N/A"
    assert msg["file"] == "N/A"


def test_posix_event_has_hdf5_sentinels():
    msg = MessageBuilder().message_dict(_event())
    seg = msg["seg"][0]
    assert seg["data_set"] == "N/A"
    assert seg["pt_sel"] == -1
    assert seg["ndims"] == -1


def test_h5d_event_carries_dataset_metadata():
    h5 = {
        "data_set": "u",
        "ndims": 3,
        "npoints": 4096,
        "pt_sel": 0,
        "reg_hslab": 2,
        "irreg_hslab": 0,
    }
    msg = MessageBuilder().message_dict(_event(module="H5D", hdf5=h5))
    seg = msg["seg"][0]
    assert seg["data_set"] == "u"
    assert seg["ndims"] == 3
    assert seg["npoints"] == 4096
    assert seg["reg_hslab"] == 2


def test_seg_timestamp_is_absolute_end_time():
    msg = MessageBuilder().message_dict(_event())
    seg = msg["seg"][0]
    assert seg["timestamp"] == 1650000000.125
    assert seg["dur"] == pytest.approx(0.125)
    assert seg["len"] == 16777216


def test_format_json_round_trips():
    fm = MessageBuilder().format(_event())
    parsed = json.loads(fm.payload)
    assert parsed["module"] == "POSIX"
    assert parsed["seg"][0]["len"] == 16777216


def test_numeric_field_count():
    builder = MessageBuilder()
    msg = builder.message_dict(_event())
    n = builder.count_numeric_fields(msg)
    # Top level: uid, job_id, rank, record_id, max_byte, switches,
    # flushes, cnt = 8; seg: pt_sel, irreg, reg, ndims, npoints, off,
    # len, dur, timestamp = 9.  Total 17.
    assert n == 17


def test_format_cost_scales_with_numeric_fields():
    model = FormatCostModel(base_s=0.0, per_numeric_field_s=1e-5, per_char_s=0.0)
    assert model.cost(10, 0) == pytest.approx(1e-4)
    assert model.cost(20, 0) == pytest.approx(2e-4)
    with pytest.raises(ValueError):
        model.cost(-1, 0)


def test_format_none_mode_is_cheap():
    builder = MessageBuilder()
    fm_json = builder.format(_event(), mode="json")
    fm_none = builder.format(_event(), mode="none")
    assert fm_none.format_cost_s < fm_json.format_cost_s / 50
    assert fm_none.numeric_conversions == 0
    assert fm_none.payload == ""


def test_format_unknown_mode_rejected():
    with pytest.raises(ValueError):
        MessageBuilder().format(_event(), mode="xml")


def test_default_cost_magnitude_matches_paper():
    """~17 numeric fields × 25 µs ≈ 0.43 ms/event, the HMMER-implied cost."""
    fm = MessageBuilder().format(_event())
    assert 2e-4 < fm.format_cost_s < 1e-3


# -- fast-lane golden tests ---------------------------------------------------
#
# The template-compiled serializer memoizes per message *shape*: the
# static-field prefix, the numeric-conversion count, and the statics the
# DSOS store compiles its row spec from.  These goldens pin every cached
# quantity to a fresh slow-path walk for each shape the connector emits:
# MET (open, absolute paths), MOD (data, N/A paths) and the HDF5
# segment variant.

_GOLDEN_SHAPES = {
    "met": dict(op="open", nbytes=0, max_byte=-1),
    "mod": dict(op="write"),
    "hdf5": dict(
        module="H5D",
        hdf5={
            "data_set": "u", "ndims": 3, "npoints": 4096,
            "pt_sel": 0, "reg_hslab": 2, "irreg_hslab": 0,
        },
    ),
}


def _fast(builder, event):
    """The fast lane's formatting of ``event``."""
    fm = builder.format_columnar(event)
    assert type(fm) is ColumnarFormatted  # the shape compiled
    return fm


@pytest.mark.parametrize("shape", sorted(_GOLDEN_SHAPES))
def test_fast_lane_payload_matches_slow_walk(shape):
    event = _event(**_GOLDEN_SHAPES[shape])
    fast = _fast(MessageBuilder(), event)
    slow = MessageBuilder().format(event)
    # byte-identical serialization, rendered on demand from the values
    assert fast.shape.render(fast.values)[0] == slow.payload
    assert fast.payload_chars == len(slow.payload)
    assert fast.format_cost_s == slow.format_cost_s


@pytest.mark.parametrize("shape", sorted(_GOLDEN_SHAPES))
def test_fast_lane_numeric_count_matches_fresh_walk(shape):
    event = _event(**_GOLDEN_SHAPES[shape])
    builder = MessageBuilder()
    # Warm the shape cache, then format again so the memoized count is
    # what gets compared — not the first-call compile.
    _fast(builder, event)
    fm = _fast(builder, event)
    fresh = MessageBuilder.count_numeric_fields(
        MessageBuilder().message_dict(event)
    )
    assert fm.numeric_conversions == fresh


@pytest.mark.parametrize("shape", sorted(_GOLDEN_SHAPES))
def test_fast_lane_parsed_sidecar_equals_json_loads(shape, dsos_store):
    """The DSOS store's rows for a fast-lane row, built from its shape
    and values with no payload and no message dict, equal the reference
    walk of the reference payload: ``json.loads`` then ``_flatten``."""
    event = _event(**_GOLDEN_SHAPES[shape])
    builder = MessageBuilder()
    _fast(builder, event)  # warm the cache; second call uses templates
    fm = _fast(builder, event)
    rows = dsos_store.columnar_rows(fm.shape, fm.values)
    # The rows came from the store's compiled per-shape spec: a spec
    # that failed its self-check would hand back the reference rows.
    assert dsos_store._columnar_plans[id(fm.shape)][1] is not None
    payload = MessageBuilder().format(event).payload
    reference = list(dsos_store._flatten(json.loads(payload)))
    assert rows == reference
    # Key order too: both walk the schema's attributes in order.
    assert [list(row) for row in rows] == [list(row) for row in reference]


def test_debug_mode_cross_checks_every_columnar_message():
    """``REPRO_FORMAT_DEBUG``'s per-message check lives in
    format_columnar: it passes on a good template, fires on a bad one."""
    event = _event()
    builder = MessageBuilder(debug=True)
    assert type(builder.format_columnar(event)) is ColumnarFormatted
    shape = builder._shapes[builder._shape_key(event)]
    shape.statics = (shape.statics[0] + " ",) + shape.statics[1:]
    with pytest.raises(AssertionError):
        builder.format_columnar(event)
