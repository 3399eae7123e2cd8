"""The column-wise serializer and the de-armed spine: no divergence.

The fast lane formats each event column-wise (a compiled shape plus
its slot values) and, when the express spine cannot arm, publishes it
as a lazily rendered :class:`~repro.core.batch.ColumnarMessage`.
These tests pin both halves against the reference lane:

* property tests over random events — ``format_columnar``'s accounting
  (numeric conversions, payload chars, cost) equals ``format()``'s,
  and the ColumnarMessage built from it renders the byte-identical
  payload, its parsed sidecar and the same ``size_bytes``;
* a de-armed campaign (a foreign L2 subscriber) — the per-message
  ColumnarMessage path produces the byte-identical payload stream of
  the slow lane, and de-arming by subscription is indistinguishable
  from de-arming by an explicit ``dearm()`` before the job.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core import MessageBuilder
from repro.core.batch import ColumnarMessage
from repro.core.json_format import ColumnarFormatted

from tests.property.test_fastlane_properties import (
    _PLAIN,
    _events,
    _hmmer_campaign,
)


# ------------------------------------------------------ random events


@given(events=st.lists(_events(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_columnar_serializer_accounting_is_identical(events):
    columnar = MessageBuilder()
    reference = MessageBuilder()
    for event in events:
        ref = reference.format(event)
        fm = columnar.format_columnar(event)
        if type(fm) is not ColumnarFormatted:
            continue  # shape self-check fell back; format() covers it
        assert fm.numeric_conversions == ref.numeric_conversions
        assert fm.payload_chars == len(ref.payload)
        assert fm.format_cost_s == ref.format_cost_s
        # The fallback message the connector publishes when the spine
        # is de-armed: same size on the wire, same bytes when read.
        msg = ColumnarMessage("darshanConnector", fm.shape, fm.values,
                              fm.payload_chars)
        assert msg.size_bytes == len(ref.payload)
        assert msg.payload == ref.payload
        assert msg.parsed == json.loads(ref.payload)


# ------------------------------------------------ de-armed spine path


def test_dearmed_columnar_payload_stream_is_byte_identical():
    slow, _ = _hmmer_campaign("slow", subscribe=True)
    explicit, _ = _hmmer_campaign("event", subscribe=True)
    columnar, world = _hmmer_campaign("spine", subscribe=True)
    # The subscriber de-armed the spine pre-run: this run exercised the
    # per-message ColumnarMessage fallback end to end.
    assert world.spine.stats.dearms == 1
    assert world.spine.stats.rows == 0
    assert columnar["seen"] == slow["seen"]
    assert len(columnar["seen"]) > 0
    for key in _PLAIN:
        assert columnar[key] == slow[key], key
    # De-arming by subscription and by an explicit dearm() run the same
    # simulation, down to the daemons' counters.
    for key in (*_PLAIN, "seen", "daemons", "stored"):
        assert columnar[key] == explicit[key], key
