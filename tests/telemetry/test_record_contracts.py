"""Contracts of the telemetry record types and the trace-id parser.

``HopRecord`` is a named tuple and ``MessageTrace`` a slotted dataclass
for speed; these tests pin what callers may rely on regardless of that
representation, and pin ``parse_trace_id`` to the reference rule it
replaced (split on ``:``, then every part ASCII and all digits).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.trace import HopRecord, MessageTrace, parse_trace_id


def _reference_parse(trace_id, strict=False):
    """The original generator-based rule, kept as the oracle."""
    parts = trace_id.split(":") if isinstance(trace_id, str) else None
    if parts is not None and len(parts) == 3:
        if all(p.isascii() and p.isdigit() for p in parts):
            job_id, rank, seq = (int(p) for p in parts)
            return job_id, rank, seq
    if strict:
        raise ValueError(f"malformed trace id {trace_id!r}")
    return None


# -- HopRecord ----------------------------------------------------------------


def test_hop_record_field_order():
    assert HopRecord._fields == ("stage", "node", "t_in", "t_out", "outcome")
    rec = HopRecord("forward", "n1", 1.0, 2.5, "forwarded")
    assert (rec.stage, rec.node, rec.t_in, rec.t_out, rec.outcome) == (
        "forward", "n1", 1.0, 2.5, "forwarded",
    )
    assert rec == HopRecord(
        stage="forward", node="n1", t_in=1.0, t_out=2.5, outcome="forwarded"
    )


def test_hop_record_repr():
    rec = HopRecord("bus", "nid00001", 0.5, 0.75, "delivered")
    assert repr(rec) == (
        "HopRecord(stage='bus', node='nid00001', t_in=0.5, t_out=0.75, "
        "outcome='delivered')"
    )


@pytest.mark.parametrize("field", HopRecord._fields)
def test_hop_record_is_immutable(field):
    rec = HopRecord("bus", "n1", 0.0, 0.0, "delivered")
    with pytest.raises(AttributeError):
        setattr(rec, field, "x")
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_hop_record_hash_and_equality():
    a = HopRecord("ingest", "shirley", 3.0, 3.0, "stored")
    b = HopRecord("ingest", "shirley", 3.0, 3.0, "stored")
    c = HopRecord("ingest", "shirley", 3.0, 3.0, "dup_ignored")
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert {a: 1}[b] == 1


def test_hop_record_properties():
    ok = HopRecord("forward", "n1", 1.25, 2.0, "forwarded")
    drop = HopRecord("forward", "n1", 2.0, 2.0, "drop_overflow")
    assert ok.latency_s == 0.75
    assert not ok.is_drop and drop.is_drop
    assert ok.site == ("forward", "n1", "forwarded")
    assert drop.site == ("forward", "n1", "drop_overflow")


# -- MessageTrace ---------------------------------------------------------------


def test_message_trace_rejects_unknown_attributes():
    trace = MessageTrace("1:0:0", 1, 0, t_begin=0.0)
    with pytest.raises(AttributeError):
        trace.hop_count = 3
    trace.hops.append(HopRecord("ingest", "s", 1.0, 1.0, "stored"))
    assert trace.status == "stored"


def test_message_trace_hops_are_not_shared():
    a = MessageTrace("1:0:0", 1, 0, t_begin=0.0)
    b = MessageTrace("1:0:1", 1, 0, t_begin=0.0)
    a.hops.append(HopRecord("bus", "n", 0.0, 0.0, "delivered"))
    assert b.hops == []


# -- parse_trace_id -------------------------------------------------------------

#: ASCII digits, Unicode digits ``int()`` would accept (Arabic-Indic
#: three, fullwidth one), a digit ``int()`` rejects (superscript two),
#: signs, underscores, spaces and the separator itself.
_ALPHABET = list("0123456789") + ["٣", "１", "²", "+", "-", "_", " ", ":"]

_ids = st.one_of(
    st.text(alphabet=st.sampled_from(_ALPHABET), max_size=14),
    st.lists(
        st.text(alphabet=st.sampled_from(_ALPHABET), max_size=4),
        min_size=1, max_size=5,
    ).map(":".join),
    st.tuples(
        st.integers(0, 10**20), st.integers(0, 10**6), st.integers(0, 10**20)
    ).map(lambda t: ":".join(map(str, t))),
)


@given(_ids)
def test_parse_trace_id_matches_reference_rule(trace_id):
    assert parse_trace_id(trace_id) == _reference_parse(trace_id)


@given(_ids)
def test_parse_trace_id_strict_matches_reference_rule(trace_id):
    try:
        expected = _reference_parse(trace_id, strict=True)
    except ValueError:
        with pytest.raises(ValueError, match="malformed trace id"):
            parse_trace_id(trace_id, strict=True)
    else:
        assert parse_trace_id(trace_id, strict=True) == expected


@pytest.mark.parametrize("bad", [None, 12, 1.5, b"1:2:3", ("1", "2", "3")])
def test_parse_trace_id_non_strings(bad):
    assert parse_trace_id(bad) is None
    with pytest.raises(ValueError, match="malformed trace id"):
        parse_trace_id(bad, strict=True)
