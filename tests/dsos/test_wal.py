"""WAL checksums and torn-tail recovery: truncate, don't trust.

Covers both write-ahead logs in :mod:`repro.dsos.journal` — the store
plugin's dedup :class:`IngestJournal` and the per-``dsosd``
:class:`StoreWal` — plus the shared recovery discipline: every record
carries a CRC-32; a torn write or corrupt record invalidates itself
*and everything after it*, and recovery replays only the longest clean
prefix, reporting the bytes it refused.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsos.journal import (
    Admission,
    IngestJournal,
    StoreWal,
    WalEntry,
    WalRecord,
    recover_entries,
)


# --------------------------------------------------------- WalEntry


def test_wal_entry_roundtrip():
    entry = WalEntry.make(1.25, "7:3:12")
    assert entry.valid
    decoded = WalEntry.decode(entry.encode().rstrip(b"\n"))
    assert decoded == entry


def test_wal_entry_checksum_mismatch_rejected():
    entry = WalEntry.make(1.25, "7:3:12")
    line = entry.encode().rstrip(b"\n")
    # Flip one payload byte: the stored checksum no longer matches.
    corrupt = line.replace(b"7:3:12", b"7:3:13")
    assert WalEntry.decode(corrupt) is None
    assert WalEntry(1.25, "7:3:12", checksum=0).valid is False


def test_wal_entry_malformed_lines_rejected():
    assert WalEntry.decode(b"garbage") is None
    assert WalEntry.decode(b"not-a-float|tid|00000000") is None
    assert WalEntry.decode(b"1.0|tid|zzzz") is None


# --------------------------------------------------------- WalRecord


def test_wal_record_roundtrip_preserves_object():
    obj = {"job_id": 9, "rank": 2, "timestamp": 3.5, "op": "write"}
    record = WalRecord.make(41, "events", obj, trace_id="9:2:41")
    decoded = WalRecord.decode(record.encode().rstrip(b"\n"))
    assert decoded == record
    assert decoded.obj == obj


def test_wal_record_payload_may_contain_separator():
    # ``|`` inside a string value must not break the framing: decode
    # splits from both ends so only the payload absorbs separators.
    obj = {"job_id": 1, "rank": 0, "timestamp": 0.5, "op": "a|b|c"}
    record = WalRecord.make(0, "events", obj)
    decoded = WalRecord.decode(record.encode().rstrip(b"\n"))
    assert decoded is not None
    assert decoded.obj == obj


def test_wal_record_corruption_rejected():
    record = WalRecord.make(3, "events", {"x": 1}, trace_id="t")
    line = record.encode().rstrip(b"\n")
    assert WalRecord.decode(line.replace(b'"x":1', b'"x":2')) is None
    assert WalRecord.decode(b"only|three|fields") is None


# --------------------------------------------------- recover_entries


def _log(n, torn_tail_bytes=0):
    wal = StoreWal()
    for seq in range(n):
        wal.append(seq, "events", {"seq": seq}, trace_id=f"t{seq}")
    if torn_tail_bytes:
        wal.tear_tail(torn_tail_bytes)
    return wal


def test_clean_log_recovers_every_record():
    wal = _log(5)
    recovery = wal.recover()
    assert [r.seq for r in recovery.entries] == [0, 1, 2, 3, 4]
    assert recovery.truncated_bytes == 0
    assert not recovery.truncated


def test_mid_entry_torn_write_truncates_last_record():
    # The crash landed mid-append: a few bytes of the final record
    # (including its trailing newline) never hit disk.
    wal = _log(4, torn_tail_bytes=7)
    recovery = wal.recover()
    assert [r.seq for r in recovery.entries] == [0, 1, 2]
    assert recovery.truncated
    assert recovery.truncated_bytes > 0


def test_tear_inside_checksum_field_still_detected():
    wal = _log(3)
    # Tear exactly one byte: the newline survives on no record, so the
    # last line loses only its terminator? No — chop 2 bytes so the
    # line keeps no newline and cannot terminate.
    wal.tear_tail(2)
    recovery = wal.recover()
    assert [r.seq for r in recovery.entries] == [0, 1]


def test_corrupt_middle_record_truncates_everything_after():
    wal = _log(5)
    data = bytearray(bytes(wal._buf))
    # Flip a byte inside the third record's payload: records 3..4 still
    # decode individually, but must never be trusted past the tear.
    lines = bytes(data).split(b"\n")
    lines[2] = lines[2].replace(b'"seq":2', b'"seq":9')
    corrupted = b"\n".join(lines)
    recovery = recover_entries(corrupted, WalRecord.decode)
    assert [r.seq for r in recovery.entries] == [0, 1]
    assert recovery.truncated_bytes == len(corrupted) - sum(
        len(line) + 1 for line in lines[:2]
    )


def test_recover_physically_truncates_refused_tail():
    wal = _log(3, torn_tail_bytes=5)
    first = wal.recover()
    assert first.truncated
    # Appends after recovery never interleave with untrusted bytes: a
    # second recovery replays the salvaged prefix plus the new record.
    wal.append(99, "events", {"seq": 99}, trace_id="t99")
    second = wal.recover()
    assert [r.seq for r in second.entries] == [0, 1, 99]
    assert second.truncated_bytes == 0


def test_store_wal_counters():
    wal = _log(4, torn_tail_bytes=3)
    assert wal.records_appended == 4
    assert wal.torn_writes == 1
    assert len(wal) == 4
    with pytest.raises(ValueError):
        wal.tear_tail(0)


# ----------------------------------------------------- IngestJournal


class _Env:
    def __init__(self):
        self.now = 0.0


def test_ingest_journal_wal_roundtrip():
    env = _Env()
    journal = IngestJournal(env)
    for i in range(4):
        env.now = 0.1 * i
        assert journal.admit(f"1:0:{i}")
    assert not journal.admit("1:0:2")  # duplicate
    assert journal.duplicates_skipped == 1

    replica = IngestJournal(_Env())
    recovery = replica.replay(journal.to_bytes())
    assert not recovery.truncated
    assert len(replica) == 4
    assert "1:0:3" in replica
    assert not replica.admit("1:0:3")  # dedup index survived the replay


def test_ingest_journal_replay_truncates_torn_tail():
    env = _Env()
    journal = IngestJournal(env)
    for i in range(3):
        journal.admit(f"5:1:{i}")
    data = journal.to_bytes()[:-4]  # torn mid-final-record

    replica = IngestJournal(_Env())
    recovery = replica.replay(data)
    assert recovery.truncated
    assert [e.trace_id for e in recovery.entries] == ["5:1:0", "5:1:1"]
    # The torn-off admission is unknown to the replica: it re-admits.
    assert replica.admit("5:1:2")


# The journal logs lightweight ``(t, trace_id)`` admissions and builds
# the checksummed records only when serialized; the bytes must be the
# ones a log of eagerly built ``WalEntry`` records always had.

#: ``to_bytes`` of the journal built in the test below, as the
#: eager-``WalEntry`` journal wrote it.
_GOLDEN_LOG = (
    b"0.0|3:0:0|ae4b1d26\n0.1|3:1:7|979ae906\n1e-07|3:2:14|18c058b8\n"
    b"2.5|3:3:21|3de93262\n1.25|3:9:1|490111c1\n"
)


def test_ingest_journal_bytes_match_the_eager_encoding():
    env = _Env()
    journal = IngestJournal(env)
    for i, t in enumerate([0.0, 0.1, 1e-7, 2.5]):
        env.now = t
        assert journal.admit(f"3:{i}:{i * 7}")
    assert journal.admit_at("3:9:1", 1.25)
    assert not journal.admit("3:0:0")
    assert not journal.admit_at("3:9:1", 9.0)
    assert journal.admit("")  # untraced: admitted, unlogged
    assert journal.to_bytes() == _GOLDEN_LOG
    assert journal.wal[-1] == Admission(1.25, "3:9:1")
    assert [(e.t, e.trace_id) for e in journal.wal] == [
        (0.0, "3:0:0"), (0.1, "3:1:7"), (1e-7, "3:2:14"), (2.5, "3:3:21"),
        (1.25, "3:9:1"),
    ]


def _eager_record(t: float, trace_id: str) -> bytes:
    """One admission record, spelled out: ``repr(t)|id|crc32 hex``."""
    payload = f"{t!r}|{trace_id}"
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{payload}|{crc:08x}\n".encode()


@settings(max_examples=200, deadline=None)
@given(
    admissions=st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.from_regex(r"[0-9]{1,4}:[0-9]{1,3}:[0-9]{1,6}", fullmatch=True),
        ),
        max_size=20,
    ),
)
def test_ingest_journal_serializes_and_replays_byte_identically(admissions):
    journal = IngestJournal(_Env())
    want = []
    for t, trace_id in admissions:
        if journal.admit_at(trace_id, t):
            want.append(_eager_record(t, trace_id))
            assert journal.wal[-1] == (t, trace_id)
    data = journal.to_bytes()
    assert data == b"".join(want)
    assert data == b"".join(
        WalEntry.make(t, trace_id).encode() for t, trace_id in journal.wal
    )

    replica = IngestJournal(_Env())
    recovery = replica.replay(data)
    assert not recovery.truncated
    assert replica.wal == journal.wal
    assert all(type(e) is Admission for e in replica.wal)
    assert replica.to_bytes() == data
