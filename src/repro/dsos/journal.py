"""Write-ahead journals for the DSOS store: dedup WAL + daemon WAL.

Two write-ahead logs live here.  The :class:`IngestJournal` makes the
store *plugin*'s ingest idempotent: every message is admitted exactly
once, keyed on its deterministic ``job:rank:seq`` trace id, and the
admission is logged *before* the insert happens — so the WAL is a
complete, ordered record of what the store committed to landing, and a
duplicate arriving at any later time (even mid-flush of a deferred
batch) is recognized and skipped.  A write the store rejects (no live
replica) withdraws its admission, so a resend of it lands.

The :class:`StoreWal` is the per-``dsosd`` durability log: each applied
object is appended (sequence number, schema, payload, originating trace
id) *before* it becomes visible, so a crashed daemon can rebuild its
in-memory shard by replaying the log on restart.

Both logs serialize entries with a CRC-32 checksum per record and share
the same recovery discipline: **truncate, don't trust**.  A torn write
(the crash landed mid-append) or a corrupt record invalidates that
record and everything after it — recovery replays the longest clean
prefix and reports how many bytes it refused to trust, and the
anti-entropy repair pass (peer replicas) recovers whatever the torn
tail lost.
"""

from __future__ import annotations

__all__ = [
    "Admission",
    "IngestJournal",
    "StoreWal",
    "WalEntry",
    "WalRecovery",
    "WalRecord",
]

import json
import zlib
from dataclasses import dataclass
from typing import NamedTuple


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


@dataclass(frozen=True)
class WalEntry:
    """One serialized admission: the store committed to landing this
    message (the journal keeps :class:`Admission` records and builds
    these only in :meth:`IngestJournal.to_bytes`).

    ``checksum`` covers the ``(t, trace_id)`` payload; a recovery pass
    recomputes it and refuses any record (and every record after it)
    whose stored checksum disagrees.
    """

    t: float
    trace_id: str
    checksum: int = -1

    @staticmethod
    def compute_checksum(t: float, trace_id: str) -> int:
        return _crc(f"{t!r}|{trace_id}")

    @classmethod
    def make(cls, t: float, trace_id: str) -> "WalEntry":
        return cls(t, trace_id, cls.compute_checksum(t, trace_id))

    @property
    def valid(self) -> bool:
        return self.checksum == self.compute_checksum(self.t, self.trace_id)

    def encode(self) -> bytes:
        """One serialized record (newline-terminated)."""
        return f"{self.t!r}|{self.trace_id}|{self.checksum:08x}\n".encode()

    @classmethod
    def decode(cls, line: bytes) -> "WalEntry | None":
        """Parse one record; ``None`` for malformed/corrupt lines."""
        try:
            t_text, trace_id, crc_text = line.decode("utf-8").split("|")
        except (ValueError, UnicodeDecodeError):
            return None
        try:
            entry = cls(float(t_text), trace_id, int(crc_text, 16))
        except ValueError:
            return None
        return entry if entry.valid else None


@dataclass(frozen=True)
class WalRecovery:
    """What a replay pass salvaged from one serialized WAL."""

    entries: tuple
    #: Bytes past the last clean record that recovery refused to trust
    #: (0 on a clean log).
    truncated_bytes: int

    @property
    def truncated(self) -> bool:
        return self.truncated_bytes > 0


def recover_entries(data: bytes, decode) -> WalRecovery:
    """Replay the longest clean prefix of a serialized log.

    ``decode`` maps one record line (without newline) to an entry or
    ``None``; the first undecodable record — torn mid-write or failing
    its checksum — truncates the log there.  Records *after* a corrupt
    one are never trusted even if they individually decode: a torn
    region's length is unknown, so byte offsets past it are meaningless.
    """
    entries = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: no terminator
        entry = decode(data[offset:newline])
        if entry is None:
            break
        entries.append(entry)
        offset = newline + 1
    return WalRecovery(tuple(entries), len(data) - offset)


class Admission(NamedTuple):
    """One logged admission: the instant and the trace id.  Its
    checksummed :class:`WalEntry` is built only when the log is
    serialized (:meth:`IngestJournal.to_bytes`)."""

    t: float
    trace_id: str


class IngestJournal:
    """Dedup index + write-ahead log for one store plugin."""

    def __init__(self, env):
        self.env = env
        self._seen: set[str] = set()
        self.wal: list[Admission] = []
        self.duplicates_skipped = 0

    def admit(self, trace_id: str) -> bool:
        """Journal ``trace_id``; False if it was already admitted.

        Untraced messages (empty id) cannot be deduplicated and are
        always admitted, unlogged.
        """
        return self.admit_at(trace_id, self.env.now)

    def admit_at(self, trace_id: str, t: float) -> bool:
        """:meth:`admit` with an explicit admission instant.

        The express spine lands messages at virtual completion times
        the engine clock has not necessarily reached; the WAL entry
        must carry the delivery instant, not ``env.now``.
        """
        if not trace_id:
            return True
        if trace_id in self._seen:
            self.duplicates_skipped += 1
            return False
        self._seen.add(trace_id)
        self.wal.append(Admission(t, trace_id))
        return True

    def withdraw(self, trace_id: str) -> None:
        """Undo ``trace_id``'s admission: the store rejected its write,
        so the WAL must not record it as committed and a resend of it
        is not a duplicate."""
        if trace_id not in self._seen:
            return
        self._seen.remove(trace_id)
        wal = self.wal
        for i in range(len(wal) - 1, -1, -1):
            if wal[i].trace_id == trace_id:
                del wal[i]
                return

    def to_bytes(self) -> bytes:
        """The WAL as one serialized, checksummed log."""
        make = WalEntry.make
        return b"".join(make(t, trace_id).encode() for t, trace_id in self.wal)

    def replay(self, data: bytes) -> WalRecovery:
        """Rebuild the dedup index from a serialized WAL.

        Replays the longest clean prefix (truncate-don't-trust) into
        ``_seen``/``wal`` and returns what was salvaged.  Existing state
        is replaced — replay models a restart, not a merge.
        """
        recovery = recover_entries(data, WalEntry.decode)
        self.wal = [Admission(e.t, e.trace_id) for e in recovery.entries]
        self._seen = {entry.trace_id for entry in recovery.entries}
        return recovery

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._seen

    def __len__(self) -> int:
        return len(self.wal)


@dataclass(frozen=True)
class WalRecord:
    """One ``dsosd`` WAL record: an applied object, checksummed."""

    seq: int
    schema: str
    payload: str  # canonical JSON of the object
    trace_id: str
    checksum: int = -1

    @staticmethod
    def compute_checksum(seq: int, schema: str, payload: str,
                         trace_id: str) -> int:
        return _crc(f"{seq}|{schema}|{payload}|{trace_id}")

    @classmethod
    def make(cls, seq: int, schema: str, obj: dict,
             trace_id: str = "") -> "WalRecord":
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return cls(seq, schema, payload, trace_id,
                   cls.compute_checksum(seq, schema, payload, trace_id))

    @property
    def valid(self) -> bool:
        return self.checksum == self.compute_checksum(
            self.seq, self.schema, self.payload, self.trace_id
        )

    @property
    def obj(self) -> dict:
        return json.loads(self.payload)

    def encode(self) -> bytes:
        return (
            f"{self.seq}|{self.schema}|{self.payload}|{self.trace_id}"
            f"|{self.checksum:08x}\n"
        ).encode()

    @classmethod
    def decode(cls, line: bytes) -> "WalRecord | None":
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        # The JSON payload may itself contain ``|`` inside strings, but
        # canonical payloads here never do (schema attrs are identifiers
        # and values are numbers / simple strings); keep the framing
        # honest anyway: split from both ends so only the payload field
        # may absorb extra separators.
        parts = text.split("|")
        if len(parts) < 5:
            return None
        seq_text, schema = parts[0], parts[1]
        trace_id, crc_text = parts[-2], parts[-1]
        payload = "|".join(parts[2:-2])
        try:
            record = cls(int(seq_text), schema, payload, trace_id,
                         int(crc_text, 16))
        except ValueError:
            return None
        return record if record.valid else None


class StoreWal:
    """Per-``dsosd`` append-only object log with torn-tail recovery.

    The byte buffer is the "disk": :meth:`append` serializes each
    record eagerly (a crash preserves the buffer, not the daemon's
    in-memory state), :meth:`tear_tail` simulates a crash landing
    mid-append by chopping bytes off the end, and :meth:`recover`
    replays the longest clean prefix.
    """

    def __init__(self):
        self._buf = bytearray()
        self.records_appended = 0
        self.torn_writes = 0

    def append(self, seq: int, schema: str, obj: dict,
               trace_id: str = "") -> WalRecord:
        record = WalRecord.make(seq, schema, obj, trace_id)
        self.append_frame(record.encode())
        return record

    def append_frame(self, frame: bytes) -> None:
        """Append one already-encoded record (:meth:`WalRecord.encode`):
        a replicated write encodes once and every replica appends the
        same bytes."""
        self._buf += frame
        self.records_appended += 1

    def tear_tail(self, drop_bytes: int = 7) -> None:
        """Simulate a torn write: the last ``drop_bytes`` never hit disk."""
        if drop_bytes <= 0:
            raise ValueError("drop_bytes must be positive")
        del self._buf[max(0, len(self._buf) - drop_bytes):]
        self.torn_writes += 1

    def recover(self) -> WalRecovery:
        """Replay the longest clean prefix (truncate-don't-trust).

        The refused tail is also physically truncated from the buffer,
        so later appends never interleave with untrusted bytes.
        """
        recovery = recover_entries(bytes(self._buf), WalRecord.decode)
        if recovery.truncated_bytes:
            del self._buf[len(self._buf) - recovery.truncated_bytes:]
        return recovery

    def __len__(self) -> int:
        return self.records_appended
