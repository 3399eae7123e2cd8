"""Trace primitives: deterministic message trace ids and hop records.

Every connector message gets a trace id derived purely from
``(job_id, rank, seq)`` — no wall clock, no RNG — so stamping traces
cannot perturb a seeded campaign.  As the message moves through the
pipeline (local bus, forwarder outboxes, aggregator relays, DSOS
ingest) each instrumented stage appends a :class:`HopRecord`; the full
hop list for one message is a :class:`MessageTrace`, from which both
the end-to-end latency and — for lost messages — the exact drop site
fall out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "HopRecord",
    "MessageTrace",
    "make_trace_id",
    "parse_trace_id",
    "RECOVERY_OUTCOMES",
    "STAGE_BUS",
    "STAGE_FORWARD",
    "STAGE_INGEST",
    "STAGE_PUBLISH",
    "STAGE_RECEIVE",
    "DELIVERED",
    "DROP_DAEMON_FAILED",
    "DROP_DEAD_LETTER",
    "DROP_NO_SUBSCRIBER",
    "DROP_OVERFLOW",
    "DROP_PARSE_ERROR",
    "DROP_STORE_DOWN",
    "DUP_IGNORED",
    "FAILOVER",
    "FORWARDED",
    "PUBLISHED",
    "QUORUM_DEGRADED",
    "REDELIVERED",
    "REPAIR_PULLED",
    "REPLAYED",
    "SPILLED",
    "STORED",
    "WAL_REPLAYED",
]

# -- hop stages (in pipeline order) ----------------------------------------

STAGE_PUBLISH = "publish"  # app rank -> local ldmsd (publish cost charged)
STAGE_BUS = "bus"  # delivery on one daemon's StreamsBus
STAGE_FORWARD = "forward"  # outbox wait + batched network transfer
STAGE_RECEIVE = "receive"  # arrival at a peer daemon
STAGE_INGEST = "ingest"  # terminal store plugin (DSOS)

# -- hop outcomes ----------------------------------------------------------

PUBLISHED = "published"
DELIVERED = "delivered"
FORWARDED = "forwarded"
STORED = "stored"
#: Drop outcomes all share the ``drop_`` prefix; :meth:`HopRecord.is_drop`
#: keys off it so new drop sites are accounted automatically.
DROP_NO_SUBSCRIBER = "drop_no_subscriber"
DROP_OVERFLOW = "drop_overflow"
DROP_DAEMON_FAILED = "drop_daemon_failed"
DROP_PARSE_ERROR = "drop_parse_error"
#: Undeliverable after the fabric gave up: retries exhausted, or a
#: flaky-transport loss with no retry policy to recover it.
DROP_DEAD_LETTER = "drop_dead_letter"
#: The message reached ingest but its shard had no live replica — the
#: store rejected the write outright (every copy target was down).
DROP_STORE_DOWN = "drop_store_down"

# -- recovery outcomes -------------------------------------------------------
#
# Self-healing stages stamp these when a message survives a fault: the
# connector spilling to (and later replaying from) its Darshan-log
# buffer, a forwarder redelivering after retry/backoff, or delivery
# failing over to a standby aggregator.  ``SPILLED`` is the only
# non-terminal one of the set — a message whose latest spill has no
# matching replay is *in the spill buffer*, neither stored nor lost,
# and reconciliation accounts it separately (``in_flight_spill``).

SPILLED = "spilled"
REPLAYED = "replayed"
REDELIVERED = "redelivered"
FAILOVER = "failover"
#: A replay/failover duplicate the idempotent ingest skipped — the
#: message is already stored; this hop just records the dedup.
DUP_IGNORED = "dup_ignored"

# Store-resilience recovery (the replicated DSOS layer).  All three are
# non-terminal annotations on an otherwise-stored message: the write
# landed below quorum (repair owes copies), or a restarted daemon
# re-earned the object from its WAL / a peer replica.

#: Stored with fewer than ``write_quorum`` replica acks.
QUORUM_DEGRADED = "quorum_degraded"
#: Re-applied from the daemon's own write-ahead log on restart.
WAL_REPLAYED = "wal_replayed"
#: Pulled from a peer replica by anti-entropy repair.
REPAIR_PULLED = "repair_pulled"

#: Outcomes the recovery-site ledger counts (dedup skips included:
#: a skipped duplicate is evidence a recovery path re-sent the message).
RECOVERY_OUTCOMES = frozenset({
    REPLAYED, REDELIVERED, FAILOVER, DUP_IGNORED,
    QUORUM_DEGRADED, WAL_REPLAYED, REPAIR_PULLED,
})


def make_trace_id(job_id: int, rank: int, seq: int) -> str:
    """Deterministic trace id for the ``seq``-th message of a rank.

    Components must be non-negative integers — a job id carrying the
    ``:`` separator (or a negative rank smuggling a ``-``) would make
    the id ambiguous to parse, so it is rejected here rather than
    surfacing later as a mis-grouped reconciliation row.
    """
    for name, value in (("job_id", job_id), ("rank", rank), ("seq", seq)):
        # bool is an int subclass; reject it — True is not a rank.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(
                f"trace id {name} must be an int, got {value!r}"
            )
        if value < 0:
            raise ValueError(
                f"trace id {name} must be non-negative, got {value}"
            )
    return f"{job_id}:{rank}:{seq}"


def parse_trace_id(
    trace_id: str, strict: bool = False
) -> tuple[int, int, int] | None:
    """Inverse of :func:`make_trace_id`.

    Malformed ids return ``None`` (callers on the hot path treat
    foreign ids as unattributable, not fatal); with ``strict=True``
    they raise a :class:`ValueError` naming the offending id instead.
    """
    # Pure ASCII digits only: ``int()`` alone would also accept
    # whitespace, ``+``, ``_`` separators and unicode digits, none of
    # which :func:`make_trace_id` can emit — ids must round-trip.  One
    # ``isascii`` over the whole id covers all three parts (``:`` is
    # ASCII); this runs once per stored message.
    if isinstance(trace_id, str) and trace_id.isascii():
        parts = trace_id.split(":")
        if len(parts) == 3:
            job, rank, seq = parts
            if job.isdigit() and rank.isdigit() and seq.isdigit():
                return int(job), int(rank), int(seq)
    if strict:
        raise ValueError(
            f"malformed trace id {trace_id!r}: expected "
            "'<job_id>:<rank>:<seq>' with non-negative integers"
        )
    return None


class HopRecord(NamedTuple):
    """One stage's view of one message's journey.

    A named tuple, not a frozen dataclass: it is built 7× per message
    on the observed path, and positional construction costs well under
    half as much (no ``__dict__``, no ``object.__setattr__`` per field).
    Immutable and hashable either way.
    """

    stage: str
    node: str
    t_in: float
    t_out: float
    outcome: str

    @property
    def latency_s(self) -> float:
        return self.t_out - self.t_in

    @property
    def is_drop(self) -> bool:
        return self.outcome.startswith("drop_")

    @property
    def site(self) -> tuple[str, str, str]:
        """The ``(stage, node, outcome)`` key drop ledgers group by."""
        return (self.stage, self.node, self.outcome)


@dataclass(slots=True)
class MessageTrace:
    """All hops one message took, from publish to store (or drop)."""

    trace_id: str
    job_id: int
    rank: int
    t_begin: float
    hops: list = field(default_factory=list)

    # Terminal-state resolution.  Single-path topologies produce exactly
    # one terminal hop; if a message somehow both reached a store and was
    # dropped on a side branch, reaching storage wins.

    @property
    def status(self) -> str:
        """``"stored"`` | ``"dropped"`` | ``"spilled"`` | ``"in_flight"``.

        A message is *spilled* when its latest spill has no matching
        replay: it sits in the connector's fallback buffer, not lost but
        not yet back on the wire.  Each replay cancels one spill (a
        daemon can crash again mid-replay, re-spilling the same
        message), so the comparison is count-based, not positional.
        """
        dropped = False
        spills = 0
        replays = 0
        for hop in self.hops:
            outcome = hop.outcome
            if outcome == STORED:
                return "stored"
            if outcome.startswith("drop_"):  # HopRecord.is_drop, inlined
                dropped = True
            elif outcome == SPILLED:
                spills += 1
            elif outcome == REPLAYED:
                replays += 1
        if dropped:
            return "dropped"
        return "spilled" if spills > replays else "in_flight"

    @property
    def drop_site(self) -> tuple[str, str, str] | None:
        """``(stage, node, outcome)`` of the first drop hop, if any."""
        for hop in self.hops:
            if hop.is_drop:
                return hop.site
        return None

    @property
    def end_to_end_latency_s(self) -> float | None:
        """Publish-begin to store time; ``None`` unless stored."""
        for hop in self.hops:
            if hop.outcome == STORED:
                return hop.t_out - self.t_begin
        return None
