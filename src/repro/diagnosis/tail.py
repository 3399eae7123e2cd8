"""The live tail on DSOS ingest.

The diagnosis engine cannot wait for a post-run report: it needs to see
events *land* while the simulation still runs.  :class:`IngestTail`
subscribes to the observer hub's ``stored`` event and records, at the
simulated instant each message's rows land in DSOS, the message's
rank.  The windowed per-rank count feeds the imbalance rule.

Observation-only: the tail appends to host-side lists; it draws no
randomness and schedules nothing, so a tailed run is bit-identical to
an untailed one.
"""

from __future__ import annotations

import bisect

from repro.telemetry.trace import parse_trace_id

__all__ = ["IngestTail"]


class IngestTail:
    """Time-ordered record of stored messages, windowed per rank."""

    def __init__(self, env):
        self._t: list[float] = []
        self._ranks: list[int] = []
        self.messages = 0
        env.observers.subscribe(stored=self._on_stored)

    def _on_stored(self, t: float, message, n_rows: int) -> None:
        parsed = parse_trace_id(message.trace_id)
        self._t.append(t)
        self._ranks.append(parsed[1] if parsed else -1)
        self.messages += 1

    def rank_counts(self, now: float, window_s: float) -> dict[int, int]:
        """Stored-message count per rank within ``[now - window_s, now]``."""
        start = bisect.bisect_left(self._t, now - window_s)
        end = bisect.bisect_right(self._t, now)
        counts: dict[int, int] = {}
        for rank in self._ranks[start:end]:
            counts[rank] = counts.get(rank, 0) + 1
        return counts
