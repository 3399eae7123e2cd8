"""Streaming metric primitives: log-scale histograms and gauges.

Latencies in the pipeline span nine-plus decades (sub-microsecond
publish costs to multi-second queue waits under HMMER-style bursts), so
the histogram uses *fixed* log10-spaced bins — deterministic, mergeable
across stages and daemons, and O(1) per observation with no stored
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["GaugeStats", "LogHistogram"]

_INF = math.inf
_log10 = math.log10
_NAN_MESSAGE = "cannot bin NaN: histogram values must be numbers"


class LogHistogram:
    """Fixed-bin log10 histogram with streaming summary statistics.

    Bins are ``bins_per_decade`` equal log-width slices of each decade
    in ``[lo, hi)``; values outside the range (infinities included)
    clamp to the first/last bin so every observation is counted.  NaN
    has no bin and is rejected with a :class:`ValueError`.
    """

    def __init__(
        self,
        lo: float = 1e-7,
        hi: float = 1e4,
        bins_per_decade: int = 3,
    ):
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.lo = lo
        self.hi = hi
        self.bins_per_decade = bins_per_decade
        self._log_lo = math.log10(lo)
        n_decades = math.log10(hi) - self._log_lo
        self.n_bins = max(int(round(n_decades * bins_per_decade)), 1)
        self.counts = [0] * self.n_bins
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Optional bucket exemplars: bin index -> trace id of one
        #: retained representative (attached after the fact by a
        #: :class:`~repro.telemetry.spans.TraceRegistry`; empty unless
        #: annotated, and never part of equality-sensitive payloads
        #: until then).
        self.exemplars: dict[int, str] = {}

    # -- observation ---------------------------------------------------

    def _bin_of(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value < _INF:
            idx = int((_log10(value) - self._log_lo) * self.bins_per_decade)
            return idx if idx < self.n_bins else self.n_bins - 1
        if value == _INF:
            return self.n_bins - 1
        raise ValueError(_NAN_MESSAGE)

    def observe(self, value: float) -> None:
        # _bin_of, inlined (one call per hop on the observed path).
        # NaN raises before any state changes.
        if value <= self.lo:
            idx = 0
        elif value < _INF:
            idx = int((_log10(value) - self._log_lo) * self.bins_per_decade)
            if idx >= self.n_bins:
                idx = self.n_bins - 1
        elif value == _INF:
            idx = self.n_bins - 1
        else:
            raise ValueError(_NAN_MESSAGE)
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` (same binning) into this histogram."""
        if (other.lo, other.hi, other.bins_per_decade) != (
            self.lo,
            self.hi,
            self.bins_per_decade,
        ):
            raise ValueError("cannot merge histograms with different bins")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for idx, tid in other.exemplars.items():
            self.exemplars.setdefault(idx, tid)

    # -- summaries -----------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bin_edges(self) -> list[float]:
        """The ``n_bins + 1`` bin boundaries (log-spaced)."""
        step = 1.0 / self.bins_per_decade
        return [10 ** (self._log_lo + i * step) for i in range(self.n_bins + 1)]

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (geometric midpoint of its bin)."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        edges = self.bin_edges()
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                return math.sqrt(edges[i] * edges[i + 1])
        return edges[-1]

    def set_exemplar(self, bin_index: int, trace_id: str) -> None:
        """Pin one representative trace id onto a bucket."""
        if not 0 <= bin_index < self.n_bins:
            raise ValueError(
                f"bin index {bin_index} outside [0, {self.n_bins})"
            )
        self.exemplars[bin_index] = trace_id

    def exemplar_for(self, value: float) -> str | None:
        """The exemplar trace id of the bucket ``value`` bins into."""
        return self.exemplars.get(self._bin_of(value))

    def to_dict(self) -> dict:
        """Panel payload: edges + counts + summary scalars."""
        out = {
            "bin_edges": self.bin_edges(),
            "counts": list(self.counts),
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        if self.exemplars:
            out["exemplars"] = {
                str(idx): tid for idx, tid in sorted(self.exemplars.items())
            }
        return out

    def render(self, width: int = 40) -> list[str]:
        """ASCII bars for the non-empty bins."""
        if self.count == 0:
            return ["(empty)"]
        top = max(self.counts)
        edges = self.bin_edges()
        lines = []
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            bar = "#" * max(int(c / top * width), 1)
            lines.append(f"[{edges[i]:8.1e}, {edges[i + 1]:8.1e}) |{bar} {c}")
        return lines


@dataclass
class GaugeStats:
    """Streaming summary of a sampled gauge (queue depth, etc.)."""

    count: int = 0
    last: float = 0.0
    max: float = 0.0
    total: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.last = value
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0
