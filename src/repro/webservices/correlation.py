"""Correlating application I/O with system behaviour.

The paper's promise: with absolute timestamps on both the application's
I/O events (connector) and the system's telemetry (LDMS samplers), a
user can *explain* I/O variability instead of merely observing it.
:func:`correlate_durations_with_metric` joins the two time series on
time buckets and reports the Pearson correlation between mean op
duration and the system metric (e.g. the file-system load factor).
"""

from __future__ import annotations

import numpy as np

from repro.core.overhead import regularized_beta
from repro.webservices.dataframe import DataFrame, DataFrameError

__all__ = ["correlate_durations_with_metric", "bucket_series", "pearsonr"]


def bucket_series(
    times: np.ndarray, values: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Mean of ``values`` per ``[edges[i], edges[i+1])`` bucket (NaN when
    a bucket is empty)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n_buckets = len(edges) - 1
    if n_buckets < 1:
        raise ValueError("need at least one bucket")
    idx = np.searchsorted(edges, times, side="right") - 1
    valid = (idx >= 0) & (idx < n_buckets)
    sums = np.bincount(idx[valid], weights=values[valid], minlength=n_buckets)
    counts = np.bincount(idx[valid], minlength=n_buckets)
    with np.errstate(invalid="ignore"):
        means = sums / counts
    return means


def pearsonr(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pearson ``r`` and its two-sided p-value for two non-constant series.

    ``r`` follows ``scipy.stats.pearsonr`` (1.17) step for step, so it
    is bit-equal: centre on the mean, scale each norm by the largest
    deviation (``norm`` with ``axis=``, as scipy calls it — the axis-less
    form sums differently), dot (``np.dot`` runs ``vecdot``'s inner loop
    on 1-D float64), clip to [-1, 1].
    Under the null ``(r + 1) / 2`` is Beta(n/2 − 1, n/2 − 1), so the
    p-value is ``2 · I_{1−x}(a, a)`` at ``x = (|r| + 1) / 2``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need two series of equal length >= 3")
    xm = x - x.mean()
    ym = y - y.mean()
    xmax = np.abs(xm).max()
    ymax = np.abs(ym).max()
    normxm = xmax * np.linalg.norm(xm / xmax, axis=-1)
    normym = ymax * np.linalg.norm(ym / ymax, axis=-1)
    r = float(np.clip(np.dot(xm / normxm, ym / normym), -1.0, 1.0))
    a = x.size / 2.0 - 1.0
    half = (abs(r) + 1.0) / 2.0
    return r, 2.0 * regularized_beta(a, a, 1.0 - half)


def correlate_durations_with_metric(
    io_df: DataFrame,
    metric_rows: list[dict],
    *,
    metric: str = "load_factor",
    ops: tuple = ("read", "write"),
    bucket_s: float = 10.0,
) -> dict:
    """Pearson correlation between bucketed op durations and a metric.

    ``io_df`` — connector events (needs ``timestamp``/``seg_dur``/``op``);
    ``metric_rows`` — ``ldms_metrics`` query rows.

    Returns ``{"pearson_r", "p_value", "n_buckets", "edges",
    "mean_duration", "mean_metric", "degenerate"}``.  When either
    bucketed series is constant the correlation is undefined; instead
    of propagating NaN the result is pinned to ``r=0.0, p=1.0`` and
    flagged ``degenerate=True`` so callers can tell "no correlation"
    from "no information".
    """
    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    mask = np.isin(io_df.col("op"), list(ops))
    sub = io_df.filter(mask)
    if len(sub) == 0:
        raise DataFrameError("no I/O events for the requested ops")
    m_rows = [r for r in metric_rows if r["metric"] == metric]
    if not m_rows:
        raise DataFrameError(f"no samples for metric {metric!r}")

    io_t = sub.col("timestamp").astype(float)
    io_d = sub.col("seg_dur").astype(float)
    m_t = np.asarray([r["timestamp"] for r in m_rows], dtype=float)
    m_v = np.asarray([r["value"] for r in m_rows], dtype=float)

    t0 = min(io_t.min(), m_t.min())
    t1 = max(io_t.max(), m_t.max())
    n_buckets = max(int(np.ceil((t1 - t0) / bucket_s)), 1)
    edges = t0 + np.arange(n_buckets + 1) * bucket_s

    dur_series = bucket_series(io_t, io_d, edges)
    met_series = bucket_series(m_t, m_v, edges)
    joint = ~np.isnan(dur_series) & ~np.isnan(met_series)
    if joint.sum() < 3:
        raise DataFrameError(
            f"only {int(joint.sum())} joint buckets; need >= 3 for a correlation"
        )
    x, y = met_series[joint], dur_series[joint]
    degenerate = bool(np.allclose(x, x[0]) or np.allclose(y, y[0]))
    if degenerate:
        r, p = 0.0, 1.0  # a constant series carries no correlation
    else:
        r, p = pearsonr(x, y)
    return {
        "pearson_r": float(r),
        "p_value": float(p),
        "n_buckets": int(joint.sum()),
        "edges": edges,
        "mean_duration": dur_series,
        "mean_metric": met_series,
        "degenerate": degenerate,
    }
