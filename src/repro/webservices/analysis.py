"""The Python analysis modules behind the paper's figures.

Each function takes a :class:`~repro.webservices.dataframe.DataFrame`
of ``darshan_data`` rows (the DSOS query result) and returns plain data
structures — the series a Grafana panel would plot.

Figure map:

* :func:`op_counts_with_ci`   — Fig 5: mean op occurrences per config
  over repeated jobs with 95 % CIs;
* :func:`ops_per_node`        — Fig 6: open/close requests per node per job;
* :func:`duration_stats_per_job` — Fig 7: read/write duration
  distributions per job (exposes the job-2 anomaly);
* :func:`timeline`            — Fig 8: op durations over execution time;
* :func:`throughput_series`   — Fig 9: op counts and bytes per time
  bucket, aggregated across ranks.
"""

from __future__ import annotations

import numpy as np

from repro.core.overhead import mean_confidence_interval
from repro.webservices.dataframe import DataFrame, DataFrameError, _median

__all__ = [
    "count_write_phases",
    "detect_anomalous_jobs",
    "duration_stats_per_job",
    "op_counts_with_ci",
    "ops_per_node",
    "rows_to_dataframe",
    "throughput_series",
    "timeline",
    "timeline_from_dxt",
]


def rows_to_dataframe(rows: list[dict]) -> DataFrame:
    """DSOS rows → DataFrame (convenience for query results)."""
    if not rows:
        raise DataFrameError("query returned no rows")
    return DataFrame.from_records(rows)


def op_counts_with_ci(df: DataFrame, confidence: float = 0.95) -> dict:
    """Figure 5: per-op mean occurrence count across jobs, with CI.

    Returns ``{op: {"mean": m, "ci": half_width, "per_job": {...}}}``.
    """
    per_job_op = df.groupby("job_id", "op").size()
    jobs = sorted(set(per_job_op["job_id"].tolist()))
    ops = sorted(set(per_job_op["op"].tolist()))
    lookup = {
        (j, o): n
        for j, o, n in zip(
            per_job_op["job_id"], per_job_op["op"], per_job_op["n"]
        )
    }
    out = {}
    for op in ops:
        counts = [int(lookup.get((j, op), 0)) for j in jobs]
        mean, half = mean_confidence_interval(counts, confidence)
        out[op] = {
            "mean": mean,
            "ci": half,
            "per_job": {int(j): int(lookup.get((j, op), 0)) for j in jobs},
        }
    return out


def ops_per_node(df: DataFrame, ops: tuple = ("open", "close")) -> dict:
    """Figure 6: request counts per node per op, split by job.

    Returns ``{job_id: {node_name: {op: count}}}``.
    """
    mask = np.isin(df.col("op"), list(ops))
    sub = df.filter(mask)
    counted = sub.groupby("job_id", "ProducerName", "op").size()
    out: dict = {}
    for j, node, op, n in zip(
        counted["job_id"], counted["ProducerName"], counted["op"], counted["n"]
    ):
        out.setdefault(int(j), {}).setdefault(str(node), {})[str(op)] = int(n)
    return out


def duration_stats_per_job(df: DataFrame) -> dict:
    """Figure 7: per-job read/write duration statistics.

    Returns ``{job_id: {op: {"mean", "median", "max", "count", "durations"}}}``.
    """
    mask = np.isin(df.col("op"), ["read", "write"])
    sub = df.filter(mask)
    out: dict = {}
    grouped = sub.groupby("job_id", "op")
    for (job_id, op), idx in grouped.groups().items():
        durations = sub.col("seg_dur")[idx].astype(float)
        out.setdefault(int(job_id), {})[str(op)] = {
            "mean": float(durations.mean()),
            "median": float(_median(durations)),
            "max": float(durations.max()),
            "count": int(len(durations)),
            "durations": durations,
        }
    return out


def detect_anomalous_jobs(stats: dict, op: str = "read", factor: float = 10.0) -> list:
    """Jobs whose mean duration for ``op`` exceeds ``factor`` × the
    median of the other jobs' means (how one finds "job 2")."""
    means = {
        job: per_op[op]["mean"] for job, per_op in stats.items() if op in per_op
    }
    if len(means) < 2:
        return []
    out = []
    for job, mean in means.items():
        others = [m for j, m in means.items() if j != job]
        baseline = float(_median(others))
        if baseline > 0 and mean > factor * baseline:
            out.append(job)
    return sorted(out)


def timeline(df: DataFrame, job_id: int) -> dict:
    """Figure 8: (time-into-job, duration, op) triples for one job.

    Returns ``{"t": array, "duration": array, "op": array, "t0": job_start}``.
    """
    sub = df.filter(df.col("job_id") == job_id)
    if len(sub) == 0:
        raise DataFrameError(f"no rows for job {job_id}")
    mask = np.isin(sub.col("op"), ["read", "write"])
    sub = sub.filter(mask)
    stamps = sub.col("timestamp").astype(float)
    t0 = float(stamps.min()) if len(sub) else 0.0
    return {
        "t": stamps - t0,
        "duration": sub.col("seg_dur").astype(float),
        "op": sub.col("op"),
        "t0": t0,
    }


def count_write_phases(tl: dict, gap_s: float = 2.0) -> int:
    """Phases in a Figure-8 timeline: maximal runs of write activity
    separated by > ``gap_s`` of write silence."""
    mask = tl["op"] == "write"
    times = np.sort(tl["t"][mask])
    if len(times) == 0:
        return 0
    gaps = np.diff(times)
    return int(1 + (gaps > gap_s).sum())


def timeline_from_dxt(log, module: str = "POSIX") -> dict:
    """Figure-8-style timeline from a Darshan *log* (post-mortem path).

    Vanilla Darshan users get temporal structure only this way — from
    DXT segments after the job ends, with job-relative times.  Returns
    the same structure as :func:`timeline` (``t`` relative to the first
    op, plus ``t0`` = absolute job start) so the two paths compare
    directly.
    """
    ops, ts, durations = [], [], []
    for (mod, _rank, _rid), segments in log.dxt_segments.items():
        if mod != module:
            continue
        for seg in segments:
            ops.append(seg.op)
            ts.append(seg.end)
            durations.append(seg.duration)
    if not ts:
        raise DataFrameError(f"log has no DXT segments for module {module!r}")
    t = np.asarray(ts, dtype=float)
    first = float(t.min())
    return {
        "t": t - first,
        "duration": np.asarray(durations, dtype=float),
        "op": np.asarray(ops, dtype=object),
        "t0": log.start_time + first,
    }


def throughput_series(df: DataFrame, job_id: int, bucket_s: float = 10.0) -> dict:
    """Figure 9: per-bucket op counts and bytes, aggregated across ranks.

    Returns ``{"edges": bucket_edges, op: {"count": arr, "bytes": arr}}``.
    """
    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    sub = df.filter(df.col("job_id") == job_id)
    if len(sub) == 0:
        raise DataFrameError(f"no rows for job {job_id}")
    mask = np.isin(sub.col("op"), ["read", "write"])
    sub = sub.filter(mask)
    stamps = sub.col("timestamp").astype(float)
    t0 = float(stamps.min())
    t1 = float(stamps.max())
    n_buckets = max(int(np.ceil((t1 - t0) / bucket_s)), 1)
    edges = t0 + np.arange(n_buckets + 1) * bucket_s
    out = {"edges": edges}
    for op in ("read", "write"):
        op_mask = sub.col("op") == op
        ts = stamps[op_mask]
        sizes = sub.col("seg_len")[op_mask].astype(float)
        idx = np.clip(((ts - t0) / bucket_s).astype(int), 0, n_buckets - 1)
        counts = np.bincount(idx, minlength=n_buckets)
        bytes_per = np.bincount(idx, weights=sizes, minlength=n_buckets)
        out[op] = {"count": counts, "bytes": bytes_per}
    return out
