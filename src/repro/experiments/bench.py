"""Tracked pipeline benchmark: the fast lane's receipts.

One fixed-seed HMMER campaign (the paper's highest-rate workload,
Table IIc) driven end to end — Darshan runtime → connector → three-level
aggregation → DSOS ingest — once per lane, **in the same process** so
the walls are comparable:

* ``slow`` — every fast-lane switch off: the per-message reference path.
* ``fast`` — column-wise formatting, coalesced publish and, with the
  express spine armed (this inert campaign arms it), publish→forward→
  ingest virtualized so engine events scale with application I/O.

Host wall-clock, host events/sec, engine event count and a *per-lane*
peak RSS are recorded; results land in ``benchmarks/BENCH_pipeline.json``
via ``python -m repro.cli bench``.

The report separates what may differ from what must not:

* per-lane sections hold **host** metrics only (wall, events/sec,
  engine events, RSS, spine batch counters) — the things the fast
  lane exists to change;
* one shared ``simulated`` section holds the simulated outcome
  (messages, bytes, conversions, overhead seconds, rows, sim runtime),
  asserted identical across both lanes on every run.  Each lane runs
  a fresh world and connector, and ``benchmarks/test_perf_pipeline.py``
  pins the per-run freshness.

Peak RSS: ``ru_maxrss`` is a process-lifetime high-water mark, so the
second lane always inherited the first lane's peak.  Where the kernel
allows it (``/proc/self/clear_refs``), the watermark is reset before
each lane and read back from ``VmHWM``, giving a genuinely per-lane
peak; ``peak_rss_resettable`` records whether that worked (falling back
to the monotone ``ru_maxrss`` otherwise).

Two speedup comparisons matter: the in-process fast/slow ratio
(machine-independent, what ``bench --check`` regresses against) and
the ratio versus ``seed_baseline``, the tree this optimization series
branched from.

The fast lane is a pure host-side optimization: simulated results are
bit-identical across lanes — ``tests/property/test_fastlane_properties``
holds that line, and :func:`pipeline_benchmark` re-asserts the cheap
invariants on every run.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

from repro.apps import Hmmer
from repro.core import ConnectorConfig
from repro.experiments.chaos import LANES as _LANE_SWITCHES

__all__ = [
    "pipeline_benchmark",
    "snapshot_path",
    "DEFAULT_RESULT_PATH",
    "SEED_BASELINE",
    "LANES",
]

#: Where ``repro bench`` writes (and ``--check`` reads) the tracked file.
DEFAULT_RESULT_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_pipeline.json"
)

#: Where dated ``repro bench --json`` snapshots accumulate.
RESULTS_DIR = DEFAULT_RESULT_PATH.parent / "results"

#: The benchmark lanes, in run order (slowest first).
LANES = tuple(_LANE_SWITCHES)


def snapshot_path(day=None) -> Path:
    """Dated snapshot location for one benchmark run.

    ``repro bench --json`` writes here so a history of measured
    speedups accumulates under version control next to the tracked
    ``BENCH_pipeline.json``.  Same-day reruns never overwrite an
    earlier snapshot: the first run of a day gets the plain dated name,
    later runs get a ``_runN`` suffix (N = 2, 3, ...) — the first free
    slot wins.
    """
    import datetime

    if day is None:
        day = datetime.date.today()
    base = RESULTS_DIR / f"bench_pipeline_{day.isoformat()}.json"
    if not base.exists():
        return base
    run = 2
    while True:
        candidate = RESULTS_DIR / (
            f"bench_pipeline_{day.isoformat()}_run{run}.json"
        )
        if not candidate.exists():
            return candidate
        run += 1

#: The same campaign run on the pre-optimization tree (the commit this
#: optimization series branched from), measured on the reference
#: machine: two fresh-process runs of the full (non-quick) campaign.
#: That tree had only the per-message reference path.
SEED_BASELINE = {
    "campaign": {"n_families": 400, "ranks_per_node": 8, "n_nodes": 2,
                 "seed": 42, "filesystem": "nfs"},
    "events_seen": 62159,
    "wall_s": [13.56, 16.25],
    "events_per_sec": [4584, 3824],
}

#: Reduced campaign for CI (--quick): same shape, smaller Pfam input.
_QUICK_FAMILIES = 80
_FULL_FAMILIES = 400

#: The simulated-outcome keys every lane must agree on exactly.
_SIM_KEYS = (
    "events_seen", "messages_published", "bytes_published",
    "numeric_conversions", "format_seconds", "publish_seconds",
    "objects_stored", "sim_runtime_s",
)


def _reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS watermark for this process.

    Writing ``"5"`` to ``/proc/self/clear_refs`` resets ``VmHWM`` (and
    ``VmPeak``) to current usage, so each lane can report its own peak.
    Returns False where the knob does not exist (non-Linux, restricted
    containers) — callers then fall back to the monotone ``ru_maxrss``.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _peak_rss_kib(resettable: bool) -> int:
    """Current peak RSS in KiB: ``VmHWM`` if per-lane resets work,
    ``ru_maxrss`` (process-lifetime, KiB on Linux) otherwise."""
    if resettable:
        try:
            with open("/proc/self/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_lane(*, lane: str, n_families: int, seed: int) -> tuple[dict, dict]:
    """One full campaign on ``lane``; returns ``(host, simulated)``.

    A fresh world and connector per call: nothing host-side carries
    over between lanes (the per-run freshness regression test pins
    this by running one lane twice and demanding identical numbers).
    """
    if lane not in LANES:
        raise ValueError(f"unknown bench lane {lane!r} (use one of {LANES})")
    # Imported here so ``--help`` stays instant.
    from repro.experiments.runner import run_job
    from repro.experiments.world import World, WorldConfig

    switches = _LANE_SWITCHES[lane]
    rss_resettable = _reset_peak_rss()
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=2, **switches,
    ))
    app = Hmmer(ranks_per_node=8, n_families=n_families)
    t0 = time.perf_counter()
    result = run_job(
        world, app, "nfs", connector_config=ConnectorConfig(**switches),
    )
    wall_s = time.perf_counter() - t0
    stats = result.connector.stats
    host = {
        "lane": lane,
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(stats.events_seen / wall_s, 1),
        "engine_events": world.env._seq,
        "peak_rss_kib": _peak_rss_kib(rss_resettable),
        "peak_rss_resettable": rss_resettable,
    }
    if world.spine is not None:
        s = world.spine.stats
        host["spine"] = {
            "armed": world.spine.armed,
            "rows": s.rows,
            "record_batches": s.record_batches,
            "batch_rows": s.batch_rows,
            "mean_batch_rows": round(s.mean_batch_rows, 2),
            "max_batch_rows": s.max_batch_rows,
            "ingest_flushes": s.ingest_flushes,
            "dearms": s.dearms,
        }
    simulated = {
        "events_seen": stats.events_seen,
        "messages_published": stats.messages_published,
        "bytes_published": stats.bytes_published,
        "numeric_conversions": stats.numeric_conversions,
        "format_seconds": stats.format_seconds,
        "publish_seconds": stats.publish_seconds,
        "objects_stored": world.store.objects_stored,
        "sim_runtime_s": round(result.runtime_s, 3),
    }
    return host, simulated


def pipeline_benchmark(*, quick: bool = False, seed: int = 42) -> dict:
    """Run the tracked pipeline benchmark; returns the result payload.

    Runs the slow (reference) lane, then the fast lane in this
    process, and asserts the simulated outcomes match — no lane may buy
    speed with fidelity.
    """
    n_families = _QUICK_FAMILIES if quick else _FULL_FAMILIES
    hosts: dict[str, dict] = {}
    sims: dict[str, dict] = {}
    for lane in LANES:
        hosts[lane], sims[lane] = _run_lane(
            lane=lane, n_families=n_families, seed=seed
        )

    # Fidelity line: identical simulated results on both lanes.
    reference = sims["slow"]
    for lane in LANES[1:]:
        for key in _SIM_KEYS:
            if sims[lane][key] != reference[key]:
                raise AssertionError(
                    f"{lane} lane diverged on {key}: "
                    f"slow={reference[key]!r} {lane}={sims[lane][key]!r}"
                )

    eps = {lane: hosts[lane]["events_per_sec"] for lane in LANES}
    full_campaign = (
        not quick and reference["events_seen"] == SEED_BASELINE["events_seen"]
    )
    vs_seed = (
        round(eps["fast"] / min(SEED_BASELINE["events_per_sec"]), 2)
        if full_campaign else None
    )
    return {
        "benchmark": "pipeline_lanes",
        "campaign": {
            "app": "hmmer", "n_families": n_families, "ranks_per_node": 8,
            "n_nodes": 2, "seed": seed, "filesystem": "nfs", "quick": quick,
        },
        "seed_baseline": SEED_BASELINE,
        "simulated": reference,
        "slow": hosts["slow"],
        "fast": hosts["fast"],
        "speedup_events_per_sec": round(eps["fast"] / eps["slow"], 3),
        "speedup_vs_seed_baseline": vs_seed,
    }
