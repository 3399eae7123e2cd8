"""Two-lane pipeline benchmark: the in-process fast/slow ratio gate.

One fixed-seed HMMER campaign (the paper's highest-rate workload,
Table IIc) driven end to end — Darshan runtime → connector → three-level
aggregation → DSOS ingest — once per lane, each on a fresh world, **in
the same process** so the two walls are comparable:

* ``slow`` — the per-message reference path.
* ``fast`` — column-wise formatting, coalesced publish and, with the
  express spine armed (this inert campaign arms it), publish→forward→
  ingest virtualized so engine events scale with application I/O.

The report separates what may differ from what must not: per-lane
sections hold **host** metrics only (wall, events/sec, engine events,
spine counters), and one shared ``simulated`` section holds the
simulated outcome, asserted identical across both lanes on every run.
``repro bench --check`` gates the fast/slow events-per-second ratio
against ``benchmarks/BENCH_pipeline.json``: a ratio, not a wall, so the
gate holds on any machine.  Absolute host cost — throughput, setup and
peak RSS per workload, each rep in a fresh interpreter — is the
repository benchmark's job (``perfbench/``).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.apps import Hmmer
from repro.core import ConnectorConfig
from repro.experiments.chaos import LANES as _LANE_SWITCHES

__all__ = ["pipeline_benchmark", "DEFAULT_RESULT_PATH", "LANES"]

#: The committed result ``repro bench`` writes and ``--check`` reads.
DEFAULT_RESULT_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_pipeline.json"
)

#: The benchmark lanes, in run order (slowest first).
LANES = tuple(_LANE_SWITCHES)

#: Reduced campaign for CI (--quick): same shape, smaller Pfam input.
_QUICK_FAMILIES = 80
_FULL_FAMILIES = 400
_SEED = 42

#: The simulated-outcome keys every lane must agree on exactly.
_SIM_KEYS = (
    "events_seen", "messages_published", "bytes_published",
    "numeric_conversions", "format_seconds", "publish_seconds",
    "objects_stored", "sim_runtime_s",
)


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

    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=2,
        fast_lane=_LANE_SWITCHES[lane],
    ))
    app = Hmmer(ranks_per_node=8, n_families=n_families)
    t0 = time.perf_counter()
    result = run_job(world, app, "nfs", connector_config=ConnectorConfig())
    wall_s = time.perf_counter() - t0
    stats = result.connector.stats
    host = {
        "lane": lane,
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(stats.events_seen / wall_s, 1),
        "engine_events": world.env._seq,
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


def pipeline_benchmark(*, quick: bool = False) -> dict:
    """Run the two-lane benchmark; returns the result payload.

    Runs the slow (reference) lane, then the fast lane in this
    process, and asserts the simulated outcomes match — no lane may buy
    speed with fidelity.
    """
    n_families = _QUICK_FAMILIES if quick else _FULL_FAMILIES
    hosts: dict[str, dict] = {}
    sims: dict[str, dict] = {}
    for lane in LANES:
        hosts[lane], sims[lane] = _run_lane(
            lane=lane, n_families=n_families, seed=_SEED
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
    return {
        "benchmark": "pipeline_lanes",
        "campaign": {
            "app": "hmmer", "n_families": n_families, "ranks_per_node": 8,
            "n_nodes": 2, "seed": _SEED, "filesystem": "nfs", "quick": quick,
        },
        "simulated": reference,
        "slow": hosts["slow"],
        "fast": hosts["fast"],
        "speedup_events_per_sec": round(eps["fast"] / eps["slow"], 3),
    }
