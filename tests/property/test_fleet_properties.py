"""Probe scans must be invisible: armed ≡ absent, byte for byte.

The fleet ISSUE's purity bar, mirroring the diagnosis suite: a seeded
campaign with the probe scanner armed is *byte-identical* to the same
campaign without it — DSOS contents, application timings, the payload
stream through L2 and the telemetry report all agree exactly, on both
fast-lane settings.  The scanner's ticks are weak events and its
traversal is a ghost walk over the spine's cost model; this suite is
what pins that contract.
"""

import dataclasses

import pytest

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.diagnosis import DiagnosisConfig
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.fleet import ProbeConfig


def _campaign(fast: bool, probe, diagnosis=None):
    world = World(WorldConfig(
        seed=20260809, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, probe=probe, diagnosis=diagnosis,
    ))
    seen = []
    world.fabric.l2.streams.subscribe(
        STREAM_TAG, lambda m: seen.append((m.payload, m.src_node, m.publish_time))
    )
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=6, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(),
    )
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    return {
        "world": world,
        "seen": seen,
        "rows": rows,
        "runtime_s": result.runtime_s,
        "final_now": world.env.now,
        "stats": dataclasses.asdict(result.connector.stats),
        "report": result.health.to_dict(),
    }


@pytest.mark.parametrize("fast", [True, False], ids=["fast-lane", "reference"])
def test_armed_probe_scanner_is_byte_identical_to_none(fast):
    plain = _campaign(fast, probe=None)
    armed = _campaign(fast, probe=ProbeConfig(period_s=0.05))

    # The scanner genuinely swept — this is not a vacuous comparison.
    scanner = armed["world"].probe_scanner
    assert scanner is not None and scanner.sweeps > 0
    assert scanner.samples

    assert armed["seen"] == plain["seen"]          # payload stream
    assert armed["rows"] == plain["rows"]          # DSOS contents
    assert armed["rows"]                           # ...and they exist
    assert armed["runtime_s"] == plain["runtime_s"]  # app timings
    assert armed["final_now"] == plain["final_now"]  # clock untouched
    assert armed["stats"] == plain["stats"]        # connector counters
    assert armed["report"] == plain["report"]      # telemetry report


def test_probes_plus_diagnosis_together_stay_invisible():
    """The full fleet-scan instrumentation stack is still a no-op."""
    plain = _campaign(True, probe=None, diagnosis=None)
    armed = _campaign(
        True,
        probe=ProbeConfig(period_s=0.05),
        diagnosis=DiagnosisConfig(eval_period_s=0.05, window_s=0.25,
                                  for_duration_s=0.1),
    )
    assert armed["world"].probe_scanner.sweeps > 0
    assert armed["world"].diagnosis.ticks > 0
    for key in ("seen", "rows", "runtime_s", "final_now", "stats",
                "report"):
        assert armed[key] == plain[key], key


def test_clean_campaign_probes_all_delivered():
    armed = _campaign(True, probe=ProbeConfig(period_s=0.05))
    report = armed["world"].probe_scanner.report()
    assert report.lost_nodes == []
    assert report.stragglers == []
    assert all(n.probes == report.sweeps for n in report.nodes)
    assert report.median_latency_s > 0
