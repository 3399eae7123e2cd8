"""Diagnosis must be invisible: observation changes nothing.

The ISSUE's purity bar: a seeded campaign with the diagnosis engine
armed is *byte-identical* to the same campaign without it — the DSOS
contents, the application timings, the payload stream through L2 and
the telemetry report all agree exactly, on both fast-lane settings.
The engine's ticks are weak simulation events and its sampling is
read-only; this suite is what pins that contract.
"""

import dataclasses

import pytest

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.diagnosis import DiagnosisConfig
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG


def _campaign(fast: bool, diagnosis):
    world = World(WorldConfig(
        seed=20260806, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, diagnosis=diagnosis,
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
def test_armed_engine_is_byte_identical_to_none(fast):
    diag = DiagnosisConfig(eval_period_s=0.05, window_s=0.25,
                           for_duration_s=0.1)
    plain = _campaign(fast, diagnosis=None)
    armed = _campaign(fast, diagnosis=diag)

    # The engine genuinely ran — this is not a vacuous comparison.
    engine = armed["world"].diagnosis
    assert engine is not None and engine.ticks > 0

    assert armed["seen"] == plain["seen"]          # payload stream
    assert armed["rows"] == plain["rows"]          # DSOS contents
    assert armed["rows"]                           # ...and they exist
    assert armed["runtime_s"] == plain["runtime_s"]  # app timings
    assert armed["final_now"] == plain["final_now"]  # clock untouched
    assert armed["stats"] == plain["stats"]        # connector counters
    assert armed["report"] == plain["report"]      # telemetry report


def test_clean_quiet_campaign_fires_nothing():
    armed = _campaign(True, DiagnosisConfig(
        eval_period_s=0.05, window_s=0.25, for_duration_s=0.1))
    assert len(armed["world"].diagnosis.incidents) == 0
