"""Explanation must be invisible: a job explained post-hoc is
byte-identical to one never explained.

The explain layer has no arming knob by construction — it is a pure
read over a finished world.  This suite pins that the *call itself*
perturbs nothing: every observable surface (the payload stream through
L2, the DSOS rows, the application timings, the simulation clock, the
connector counters and the telemetry report) captured *after* running
:func:`~repro.diagnosis.explain.explain_job` equals the same surfaces
from a twin campaign that never imported the explainer — on both
lanes (slow, fast).
"""

import dataclasses

import pytest

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.diagnosis import DiagnosisConfig
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG

LANES = [
    pytest.param(False, id="slow"),
    pytest.param(True, id="fast-lane"),
]


def _campaign(fast: bool, *, explain: bool):
    world = World(WorldConfig(
        seed=20260806, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast,
        diagnosis=DiagnosisConfig(eval_period_s=0.05, window_s=0.25,
                                  for_duration_s=0.1),
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
        connector_config=ConnectorConfig(fast_lane=fast),
    )
    report = None
    if explain:
        from repro.diagnosis.explain import explain_job

        report = explain_job(world, result.job_id)
        # Explain twice: a second read must also change nothing.
        explain_job(world, result.job_id)
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    return {
        "seen": seen,
        "rows": rows,
        "runtime_s": result.runtime_s,
        "final_now": world.env.now,
        "stats": dataclasses.asdict(result.connector.stats),
        "report": result.health.to_dict(),
        "explain_report": report,
    }


@pytest.mark.parametrize("fast", LANES)
def test_explained_campaign_is_byte_identical_to_unexplained(fast):
    plain = _campaign(fast, explain=False)
    explained = _campaign(fast, explain=True)

    # The explainer genuinely ran — this is not a vacuous comparison.
    report = explained["explain_report"]
    assert report is not None and report.verdicts

    assert explained["seen"] == plain["seen"]            # payload stream
    assert explained["rows"] == plain["rows"]            # DSOS contents
    assert explained["rows"]                             # ...and they exist
    assert explained["runtime_s"] == plain["runtime_s"]  # app timings
    assert explained["final_now"] == plain["final_now"]  # clock untouched
    assert explained["stats"] == plain["stats"]          # connector counters
    assert explained["report"] == plain["report"]        # telemetry report


def test_explain_report_is_deterministic_across_reruns():
    a = _campaign(True, explain=True)["explain_report"]
    b = _campaign(True, explain=True)["explain_report"]
    assert a.to_json() == b.to_json()
