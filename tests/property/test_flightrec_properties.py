"""The flight recorder must be invisible: recording changes nothing.

The ISSUE's house pin: a seeded campaign with the recorder armed is
*byte-identical* to the same campaign without it — the payload stream
through L2, the DSOS contents, the application timings, the connector
counters and the telemetry report all agree exactly, on both lanes
(slow reference, fast lane).  The recorder's tick is a
weak simulation event and every hook appends into host-side state
only; this suite is what pins that contract, including under an
active chaos plan (observer callbacks firing on every layer).
"""

import dataclasses

import pytest

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.diagnosis import DiagnosisConfig
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG


def _campaign(*, fast: bool, flightrec, faults=None):
    extra = {}
    if faults is not None:
        from repro.ldms.resilience import RetryPolicy

        extra = {"faults": faults, "retry": RetryPolicy(), "standby_l1": True}
    world = World(WorldConfig(
        seed=20260809, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast,
        diagnosis=DiagnosisConfig(eval_period_s=0.05, window_s=0.25,
                                  for_duration_s=0.1),
        flightrec=flightrec,
        **extra,
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


def _assert_identical(armed, plain):
    # The recorder genuinely ran — not a vacuous comparison.
    recorder = armed["world"].flight_recorder
    assert recorder is not None and recorder.ticks > 0
    assert plain["world"].flight_recorder is None

    assert armed["seen"] == plain["seen"]            # payload stream
    assert armed["rows"] == plain["rows"]            # DSOS contents
    assert armed["rows"]                             # ...and they exist
    assert armed["runtime_s"] == plain["runtime_s"]  # app timings
    assert armed["final_now"] == plain["final_now"]  # clock untouched
    assert armed["stats"] == plain["stats"]          # connector counters
    assert armed["report"] == plain["report"]        # telemetry report


@pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast-lane"])
def test_armed_recorder_is_byte_identical_to_none(fast):
    plain = _campaign(fast=fast, flightrec=False)
    armed = _campaign(fast=fast, flightrec=True)
    _assert_identical(armed, plain)


def test_armed_recorder_is_byte_identical_under_chaos():
    """Purity with every hook firing: alerts, recovery hops, faults."""
    from repro.diagnosis.forensics import chaos_plan

    plain = _campaign(fast=True, flightrec=False, faults=chaos_plan())
    armed = _campaign(fast=True, flightrec=True, faults=chaos_plan())
    recorder = armed["world"].flight_recorder
    recorder.flush()
    assert recorder.bundles  # the hooks genuinely captured an incident
    assert recorder.reconciles()
    _assert_identical(armed, plain)


def test_columnar_spine_refuses_to_arm_under_recorder():
    """The express spine must stand down when the recorder is armed —
    the recorder alone breaks the inert-world guard, and the
    bit-identical per-message fallback carries the run (the purity
    pin above proves the fallback byte-identical)."""
    base = dict(seed=1, quiet=True, n_compute_nodes=4)
    control = World(WorldConfig(**base))
    assert control.spine is not None and control.spine.armed
    guarded = World(WorldConfig(**base, flightrec=True))
    assert guarded.flight_recorder is not None
    assert guarded.spine is not None and not guarded.spine.armed
