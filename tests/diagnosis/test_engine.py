"""The engine end to end: ground-truth detection inside sim time.

The acceptance bar from the ISSUE: a seeded chaos campaign where
DaemonCrash, LinkDegrade and SlowStore are each *detected* — a
matching alert fires inside the fault window with a recorded detection
latency — and a fault-free control run of the same campaign raises
zero alerts.
"""

import pytest

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.diagnosis import DiagnosisConfig, DiagnosisEngine, score_incidents
from repro.experiments import World, WorldConfig, run_job
from repro.faults import DaemonCrash, FaultPlan, LinkDegrade, SlowStore
from repro.ldms.resilience import RetryPolicy
from repro.webservices import LiveDashboard

#: Cadence matched to the sub-second chaos fault windows.
DIAG = DiagnosisConfig(
    eval_period_s=0.05, window_s=0.25, for_duration_s=0.1,
    latency_slo_s=0.25, slo_min_count=8,
)

CHAOS_PLAN = FaultPlan((
    DaemonCrash("l1", after_messages=50, down_for=0.5),
    LinkDegrade("nid00001", "head", at=0.2, duration=0.3, factor=50.0),
    SlowStore(at=0.1, duration=0.4),
))


def _campaign(faults, seed=42, fast=True):
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, faults=faults, retry=RetryPolicy(),
        standby_l1=True, diagnosis=DIAG,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True),
        inter_job_gap_s=0.0,
    )
    return world, result


@pytest.fixture(scope="module", params=[True, False],
                ids=["fast-lane", "reference"])
def chaos(request):
    return _campaign(CHAOS_PLAN, fast=request.param)


def test_every_fault_class_detected_with_latency(chaos):
    world, _ = chaos
    score = score_incidents(
        world.diagnosis.incidents, world.fault_injector.applied)
    assert score.ok(), f"undetected: {score.undetected_classes()}"
    classes = score.classes()
    assert classes == {
        "daemon_crash": True, "link_degrade": True, "slow_store": True,
    }
    for det in score.detections:
        assert det.detected
        assert det.rule is not None
        # Detection latency is recorded, positive, and bounded by the
        # firing hysteresis plus the (sub-second) fault window.
        assert det.latency_s is not None
        assert 0.0 < det.latency_s < 1.5


def test_alerts_resolve_after_faults_heal(chaos):
    world, _ = chaos
    # Every fault in the plan ends; by drain time nothing still fires.
    assert world.diagnosis.firing() == []
    for alert in world.diagnosis.incidents:
        assert alert.state == "resolved"
        assert alert.t_resolved >= alert.t_fired >= alert.t_pending


def test_chaos_run_still_reconciles(chaos):
    _, result = chaos
    assert result.health.verify()


def test_clean_run_raises_zero_alerts():
    world, result = _campaign(faults=None)
    assert len(world.diagnosis.incidents) == 0
    assert world.diagnosis.ticks > 0  # the engine genuinely ran
    assert result.health.verify()


def test_engine_requires_telemetry():
    world = World(WorldConfig(seed=1, quiet=True, n_compute_nodes=2))
    with pytest.raises(RuntimeError, match="telemetry"):
        DiagnosisEngine(world, DiagnosisConfig())


def test_engine_arm_is_single_shot():
    world = World(WorldConfig(
        seed=1, quiet=True, n_compute_nodes=2, telemetry=True,
        diagnosis=DiagnosisConfig(),
    ))
    with pytest.raises(RuntimeError, match="armed"):
        world.diagnosis.arm()


def test_diagnosis_config_validation():
    with pytest.raises(ValueError):
        DiagnosisConfig(eval_period_s=0.0)
    with pytest.raises(ValueError):
        DiagnosisConfig(eval_period_s=1.0, window_s=0.5)
    with pytest.raises(ValueError):
        DiagnosisConfig(for_duration_s=-1.0)


def test_live_dashboard_renders_engine_state(chaos):
    world, _ = chaos
    dash = LiveDashboard(world.diagnosis)
    panels = dash.render()
    titles = [p.title for p in panels]
    assert titles[0] == "firing alerts"
    assert titles[1] == "incident log"
    # One time-series panel per rule, windowed.
    rule_panels = [p for p in panels if p.title.startswith("rule: ")]
    assert len(rule_panels) == len(world.diagnosis.rules)
    for p in rule_panels:
        assert len(p.payload["t"]) == len(p.payload["value"])
    text = dash.render_text()
    assert "incident log" in text
    html = dash.to_html()
    assert html.startswith("<!DOCTYPE html>") or "<html" in html
