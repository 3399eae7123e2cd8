"""Explainable bottleneck classification: strategies, scoring, census."""

from dataclasses import dataclass

import pytest

from repro.diagnosis import DiagnosisConfig
from repro.diagnosis.explain import (
    CLASSIFIERS,
    EXPLAIN_METRICS,
    STRATEGY_WEIGHTS,
    VERDICT_CLASSES,
    BottleneckVerdict,
    _strategy_daemon_health,
    _strategy_metadata_mix,
    _strategy_rank_imbalance,
    _strategy_storage_stall,
    _strategy_transport_pressure,
    explain_campaign,
    explain_gauges,
    explain_job,
    explain_plan,
    score_verdicts,
)
from repro.diagnosis.features import FeatureVector
from repro.diagnosis.scoring import _BEGIN_KINDS, DETECTORS


# ------------------------------------------------------- shared stubs


@dataclass(frozen=True)
class _Alert:
    """Shape-compatible stand-in for a fired diagnosis alert."""

    rule: str
    t_fired: float = 1.0
    incident_id: int = 0


class _Series:
    def __init__(self, value=0.0):
        self._value = value

    def value_at(self, t):
        return self._value


class _Engine:
    """Read-only engine stub: fixed series values + a real config."""

    def __init__(self, series=None, config=None):
        self._series = dict(series or {})
        self.config = config or DiagnosisConfig()

    def series(self, name):
        return _Series(self._series.get(name, 0.0))


def _features(**kw):
    return FeatureVector(job_id=1, **kw)


# --------------------------------------------- census (satellite task)


def test_census_every_fault_class_has_detector_and_classifier():
    """Drift guard: a new fault class must land in BOTH registries.

    Adding a begin-kind to the injector without wiring a rule-level
    detector (scoring.DETECTORS) or a verdict-level classification
    (explain.CLASSIFIERS) silently breaks ``--check`` scoring — this
    census fails first, naming the orphan class.
    """
    fault_classes = {cls for cls, _ in _BEGIN_KINDS.values()}
    assert fault_classes, "injector begin-kind registry went empty"
    for cls in sorted(fault_classes):
        assert cls in DETECTORS, f"fault class {cls!r} has no DETECTORS entry"
        assert DETECTORS[cls], f"fault class {cls!r} has an empty detector set"
        assert cls in CLASSIFIERS, (
            f"fault class {cls!r} has no CLASSIFIERS entry"
        )
        assert CLASSIFIERS[cls], (
            f"fault class {cls!r} has an empty classifier set"
        )


def test_census_registries_have_no_orphan_classes():
    fault_classes = {cls for cls, _ in _BEGIN_KINDS.values()}
    assert set(DETECTORS) == fault_classes
    assert set(CLASSIFIERS) == fault_classes


def test_census_classifier_targets_are_valid_verdict_classes():
    for cls, verdicts in CLASSIFIERS.items():
        assert verdicts <= set(VERDICT_CLASSES), (
            f"{cls!r} maps to unknown verdict class(es) "
            f"{sorted(verdicts - set(VERDICT_CLASSES))}"
        )


def test_strategy_weights_are_normalized_scores():
    for name, weight in STRATEGY_WEIGHTS.items():
        assert 0.0 < weight <= 1.0, name


def test_explain_metrics_shape():
    names = [name for name, _, _ in EXPLAIN_METRICS]
    assert len(names) == len(set(names)) == 4
    assert all(name.startswith("explain_") for name in names)


# ------------------------------------------------------------ verdicts


def test_verdict_rejects_unknown_class():
    with pytest.raises(ValueError, match="unknown verdict class"):
        BottleneckVerdict(cls="cosmic_rays", score=0.5, strategy="x")


def test_verdict_rejects_out_of_range_score():
    with pytest.raises(ValueError, match="score"):
        BottleneckVerdict(cls="healthy", score=1.5, strategy="x")


# ---------------------------------------------------------- strategies


def test_daemon_health_fires_on_direct_daemon_down():
    verdict = _strategy_daemon_health(
        _features(daemons_failed_peak=1.0),
        [_Alert("daemon_down")],
        _Engine(),
    )
    assert verdict.cls == "pipeline_self_inflicted"
    assert verdict.strategy == "daemon_health"
    assert any("daemons_failed_peak=1" in t for t in verdict.thresholds_fired)


def test_daemon_health_ignores_retries_with_no_daemon_down():
    # retry_growth alone, with every daemon up at fire time, is the
    # transport strategy's evidence — not the pipeline's.
    verdict = _strategy_daemon_health(
        _features(),
        [_Alert("retry_growth")],
        _Engine({"daemons_failed": 0.0}),
    )
    assert verdict is None


def test_transport_attributes_only_when_nothing_else_broken():
    incidents = [_Alert("queue_backlog")]
    healthy_world = _Engine({
        "daemons_failed": 0.0, "slow_pending": 0.0,
        "store_replicas_down": 0.0,
    })
    verdict = _strategy_transport_pressure(
        _features(queue_depth_peak=100.0), incidents, healthy_world)
    assert verdict.cls == "network_transport"
    assert verdict.evidence["rules"] == ["queue_backlog"]


@pytest.mark.parametrize("broken", [
    {"daemons_failed": 1.0},
    {"slow_pending": 5.0},
    {"store_replicas_down": 1.0},
])
def test_transport_excludes_incidents_with_collateral_cause(broken):
    # The same alert fired while a daemon/store was down is NOT
    # creditable to the network (honest at-fire-time attribution).
    verdict = _strategy_transport_pressure(
        _features(queue_depth_peak=100.0),
        [_Alert("queue_backlog")],
        _Engine(broken),
    )
    assert verdict is None


def test_storage_stall_fires_on_load_correlation_alone():
    verdict = _strategy_storage_stall(
        _features(fs_load_degenerate=False, fs_load_r=0.9, fs_name="lustre"),
        [],
        _Engine(),
    )
    assert verdict.cls == "fs_contention"
    assert any("fs_load_r" in t for t in verdict.thresholds_fired)
    assert any("lustre" in r.action for r in verdict.recommendations)


def test_storage_stall_ignores_degenerate_correlation():
    verdict = _strategy_storage_stall(
        _features(fs_load_degenerate=True, fs_load_r=0.9),
        [],
        _Engine(),
    )
    assert verdict is None


def test_rank_imbalance_needs_enough_events():
    skewed = _features(rank_imbalance_ratio=5.0, n_events=100)
    verdict = _strategy_rank_imbalance(skewed, [], _Engine())
    assert verdict.cls == "app_imbalance"

    sparse = _features(rank_imbalance_ratio=5.0, n_events=3)
    assert _strategy_rank_imbalance(sparse, [], _Engine()) is None


def test_metadata_mix_on_metadata_heavy_job():
    verdict = _strategy_metadata_mix(
        _features(workload_class="metadata-intensive", n_events=50,
                  metadata_op_fraction=0.8),
        [],
        _Engine(),
    )
    assert verdict.cls == "metadata"
    assert _strategy_metadata_mix(_features(), [], _Engine()) is None


# ------------------------------------------------ ground-truth scoring


@dataclass(frozen=True)
class _Applied:
    t: float
    kind: str
    detail: str


def _verdict(cls, score=0.8, strategy="s"):
    return BottleneckVerdict(cls=cls, score=score, strategy=strategy)


def test_score_clean_run_expects_exactly_healthy():
    score = score_verdicts([_verdict("healthy", 1.0, "baseline")], [])
    assert score.expected == ["healthy"]
    assert score.ok()


def test_score_clean_run_rejects_false_positive():
    score = score_verdicts([_verdict("fs_contention")], [])
    assert not score.ok()
    assert score.unexpected_classes() == ["fs_contention"]


def test_score_matches_fault_classes_via_classifiers():
    applied = [
        _Applied(0.2, "link_degrade", "head -- shirley x50"),
        _Applied(0.5, "link_restore", "head -- shirley"),
        _Applied(0.9, "slow_store_begin", "shirley"),
        _Applied(1.3, "slow_store_end", "shirley"),
    ]
    score = score_verdicts(
        [_verdict("network_transport"), _verdict("fs_contention")], applied)
    assert score.ok()
    assert score.confusion["link_degrade"]["matched"]
    assert score.confusion["slow_store"]["matched"]


def test_score_reports_missing_class():
    applied = [
        _Applied(0.2, "daemon_crash", "l1 (head)"),
        _Applied(0.7, "daemon_recover", "l1 (head)"),
    ]
    score = score_verdicts([_verdict("fs_contention")], applied)
    assert not score.ok()
    assert score.missing_classes() == ["pipeline_self_inflicted"]
    assert not score.confusion["daemon_crash"]["matched"]
    assert "NO" in score.render_text()


# ------------------------------------------------ campaign end-to-end


@pytest.fixture(scope="module")
def faulted():
    return explain_campaign(seed=42, lane="slow")


@pytest.fixture(scope="module")
def clean():
    return explain_campaign(seed=42, lane="slow", faults=None)


def test_campaign_classifies_every_injected_class(faulted):
    score = faulted.score
    assert score.ok(), score.to_dict()
    assert score.recall == score.precision == 1.0
    assert set(faulted.report.classes()) == {
        "fs_contention", "network_transport", "pipeline_self_inflicted",
    }


def test_campaign_verdicts_are_ranked_and_evidence_linked(faulted):
    verdicts = faulted.report.verdicts
    assert [v.score for v in verdicts] == sorted(
        (v.score for v in verdicts), reverse=True)
    for v in verdicts:
        assert v.thresholds_fired, v.strategy
        assert v.recommendations, v.strategy
        assert v.evidence["incidents"], v.strategy
        assert v.evidence["signals"], v.strategy
        assert v.evidence["trace_id"] != ""


def test_clean_campaign_is_healthy(clean):
    report = clean.report
    assert report.healthy
    assert [v.cls for v in report.verdicts] == ["healthy"]
    assert report.primary.strategy == "baseline"
    assert clean.score.ok()


def test_explain_gauges_condense_the_report(faulted, clean):
    g = explain_gauges(faulted.report)
    assert g["explain_verdicts"] == len(faulted.report.verdicts)
    assert g["explain_confidence"] == faulted.report.primary.score
    assert g["explain_strategies_fired"] == len(faulted.report.verdicts)
    assert g["explain_healthy"] == 0
    cg = explain_gauges(clean.report)
    assert cg == {"explain_verdicts": 1, "explain_confidence": 1.0,
                  "explain_strategies_fired": 0, "explain_healthy": 1}


def test_report_json_is_byte_stable_and_sorted(faulted):
    blob = faulted.report.to_json()
    assert blob == faulted.report.to_json()
    import json

    payload = json.loads(blob)
    assert list(payload) == sorted(payload)
    assert payload["job_id"] == faulted.report.job_id


def test_render_text_names_verdicts_and_thresholds(faulted):
    text = faulted.report.render_text(faulted.epoch)
    assert f"== bottleneck verdicts (job {faulted.report.job_id}) ==" in text
    assert "fired:" in text
    assert "-> " in text
    assert "primary:" in text


def test_verdicts_ride_the_flight_recorder(faulted):
    ring = faulted.world.flight_recorder.rings["verdicts"]
    assert ring.captured == len(faulted.report.verdicts)
    records = [r for _, r in ring.all()]
    assert {r["class"] for r in records} == set(faulted.report.classes())
    assert all(r["event"] == "verdict" for r in records)


def test_explain_plan_windows_are_disjoint_across_classes():
    """The plan's attribution honesty rests on non-overlap: the degrade
    and slow-store windows may not overlap anything of another class."""
    plan = explain_plan()
    windows = []
    for fault in plan.faults:
        name = type(fault).__name__
        if name == "LinkDegrade":
            windows.append(("transport", fault.at, fault.at + fault.duration))
        elif name == "SlowStore":
            windows.append(("storage", fault.at, fault.at + fault.duration))
        elif name == "DaemonCrash":
            windows.append(("pipeline", fault.at, fault.at + fault.down_for))
        elif name == "StoreCrash":
            windows.append(("pipeline", fault.at, fault.at + fault.down_for))
    for i, (cls_a, a0, a1) in enumerate(windows):
        for cls_b, b0, b1 in windows[i + 1:]:
            if cls_a == cls_b:
                continue  # same verdict class may overlap itself
            assert a1 <= b0 or b1 <= a0, (
                f"{cls_a} [{a0}, {a1}] overlaps {cls_b} [{b0}, {b1}]"
            )
