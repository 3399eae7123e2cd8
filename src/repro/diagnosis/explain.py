"""Explainable bottleneck classification over one job's evidence.

The paper's end goal is not alert firing but *explanation*: telling a
user at run time **why** their I/O is slow.  This module runs a set of
interpretable, weighted heuristic *strategies* over a
:class:`~repro.diagnosis.features.FeatureVector` plus the incident log,
each emitting a scored :class:`BottleneckVerdict` naming one of
:data:`VERDICT_CLASSES` with the exact feature thresholds that fired,
evidence links (incident ids, rules, catalog signals, the slowest
trace) and actionable :class:`Recommendation`\\ s.

Attribution is observable-only — strategies may read features and
incidents, never the injected ground truth.  The ground truth is used
*after* classification: :func:`score_verdicts` folds the
:class:`~repro.faults.injector.FaultInjector` log through
:func:`~repro.diagnosis.scoring.fault_windows` and the
:data:`CLASSIFIERS` map (the verdict-level sibling of
:data:`~repro.diagnosis.scoring.DETECTORS`) into per-class
precision/recall/confusion — ``repro explain --check`` requires both
at 1.0 on the slow and fast lanes, with a fault-free control run
classifying ``healthy``.

Everything is a deterministic pure read over a finished world: a
campaign explained post-hoc is byte-identical to one never explained —
pinned by the explain property suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.diagnosis.scoring import fault_windows

__all__ = [
    "CLASSIFIERS",
    "EXPLAIN_METRICS",
    "BottleneckVerdict",
    "ExplainReport",
    "ExplainScore",
    "Recommendation",
    "STRATEGY_WEIGHTS",
    "VERDICT_CLASSES",
    "check_explain",
    "explain_campaign",
    "explain_gauges",
    "explain_job",
    "explain_plan",
    "score_verdicts",
]

#: Every verdict class a strategy may emit, sorted.
VERDICT_CLASSES = (
    "app_imbalance",
    "fs_contention",
    "healthy",
    "metadata",
    "network_transport",
    "pipeline_self_inflicted",
)

#: Fault class -> verdict classes that count as classifying it
#: correctly (the verdict-level sibling of ``scoring.DETECTORS``; the
#: census test pins that every fault class appears in both).
CLASSIFIERS = {
    "daemon_crash": frozenset({"pipeline_self_inflicted"}),
    "link_partition": frozenset({"network_transport"}),
    "link_degrade": frozenset({"network_transport"}),
    "slow_store": frozenset({"fs_contention"}),
    "store_crash": frozenset({"pipeline_self_inflicted"}),
    "flaky_transport": frozenset({"network_transport"}),
}

#: Strategy name -> weight (the score each contributes at full
#: evidence strength).  Ordering ties in the report are broken by
#: (-score, class, strategy), so weights double as display priority.
STRATEGY_WEIGHTS = {
    "daemon_health": 1.0,
    "store_health": 0.95,
    "storage_stall": 0.9,
    "transport_pressure": 0.85,
    "rank_imbalance": 0.7,
    "metadata_mix": 0.6,
}

#: Explain-layer self-metrics (catalogued in ``signals.py``, exported
#: per cluster via OpenMetrics).
EXPLAIN_METRICS = (
    ("explain_verdicts", "verdicts",
     "bottleneck verdicts emitted for the scanned job (healthy "
     "baseline included)"),
    ("explain_confidence", "score",
     "confidence score of the primary bottleneck verdict (0-1)"),
    ("explain_strategies_fired", "strategies",
     "classifier strategies whose thresholds fired for the scanned job"),
    ("explain_healthy", "boolean",
     "1 when the primary verdict is healthy (no bottleneck named)"),
)


@dataclass(frozen=True)
class Recommendation:
    """One actionable step attached to a verdict."""

    action: str
    rationale: str

    def to_dict(self) -> dict:
        return {"action": self.action, "rationale": self.rationale}


@dataclass
class BottleneckVerdict:
    """One strategy's scored classification with its evidence."""

    cls: str
    score: float
    strategy: str
    #: The exact ``feature comparator threshold`` strings that fired.
    thresholds_fired: tuple = ()
    #: Evidence links: ``{"incidents": [ids], "rules": [...],
    #: "signals": [...], "trace_id": str, "windows": {...}}``.
    evidence: dict = field(default_factory=dict)
    recommendations: tuple = ()

    def __post_init__(self):
        if self.cls not in VERDICT_CLASSES:
            raise ValueError(f"unknown verdict class {self.cls!r}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "class": self.cls,
            "score": self.score,
            "strategy": self.strategy,
            "thresholds_fired": list(self.thresholds_fired),
            "evidence": self.evidence,
            "recommendations": [r.to_dict() for r in self.recommendations],
        }


# -- evidence helpers ------------------------------------------------------


def _rule_signals(rules) -> list[str]:
    """Catalog signal names feeding any of ``rules`` (evidence links
    into the signal catalog)."""
    from repro.diagnosis.signals import default_catalog

    return sorted(
        s.name for s in default_catalog() if s.rule and s.rule in set(rules)
    )


def _evidence(incidents, features, *, windows: dict | None = None) -> dict:
    """One verdict's evidence-link block, deterministic ordering."""
    rules = sorted({a.rule for a in incidents})
    return {
        "incidents": sorted(a.incident_id for a in incidents),
        "rules": rules,
        "signals": _rule_signals(rules),
        "trace_id": features.slowest_trace_id,
        "windows": dict(sorted((windows or {}).items())),
    }


def _fired(thresholds: list) -> tuple:
    """Keep the threshold strings whose predicate held."""
    return tuple(text for text, held in thresholds if held)


def _score(weight: float, strength: float) -> float:
    """Weighted, clamped evidence strength -> verdict score."""
    return round(weight * max(0.0, min(1.0, strength)), 4)


# -- strategies ------------------------------------------------------------
#
# Each strategy is ``f(features, incidents, engine) -> verdict | None``.
# ``incidents`` is the fired incident list; ``engine`` gives read-only
# access to the sampled series for time-of-fire attribution (e.g. "was
# a daemon down when this latency alert fired?").


def _at_fire(engine, series: str, alert) -> float:
    return engine.series(series).value_at(alert.t_fired)


def _strategy_daemon_health(features, incidents, engine):
    """Monitoring-pipeline daemon failures: the pipeline hurt itself."""
    direct = [a for a in incidents if a.rule in ("daemon_down",
                                                 "spill_growth")]
    # Retries/dead letters only implicate the pipeline when a daemon
    # was actually down as they fired (otherwise they belong to the
    # transport strategy).
    collateral = [
        a for a in incidents
        if a.rule in ("retry_growth", "deadletter_growth")
        and _at_fire(engine, "daemons_failed", a) > 0
    ]
    thresholds = _fired([
        (f"daemons_failed_peak={features.daemons_failed_peak:g} > 0",
         features.daemons_failed_peak > 0),
        (f"spill_parked_peak={features.spill_parked_peak:g} > 0",
         features.spill_parked_peak > 0),
    ])
    if not (direct or (thresholds and collateral)):
        return None
    strength = 0.6 + 0.1 * len(direct) + 0.05 * len(collateral)
    return BottleneckVerdict(
        cls="pipeline_self_inflicted",
        score=_score(STRATEGY_WEIGHTS["daemon_health"], strength),
        strategy="daemon_health",
        thresholds_fired=thresholds,
        evidence=_evidence(direct + collateral, features, windows={
            "daemons_failed_peak": features.daemons_failed_peak,
            "spill_parked_peak": features.spill_parked_peak,
        }),
        recommendations=(
            Recommendation(
                "restart or fail over the crashed aggregation daemon",
                "spill buffers park events while an ldmsd is down; the "
                "application's I/O itself is healthy",
            ),
            Recommendation(
                "verify connector spill replay drained after recovery",
                "parked events replay on reconnect; a non-zero residue "
                "means monitoring data loss, not application slowness",
            ),
        ),
    )


def _strategy_store_health(features, incidents, engine):
    """Replicated-store degradation: also the pipeline's own fault."""
    store_rules = ("under_replication", "replica_lag", "shard_skew")
    direct = [a for a in incidents if a.rule in store_rules]
    thresholds = _fired([
        (f"store_replicas_down_peak={features.store_replicas_down_peak:g}"
         " > 0", features.store_replicas_down_peak > 0),
        (f"store_under_replicated_peak="
         f"{features.store_under_replicated_peak:g} > 0",
         features.store_under_replicated_peak > 0),
        (f"store_replica_lag_peak={features.store_replica_lag_peak:g} > 0",
         features.store_replica_lag_peak > 0),
    ])
    if not (direct or features.store_replicas_down_peak > 0):
        return None
    strength = 0.6 + 0.1 * len(direct) + 0.1 * min(
        features.store_replicas_down_peak, 2.0)
    return BottleneckVerdict(
        cls="pipeline_self_inflicted",
        score=_score(STRATEGY_WEIGHTS["store_health"], strength),
        strategy="store_health",
        thresholds_fired=thresholds,
        evidence=_evidence(direct, features, windows={
            "store_replicas_down_peak": features.store_replicas_down_peak,
            "store_under_replicated_peak":
                features.store_under_replicated_peak,
        }),
        recommendations=(
            Recommendation(
                "restart the crashed dsosd replica and let anti-entropy "
                "repair close the gap",
                "quorum ingest kept writes durable; under-replication "
                "is a monitoring-store risk, not an application fault",
            ),
        ),
    )


def _strategy_storage_stall(features, incidents, engine):
    """Storage-side contention: the store stalled or op durations track
    the file system's load factor (the LASSi signal)."""
    direct = [a for a in incidents if a.rule in ("store_stall",
                                                 "throughput_collapse")]
    correlated = (not features.fs_load_degenerate
                  and abs(features.fs_load_r) >= 0.6)
    thresholds = _fired([
        (f"slow_pending_peak={features.slow_pending_peak:g} > 0",
         features.slow_pending_peak > 0),
        (f"|fs_load_r|={abs(features.fs_load_r):.3f} >= 0.6", correlated),
    ])
    if not (direct or correlated):
        return None
    strength = 0.6 + 0.15 * len(direct) + (0.2 if correlated else 0.0)
    recs = [
        Recommendation(
            "check the storage backend for a stall episode; deferred "
            "ingest drains once it lifts",
            "messages queued behind the store during the stall window — "
            "read/write segments themselves kept completing",
        ),
    ]
    if correlated:
        recs.append(Recommendation(
            f"reschedule against {features.fs_name} off-peak or rebalance "
            f"the job across file systems",
            f"op durations track the {features.fs_name} load factor "
            f"(r={features.fs_load_r:.2f}) — shared-load contention",
        ))
    return BottleneckVerdict(
        cls="fs_contention",
        score=_score(STRATEGY_WEIGHTS["storage_stall"], strength),
        strategy="storage_stall",
        thresholds_fired=thresholds,
        evidence=_evidence(direct, features, windows={
            "slow_pending_peak": features.slow_pending_peak,
            "fs_load_r": features.fs_load_r,
            "read_risk": features.read_risk,
            "write_risk": features.write_risk,
        }),
        recommendations=tuple(recs),
    )


def _strategy_transport_pressure(features, incidents, engine):
    """Network/transport pressure not explained by daemon or store
    failures at fire time."""
    transport_rules = ("latency_slo", "queue_backlog", "retry_growth")
    attributed = [
        a for a in incidents
        if a.rule in transport_rules
        and _at_fire(engine, "daemons_failed", a) == 0
        and _at_fire(engine, "slow_pending", a) == 0
        and _at_fire(engine, "store_replicas_down", a) == 0
    ]
    if not attributed:
        return None
    thresholds = _fired([
        (f"queue_depth_peak={features.queue_depth_peak:g} > 0",
         features.queue_depth_peak > 0),
        (f"retries_total={features.retries_total:g} > 0",
         features.retries_total > 0),
    ])
    strength = 0.6 + 0.1 * len(attributed)
    return BottleneckVerdict(
        cls="network_transport",
        score=_score(STRATEGY_WEIGHTS["transport_pressure"], strength),
        strategy="transport_pressure",
        thresholds_fired=thresholds,
        evidence=_evidence(attributed, features, windows={
            "queue_depth_peak": features.queue_depth_peak,
            "retries_total": features.retries_total,
        }),
        recommendations=(
            Recommendation(
                "inspect the compute-to-aggregator links for degradation "
                "or partition",
                "latency/backlog alerts fired while every daemon and the "
                "store were healthy — the transport itself is implicated",
            ),
            Recommendation(
                "follow the slowest trace's forward hop for the gating "
                "link", "the exemplar trace pinpoints which hop absorbed "
                "the latency",
            ),
        ),
    )


def _strategy_rank_imbalance(features, incidents, engine):
    """Application-side rank imbalance (the app's own I/O shape)."""
    direct = [a for a in incidents if a.rule == "rank_imbalance"]
    ratio_threshold = engine.config.imbalance_ratio
    min_events = engine.config.imbalance_min_events
    skewed = (features.rank_imbalance_ratio >= ratio_threshold
              and features.n_events >= min_events)
    if not (direct or skewed):
        return None
    thresholds = _fired([
        (f"rank_imbalance_ratio={features.rank_imbalance_ratio:.3f} >= "
         f"{ratio_threshold:g}", skewed),
    ])
    strength = 0.6 + 0.2 * len(direct) + (0.2 if skewed else 0.0)
    return BottleneckVerdict(
        cls="app_imbalance",
        score=_score(STRATEGY_WEIGHTS["rank_imbalance"], strength),
        strategy="rank_imbalance",
        thresholds_fired=thresholds,
        evidence=_evidence(direct, features, windows={
            "rank_imbalance_ratio": features.rank_imbalance_ratio,
            "busiest_rank": features.busiest_rank,
        }),
        recommendations=(
            Recommendation(
                f"rebalance I/O off rank {features.busiest_rank} "
                f"(collective buffering or two-phase I/O)",
                "one rank carries a disproportionate share of the "
                "job's I/O events",
            ),
        ),
    )


def _strategy_metadata_mix(features, incidents, engine):
    """Metadata-dominated op mix: opens/closes crowd out data ops."""
    heavy = (features.workload_class == "metadata-intensive"
             or features.metadata_op_fraction > 0.5)
    if not heavy or features.n_events == 0:
        return None
    thresholds = _fired([
        (f"metadata_op_fraction={features.metadata_op_fraction:.3f} > 0.5",
         features.metadata_op_fraction > 0.5),
        (f"workload_class={features.workload_class} == "
         f"metadata-intensive",
         features.workload_class == "metadata-intensive"),
    ])
    return BottleneckVerdict(
        cls="metadata",
        score=_score(STRATEGY_WEIGHTS["metadata_mix"],
                     0.6 + 0.4 * features.metadata_op_fraction),
        strategy="metadata_mix",
        thresholds_fired=thresholds,
        evidence=_evidence([], features, windows={
            "metadata_op_fraction": features.metadata_op_fraction,
            "n_opens": features.n_opens,
        }),
        recommendations=(
            Recommendation(
                "batch file opens or switch to a shared-file layout",
                "metadata ops dominate the event stream; data transfers "
                "are not the bottleneck",
            ),
        ),
    )


_STRATEGIES = (
    _strategy_daemon_health,
    _strategy_store_health,
    _strategy_storage_stall,
    _strategy_transport_pressure,
    _strategy_rank_imbalance,
    _strategy_metadata_mix,
)


# -- the report ------------------------------------------------------------


@dataclass
class ExplainReport:
    """One job's full explanation: features plus ranked verdicts."""

    job_id: int
    features: object
    verdicts: list = field(default_factory=list)

    @property
    def primary(self) -> BottleneckVerdict:
        return self.verdicts[0]

    @property
    def healthy(self) -> bool:
        return self.primary.cls == "healthy"

    def classes(self) -> list[str]:
        """Sorted distinct verdict classes this report emitted."""
        return sorted({v.cls for v in self.verdicts})

    def to_dict(self, epoch: float = 0.0) -> dict:
        return {
            "job_id": self.job_id,
            "features": self.features.to_dict(),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "primary": self.primary.cls,
            "healthy": self.healthy,
        }

    def to_json(self, epoch: float = 0.0) -> str:
        """Byte-stable serialization (sorted keys, compact)."""
        return json.dumps(self.to_dict(epoch), sort_keys=True,
                          separators=(",", ":"))

    def render_text(self, epoch: float = 0.0) -> str:
        lines = [f"== bottleneck verdicts (job {self.job_id}) =="]
        lines.append(
            f"{'class':<24} {'score':>6} {'strategy':<19} evidence"
        )
        for v in self.verdicts:
            ev = v.evidence or {}
            bits = []
            if ev.get("incidents"):
                bits.append("incidents=" + ",".join(
                    str(i) for i in ev["incidents"]))
            if ev.get("rules"):
                bits.append("rules=" + ",".join(ev["rules"]))
            lines.append(
                f"{v.cls:<24} {v.score:>6.2f} {v.strategy:<19} "
                + ("; ".join(bits) if bits else "-")
            )
            for t in v.thresholds_fired:
                lines.append(f"    fired: {t}")
            for r in v.recommendations:
                lines.append(f"    -> {r.action}")
        lines.append(f"primary: {self.primary.cls} "
                     f"(score {self.primary.score:.2f})")
        return "\n".join(lines)


def explain_job(world, job_id: int) -> ExplainReport:
    """Classify one finished job's bottleneck, with evidence.

    Strictly post-hoc and read-only: derives the feature vector, runs
    every strategy, and ranks the verdicts by ``(-score, class)``.  A
    run with no strategy firing gets the ``healthy`` baseline verdict.
    """
    from repro.diagnosis.features import job_features

    engine = world.diagnosis
    features = job_features(world, job_id)
    incidents = [a for a in engine.incidents if a.t_fired is not None]

    verdicts = []
    for strategy in _STRATEGIES:
        verdict = strategy(features, incidents, engine)
        if verdict is not None:
            verdicts.append(verdict)
    verdicts.sort(key=lambda v: (-v.score, v.cls, v.strategy))
    if not verdicts:
        verdicts.append(BottleneckVerdict(
            cls="healthy", score=1.0, strategy="baseline",
            thresholds_fired=("no strategy threshold fired",),
            evidence=_evidence([], features),
            recommendations=(),
        ))
    return ExplainReport(job_id=job_id, features=features,
                         verdicts=verdicts)


def explain_gauges(report: ExplainReport) -> dict:
    """The report condensed into the catalogued explain gauges."""
    return {
        "explain_verdicts": len(report.verdicts),
        "explain_confidence": report.primary.score,
        "explain_strategies_fired": sum(
            1 for v in report.verdicts if v.strategy != "baseline"
        ),
        "explain_healthy": 1 if report.healthy else 0,
    }


# -- ground-truth scoring --------------------------------------------------


@dataclass
class ExplainScore:
    """Verdicts correlated with injected-fault ground truth."""

    #: Verdict classes the injected faults demand (``["healthy"]`` on
    #: a clean run).
    expected: list = field(default_factory=list)
    #: Verdict classes the report emitted.
    emitted: list = field(default_factory=list)
    #: ``fault class -> {"expected": [...], "matched": bool}``.
    confusion: dict = field(default_factory=dict)

    @property
    def recall(self) -> float:
        if not self.expected:
            return 1.0
        hit = sum(1 for c in self.expected if c in self.emitted)
        return hit / len(self.expected)

    @property
    def precision(self) -> float:
        if not self.emitted:
            return 1.0
        hit = sum(1 for c in self.emitted if c in self.expected)
        return hit / len(self.emitted)

    def missing_classes(self) -> list[str]:
        return sorted(c for c in self.expected if c not in self.emitted)

    def unexpected_classes(self) -> list[str]:
        return sorted(c for c in self.emitted if c not in self.expected)

    def ok(self) -> bool:
        return self.recall == 1.0 and self.precision == 1.0

    def to_dict(self) -> dict:
        return {
            "expected": list(self.expected),
            "emitted": list(self.emitted),
            "confusion": self.confusion,
            "recall": self.recall,
            "precision": self.precision,
            "missing": self.missing_classes(),
            "unexpected": self.unexpected_classes(),
            "ok": self.ok(),
        }

    def render_text(self) -> str:
        lines = ["== classification scorecard =="]
        lines.append(f"{'fault class':<18} {'expected verdict':<26} matched")
        for cls in sorted(self.confusion):
            row = self.confusion[cls]
            lines.append(
                f"{cls:<18} {','.join(row['expected']):<26} "
                f"{'yes' if row['matched'] else 'NO'}"
            )
        lines.append(
            f"recall={self.recall:.0%} precision={self.precision:.0%}"
        )
        missing = self.missing_classes()
        if missing:
            lines.append("MISSING verdict classes: " + ", ".join(missing))
        unexpected = self.unexpected_classes()
        if unexpected:
            lines.append("UNEXPECTED verdict classes: "
                         + ", ".join(unexpected))
        return "\n".join(lines)


def score_verdicts(verdicts, applied) -> ExplainScore:
    """Correlate emitted verdicts with the applied-fault log.

    Class-level, like :meth:`DiagnosisScore.classes`: every injected
    fault class must be covered by a verdict in its
    :data:`CLASSIFIERS` set (recall), and every emitted non-healthy
    verdict class must be demanded by some injected class (precision).
    A clean run expects exactly ``healthy``.
    """
    windows = fault_windows(applied)
    fault_classes = sorted({w.cls for w in windows})
    expected = sorted({
        vc for cls in fault_classes for vc in CLASSIFIERS.get(cls, ())
    }) or ["healthy"]
    emitted = sorted({v.cls for v in verdicts})
    confusion = {
        cls: {
            "expected": sorted(CLASSIFIERS.get(cls, ())),
            "matched": bool(set(CLASSIFIERS.get(cls, ()))
                            & set(emitted)),
        }
        for cls in fault_classes
    }
    return ExplainScore(expected=expected, emitted=emitted,
                        confusion=confusion)


# -- the campaign ----------------------------------------------------------


def explain_plan():
    """The explain chaos plan: the diagnose campaign's three classes
    plus a replicated-store crash — every fault class ``repro explain
    --check`` scores against (DaemonCrash, LinkDegrade, SlowStore,
    StoreCrash).

    The windows are deliberately *disjoint* (degrade, then slow store,
    then the two pipeline faults) so each verdict's attribution is
    honest: when ``queue_backlog`` fires mid-degrade nothing else is
    broken, so the transport strategy's at-fire-time exclusions
    (``daemons_failed == 0``, ``slow_pending == 0``, replicas up) hold,
    and conversely the retry storm that follows the daemon crash is
    *not* creditable to the network.  The degrade hits the
    ``head``--``shirley`` aggregation trunk — the one link every
    L1→L2 forward crosses — with a factor large enough that message
    serialization, not propagation, dominates and the forward queue
    visibly builds.
    """
    from repro.faults import (
        DaemonCrash,
        FaultPlan,
        LinkDegrade,
        SlowStore,
        StoreCrash,
    )

    return FaultPlan((
        LinkDegrade("head", "shirley", at=0.2, duration=0.4, factor=1e6),
        SlowStore(at=0.9, duration=0.4),
        DaemonCrash("l1", at=1.6, down_for=0.5),
        StoreCrash(0, at=1.7, down_for=0.6, tear_tail=True),
    ))


@dataclass
class ExplainCampaign:
    """One explain campaign: the world, its job, and the report."""

    world: object
    result: object
    report: ExplainReport

    @property
    def epoch(self) -> float:
        return self.world.config.epoch

    @property
    def applied(self) -> list:
        injector = self.world.fault_injector
        return [] if injector is None else injector.applied

    @property
    def score(self) -> ExplainScore:
        return score_verdicts(self.report.verdicts, self.applied)


def explain_campaign(seed: int = 42, *, lane: str = "fast",
                     faults="explain") -> ExplainCampaign:
    """Run the four-class chaos campaign and explain its job.

    Replicated store (2 shards × 2 replicas, quorum 2) so the
    ``StoreCrash`` class is injectable; diagnosis + flight recorder
    armed at the forensics cadence, with ``queue_depth_threshold``
    lowered to 64 so the trunk-degrade's queue build (≈100 messages on
    this job) crosses it while the clean control (peak 0) stays clear.
    ``faults=None`` is the clean control run.  The report's verdicts
    ride the flight recorder as the ``verdicts`` evidence stream.
    ``lane`` is a :data:`~repro.experiments.chaos.LANES` name.
    """
    from repro.experiments.chaos import (
        diagnosis_config,
        flightrec_config,
        run_campaign,
    )

    world, result = run_campaign(
        seed, lane=lane,
        faults=explain_plan() if faults == "explain" else faults,
        iterations=24,
        diagnosis=diagnosis_config(queue_depth_threshold=64),
        flightrec=flightrec_config(),
        dsos_shards=2, dsos_replication=2, dsos_write_quorum=2,
    )
    world.flight_recorder.flush()
    report = explain_job(world, result.job_id)
    world.flight_recorder.record_verdicts(report)
    return ExplainCampaign(world=world, result=result, report=report)


# -- the --check body ------------------------------------------------------


def check_explain(seed: int = 42, lanes=None):
    """The ``repro explain --check`` verdict.

    Per lane (default :data:`~repro.experiments.chaos.CHECK_LANES`):
    (1) the four-class chaos campaign classifies with per-class
    precision and recall 1.0 against injected ground truth, (2) the
    report JSON is byte-stable across same-seed reruns, and (3) the
    fault-free control run classifies ``healthy``.  Returns
    ``(ok, lines)``.
    """
    from repro.experiments.chaos import CHECK_LANES, check_lanes

    def campaign(lane, faults="explain"):
        return explain_campaign(seed, lane=lane, faults=faults)

    def judge(first, lane):
        failures = []
        score = first.score
        if not score.ok():
            detail = []
            if score.missing_classes():
                detail.append("missing: "
                              + ", ".join(score.missing_classes()))
            if score.unexpected_classes():
                detail.append("unexpected: "
                              + ", ".join(score.unexpected_classes()))
            failures.append(
                f"recall={score.recall:.0%} precision={score.precision:.0%}"
                + (" (" + "; ".join(detail) + ")" if detail else "")
            )
        clean = campaign(lane, faults=None)
        if not clean.report.healthy or clean.report.classes() != ["healthy"]:
            failures.append("clean run classified "
                            + ", ".join(clean.report.classes())
                            + " (want healthy)")
        return failures, (
            f"classes {', '.join(score.emitted)} (recall={score.recall:.0%} "
            f"precision={score.precision:.0%}); clean run healthy"
        )

    return check_lanes(campaign, lambda c: c.report.to_json(), judge,
                       what="explain report", lanes=lanes or CHECK_LANES)
