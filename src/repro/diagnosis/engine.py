"""The streaming diagnosis engine: rules evaluated *inside* sim time.

A :class:`DiagnosisEngine` arms against a campaign
:class:`~repro.experiments.world.World` as a periodic simulated
process.  Every ``eval_period_s`` of simulated time it samples the live
surfaces — the DSOS ingest tail, the telemetry collector's histograms,
every daemon's ``stats_snapshot()``, connector spill ledgers — into
sliding-window series, evaluates its declarative
:class:`~repro.diagnosis.rules.Rule` set, and drives alerts through the
``pending → firing → resolved`` lifecycle into an
:class:`~repro.diagnosis.alerts.IncidentLog`.

Purity: the engine's ticks are *weak* simulation events (see
:meth:`repro.sim.Environment.schedule`), so they can never extend a
run; evaluation is read-only, draws no randomness and schedules nothing
but its own next weak tick.  A seeded campaign with the engine armed is
byte-identical to one without — pinned by the property suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diagnosis.alerts import FIRING, PENDING, RESOLVED, Alert, IncidentLog
from repro.diagnosis.rules import default_rules
from repro.diagnosis.tail import IngestTail
from repro.diagnosis.windows import SeriesWindow
from repro.telemetry.collector import END_TO_END

__all__ = ["DiagnosisConfig", "DiagnosisEngine", "SAMPLED_SERIES", "WindowView"]

#: Every series the engine samples on each tick, as ``(name, unit,
#: description)`` — the declarative registry :meth:`DiagnosisEngine._sample`
#: iterates and the signal catalog (:mod:`repro.diagnosis.signals`) is
#: checked against: a series added here without a catalog entry fails
#: the catalog completeness check (``repro fleet --catalog --check``).
SAMPLED_SERIES = (
    ("stored_total", "messages",
     "messages landed in DSOS so far (cumulative)"),
    ("published_total", "messages",
     "messages published on compute daemons so far (cumulative)"),
    ("e2e_count", "messages",
     "stored messages with a measured end-to-end latency"),
    ("e2e_total_s", "seconds",
     "sum of end-to-end latencies over all stored messages"),
    ("daemons_failed", "daemons",
     "fabric daemons currently reporting failed"),
    ("forward_queue_depth", "messages",
     "total forward-outbox depth across the fabric"),
    ("retries_total", "sends",
     "forward send retries so far (cumulative)"),
    ("dead_letters_total", "messages",
     "messages dead-lettered after exhausted retries (cumulative)"),
    ("slow_pending", "messages",
     "messages deferred by an active slow-store episode"),
    ("spill_parked", "events",
     "events parked in connector spill buffers awaiting replay"),
    ("ingest_backlog", "messages",
     "queue depth + slow-store deferrals + spill-parked events"),
    ("store_replicas_down", "daemons",
     "dsosd replicas currently crashed (0 on a legacy flat cluster)"),
    ("store_under_replicated", "objects",
     "objects below min(R, live replicas) copies — repair owes them"),
    ("store_replica_lag", "objects",
     "worst applied-object gap between live replicas of one shard"),
    ("store_shard_skew", "objects",
     "visible-object spread between the fullest and emptiest shard"),
)


@dataclass(frozen=True)
class DiagnosisConfig:
    """Tuning for one engine: cadence, windows, rule thresholds."""

    #: Simulated seconds between rule evaluations.
    eval_period_s: float = 0.25
    #: Sliding-window width rules evaluate over.
    window_s: float = 1.0
    #: Default firing hysteresis: a condition must hold this long.
    for_duration_s: float = 0.5
    #: End-to-end latency SLO (windowed mean, seconds).
    latency_slo_s: float = 0.5
    #: Minimum stored messages in a window before the SLO rule speaks.
    slo_min_count: int = 10
    #: ``stored rate < collapse_frac * baseline`` counts as a collapse.
    collapse_frac: float = 0.25
    #: Trailing windows forming the collapse baseline.
    baseline_windows: int = 4
    #: Baseline rates below this (msgs/s) are "idle", not a baseline.
    min_baseline_rate: float = 20.0
    #: Σ forward outbox depth that counts as a backlog.
    queue_depth_threshold: int = 512
    #: Rank imbalance: worst rank > ratio × mean, over >= min events.
    imbalance_ratio: float = 4.0
    imbalance_min_events: int = 64
    #: Replica lag (objects) a quorum-replicated store may carry before
    #: the replica_lag rule speaks.
    replica_lag_threshold: int = 0
    #: Shard skew (objects between fullest and emptiest shard) before
    #: the shard_skew rule speaks.  Small campaigns are legitimately
    #: skewed — job-hash routing puts one job on one shard — so the
    #: default only catches fleet-scale imbalance.
    shard_skew_threshold: int = 1024
    #: Rule set override (None = :func:`default_rules` from this config).
    rules: tuple | None = None

    def __post_init__(self):
        if self.eval_period_s <= 0:
            raise ValueError("eval_period_s must be positive")
        if self.window_s < self.eval_period_s:
            raise ValueError("window_s must be >= eval_period_s")
        if self.for_duration_s < 0:
            raise ValueError("for_duration_s must be >= 0")


class WindowView:
    """What a rule sees at one tick: the windows, nothing else."""

    def __init__(self, engine: "DiagnosisEngine", now: float):
        self._engine = engine
        self.now = now
        self.window_s = engine.config.window_s

    def series(self, name: str) -> SeriesWindow:
        return self._engine.series(name)

    def rank_window_counts(self) -> dict[int, int]:
        """Stored messages per rank within the trailing window."""
        return self._engine.tail.rank_counts(self.now, self.window_s)

    def slowest_trace(self) -> tuple[float, str] | None:
        """``(e2e_latency_s, trace_id)`` of the slowest stored message
        so far — the exemplar a latency alert cites so an operator can
        jump straight to ``repro trace --trace-id``.  Read-only off the
        collector; ``None`` before anything stored."""
        return self._engine.world.telemetry.slowest_stored


class DiagnosisEngine:
    """Streaming rule evaluation against one world, in sim time."""

    def __init__(self, world, config: DiagnosisConfig | None = None):
        if getattr(world, "telemetry", None) is None:
            raise RuntimeError(
                "diagnosis needs pipeline telemetry; build the world with "
                "WorldConfig(telemetry=True, diagnosis=...)"
            )
        self.world = world
        self.config = config or DiagnosisConfig()
        self.rules = (
            self.config.rules
            if self.config.rules is not None
            else default_rules(self.config)
        )
        self.incidents = IncidentLog()
        self.tail = IngestTail(world.env)
        self._series: dict[str, SeriesWindow] = {}
        #: rule name -> SeriesWindow of evaluated values (dashboards).
        self.rule_series: dict[str, SeriesWindow] = {
            rule.name: SeriesWindow(rule.name) for rule in self.rules
        }
        self._active: dict[str, Alert] = {}
        self.ticks = 0
        self._armed = False
        hub = world.env.observers
        self._on_tick = hub.rule_tick
        self._on_alert = hub.alert

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        """Start the periodic evaluation process (weak ticks only)."""
        if self._armed:
            raise RuntimeError("diagnosis engine already armed")
        self._armed = True
        self.world.env.every(self.config.eval_period_s, self.tick, weak=True)

    # -- sampling ------------------------------------------------------

    def series(self, name: str) -> SeriesWindow:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = SeriesWindow(name)
        return s

    def _sample(self, now: float) -> None:
        world = self.world
        fabric = world.fabric
        collector = world.telemetry

        failed = 0
        queue_depth = 0
        retries = 0
        dead_letters = 0
        for daemon in fabric.all_daemons():
            snap = daemon.stats_snapshot()
            failed += 1 if snap["failed"] else 0
            for fwd in snap["forwards"]:
                queue_depth += fwd["queue_depth"]
                retries += fwd["retries"]
                dead_letters += fwd["dead_letters"]

        published = sum(
            d.streams.stats.published for d in fabric.compute_daemons.values()
        )
        spill_parked = sum(
            c.stats.events_spilled - c.stats.events_replayed
            for c in world.connectors
        )
        slow_pending = world.store.slow_pending

        e2e = collector.histograms.get(END_TO_END)
        e2e_count = e2e.count if e2e is not None else 0
        e2e_total = e2e.total if e2e is not None else 0.0

        stored = self.tail.messages
        backlog = queue_depth + slow_pending + spill_parked
        store_health = world.dsos.cluster.health_summary()

        values = {
            "stored_total": stored,
            "published_total": published,
            "e2e_count": e2e_count,
            "e2e_total_s": e2e_total,
            "daemons_failed": failed,
            "forward_queue_depth": queue_depth,
            "retries_total": retries,
            "dead_letters_total": dead_letters,
            "slow_pending": slow_pending,
            "spill_parked": spill_parked,
            "ingest_backlog": backlog,
            "store_replicas_down": store_health["replicas_down"],
            "store_under_replicated": store_health["under_replicated"],
            "store_replica_lag": store_health["replica_lag"],
            "store_shard_skew": store_health["shard_skew"],
        }
        for name, _, _ in SAMPLED_SERIES:
            self.series(name).append(now, values[name])

    # -- evaluation ----------------------------------------------------

    def tick(self) -> None:
        """One evaluation: sample, evaluate every rule, drive alerts."""
        now = self.world.env.now
        self.ticks += 1
        self._sample(now)
        view = WindowView(self, now)
        for rule in self.rules:
            ev = rule.evaluate(view)
            self.rule_series[rule.name].append(now, ev.value)
            self._drive(rule, ev, now)
        for callback in self._on_tick:
            callback(now, self)

    def _drive(self, rule, ev, now: float) -> None:
        alert = self._active.get(rule.name)
        if ev.active:
            if alert is None:
                alert = Alert(
                    rule=rule.name, severity=rule.severity,
                    t_pending=now, threshold=ev.threshold,
                )
                self._active[rule.name] = alert
                for callback in self._on_alert:
                    callback(now, alert, PENDING)
            alert.observe(ev.value, ev.detail)
            if (
                alert.state == PENDING
                and now - alert.t_pending >= rule.for_duration_s
            ):
                alert.fire(now)
                self.incidents.record(alert)
                for callback in self._on_alert:
                    callback(now, alert, FIRING)
        elif alert is not None:
            if alert.state == FIRING:
                alert.resolve(now)
                for callback in self._on_alert:
                    callback(now, alert, RESOLVED)
            # A pending alert whose condition cleared is hysteresis
            # doing its job: discard silently.
            del self._active[rule.name]

    # -- introspection -------------------------------------------------

    def firing(self) -> list:
        """Alerts firing right now."""
        return self.incidents.firing()
