"""Post-incident forensics over flight-recorder bundles.

Three tools over :class:`~repro.telemetry.flightrec.ForensicBundle`
snapshots, plus the capture campaign that produces them:

* :func:`bundle_timeline` — the merged cross-layer event sequence of
  one bundle (alerts, rule windows, span tails, recovery hops, store
  census, probes, faults on one sim-time axis), renderable through the
  PanelData machinery (:func:`timeline_panel`) into the console.
* :func:`diff_bundles` — clean-run vs faulted-run comparison: which
  streams diverged first, with the sim-time of first divergence.
* :func:`match_bundles` — evidence correlation against injected
  ground truth: every fault class must have produced at least one
  bundle whose evidence names a signal feeding a detecting rule
  (:data:`~repro.diagnosis.scoring.DETECTORS`).

:func:`capture_campaign` runs the standard chaos plan with telemetry,
diagnosis and the flight recorder armed; :func:`check_forensics` is the
``repro forensics --capture --check`` body — it runs that campaign on
the requested lanes and verifies fault-class coverage, per-ring
reconciliation and bundle byte-stability across repeated same-seed
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.diagnosis.scoring import DETECTORS, fault_windows

__all__ = [
    "BundleDiff",
    "CaptureResult",
    "ClassMatch",
    "StreamDivergence",
    "bundle_timeline",
    "capture_campaign",
    "chaos_plan",
    "check_forensics",
    "diff_bundles",
    "diff_panel",
    "match_bundles",
    "timeline_panel",
]


# -- timeline reconstruction ---------------------------------------------


def _event_detail(stream: str, record: dict) -> str:
    """One compact deterministic detail string for a timeline row."""
    if stream == "rules":
        active = [
            f"{name}={value:g}"
            for name, value in sorted(record.get("values", {}).items())
            if value
        ]
        return " ".join(active[:4]) if active else "(all quiet)"
    skip = {"t", "event"}
    parts = []
    for key in sorted(record):
        if key in skip or record[key] in (None, ""):
            continue
        value = record[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def bundle_timeline(bundle) -> list[dict]:
    """The bundle's streams merged onto one sim-time axis.

    Rows are ``{"t", "stream", "event", "detail"}`` sorted by
    ``(t, stream, arrival order)`` — a deterministic total order, so the
    rendered timeline is byte-stable for byte-stable bundles.
    """
    rows = []
    for stream in sorted(bundle.streams):
        for index, record in enumerate(bundle.records(stream)):
            rows.append((
                record["t"], stream, index,
                {
                    "t": record["t"],
                    "stream": stream,
                    "event": record.get("event", ""),
                    "detail": _event_detail(stream, record),
                },
            ))
    rows.sort(key=lambda item: (item[0], item[1], item[2]))
    return [row for _, _, _, row in rows]


def timeline_panel(bundle):
    """The timeline as a console table panel (PanelData machinery)."""
    from repro.webservices.grafana import PanelData

    payload = [
        {
            "t": f"{row['t']:9.3f}",
            "stream": row["stream"],
            "event": row["event"],
            "detail": row["detail"],
        }
        for row in bundle_timeline(bundle)
    ]
    title = (
        f"bundle {bundle.bundle_id} · {bundle.trigger_kind}"
        f"({bundle.trigger_detail}) @ {bundle.t_trigger:.3f}s"
    )
    return PanelData(title=title, viz="table", payload=payload,
                     rows_queried=len(payload))


# -- bundle diffing ------------------------------------------------------


@dataclass(frozen=True)
class StreamDivergence:
    """First point where one stream's record sequences disagree."""

    stream: str
    #: Sim-time of the first diverging record (epoch-relative).
    t: float
    #: Index into the overlap-windowed record sequences.
    index: int
    a_event: str
    b_event: str

    def to_dict(self) -> dict:
        return {
            "stream": self.stream,
            "t": self.t,
            "index": self.index,
            "a": self.a_event,
            "b": self.b_event,
        }


@dataclass
class BundleDiff:
    """Clean-run vs faulted-run comparison of two bundles."""

    a_id: str
    b_id: str
    #: Window overlap the comparison ran over (``None`` = no overlap,
    #: nothing compared).
    overlap: tuple | None
    divergences: list = field(default_factory=list)

    @property
    def first(self) -> StreamDivergence | None:
        """The earliest-diverging stream (ties broken by stream name)."""
        if not self.divergences:
            return None
        return min(self.divergences, key=lambda d: (d.t, d.stream))

    def identical(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        first = self.first
        return {
            "a": self.a_id,
            "b": self.b_id,
            "overlap": None if self.overlap is None else list(self.overlap),
            "divergences": [d.to_dict() for d in sorted(
                self.divergences, key=lambda d: (d.t, d.stream))],
            "first_divergence": None if first is None else first.to_dict(),
        }


def _record_label(record: dict | None, other: dict | None) -> str:
    if record is None:
        return "(absent)"
    event = record.get("event", "")
    if event == "windows" and other is not None and other.get("event") == "windows":
        mine, theirs = record.get("values", {}), other.get("values", {})
        differing = [
            f"{name}={mine.get(name, 0.0):g}"
            for name in sorted(set(mine) | set(theirs))
            if mine.get(name) != theirs.get(name)
        ]
        return "windows " + " ".join(differing[:3]) if differing else "windows"
    detail = _event_detail("", record)
    return f"{event} {detail}".strip() if detail else event


def diff_bundles(a, b) -> BundleDiff:
    """Which streams diverged first, and when.

    Both bundles' records are restricted to the overlap of their two
    windows first (a clean-run snapshot spans the whole run; a trigger
    bundle only its ±window), then compared record-by-record per
    stream.  A length mismatch past the common prefix diverges at the
    first unmatched record.
    """
    lo = max(a.window[0], b.window[0])
    hi = min(a.window[1], b.window[1])
    if lo > hi:
        return BundleDiff(a.bundle_id, b.bundle_id, overlap=None)
    diff = BundleDiff(a.bundle_id, b.bundle_id, overlap=(lo, hi))
    for stream in sorted(set(a.streams) | set(b.streams)):
        ra = [r for r in a.records(stream) if lo <= r["t"] <= hi]
        rb = [r for r in b.records(stream) if lo <= r["t"] <= hi]
        for index in range(max(len(ra), len(rb))):
            rec_a = ra[index] if index < len(ra) else None
            rec_b = rb[index] if index < len(rb) else None
            if rec_a == rec_b:
                continue
            times = [r["t"] for r in (rec_a, rec_b) if r is not None]
            diff.divergences.append(StreamDivergence(
                stream=stream,
                t=min(times),
                index=index,
                a_event=_record_label(rec_a, rec_b),
                b_event=_record_label(rec_b, rec_a),
            ))
            break
    return diff


def diff_panel(diff: BundleDiff):
    """The diff as a console table panel."""
    from repro.webservices.grafana import PanelData

    payload = [
        {
            "t": f"{d.t:9.3f}",
            "stream": d.stream,
            "a": d.a_event,
            "b": d.b_event,
        }
        for d in sorted(diff.divergences, key=lambda d: (d.t, d.stream))
    ]
    first = diff.first
    verdict = (
        "identical in overlap" if first is None
        else f"first divergence: {first.stream} @ {first.t:.3f}s"
    )
    return PanelData(
        title=f"diff {diff.a_id} vs {diff.b_id} — {verdict}",
        viz="table", payload=payload, rows_queried=len(payload),
    )


# -- ground-truth correlation --------------------------------------------


@dataclass
class ClassMatch:
    """Bundles whose evidence names a signal detecting one fault class."""

    cls: str
    windows: int
    #: ``bundle_id -> sorted matching signal names`` (non-empty).
    bundles: dict = field(default_factory=dict)

    @property
    def matched(self) -> bool:
        return bool(self.bundles)

    def to_dict(self) -> dict:
        return {
            "class": self.cls,
            "windows": self.windows,
            "bundles": {k: list(v) for k, v in sorted(self.bundles.items())},
            "matched": self.matched,
        }


def match_bundles(applied, bundles, epoch: float,
                  grace_s: float = 1.0) -> dict[str, ClassMatch]:
    """Correlate frozen bundles against the injected-fault log.

    A bundle matches a fault class iff its trigger time falls inside
    one of the class's fault windows (plus ``grace_s`` past the end —
    alerts fire with hysteresis) *and* its evidence names at least one
    signal feeding a rule in :data:`DETECTORS` for that class.
    """
    from repro.diagnosis.signals import default_catalog

    signal_rule = {s.name: s.rule for s in default_catalog() if s.rule}
    matches: dict[str, ClassMatch] = {}
    windows = fault_windows(applied)
    for window in windows:
        match = matches.setdefault(window.cls, ClassMatch(window.cls, 0))
        match.windows += 1
        detectors = DETECTORS.get(window.cls, frozenset())
        t_begin = window.t_begin - epoch
        t_end = (
            math.inf if window.t_end is None
            else window.t_end - epoch + grace_s
        )
        for bundle in bundles:
            if not t_begin <= bundle.t_trigger <= t_end:
                continue
            hit_rules = detectors & set(bundle.evidence.get("rules", ()))
            signals = sorted(
                name for name in bundle.evidence.get("signals", ())
                if signal_rule.get(name) in hit_rules
            )
            if signals:
                match.bundles.setdefault(bundle.bundle_id, signals)
    return matches


# -- the capture campaign ------------------------------------------------


def chaos_plan(fail_after: int = 50):
    """The standard diagnosis chaos plan: an L1 crash (message-count
    triggered), a degraded compute→head link, and a store stall —
    the same three fault classes ``repro diagnose`` scores against."""
    from repro.faults import DaemonCrash, FaultPlan, LinkDegrade, SlowStore

    return FaultPlan((
        DaemonCrash("l1", after_messages=fail_after, down_for=0.5),
        LinkDegrade("nid00001", "head", at=0.2, duration=0.3, factor=50.0),
        SlowStore(at=0.1, duration=0.4),
    ))


@dataclass
class CaptureResult:
    """One recorder-armed campaign: the world and what it froze."""

    world: object
    result: object
    recorder: object

    @property
    def bundles(self) -> list:
        return self.recorder.bundles

    @property
    def epoch(self) -> float:
        return self.world.config.epoch

    @property
    def applied(self) -> list:
        injector = self.world.fault_injector
        return [] if injector is None else injector.applied

    def find(self, bundle_id: str):
        return self.recorder.bundle(bundle_id)


def capture_campaign(seed: int = 42, *, lane: str = "fast", faults="chaos",
                     fail_after: int = 50,
                     snapshot_id: str | None = None) -> CaptureResult:
    """Run the chaos campaign with diagnosis + flight recorder armed.

    ``faults="chaos"`` injects :func:`chaos_plan`; pass ``None`` for a
    clean control run (give it a ``snapshot_id`` so the recorder
    freezes a whole-run bundle to diff against).  Pending triggers are
    flushed after the drain, so a trigger near the end of the run still
    freezes its bundle.  ``lane`` is a :data:`~repro.experiments.chaos.LANES`
    name.
    """
    from repro.experiments.chaos import (
        diagnosis_config,
        flightrec_config,
        run_campaign,
    )

    world, result = run_campaign(
        seed, lane=lane,
        faults=chaos_plan(fail_after) if faults == "chaos" else faults,
        diagnosis=diagnosis_config(), flightrec=flightrec_config(),
    )
    world.flight_recorder.flush()
    if snapshot_id is not None:
        world.flight_recorder.snapshot(bundle_id=snapshot_id)
    return CaptureResult(world=world, result=result,
                         recorder=world.flight_recorder)


# -- the --check body ----------------------------------------------------


def check_forensics(seed: int = 42, lanes=None):
    """The ``repro forensics --capture --check`` verdict.

    Per lane (default :data:`~repro.experiments.chaos.CHECK_LANES`):
    run the chaos capture twice with the same seed and require (1)
    bundle JSON byte-stable across the runs, (2) every ring reconciling
    ``captured == retained + evicted``, and (3) every injected fault
    class matched by at least one bundle whose evidence names a
    detecting signal.  Returns ``(ok, lines)``.
    """
    from repro.experiments.chaos import CHECK_LANES, check_lanes

    def judge(cap, lane):
        failures = []
        if not cap.bundles:
            failures.append("no bundles frozen under the chaos plan")
        stale = [
            name for name, good in cap.recorder.reconciliation().items()
            if not good
        ]
        if stale:
            failures.append("rings do not reconcile: "
                            + ", ".join(sorted(stale)))
        matches = match_bundles(cap.applied, cap.bundles, cap.epoch)
        unmatched = sorted(
            cls for cls, match in matches.items() if not match.matched
        )
        if unmatched:
            failures.append("fault classes without a matching bundle: "
                            + ", ".join(unmatched))
        return failures, (
            f"{len(cap.bundles)} bundle(s); classes matched with named "
            f"signals: {', '.join(sorted(matches))}; rings reconcile"
        )

    return check_lanes(
        lambda lane: capture_campaign(seed, lane=lane),
        lambda cap: [b.to_canonical_json() for b in cap.bundles],
        judge, what="bundle JSON", lanes=lanes or CHECK_LANES,
    )
