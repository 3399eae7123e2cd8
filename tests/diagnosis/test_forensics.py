"""Forensics over real captures: timelines, diffs, ground-truth matches.

One chaos capture and one clean control capture (module-scoped — these
are full simulated campaigns) back every test here, mirroring exactly
what ``repro forensics`` runs.
"""

import pytest

from repro.diagnosis.forensics import (
    bundle_timeline,
    capture_campaign,
    chaos_plan,
    diff_bundles,
    diff_panel,
    match_bundles,
    timeline_panel,
)


@pytest.fixture(scope="module")
def chaos():
    return capture_campaign(seed=42, lane="fast")


@pytest.fixture(scope="module")
def clean():
    return capture_campaign(seed=42, lane="fast", faults=None,
                            snapshot_id="clean-0")


# ------------------------------------------------------------- capture


def test_chaos_capture_freezes_bundles(chaos):
    assert chaos.bundles
    for bundle in chaos.bundles:
        assert bundle.trigger_kind in (
            "alert_firing", "quorum_degraded", "store_crash",
            "deadletter_growth",
        )
        w0, w1 = bundle.window
        assert w0 <= bundle.t_trigger <= w1
        assert bundle.n_records() > 0


def test_rings_reconcile_after_chaos(chaos):
    recorder = chaos.recorder
    assert recorder.ticks > 0
    assert recorder.reconciles()
    for name, ring in recorder.rings.items():
        assert ring.captured == ring.retained + ring.evicted, name
    # The frozen ledger snapshots inside each bundle reconcile too.
    for bundle in chaos.bundles:
        for name, stream in bundle.streams.items():
            assert stream["captured"] == (
                stream["retained"] + stream["evicted"]
            ), (bundle.bundle_id, name)


def test_evidence_links_are_cross_layer(chaos):
    from repro.diagnosis.signals import default_catalog

    catalog = default_catalog()
    spans = chaos.world.telemetry.traces
    for bundle in chaos.bundles:
        evidence = bundle.evidence
        assert evidence["rules"], bundle.bundle_id
        # Every evidence signal is a real catalog row feeding one of
        # the evidence rules.
        for name in evidence["signals"]:
            signal = catalog.get(name)
            assert signal is not None and signal.rule in evidence["rules"]
        # Trace ids resolve into the span registry.
        assert evidence["trace_id_count"] >= len(evidence["trace_ids"])
        for trace_id in evidence["trace_ids"]:
            assert trace_id in spans
        # Incident ids resolve into the incident log.
        incidents = chaos.world.diagnosis.incidents
        for incident_id in evidence["incidents"]:
            assert 0 <= incident_id < len(incidents)


def test_bundle_json_byte_stable_across_same_seed_runs(chaos):
    again = capture_campaign(seed=42, lane="fast")
    assert [b.to_canonical_json() for b in chaos.bundles] == [
        b.to_canonical_json() for b in again.bundles
    ]


def test_clean_run_triggers_nothing(clean):
    kinds = [b.trigger_kind for b in clean.bundles]
    assert kinds == ["manual"]  # only the requested snapshot
    assert clean.recorder.triggers_dropped == 0
    snap = clean.find("clean-0")
    assert snap is not None
    assert snap.window[0] == 0.0


def test_max_bundles_cap_counts_dropped_triggers():
    from repro.telemetry.flightrec import FlightRecorder, FlightRecorderConfig

    chaos_run = capture_campaign(seed=42, lane="fast")
    recorder = chaos_run.recorder
    # Re-drive the same triggers against a capped recorder state.
    capped = FlightRecorder(
        chaos_run.world, FlightRecorderConfig(max_bundles=1),
    )
    for i, bundle in enumerate(recorder.bundles):
        capped._trigger(bundle.t_trigger + chaos_run.epoch + i * 10.0,
                        bundle.trigger_kind, bundle.trigger_detail,
                        bundle.rule)
    capped.flush()
    assert capped.bundles_frozen == 1
    assert capped.triggers_dropped == len(recorder.bundles) - 1


# ------------------------------------------------------------- timeline


def test_timeline_is_sorted_and_deterministic(chaos):
    bundle = chaos.bundles[0]
    rows = bundle_timeline(bundle)
    assert rows == bundle_timeline(bundle)
    assert len(rows) == bundle.n_records()
    times = [row["t"] for row in rows]
    assert times == sorted(times)
    streams_seen = {row["stream"] for row in rows}
    assert "alerts" in streams_seen  # the trigger itself is in there
    for row in rows:
        assert set(row) == {"t", "stream", "event", "detail"}


def test_timeline_panel_renders_through_panel_machinery(chaos):
    from repro.webservices.grafana import render_ascii

    panel = timeline_panel(chaos.bundles[0])
    assert panel.viz == "table"
    assert chaos.bundles[0].bundle_id in panel.title
    text = render_ascii(panel, width=100)
    assert "stream" in text and "alerts" in text


# ----------------------------------------------------------------- diff


def test_diff_bundle_with_itself_is_identical(chaos):
    bundle = chaos.bundles[0]
    diff = diff_bundles(bundle, bundle)
    assert diff.identical()
    assert diff.first is None
    assert diff.overlap == bundle.window


def test_diff_chaos_vs_clean_finds_first_divergence(chaos, clean):
    faulted = chaos.bundles[0]
    snap = clean.find("clean-0")
    diff = diff_bundles(faulted, snap)
    assert not diff.identical()
    first = diff.first
    assert first is not None
    # The faulted run diverges no later than its first applied fault
    # (plus one recorder tick of sampling slack).
    t_first_fault = min(f.t for f in chaos.applied) - chaos.epoch
    assert first.t <= t_first_fault + 0.1
    diverged = {d.stream for d in diff.divergences}
    assert "faults" in diverged  # the injected faults themselves
    # to_dict carries the verdict for --json consumers.
    d = diff.to_dict()
    assert d["first_divergence"]["stream"] == first.stream
    assert d["overlap"] is not None


def test_diff_without_window_overlap_compares_nothing(chaos):
    a = chaos.bundles[0]
    from repro.telemetry.flightrec import ForensicBundle

    far = ForensicBundle(
        bundle_id="far", trigger_kind="manual", trigger_detail="x",
        rule="", t_trigger=1000.0, window=(999.0, 1001.0),
        streams={name: {"records": [], "captured": 0, "evicted": 0,
                        "retained": 0} for name in a.streams},
        evidence={"rules": [], "signals": [], "incidents": [],
                  "trace_ids": [], "trace_id_count": 0, "store_seq": []},
    )
    diff = diff_bundles(a, far)
    assert diff.overlap is None
    assert diff.identical()


def test_diff_panel_title_names_first_divergence(chaos, clean):
    diff = diff_bundles(chaos.bundles[0], clean.find("clean-0"))
    panel = diff_panel(diff)
    assert "first divergence" in panel.title
    assert panel.payload  # one row per diverging stream


# ----------------------------------------------------- ground-truth match


def test_every_fault_class_matches_a_bundle(chaos):
    matches = match_bundles(chaos.applied, chaos.bundles, chaos.epoch)
    assert set(matches) == {"daemon_crash", "link_degrade", "slow_store"}
    for cls, match in matches.items():
        assert match.matched, cls
        assert match.windows >= 1
        for signals in match.bundles.values():
            assert signals  # the evidence names the detecting signal


def test_match_requires_signal_evidence(chaos):
    # Strip the signal evidence: matching must fail even though the
    # trigger times still fall inside the fault windows.
    import copy

    stripped = []
    for bundle in chaos.bundles:
        clone = copy.deepcopy(bundle)
        clone.evidence["signals"] = []
        stripped.append(clone)
    matches = match_bundles(chaos.applied, stripped, chaos.epoch)
    assert all(not m.matched for m in matches.values())


def test_chaos_plan_covers_all_scored_classes():
    from repro.diagnosis.scoring import DETECTORS

    plan = chaos_plan()
    kinds = {type(f).__name__ for f in plan.faults}
    assert kinds == {"DaemonCrash", "LinkDegrade", "SlowStore"}
    # Every class the plan injects has a detector set to match against.
    assert {"daemon_crash", "link_degrade", "slow_store"} <= set(DETECTORS)
