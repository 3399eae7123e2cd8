#!/usr/bin/env python3
"""Post-incident forensics: black-box capture, timeline, clean-run diff.

The flight recorder rides along on every campaign as a set of bounded
sim-time ring buffers — alert transitions, span tails, rule-window
snapshots, recovery hops, store census deltas, probe flags, applied
faults.  When an alert fires (or a quorum degrades, a store crashes,
dead letters grow) it freezes a ``ForensicBundle``: a byte-stable
canonical-JSON snapshot of the ±window around the trigger with
cross-layer evidence links.  This example:

1. runs the standard chaos campaign with the recorder armed and shows
   what it froze (and that every ring reconciles
   ``captured == retained + evicted``);
2. reconstructs the merged cross-layer timeline of the first bundle;
3. runs the same campaign *clean*, snapshots it, and diffs the two —
   which streams diverged first, and when;
4. correlates the bundles against the injector's ground truth: every
   fault class must be matched by a bundle naming a detecting signal.

Run:  python examples/incident_forensics.py
"""

from repro.diagnosis.forensics import (
    bundle_timeline,
    capture_campaign,
    diff_bundles,
    diff_panel,
    match_bundles,
    timeline_panel,
)
from repro.webservices.grafana import render_ascii


def main() -> None:
    # 1. The faulted run: chaos plan + diagnosis + flight recorder.
    chaos = capture_campaign(seed=42, lane="fast")
    recorder = chaos.recorder
    print("== flight recorder after the chaos campaign ==")
    for name, ring in recorder.rings.items():
        verdict = "ok" if ring.reconciles() else "BROKEN"
        print(f"  {name:<10} captured={ring.captured:<5} "
              f"evicted={ring.evicted:<4} retained={ring.retained:<5} "
              f"[{verdict}]")
    print(f"  bundles frozen: {recorder.bundles_frozen}, "
          f"archive bytes: {recorder.bundle_bytes}, "
          f"triggers dropped: {recorder.triggers_dropped}")

    for bundle in chaos.bundles:
        print(f"  {bundle.bundle_id}: {bundle.trigger_kind}"
              f"({bundle.trigger_detail}) @ {bundle.t_trigger:.3f}s, "
              f"{bundle.n_records()} records")

    # 2. The merged cross-layer timeline of the first bundle.
    first = chaos.bundles[0]
    rows = bundle_timeline(first)
    print(f"\n== timeline of {first.bundle_id} "
          f"({len(rows)} events, showing alerts and faults) ==")
    for row in rows:
        if row["stream"] in ("alerts", "faults"):
            print(f"  t={row['t']:7.3f}s [{row['stream']:<7}] "
                  f"{row['event']:<16} {row['detail']}")
    print()
    print(render_ascii(timeline_panel(first), width=100)
          .splitlines()[0])  # the panel title line

    # 3. The clean control run, snapshotted, and the diff.
    clean = capture_campaign(seed=42, lane="fast", faults=None,
                             snapshot_id="clean-0")
    diff = diff_bundles(first, clean.find("clean-0"))
    print("\n" + render_ascii(diff_panel(diff), width=100))
    div = diff.first
    print(f"first divergence: stream {div.stream!r} at t={div.t:.3f}s")

    # 4. Ground-truth correlation: every injected fault class matched.
    print("\n== fault-class evidence matches ==")
    matches = match_bundles(chaos.applied, chaos.bundles, chaos.epoch)
    for cls, match in sorted(matches.items()):
        status = "matched" if match.matched else "UNMATCHED"
        names = sorted({s for sig in match.bundles.values() for s in sig})
        print(f"  {cls:<14} {status}: {', '.join(names)}")
    assert all(m.matched for m in matches.values())
    assert recorder.reconciles()
    print("\nevery fault class matched; every ring reconciles")


if __name__ == "__main__":
    main()
