#!/usr/bin/env python3
"""Explain my slow job: evidence-linked bottleneck verdicts, scored.

A four-class chaos campaign (aggregation-trunk degrade, store stall,
L1 daemon crash, replicated-store crash — in disjoint windows) runs
against an MPI-IO job while the diagnosis engine samples the pipeline.
Afterwards the explain layer distills the job's stored evidence into a
feature vector, runs its interpretable weighted strategies, and emits
ranked :class:`BottleneckVerdict`\\ s — each naming a class, citing the
incidents and rules that convinced it, and attaching actionable
recommendations.  The verdict classes are then scored against the
injector's ground truth, and a clean rerun is the healthy-verdict
control.  The same verdicts ride the flight recorder as the
``verdicts`` evidence stream for post-incident forensics.

Run:  python examples/explain_bottleneck.py
"""

from repro.diagnosis.explain import explain_campaign


def main() -> None:
    campaign = explain_campaign(seed=42, lane="slow")
    epoch = campaign.epoch

    # What actually went wrong, and when — the ground truth.
    print("== applied faults (ground truth) ==")
    for fault in campaign.applied:
        print(f"  t={fault.t - epoch:7.3f}s {fault.kind:<16} {fault.detail}")

    # The distilled evidence the classifier is allowed to see.
    fv = campaign.report.features
    print()
    print("== feature vector (highlights) ==")
    print(f"  workload          {fv.workload_class} "
          f"({fv.n_events} events over {fv.n_ranks} ranks)")
    print(f"  queue depth peak  {fv.queue_depth_peak:.0f}")
    print(f"  slow pending peak {fv.slow_pending_peak:.0f}")
    print(f"  daemons failed    {fv.daemons_failed_peak:.0f}")
    print(f"  replicas down     {fv.store_replicas_down_peak:.0f}")
    print(f"  slowest trace     {fv.slowest_trace_id} "
          f"({fv.slowest_trace_e2e_s * 1e3:.1f} ms end-to-end)")

    # The verdicts: ranked, evidence-linked, with recommendations.
    print()
    print(campaign.report.render_text(epoch))

    # Scored against the injected ground truth, class by class.
    print()
    print(campaign.score.render_text())

    # Clean control: the same campaign with no faults must say healthy.
    clean = explain_campaign(seed=42, lane="slow", faults=None)
    print(f"\nclean-run control: primary verdict "
          f"{clean.report.primary.cls!r} "
          f"({'OK' if clean.report.healthy else 'NOT HEALTHY'})")

    # The verdicts also landed in the flight recorder's evidence ring.
    ring = campaign.world.flight_recorder.rings["verdicts"]
    print(f"flight-recorder verdicts stream: "
          f"{len(ring.all())} records captured")


if __name__ == "__main__":
    main()
