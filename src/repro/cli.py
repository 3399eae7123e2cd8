"""Experiment CLI: regenerate the paper's tables, figures and ablations.

Usage::

    python -m repro.cli <command> [flags]
    python -m repro.cli <command> --help    # what <command> does + its flags

Every command declares only the flags it reads; a flag another command
owns is a usage error.  Commands and their flags:

    table2a    [--seed S] [--reps N] [--ranks-per-node N]
    table2b    [--seed S] [--reps N] [--ranks-per-node N] [--particles N]
    table2c    [--seed S] [--reps N] [--families N]
    fig5       [--seed S] [--reps N]
    fig6       [--seed S]
    fig7 | fig8 | fig9 | report
    ablations  [--families N]
    telemetry  [--seed S] [--ranks-per-node N] [--queue-depth N]
               [--inject-failure] [--fail-after N] [--json] [--check]
    chaos      [--seed S] [--seeds N] [--ranks-per-node N] [--fail-after N]
               [--no-fast-lane] [--json] [--check]
    store      [--topology | --drill] [--no-repair] [--seed S]
               [--ranks-per-node N] [--no-fast-lane] [--json] [--check]
    diagnose   [--seed S] [--ranks-per-node N] [--fail-after N]
               [--no-fast-lane] [--json] [--check]
    profile    [--seed S] [--ranks-per-node N] [--no-fast-lane] [--json]
    trace      [--trace-id ID | --slowest N | --drops] [--head-rate R]
               [--tail-latency S] [--seed S] [--ranks-per-node N]
               [--fail-after N] [--no-fast-lane] [--json] [--check]
    bench      [--quick] [--check]
    fleet      [--scan | --export | --catalog] [--no-fast-lane]
               [--json] [--check]
    forensics  [--capture | --show ID | --diff A B] [--seed S]
               [--fail-after N] [--no-fast-lane] [--json] [--check]
    explain    [--job ID] [--seed S] [--no-fast-lane] [--json] [--check]

All commands print the reproduced rows/series to stdout; scale flags
trade fidelity for wall-clock time (see EXPERIMENTS.md for the
scale-invariance argument).  ``--no-fast-lane`` picks the per-message
reference lane of :data:`repro.experiments.chaos.LANES`; the default is
the fast lane, whose express spine arms wherever its guard allows.

Exit codes are uniform across every ``--check``-capable command:
0 = OK, 1 = an invariant is broken (ledger violated, fault undetected,
critical path inexact, scorecard not reconciling, catalog incomplete,
benchmark regression), 2 = usage error (bad flags, unknown/missing
identifiers).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

__all__ = ["build_parser", "main"]


# -- shared helpers ----------------------------------------------------------


def _usage_error(args, message: str):
    """Report a usage error for ``args.command`` and exit 2."""
    print(f"repro {args.command}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _lane(args) -> str:
    """The :data:`~repro.experiments.chaos.LANES` row ``--no-fast-lane``
    picks."""
    from repro.experiments.chaos import lane_name

    return lane_name(not args.no_fast_lane)


def _mode(args, modes: tuple, default: str) -> str:
    """The one mode flag given (``default`` if none); two is a usage error."""
    given = [m for m in modes if getattr(args, m)]
    if len(given) > 1:
        _usage_error(args, f"--{given[0]} and --{given[1]} are mutually "
                           f"exclusive")
    return given[0] if given else default


def _fault_rows(world) -> list[dict]:
    """The injector's applied-fault log, epoch-relative, as JSON rows."""
    injector = world.fault_injector
    epoch = world.config.epoch
    return [
        {"t": f.t - epoch, "kind": f.kind, "detail": f.detail}
        for f in (injector.applied if injector else ())
    ]


def _print_faults(world) -> None:
    """The applied-fault log as the ``== applied faults ==`` text block."""
    print("== applied faults ==")
    for f in _fault_rows(world):
        print(f"  t={f['t']:9.3f}s {f['kind']:<16} {f['detail']}")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _conclude(ok: bool, lines, ok_line: str | None = None, file=None) -> None:
    """Map a check's verdict to the exit code: print its lines, exit 1
    when it failed, else print ``ok_line`` (when given)."""
    for line in lines:
        print(line, file=file)
    if not ok:
        raise SystemExit(1)
    if ok_line:
        print(ok_line, file=file)


# -- the paper's tables, figures and ablations --------------------------------


def _print_overhead(rows: list[dict]) -> None:
    print(f"{'config':<28} {'fs':<7} {'msgs':>8} {'rate/s':>7} "
          f"{'Darshan(s)':>11} {'dC(s)':>9} {'overhead':>9}")
    for r in rows:
        print(f"{r['config']:<28} {r['filesystem']:<7} {r['avg_messages']:>8} "
              f"{r['rate_msgs_per_s']:>7.1f} {r['darshan_runtime_s']:>11.2f} "
              f"{r['dC_runtime_s']:>9.2f} {r['overhead_percent']:>8.2f}%")


def _cmd_table2a(args) -> None:
    """Table IIa: MPI-IO-TEST connector overhead."""
    from repro.experiments import table2a_mpiio

    cells = table2a_mpiio(seed=args.seed, reps=args.reps,
                          ranks_per_node=args.ranks_per_node)
    _print_overhead([c.as_row() for c in cells])


def _cmd_table2b(args) -> None:
    """Table IIb: HACC-IO connector overhead."""
    from repro.experiments import table2b_haccio

    cells = table2b_haccio(
        seed=args.seed, reps=args.reps, ranks_per_node=args.ranks_per_node,
        particle_counts=(args.particles, 2 * args.particles),
    )
    _print_overhead([c.as_row() for c in cells])


def _cmd_table2c(args) -> None:
    """Table IIc: HMMER connector overhead."""
    from repro.experiments import table2c_hmmer

    cells = table2c_hmmer(seed=args.seed, reps=args.reps, n_families=args.families)
    _print_overhead([c.as_row() for c in cells])


def _cmd_fig5(args) -> None:
    """Figure 5: per-operation counts with confidence intervals."""
    from repro.experiments import fig5_op_counts

    out = fig5_op_counts(seed=args.seed, reps=args.reps)
    for label, counts in out.items():
        line = "  ".join(
            f"{op}={counts[op]['mean']:.0f}±{counts[op]['ci']:.1f}"
            for op in sorted(counts)
        )
        print(f"{label:<16} {line}")


def _cmd_fig6(args) -> None:
    """Figure 6: open/close operations per node."""
    from repro.experiments import fig6_per_node

    for job_id, nodes in fig6_per_node(seed=args.seed).items():
        print(f"job {job_id}:")
        for node, ops in sorted(nodes.items()):
            print(f"  {node}: {ops}")


def _cmd_fig7(args) -> None:
    """Figure 7: read/write duration variability across jobs."""
    from repro.experiments import fig7_duration_variability

    out = fig7_duration_variability()
    print(f"{'job':>8} {'reads(s)':>10} {'writes(s)':>10}")
    for job in out["job_ids"]:
        s = out["stats"][job]
        mark = "  <-- anomalous" if job in out["anomalous"] else ""
        print(f"{job:>8} {s['read']['mean']:>10.3f} {s['write']['mean']:>10.3f}{mark}")


def _cmd_fig8(args) -> None:
    """Figure 8: one job's I/O timeline."""
    from repro.experiments import fig8_timeline

    tl = fig8_timeline()
    writes = tl["op"] == "write"
    reads = tl["op"] == "read"
    print(f"job {tl['job_id']}: {tl['write_phases']} write phases "
          f"over [0, {tl['t'][writes].max():.0f}]s; "
          f"reads in [{tl['t'][reads].min():.0f}, {tl['t'][reads].max():.0f}]s")


def _cmd_fig9(args) -> None:
    """Figure 9: the Grafana throughput series."""
    from repro.experiments import fig9_grafana_series

    s = fig9_grafana_series(bucket_s=10.0)
    print(f"job {s['job_id']} (MiB per 10s bucket):")
    for op in ("write", "read"):
        print(f"  {op:>6}: " + " ".join(f"{v / 2**20:.0f}" for v in s[op]["bytes"]))


def _cmd_ablations(args) -> None:
    """Ablations A1-A4: formatting, sampling, DSOS index, push vs pull."""
    from repro.experiments import (
        ablation_dsos_index,
        ablation_push_pull,
        ablation_sampling,
        ablation_sprintf,
    )

    print("== A1: JSON formatting on/off ==")
    _print_overhead(ablation_sprintf(n_families=args.families, reps=1))
    print("\n== A2: n-th-event sampling ==")
    for r in ablation_sampling(sample_every=(1, 5, 20, 100), n_families=args.families):
        print(f"  n={r['sample_every']:<4} overhead={r['overhead_percent']:.0f}% "
              f"fidelity={r['fidelity']:.0%}")
    print("\n== A3: DSOS index choice ==")
    for r in ablation_dsos_index():
        print(f"  {r['index']:<32} scanned={r['rows_scanned']:<7} "
              f"latency={r['est_latency_s'] * 1e6:.0f}us")
    print("\n== A4: push vs pull ==")
    for r in ablation_push_pull():
        print(f"  {r['mode']:<5} buffered={r['peak_buffered']:<6} lost={r['lost']:<7} "
              f"latency={r['mean_latency_s']:.2f}s")


def _cmd_report(args) -> None:
    """Summarize the recorded results under benchmarks/results."""
    from pathlib import Path

    from repro.experiments.report import generate_report

    results_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    print(generate_report(results_dir))


# -- the pipeline's own observability ------------------------------------------


def _small_campaign(args, arm=None, **fields):
    """The ``telemetry``/``profile`` job; returns ``(world, result)``.

    A quiet 4-node telemetry world (plus the caller's ``WorldConfig``
    ``fields``) runs one 2-node MPI-IO-test job with the default
    connector; ``arm(world)``, when given, runs between building the
    world and starting the job.
    """
    from repro.apps import MpiIoTest
    from repro.core import ConnectorConfig
    from repro.experiments import World, WorldConfig, run_job

    world = World(WorldConfig(
        seed=args.seed, quiet=True, n_compute_nodes=4, telemetry=True,
        **fields,
    ))
    if arm is not None:
        arm(world)
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=args.ranks_per_node, iterations=4,
        block_size=2**20, collective=False, sync_per_iteration=False,
    )
    return world, run_job(world, app, "nfs",
                          connector_config=ConnectorConfig())


def _cmd_telemetry(args) -> None:
    """Pipeline telemetry: per-stage latency histograms, drop sites, loss
    reconciliation.

    Runs a small campaign with telemetry on.  ``--queue-depth`` shrinks
    the forward outbox (small = overflow drops); ``--inject-failure``
    crashes the L1 aggregator after ``--fail-after`` messages.  With
    ``--check``, exits 1 unless the loss ledger closes exactly.
    """
    from repro.experiments.world import STREAM_TAG

    def crash_l1(world):
        # Crash the L1 aggregator mid-run so the report has a
        # daemon-failure drop site to attribute.
        seen = {"n": 0}

        def trip_wire(message):
            seen["n"] += 1
            if seen["n"] == args.fail_after:
                world.fabric.l1.fail()

        world.fabric.l1.streams.subscribe(STREAM_TAG, trip_wire)

    _, result = _small_campaign(
        args, crash_l1 if args.inject_failure else None,
        forward_queue_depth=args.queue_depth,
    )
    if args.json:
        _print_json(result.health.to_dict())
    else:
        print(result.health.render_text())
    if args.check and not result.health.verify():
        print("FAIL: loss reconciliation violated "
              "(published != stored + Σ drops + in_flight_spill)")
        raise SystemExit(1)


def _cmd_chaos(args) -> None:
    """Seeded chaos campaign against the self-healing pipeline.

    Crashes the L1 aggregator mid-run (it restarts after half a
    second), partitions one compute node's uplink, and stalls the DSOS
    store — with every recovery path armed: spill/replay connector,
    retry/backoff forwarders, a hot-standby L1, journaled idempotent
    ingest.  Prints the applied-fault log and the health report; with
    ``--check``, exits nonzero unless the ledger closes exactly.
    ``--seeds N`` sweeps seeds ``seed .. seed+N-1`` in one process (the
    CI smoke lane); the combined exit code fails if *any* seed does.
    """
    from repro.experiments.chaos import LANES, partition_plan, run_campaign

    lane = _lane(args)
    if args.seeds < 1:
        _usage_error(args, "--seeds must be >= 1")

    payloads = []
    broken: list[int] = []
    for seed in range(args.seed, args.seed + args.seeds):
        world, result = run_campaign(
            seed, lane=lane, faults=partition_plan(args.fail_after),
            ranks_per_node=args.ranks_per_node)
        journal = world.store.journal
        duplicates = journal.duplicates_skipped if journal else 0
        if not result.health.verify():
            broken.append(seed)
        if args.json:
            payloads.append({
                "seed": seed,
                "fast_lane": LANES[lane],
                "applied_faults": _fault_rows(world),
                "duplicates_skipped": duplicates,
                "health": result.health.to_dict(),
            })
            continue
        if args.seeds > 1:
            print(f"== seed {seed} ==")
        _print_faults(world)
        print(f"duplicates skipped by ingest journal: {duplicates}")
        print()
        print(result.health.render_text())
        if args.seeds > 1:
            print()

    if args.json:
        # One seed keeps the original flat payload; a sweep nests them.
        _print_json(payloads[0] if args.seeds == 1 else {"runs": payloads})
    if args.check:
        _conclude(
            not broken,
            [f"FAIL: unaccounted events under fault injection "
             f"(seed(s) {', '.join(str(s) for s in broken)})"] if broken else [],
            f"OK: ledger exact across {args.seeds} seeds"
            if args.seeds > 1 else None,
        )


def _cmd_store(args) -> None:
    """Replicated-store resilience: topology, crash drill, census check.

    Builds a sharded, quorum-replicated DSOS cluster (2 shards × 2
    replicas, write quorum 2) and drives the chaos campaign through it.
    ``--topology`` prints the shard layout of a clean run; ``--drill``
    (the default) crashes one replica per shard mid-run — one with a
    torn WAL tail — lets WAL replay and anti-entropy repair bring them
    back, and prints the fault log, replica census and recovery ledger.
    ``--no-repair`` disables anti-entropy (the drill then leaves
    under-replicated objects behind — the negative control).  With
    ``--check``, exits 1 unless the loss ledger closes exactly, the
    census is complete (zero lost, zero under-replicated objects) and
    every replica is back alive.
    """
    from repro.experiments.chaos import LANES, run_campaign
    from repro.faults import FaultPlan, StoreCrash

    mode = _mode(args, ("topology", "drill"), default="drill")
    lane = _lane(args)

    plan = None
    if mode == "drill":
        # One replica per shard goes down mid-burst; the first loses a
        # torn WAL tail too, so recovery must truncate and repair must
        # re-pull.  down_for exceeds the diagnosis hold so the outage
        # is also visible to the alerting stack when armed.
        plan = FaultPlan((
            StoreCrash(0, at=0.15, down_for=0.8, tear_tail=True),
            StoreCrash(3, at=0.25, down_for=0.25),
        ))
    world, result = run_campaign(
        args.seed, lane=lane, faults=plan, ranks_per_node=args.ranks_per_node,
        dsos_shards=2, dsos_replication=2, dsos_write_quorum=2,
        dsos_repair=not args.no_repair,
    )
    cluster = world.dsos.cluster
    census = cluster.census()
    store_recoveries = {
        site: n for site, n in sorted(result.health.recovery_sites().items())
        if site[2] in ("wal_replayed", "repair_pulled", "quorum_degraded")
    }

    if args.json:
        _print_json({
            "seed": args.seed,
            "mode": mode,
            "fast_lane": LANES[lane],
            "repair": not args.no_repair,
            "applied_faults": _fault_rows(world),
            "layout": cluster.shard_layout(),
            "census": {
                "objects": census.objects,
                "lost": census.lost,
                "under_replicated": census.under_replicated,
                "replicas_down": census.replicas_down,
                "degraded_shards": list(census.degraded_shards),
                "complete": census.complete,
            },
            "store": cluster.stats_snapshot(),
            "store_recoveries": [
                {"stage": s, "node": n, "outcome": o, "count": c}
                for (s, n, o), c in store_recoveries.items()
            ],
            "ledger_exact": result.health.verify(),
        })
    else:
        print(f"== store topology ({cluster.shards} shard(s) x "
              f"{cluster.replication} replica(s), "
              f"W={cluster.write_quorum}) ==")
        for row in cluster.shard_layout():
            daemons = ", ".join(
                f"{d}{'' if alive else ' (down)'} [{objs}]"
                for d, alive, objs in
                zip(row["daemons"], row["alive"], row["objects"])
            )
            print(f"  shard {row['shard']}: {daemons}")
        if mode == "drill":
            print()
            _print_faults(world)
            print("\n== recovery ledger (store) ==")
            for (stage, node, outcome), count in store_recoveries.items():
                print(f"  {stage}/{node}: {outcome} x{count}")
            if not store_recoveries:
                print("  (none)")
            snap = cluster.stats_snapshot()
            print(f"\nwrites={snap['writes']} "
                  f"quorum_degraded={snap['quorum_degraded_writes']} "
                  f"rejected={snap['rejected_writes']}")
        print(f"census: {census.objects} object(s), {census.lost} lost, "
              f"{census.under_replicated} under-replicated, "
              f"{census.replicas_down} replica(s) down, "
              f"degraded shards {list(census.degraded_shards) or 'none'}")
        print(f"ledger: {'exact' if result.health.verify() else 'VIOLATED'}")

    if args.check:
        fails = []
        if not result.health.verify():
            fails.append("FAIL: loss ledger does not close under the store "
                         "drill")
        if census.lost:
            fails.append(f"FAIL: {census.lost} object(s) lost "
                         f"(no live copy anywhere)")
        if census.under_replicated:
            fails.append(f"FAIL: {census.under_replicated} object(s) "
                         f"under-replicated after recovery"
                         + (" (repair disabled)" if args.no_repair else ""))
        if census.replicas_down:
            fails.append(f"FAIL: {census.replicas_down} replica(s) still down")
        _conclude(not fails, fails,
                  f"OK: census complete — every object holds quorum copies "
                  f"({census.objects} objects, ledger exact)")


def _cmd_diagnose(args) -> None:
    """Live runtime diagnosis, scored against injected ground truth.

    Runs the chaos fault plan (L1 crash, link degrade, store stall)
    with the streaming diagnosis engine armed, correlates the incident
    log against the injector's applied-fault record, then repeats the
    campaign *clean* (no faults) as a false-positive control.  With
    ``--check``, exits nonzero if any injected fault class goes
    undetected or the clean run raises any alert.
    """
    from repro.diagnosis import score_incidents
    from repro.diagnosis.forensics import chaos_plan
    from repro.experiments.chaos import LANES, diagnosis_config, run_campaign

    lane = _lane(args)

    def campaign(faults):
        return run_campaign(args.seed, lane=lane, faults=faults,
                            ranks_per_node=args.ranks_per_node,
                            diagnosis=diagnosis_config())

    world, result = campaign(chaos_plan(args.fail_after))
    epoch = world.config.epoch
    score = score_incidents(
        world.diagnosis.incidents, world.fault_injector.applied)
    clean_world, _ = campaign(None)
    clean_alerts = len(clean_world.diagnosis.incidents)

    if args.json:
        _print_json({
            "seed": args.seed,
            "fast_lane": LANES[lane],
            "applied_faults": _fault_rows(world),
            "incidents": [
                a.to_dict(epoch) for a in world.diagnosis.incidents
            ],
            "score": score.to_dict(epoch),
            "clean_run_alerts": clean_alerts,
            "ledger_exact": result.health.verify(),
        })
    else:
        _print_faults(world)
        print()
        print(world.diagnosis.incidents.render_text(epoch))
        print()
        print(score.render_text(epoch))
        print(f"\nclean-run control: {clean_alerts} alert(s) "
              f"({'OK' if clean_alerts == 0 else 'FALSE POSITIVES'})")

    if args.check:
        fails = []
        if not score.ok():
            fails.append("FAIL: undetected fault classes: "
                         + ", ".join(sorted(score.undetected_classes())))
        if clean_alerts:
            fails.append(f"FAIL: clean run raised {clean_alerts} alert(s)")
        if not result.health.verify():
            fails.append("FAIL: unaccounted events under fault injection")
        _conclude(not fails, fails,
                  "OK: every fault class detected; clean run silent")


def _cmd_explain(args) -> None:
    """Explainable bottleneck classification, scored against ground truth.

    Runs the four-class explain chaos campaign (aggregation-trunk
    degrade, store stall, L1 crash and replicated-store crash in
    disjoint windows), distills the job's stored evidence into a
    feature vector, emits scored evidence-linked bottleneck verdicts,
    and scores the verdict classes against the injector's applied-fault
    record; a clean rerun is the healthy-verdict control.  ``--job ID``
    explains a specific job from the campaign world (exit 2 when the
    id has no stored events).  With ``--check``, exits 1 unless every
    injected fault class is classified correctly (per-class precision
    and recall 1.0), the clean run's sole verdict is ``healthy``, and
    the report JSON is byte-stable — on both the slow and fast
    lanes.
    """
    from repro.diagnosis.explain import (
        check_explain,
        explain_campaign,
        explain_job,
        score_verdicts,
    )

    lane = _lane(args)

    if args.check:
        ok, lines = check_explain(args.seed)
        _conclude(ok, lines,
                  "OK: every fault class classified, clean run healthy, "
                  "reports byte-stable on the slow and fast lanes")
        return

    campaign = explain_campaign(args.seed, lane=lane)
    epoch = campaign.epoch
    report = campaign.report
    if args.job is not None and args.job != report.job_id:
        if not list(campaign.world.query_job(args.job)):
            # An unknown identifier is a usage error.
            _usage_error(args, f"no stored events for job {args.job} "
                               f"(this campaign's job: {report.job_id})")
        report = explain_job(campaign.world, args.job)
    score = score_verdicts(report.verdicts, campaign.applied)

    clean = explain_campaign(args.seed, lane=lane, faults=None)

    if args.json:
        _print_json({
            "seed": args.seed,
            "fast_lane": not args.no_fast_lane,
            "applied_faults": _fault_rows(campaign.world),
            "report": report.to_dict(epoch),
            "score": score.to_dict(),
            "clean_primary": clean.report.primary.cls,
            "clean_healthy": clean.report.healthy,
        })
    else:
        _print_faults(campaign.world)
        print()
        print(report.render_text(epoch))
        print()
        print(score.render_text())
        print(f"\nclean-run control: primary verdict "
              f"{clean.report.primary.cls!r} "
              f"({'OK' if clean.report.healthy else 'NOT HEALTHY'})")


def _cmd_profile(args) -> None:
    """Sim-time profiler: where simulated seconds go in the pipeline.

    Runs a small telemetry-enabled campaign and attributes every stored
    message's end-to-end latency across pipeline components (connector,
    bus, forwarders, store), with the residual reported explicitly so
    the components reconcile exactly against the end-to-end totals.
    Exits 1 when they do not.
    """
    from repro.sim import PipelineProfile

    world, _ = _small_campaign(args, fast_lane=not args.no_fast_lane)
    profile = PipelineProfile.from_collector(world.telemetry)
    if args.json:
        _print_json(profile.to_dict())
    else:
        print(profile.render_text())
    if not profile.reconciles():
        print("FAIL: profiled component seconds do not reconcile with "
              "end-to-end totals")
        raise SystemExit(1)


def _cmd_trace(args) -> None:
    """Trace drill-down over the seeded chaos campaign.

    Runs the chaos fault plan (L1 crash + restart, link partition,
    slow store) with every recovery path armed and span-tree retention
    governed by ``--head-rate`` / ``--tail-latency``, then renders the
    selected traces as critical-path waterfalls plus the campaign
    rollup.  ``--trace-id`` drills into one message, ``--drops`` lists
    retained dropped traces, ``--slowest N`` (the default view) shows
    the N slowest stored ones.  With ``--check``, exits nonzero unless
    every retained stored trace's critical path sums *exactly* to its
    end-to-end latency and the rollup reconciles with the sim-time
    profile.
    """
    from repro.experiments.chaos import LANES, partition_plan, run_campaign
    from repro.sim import PipelineProfile
    from repro.telemetry.spans import TelemetryConfig, critical_path
    from repro.webservices.tracing import render_waterfall

    lane = _lane(args)
    world, _ = run_campaign(
        args.seed, lane=lane, faults=partition_plan(args.fail_after),
        ranks_per_node=args.ranks_per_node,
        telemetry=TelemetryConfig(head_sample_rate=args.head_rate,
                                  tail_latency_s=args.tail_latency),
    )
    registry = world.trace_registry()
    rollup = registry.rollup()
    profile = PipelineProfile.from_registry(registry)

    if args.trace_id is not None:
        tree = registry.get(args.trace_id)
        if tree is None:
            print(f"trace {args.trace_id!r} not retained "
                  f"({len(registry)} of {registry.offered} kept; "
                  f"raise --head-rate to retain more)")
            raise SystemExit(2)  # unknown identifier = usage error
        selected = [tree]
    elif args.drops:
        selected = registry.drops()
    else:
        selected = registry.slowest(args.slowest)

    if args.json:
        _print_json({
            "seed": args.seed,
            "fast_lane": LANES[lane],
            "registry": registry.to_dict(),
            "rollup": rollup.to_dict(),
            "rollup_reconciles_with_profile": rollup.reconciles_with(profile),
            "traces": [
                {
                    **tree.to_dict(),
                    "critical_path": critical_path(tree).to_dict(),
                }
                for tree in selected
            ],
        })
    else:
        reg = registry.to_dict()
        print(f"retained {reg['retained']} of {reg['offered']} traces "
              f"(head {reg['head_kept']}, tail {reg['tail_kept']}; "
              f"head_rate={reg['head_sample_rate']})")
        print()
        for tree in selected:
            print(render_waterfall(tree))
            print()
        if not selected:
            print("(no matching traces retained)")
            print()
        print(rollup.render_text())

    if args.check:
        inexact = [
            tree.trace_id
            for tree in registry.trees.values()
            if tree.status == "stored" and not critical_path(tree).exact
        ]
        fails = []
        if inexact:
            fails.append(f"FAIL: critical path != end-to-end latency for "
                         f"{len(inexact)} trace(s): {', '.join(inexact[:5])}")
        if not rollup.reconciles_with(profile):
            fails.append("FAIL: critical-path rollup does not reconcile "
                         "with the sim-time profile")
        if not profile.reconciles():
            fails.append("FAIL: sim-time profile does not reconcile with "
                         "its own end-to-end totals")
        _conclude(not fails, fails,
                  f"OK: {rollup.messages} critical paths exact; "
                  f"rollup reconciles with profile")


def _cmd_bench(args) -> None:
    """Two-lane pipeline benchmark: slow vs fast lane, one process.

    Runs the HMMER campaign fresh on each lane and fails unless both
    reach the identical simulated outcome.  A full run also runs the
    reduced (``--quick``) campaign and writes both speedups to
    ``benchmarks/BENCH_pipeline.json``; a ``--quick`` run only prints,
    so the reduced campaign never replaces the committed record.  With
    ``--check``, compares the measured fast/slow speedup against the
    committed speedup of the same campaign (quick against quick, full
    against full) instead and exits 1 when it fell below 75 % of it —
    the ratio, not the walls, so the check is machine-independent.
    Absolute throughput and peak RSS are gated per workload by
    ``perfbench/``.
    """
    from repro.experiments.bench import (
        DEFAULT_RESULT_PATH,
        LANES,
        pipeline_benchmark,
    )

    result = pipeline_benchmark(quick=args.quick)
    campaign = result["campaign"]
    print(f"campaign: hmmer families={campaign['n_families']} "
          f"rpn=8 nodes=2 seed={campaign['seed']} (quick={args.quick})")
    for lane in LANES:
        r = result[lane]
        print(f"  {lane:<8} wall={r['wall_s']:>7.2f}s "
              f"events/s={r['events_per_sec']:>8.1f} "
              f"engine_events={r['engine_events']}")
    spine = result["fast"].get("spine")
    if spine:
        print(f"  spine: {spine['record_batches']} first-hop batches, "
              f"mean {spine['mean_batch_rows']:.1f} rows "
              f"(max {spine['max_batch_rows']}), "
              f"{spine['ingest_flushes']} ingest flushes, "
              f"{spine['dearms']} de-arms")
    key = "speedup_events_per_sec"
    quick_key = "quick_speedup_events_per_sec"
    print(f"  speedup (events/s, fast vs slow): {result[key]:.2f}x")

    if args.check:
        ref = quick_key if args.quick else key
        committed = json.loads(DEFAULT_RESULT_PATH.read_text())[ref]
        ok = result[key] >= committed * 0.75
        _conclude(ok, [] if ok else [
            f"FAIL: {key} {result[key]:.2f}x regressed below 75% of "
            f"committed {ref} {committed:.2f}x"
        ], "OK: lane speedup within 25% of committed")
    elif args.quick:
        print(f"not recorded: a --quick run never replaces "
              f"{DEFAULT_RESULT_PATH.name}")
    else:
        result[quick_key] = pipeline_benchmark(quick=True)[key]
        print(f"  quick-campaign speedup (the --quick --check reference): "
              f"{result[quick_key]:.2f}x")
        DEFAULT_RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {DEFAULT_RESULT_PATH}")


def _catalog_failures(catalog) -> list[str]:
    if catalog.complete():
        return []
    return ["FAIL: signals missing from the catalog: "
            + ", ".join(catalog.missing())]


def _cmd_fleet(args) -> None:
    """Fleet health console: probe scans, scorecards, signal catalog.

    Default mode (``--scan``) scans the demo fleet — two clean clusters
    plus one with an injected L1 crash and slow-store episode — and
    renders the console: the fleet readiness table, each cluster's
    scorecard/probe/incident drill-down, and the signal catalog.
    ``--export`` prints the scan as an OpenMetrics text exposition;
    ``--catalog`` prints just the catalog page.  All three honour
    ``--json`` (byte-stable sorted payloads).  With ``--check``: scan
    mode exits 1 unless every scorecard reconciles exactly and the
    chaos cluster's faults show up in the matching components; catalog
    and export modes exit 1 if any emitted signal is missing from the
    catalog.  Mode flags are mutually exclusive (usage error, exit 2).
    """
    mode = _mode(args, ("scan", "export", "catalog"), default="scan")

    from repro.diagnosis.signals import default_catalog

    catalog = default_catalog()

    if mode == "catalog":
        if args.json:
            _print_json(catalog.to_dict())
        else:
            from repro.webservices.console import FleetConsole
            from repro.webservices.grafana import render_ascii

            # No scan needed for the catalog page: an empty report.
            console = FleetConsole((), catalog)
            for panel in console.catalog_panels():
                print(render_ascii(panel, width=100))
        if args.check:
            fails = _catalog_failures(catalog)
            _conclude(not fails, fails,
                      f"OK: catalog complete ({len(catalog)} signals)")
        return

    from repro.fleet import scan_fleet

    report = scan_fleet(fast_lane=not args.no_fast_lane)

    if mode == "export":
        from repro.telemetry import render_openmetrics

        text = render_openmetrics(report, catalog)
        print(text, end="")
        if args.check:
            fails = _catalog_failures(catalog)
            if "(uncatalogued)" in text:
                fails.insert(0, "FAIL: export contains uncatalogued families")
            _conclude(not fails, fails,
                      "OK: every exported family catalogued", file=sys.stderr)
        return

    # -- scan (default) ------------------------------------------------
    if args.json:
        _print_json(report.to_dict())
    else:
        from repro.webservices.console import FleetConsole

        print(FleetConsole(report, catalog).render_text())

    if args.check:
        fails = []
        bad = [c.name for c in report if not c.score.reconciles()]
        if bad:
            fails.append("FAIL: scorecard does not reconcile "
                         "(Σ deductions != 100 - score) for: " + ", ".join(bad))
        # The chaos cluster's injected faults must register in the
        # matching scorecard components.
        for cluster in report:
            if cluster.spec.faults is None:
                continue
            if cluster.score.component("probes").deduction == 0:
                fails.append(f"FAIL: {cluster.name}: injected daemon crash "
                             f"left the probes component untouched")
            if cluster.score.component("store").deduction == 0:
                fails.append(f"FAIL: {cluster.name}: injected slow store "
                             f"left the store component untouched")
            if cluster.score.ready:
                fails.append(f"FAIL: {cluster.name}: chaos cluster still "
                             f"reports ready")
        _conclude(not fails, fails,
                  f"OK: {len(report)} scorecards reconcile exactly; "
                  f"chaos faults deducted via matching components")


def _cmd_forensics(args) -> None:
    """Black-box flight recorder: capture, timelines, bundle diffs.

    Default mode (``--capture``) runs the chaos campaign with the
    flight recorder armed and prints the frozen forensic bundles, ring
    ledgers and fault-class evidence matches.  ``--show ID``
    reconstructs one bundle's merged cross-layer timeline; ``--diff A
    B`` compares two bundles (the clean control run freezes a
    whole-run snapshot under the id ``clean-0``) and reports which
    streams diverged first.  All modes honour ``--json`` (byte-stable
    sorted payloads).  With ``--check``, capture mode reruns the
    campaign on the slow and fast lanes and exits 1 unless every
    injected fault class produced at least one bundle whose evidence
    names a detecting signal, every ring reconciles ``captured ==
    retained + evicted``, and bundle JSON is byte-stable across
    repeated same-seed runs.
    """
    from repro.diagnosis.forensics import (
        capture_campaign,
        check_forensics,
        diff_bundles,
        diff_panel,
        match_bundles,
        timeline_panel,
    )

    mode = _mode(args, ("capture", "show", "diff"), default="capture")
    lane = _lane(args)

    if mode == "show":
        cap = capture_campaign(args.seed, lane=lane,
                               fail_after=args.fail_after)
        bundle = cap.find(args.show)
        if bundle is None:
            frozen = ", ".join(b.bundle_id for b in cap.bundles) or "(none)"
            _usage_error(args, f"no bundle {args.show!r} "
                               f"(frozen this run: {frozen})")
        if args.json:
            _print_json(bundle.to_dict())
        else:
            from repro.webservices.grafana import render_ascii

            print(render_ascii(timeline_panel(bundle), width=110))
            evidence = bundle.evidence
            print("evidence links:")
            print("  rules:     " + (", ".join(evidence["rules"]) or "-"))
            print("  signals:   " + (", ".join(evidence["signals"]) or "-"))
            print("  incidents: " + (", ".join(
                str(i) for i in evidence["incidents"]) or "-"))
            print(f"  traces:    {evidence['trace_id_count']} distinct "
                  f"id(s), {len(evidence['trace_ids'])} listed")
        return

    if mode == "diff":
        a_id, b_id = args.diff
        faulted = capture_campaign(args.seed, lane=lane,
                                   fail_after=args.fail_after)
        clean = capture_campaign(args.seed, lane=lane, faults=None,
                                 snapshot_id="clean-0")

        def find(bundle_id):
            found = faulted.find(bundle_id)
            return found if found is not None else clean.find(bundle_id)

        a, b = find(a_id), find(b_id)
        if a is None or b is None:
            missing = [i for i, bb in ((a_id, a), (b_id, b)) if bb is None]
            known = [x.bundle_id for x in (*faulted.bundles, *clean.bundles)]
            _usage_error(args, f"unknown bundle(s) {', '.join(missing)} "
                               f"(known: {', '.join(known)})")
        diff = diff_bundles(a, b)
        if args.json:
            _print_json(diff.to_dict())
        else:
            from repro.webservices.grafana import render_ascii

            print(render_ascii(diff_panel(diff), width=110))
            first = diff.first
            if first is None:
                print("no divergence inside the window overlap")
            else:
                print(f"first divergence: stream {first.stream!r} at "
                      f"t={first.t:.3f}s")
        return

    # -- capture (default) ---------------------------------------------
    cap = capture_campaign(args.seed, lane=lane, fail_after=args.fail_after)
    recorder = cap.recorder
    matches = match_bundles(cap.applied, cap.bundles, cap.epoch)

    if args.json:
        _print_json({
            "seed": args.seed,
            "fast_lane": not args.no_fast_lane,
            "applied_faults": _fault_rows(cap.world),
            "bundles": [b.to_dict() for b in cap.bundles],
            "recorder": recorder.stats(),
            "reconciles": recorder.reconciles(),
            "matches": {
                cls: match.to_dict() for cls, match in sorted(matches.items())
            },
            "archive_bytes": len(recorder.log.to_bytes()),
        })
    else:
        _print_faults(cap.world)
        print("\n== frozen bundles ==")
        if not cap.bundles:
            print("  (none)")
        for bundle in cap.bundles:
            evidence = bundle.evidence
            print(f"  {bundle.bundle_id:<6} "
                  f"{bundle.trigger_kind}({bundle.trigger_detail}) "
                  f"t={bundle.t_trigger:7.3f}s "
                  f"window [{bundle.window[0]:.3f}, {bundle.window[1]:.3f}] "
                  f"{bundle.n_records():>4} records, "
                  f"{len(evidence['rules'])} rule(s), "
                  f"{len(evidence['signals'])} signal(s), "
                  f"{evidence['trace_id_count']} trace(s)")
        print("\n== rings (captured == retained + evicted) ==")
        print(f"  {'stream':<10} {'captured':>9} {'evicted':>8} "
              f"{'retained':>9}  ok")
        for name, ring in recorder.rings.items():
            print(f"  {name:<10} {ring.captured:>9} {ring.evicted:>8} "
                  f"{ring.retained:>9}  "
                  f"{'yes' if ring.reconciles() else 'NO'}")
        print("\n== fault-class evidence matches ==")
        for cls, match in sorted(matches.items()):
            if match.bundles:
                listing = ", ".join(
                    f"{bid} [{', '.join(signals)}]"
                    for bid, signals in sorted(match.bundles.items())
                )
            else:
                listing = "UNMATCHED"
            print(f"  {cls:<16} {listing}")
        print(f"\nrecorder: {recorder.bundles_frozen} bundle(s) frozen, "
              f"{recorder.bundle_bytes} archive byte(s), "
              f"{recorder.triggers_dropped} trigger(s) dropped")

    if args.check:
        ok, lines = check_forensics(args.seed)
        _conclude(ok, lines,
                  "OK: every fault class matched a bundle naming its signal "
                  "on both lanes; rings reconcile; bundles byte-stable")


# -- the parser ----------------------------------------------------------------

#: Every flag, declared once: name -> (option, type, default, help[,
#: extra add_argument kwargs]).  A ``bool`` flag is an on/off switch.
_FLAGS = {
    "seed": ("--seed", int, 42, "campaign RNG seed"),
    "seeds": ("--seeds", int, 1,
              "sweep this many consecutive seeds from --seed in one process"),
    "reps": ("--reps", int, 2, "repetitions per cell"),
    "ranks_per_node": ("--ranks-per-node", int, 4, "MPI ranks per node"),
    "families": ("--families", int, 200, "HMMER Pfam families (scaled input)"),
    "particles": ("--particles", int, 500_000,
                  "HACC particles per rank (scaled input)"),
    "queue_depth": ("--queue-depth", int, 65536,
                    "forward-outbox depth (small = overflow)"),
    "inject_failure": ("--inject-failure", bool, False,
                       "crash the L1 aggregator mid-run"),
    "fail_after": ("--fail-after", int, 50,
                   "messages seen at L1 before the crash"),
    "no_fast_lane": ("--no-fast-lane", bool, False,
                     "the per-message reference lane"),
    "json": ("--json", bool, False,
             "machine-readable JSON (sorted keys) instead of the text report"),
    "check": ("--check", bool, False,
              "exit 1 unless the invariants described above hold"),
    "topology": ("--topology", bool, False,
                 "print the shard/replica layout of a clean run"),
    "drill": ("--drill", bool, False,
              "run the crash/recovery drill (the default mode)"),
    "no_repair": ("--no-repair", bool, False,
                  "disable anti-entropy repair (negative control)"),
    "quick": ("--quick", bool, False, "reduced campaign for CI smoke runs"),
    "job": ("--job", int, None,
            "job id to explain (default: the campaign's own job)"),
    "trace_id": ("--trace-id", str, None, "drill into one retained trace id"),
    "slowest": ("--slowest", int, 5, "show the N slowest stored traces"),
    "drops": ("--drops", bool, False, "show retained dropped traces instead"),
    "head_rate": ("--head-rate", float, 1.0,
                  "deterministic head-sampling rate (1.0 = keep every trace)"),
    "tail_latency": ("--tail-latency", float, None,
                     "always retain stored traces at least this slow (s)"),
    "scan": ("--scan", bool, False,
             "scan the demo fleet and render the console (the default mode)"),
    "export": ("--export", bool, False,
               "print the scan as an OpenMetrics text exposition"),
    "catalog": ("--catalog", bool, False, "print the signal catalog page only"),
    "capture": ("--capture", bool, False,
                "run the capture campaign and print its bundles (the default)"),
    "show": ("--show", str, None,
             "one frozen bundle's cross-layer timeline by id (e.g. fb-0)",
             {"metavar": "BUNDLE"}),
    "diff": ("--diff", str, None,
             "diff two bundles: faulted-run ids or the clean run's 'clean-0'",
             {"nargs": 2, "metavar": ("A", "B")}),
}

#: Command -> (handler, the flags it reads).
_COMMANDS = {
    "table2a": (_cmd_table2a, ("seed", "reps", "ranks_per_node")),
    "table2b": (_cmd_table2b, ("seed", "reps", "ranks_per_node",
                               "particles")),
    "table2c": (_cmd_table2c, ("seed", "reps", "families")),
    "fig5": (_cmd_fig5, ("seed", "reps")),
    "fig6": (_cmd_fig6, ("seed",)),
    "fig7": (_cmd_fig7, ()),
    "fig8": (_cmd_fig8, ()),
    "fig9": (_cmd_fig9, ()),
    "ablations": (_cmd_ablations, ("families",)),
    "report": (_cmd_report, ()),
    "telemetry": (_cmd_telemetry, ("seed", "ranks_per_node", "queue_depth",
                                   "inject_failure", "fail_after", "json",
                                   "check")),
    "chaos": (_cmd_chaos, ("seed", "seeds", "ranks_per_node", "fail_after",
                           "no_fast_lane", "json", "check")),
    "store": (_cmd_store, ("topology", "drill", "no_repair", "seed",
                           "ranks_per_node", "no_fast_lane", "json",
                           "check")),
    "diagnose": (_cmd_diagnose, ("seed", "ranks_per_node", "fail_after",
                                 "no_fast_lane", "json", "check")),
    "profile": (_cmd_profile, ("seed", "ranks_per_node", "no_fast_lane",
                               "json")),
    "trace": (_cmd_trace, ("trace_id", "slowest", "drops", "head_rate",
                           "tail_latency", "seed", "ranks_per_node",
                           "fail_after", "no_fast_lane", "json", "check")),
    "bench": (_cmd_bench, ("quick", "check")),
    "fleet": (_cmd_fleet, ("scan", "export", "catalog", "no_fast_lane",
                           "json", "check")),
    "forensics": (_cmd_forensics, ("capture", "show", "diff", "seed",
                                   "fail_after", "no_fast_lane", "json",
                                   "check")),
    "explain": (_cmd_explain, ("job", "seed", "no_fast_lane", "json",
                               "check")),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subcommand per entry of ``_COMMANDS``."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's tables and figures."
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")
    for name, (handler, flags) in sorted(_COMMANDS.items()):
        doc = inspect.cleandoc(handler.__doc__)
        sub = commands.add_parser(
            name, help=doc.splitlines()[0], description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for flag in flags:
            option, kind, default, text, *extra = _FLAGS[flag]
            if kind is bool:
                sub.add_argument(option, action="store_true", help=text)
            else:
                sub.add_argument(option, type=kind, default=default,
                                 help=text, **(extra[0] if extra else {}))
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli`` / ``repro-experiments``."""
    args = build_parser().parse_args(argv)
    args.handler(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
