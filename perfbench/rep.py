"""One rep: a fresh interpreter builds one World, runs one campaign and
its query phase, checks the result and prints one JSON line.

Run by ``run.py``, never by hand::

    python perfbench/rep.py --workload hmmer-inert --seed 1 --mode plain

Modes:

* ``warm``    — imports and builds the World, then exits (page-cache warm-up);
* ``plain``   — the measured rep;
* ``nodash``  — like ``plain`` with the live dashboard left unarmed;
* ``traced``  — like ``plain`` with span wrappers installed around every
  layer entry point (see ``tracer.py``); also times each heavy import.

The JSON carries ``t_world``: ``time.monotonic()`` the instant the World
is built.  The parent subtracts its own ``time.monotonic()`` taken just
before spawning, so ``setup_s`` covers interpreter start, imports and
World construction.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _timed_imports() -> dict:
    """Import the heavy dependencies one by one, in load order."""
    import importlib

    out = {}
    for key, module in (("numpy", "numpy"), ("scipy", "scipy.stats"),
                        ("networkx", "networkx"),
                        ("repro", "repro.experiments")):
        t0 = time.perf_counter()
        importlib.import_module(module)
        out[key] = time.perf_counter() - t0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("warm", "plain", "nodash", "traced"))
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    traced = args.mode == "traced"
    imports = _timed_imports() if traced else None

    import workloads
    from repro.experiments import World, run_job

    rec = bucket_of = None
    query_stats = {"rows_scanned": 0, "rows_returned": 0, "read_repaired": 0}
    if traced:
        import tracer

        def on_query(result):
            s = result.stats
            query_stats["rows_scanned"] += s.rows_scanned
            query_stats["rows_returned"] += s.rows_returned
            query_stats["read_repaired"] += s.read_repaired

        rec = tracer.SpanRecorder()
        rec.on_result["Query.execute"] = on_query
        undo, bucket_of = tracer.install(rec)

    campaign = workloads.build(args.workload, args.seed, args.scale,
                               live=args.mode != "nodash")
    world = World(campaign.world_config)
    t_world = time.monotonic()
    if args.mode == "warm":
        print(json.dumps({"t_world": t_world}))
        return 0

    meter = workloads.QueryMeter()
    if rec is not None:
        rec.begin_root()
    t0 = time.perf_counter_ns()
    if campaign.arm_live is not None:
        campaign.arm_live(world, meter)
    result = run_job(world, campaign.app, "nfs",
                     connector_config=campaign.connector_config,
                     inter_job_gap_s=0.0)
    t1 = time.perf_counter_ns()
    live_ns = meter.ns
    if campaign.query is not None:
        campaign.query(world, result, meter)
    t2 = time.perf_counter_ns()
    if rec is not None:
        rec.end_root()
        tracer.uninstall(undo)

    stats = result.connector.stats
    out = {
        "t_world": t_world,
        "campaign_s": (t1 - t0) / 1e9,
        "wall_s": (t2 - t0) / 1e9,
        # Live dashboard reads interleave with the campaign; their host
        # time is query time, not pipeline time.
        "events_per_s": stats.events_seen / ((t1 - t0 - live_ns) / 1e9),
        "query_rows_per_s": meter.rows / (meter.ns / 1e9) if meter.ns else 0.0,
        "query_s": meter.ns / 1e9,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "delivered_ratio": world.store.objects_stored / stats.events_seen,
        "fingerprint": workloads.fingerprint(world, result, meter),
        "failures": workloads.invariant_failures(campaign, world, result,
                                                 meter),
    }
    if rec is not None:
        out["layers"], ledger = _layer_metrics(world, result, rec, bucket_of,
                                               query_stats, imports, t0, t2)
        out["trace_ledger"] = ledger
        if not ledger["reconciles"]:
            out["failures"].append(
                "span ledger does not reconcile: "
                f"{ledger['misnested']} misnested spans, root span "
                f"{ledger['root_ns']} ns vs measured wall "
                f"{ledger['wall_ns']} ns")
        if args.spans_out:
            rec.write(args.spans_out)
    print(json.dumps(out))
    return 0


def _layer_metrics(world, result, rec, bucket_of, query_stats, imports,
                   t0: int, t2: int) -> dict:
    """Every per-layer metric of one traced rep, and its span ledger.

    ``t0``/``t2`` are the rep's own clock readings around the measured
    region; the root span must bracket them.
    """
    import tracer

    summary = rec.summary(bucket_of, t0, t2)
    m = {f"setup.import_s.{k}": v for k, v in imports.items()}
    for bucket, ns in summary["bucket_ns"].items():
        m[bucket] = ns / 1e9
    m["trace.residual_s"] = summary["residual_ns"] / 1e9
    for metric, names in tracer.CALL_COUNTS.items():
        m[metric] = sum(rec.calls.get(n, 0) for n in names)

    stats = result.connector.stats
    m["sim.engine_events"] = world.env._seq
    m["core.numeric_conversions"] = stats.numeric_conversions
    m["core.bytes_published"] = stats.bytes_published

    # Every workload runs on the columnar lane, so the spine always exists.
    s = world.spine.stats
    m["spine.rows"] = s.rows
    m["spine.record_batches"] = s.record_batches
    m["spine.mean_batch_rows"] = s.mean_batch_rows
    m["spine.dearms"] = s.dearms

    fwd = [f for d in world.fabric.all_daemons() for f in d.forward_stats()]
    m["ldms.forwarded"] = sum(f.forwarded for f in fwd)
    m["ldms.dropped"] = sum(
        f.dropped_overflow + f.dead_letters + f.purged_on_crash for f in fwd
    )
    m["ldms.retried"] = sum(f.retries for f in fwd)

    cluster = world.dsos.cluster
    m["dsos.rows_ingested"] = world.store.objects_stored
    m["dsos.quorum_degraded_writes"] = (
        cluster.quorum_degraded_writes if cluster.sharded else 0
    )
    m["dsos.rows_scanned"] = query_stats["rows_scanned"]
    m["dsos.rows_returned"] = query_stats["rows_returned"]
    m["dsos.read_repaired"] = query_stats["read_repaired"]

    recorder = world.flight_recorder
    streams = recorder.stats()["streams"] if recorder is not None else {}
    m["flightrec.captured"] = sum(v["captured"] for v in streams.values())
    m["flightrec.evicted"] = sum(v["evicted"] for v in streams.values())
    injector = world.fault_injector
    m["faults.applied"] = 0 if injector is None else len(injector.applied)
    ledger = {
        "root_ns": summary["root_ns"],
        "wall_ns": summary["wall_ns"],
        "residual_ns": summary["residual_ns"],
        "sum_self_ns": sum(summary["bucket_ns"].values()),
        "spans": summary["spans"],
        "misnested": summary["misnested"],
        "root_brackets_wall": summary["root_brackets_wall"],
        "reconciles": summary["reconciles"],
    }
    return m, ledger


if __name__ == "__main__":
    sys.exit(main())
