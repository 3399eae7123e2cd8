"""Repository benchmark: the monitoring pipeline end to end, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hmmer-inert --seed 1 --seconds 30 --trace 0

Every rep is a fresh interpreter (``rep.py``) that builds one World, runs
one campaign and its query phase, and checks the simulated result.  One
unmeasured warm-up rep fills the page cache first; then reps run back to
back until ``--seconds`` have passed (at least :data:`MIN_REPS`).

``--trace 0`` prints the end-to-end metrics, each the median over reps.
A host-speed probe brackets every rep (:data:`PROBE`), and the timings
are reported as they would read on the reference host, next to the
unscaled host-second values.

``--trace 1`` alternates untraced and traced reps and prints the
per-layer metrics (medians over the traced reps), the tracing overhead,
and checks that tracing — and, on ``hmmer-observed-live``, the live
dashboard — leave the simulated fingerprint unchanged.

A human-readable table (median, quartiles and sample count per metric)
goes to standard output first; the last line is the JSON result.  See
``perfbench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"

#: Fewest measured reps per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: No rep starts after this many seconds of a run (the run must end
#: within 180 s including its last rep).
START_LIMIT_S = 110.0
REP_TIMEOUT_S = 150.0

END_TO_END = {
    "events_per_s": "1/s",
    "query_rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "delivered_ratio": "ratio",
}

#: The host-speed probe: a fresh interpreter importing the program's
#: third-party dependencies and no repository code.  Shared hosts change
#: speed by up to 1.5x within minutes; a fresh-interpreter import is the
#: probe whose time moved most closely with the campaigns' throughputs.
PROBE = "import numpy, scipy.stats, networkx"
#: Probe seconds on the reference host (a 2 GHz x86-64 vCPU whose
#: sibling is idle).  End-to-end timings are scaled to that host.
PROBE_REF_S = 1.4

#: Printed next to the end-to-end metrics: the host's speed relative to
#: the reference host and the unscaled timings.
HOST_EXTRAS = {
    "host_speed": "ratio",
    "events_per_host_s": "1/s",
    "query_rows_per_host_s": "1/s",
    "setup_host_s": "s",
    "campaign_s": "s",
    "query_s": "s",
}

#: Every per-layer metric of a traced run, with its unit.  ``*_s``
#: metrics other than ``setup.import_s.*`` and ``trace.overhead_s`` are
#: self times: together with ``trace.residual_s`` they sum exactly to
#: the traced wall.
PER_LAYER = {
    "setup.import_s.numpy": "s",
    "setup.import_s.scipy": "s",
    "setup.import_s.networkx": "s",
    "setup.import_s.repro": "s",
    "sim.engine_events": "count",
    "sim.self_s": "s",
    "fs.op_calls": "count",
    "fs.self_s": "s",
    "darshan.observe_calls": "count",
    "darshan.observe_s": "s",
    "core.on_io_event_s": "s",
    "core.format_calls": "count",
    "core.format_s": "s",
    "core.numeric_conversions": "count",
    "core.bytes_published": "bytes",
    "spine.append_s": "s",
    "spine.rows": "count",
    "spine.record_batches": "count",
    "spine.mean_batch_rows": "rows",
    "spine.dearms": "count",
    "ldms.publish_calls": "count",
    "ldms.publish_s": "s",
    "ldms.bus_publish_s": "s",
    "ldms.receive_calls": "count",
    "ldms.receive_s": "s",
    "ldms.forwarded": "count",
    "ldms.dropped": "count",
    "ldms.retried": "count",
    "dsos.ingest_calls": "count",
    "dsos.ingest_s": "s",
    "dsos.rows_ingested": "count",
    "dsos.quorum_degraded_writes": "count",
    "dsos.index_materialize_s": "s",
    "dsos.query_calls": "count",
    "dsos.query_s": "s",
    "dsos.rows_scanned": "count",
    "dsos.rows_returned": "count",
    "dsos.read_repaired": "count",
    "telemetry.hop_calls": "count",
    "telemetry.hop_s": "s",
    "flightrec.tick_s": "s",
    "flightrec.captured": "count",
    "flightrec.evicted": "count",
    "diagnosis.tick_calls": "count",
    "diagnosis.tick_s": "s",
    "faults.applied": "count",
    "webservices.render_s": "s",
    "webservices.analysis_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _layout_ok() -> str | None:
    """Why this directory cannot run the benchmark, or None."""
    if not (ROOT / "src" / "repro" / "experiments" / "world.py").is_file():
        return f"no repro sources under {ROOT / 'src'}"
    return None


def _spawn(workload: str, seed: int, mode: str, scale: str,
           deadline: float, spans_out: Path | None = None) -> dict:
    """Run one rep in a fresh interpreter; returns its JSON (or an error)."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--scale", scale]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = max(5.0, min(REP_TIMEOUT_S, deadline - time.monotonic()))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} rep timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"{mode} rep exited {proc.returncode}: "
                         + " | ".join(tail)}
    out = json.loads(lines[-1])
    out["setup_s"] = out.pop("t_world") - t_spawn
    return out


def _load_reference(scale: str):
    """``(fingerprints, problem)`` for this scale."""
    import workloads

    if scale != "full" or not REFERENCE.is_file():
        return {}, None
    ref = json.loads(REFERENCE.read_text())
    if ref.get("sizes") != json.loads(json.dumps(workloads.SIZES["full"])):
        return {}, "reference.json was recorded at other campaign sizes"
    return ref["fingerprints"], None


def _quartiles(values: list) -> tuple:
    """(q1, median, q3); quartiles collapse to the value when n < 2."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def _table(title: str, samples: dict, units: dict) -> list[str]:
    lines = [title, f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}"
                    f"{'n':>4}  unit"]
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = _quartiles(values)
        lines.append(f"  {name:<34}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                     f"{len(values):>4}  {units.get(name, '')}")
    return lines


class _Checker:
    """Counts reps and the ones whose result is wrong."""

    def __init__(self, workload: str, seed: int, reference: dict,
                 ref_problem: str | None):
        self.expected = reference.get(workload, {}).get(str(seed))
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        if ref_problem:
            self.problems.append(ref_problem)
        self._first = None

    @property
    def source(self) -> str:
        return "recorded reference" if self.expected else \
            "first rep of this run (seed not recorded)"

    def check(self, rep: dict, label: str, sim_only: bool = False) -> bool:
        """Check one rep; returns True when it is correct."""
        self.attempted += 1
        errs = []
        if "error" in rep:
            errs.append(rep["error"])
        else:
            errs.extend(rep["failures"])
            fp = rep["fingerprint"]
            want = self.expected or self._first
            if want is None:
                self._first = fp
            else:
                keys = ("sim",) if sim_only else ("sim", "queries")
                for key in keys:
                    if fp[key] != want[key]:
                        errs.append(f"{key} fingerprint differs from the "
                                    f"{self.source}: {fp[key]} != {want[key]}")
        if errs:
            self.failed += 1
            self.problems.extend(f"{label}: {e}" for e in errs)
        return not errs


def _probe(deadline: float) -> float | None:
    """Seconds a fresh interpreter takes to run :data:`PROBE`."""
    timeout = max(5.0, min(REP_TIMEOUT_S, deadline - time.monotonic()))
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, check=True,
                       capture_output=True, timeout=timeout)
    except (subprocess.SubprocessError, OSError):
        return None
    return time.monotonic() - t0


def _untraced(args, checker: _Checker, deadline: float) -> tuple:
    """Measured reps until ``--seconds`` pass; returns (samples, lines).

    A host-speed probe runs before every rep and after the last one.
    Each rep's timings are scaled by the mean of the two probes around
    it, to what they would read on the reference host: throughputs are
    divided by the speed and ``setup_s`` is multiplied by it.  The
    unscaled values are printed as ``*_host_*``.
    """
    t_end = time.monotonic() + args.seconds
    t_stop = time.monotonic() + START_LIMIT_S
    reps, probes = [], [_probe(deadline)]
    while len(reps) < MIN_REPS or time.monotonic() < t_end:
        if len(reps) >= MIN_REPS and time.monotonic() > t_stop:
            break
        reps.append(_spawn(args.workload, args.seed, "plain", args.scale,
                           deadline))
        probes.append(_probe(deadline))
    samples = {name: [] for name in END_TO_END}
    host = {name: [] for name in HOST_EXTRAS}
    for n, rep in enumerate(reps):
        if None in probes[n:n + 2]:
            rep = {"error": "host-speed probe failed"}
        if not checker.check(rep, f"rep {n + 1}"):
            continue
        speed = PROBE_REF_S / ((probes[n] + probes[n + 1]) / 2)
        host["host_speed"].append(speed)
        host["events_per_host_s"].append(rep["events_per_s"])
        host["query_rows_per_host_s"].append(rep["query_rows_per_s"])
        host["setup_host_s"].append(rep["setup_s"])
        host["campaign_s"].append(rep["campaign_s"])
        host["query_s"].append(rep["query_s"])
        samples["events_per_s"].append(rep["events_per_s"] / speed)
        samples["query_rows_per_s"].append(rep["query_rows_per_s"] / speed)
        samples["setup_s"].append(rep["setup_s"] * speed)
        samples["peak_rss_mib"].append(rep["peak_rss_mib"])
        samples["delivered_ratio"].append(rep["delivered_ratio"])
    lines = _table(f"{args.workload} seed {args.seed}: end-to-end, "
                   f"{len(reps)} reps", {**samples, **host},
                   {**END_TO_END, **HOST_EXTRAS})
    return samples, lines


def _traced(args, checker: _Checker, deadline: float) -> tuple:
    """Alternate untraced and traced reps; returns (layers, lines)."""
    t_end = time.monotonic() + args.seconds
    t_stop = time.monotonic() + START_LIMIT_S
    plain_walls, traced_walls = [], []
    layers: dict[str, list] = {}
    ledgers = []
    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    pairs = 0
    while pairs < 1 or time.monotonic() < t_end:
        if time.monotonic() > t_stop:
            break
        pairs += 1
        plain = _spawn(args.workload, args.seed, "plain", args.scale, deadline)
        if checker.check(plain, f"untraced rep {pairs}"):
            plain_walls.append(plain["wall_s"])
        traced = _spawn(args.workload, args.seed, "traced", args.scale,
                        deadline, spans_out)
        if checker.check(traced, f"traced rep {pairs}"):
            traced_walls.append(traced["wall_s"])
            ledgers.append(traced["trace_ledger"])
            for name, value in traced["layers"].items():
                layers.setdefault(name, []).append(value)
    if args.workload == "hmmer-observed-live":
        nodash = _spawn(args.workload, args.seed, "nodash", args.scale,
                        deadline)
        checker.check(nodash, "dashboard-free rep", sim_only=True)
    if plain_walls and traced_walls:
        plain_wall = statistics.median(plain_walls)
        overhead = statistics.median(traced_walls) - plain_wall
        layers["trace.overhead_s"] = [overhead]
        layers["trace.overhead_ratio"] = [overhead / plain_wall]
    lines = _table(f"{args.workload} seed {args.seed}: per layer, "
                   f"{pairs} traced reps", layers, PER_LAYER)
    for ledger in ledgers[-1:]:
        lines.append(
            f"  span ledger: {ledger['spans']} spans, Σ self "
            f"{ledger['sum_self_ns']} ns + residual {ledger['residual_ns']}"
            f" ns = {ledger['sum_self_ns'] + ledger['residual_ns']} ns; "
            f"root span {ledger['root_ns']} ns; measured wall "
            f"{ledger['wall_ns']} ns; residual "
            f"{ledger['residual_ns'] / ledger['wall_ns']:.1%} of the wall; "
            f"exact={ledger['reconciles']}"
        )
    return layers, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full",
                        help="campaign sizes (full; tiny for smoke tests)")
    args = parser.parse_args(argv)

    problem = _layout_ok()
    if problem is not None:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(use one of {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.scale not in workloads.SIZES:
        print(f"perfbench: unknown scale {args.scale!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + 170.0
    reference, ref_problem = _load_reference(args.scale)
    checker = _Checker(args.workload, args.seed, reference, ref_problem)
    warm = _spawn(args.workload, args.seed, "warm", args.scale, deadline)
    if "error" in warm:
        print(f"perfbench: warm-up failed: {warm['error']}", file=sys.stderr)
        return 1

    measure = _traced if args.trace else _untraced
    samples, lines = measure(args, checker, deadline)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": statistics.median(values), "unit": unit}
        for name, unit in wanted.items()
        if (values := samples.get(name))
    }
    for line in lines:
        print(line)
    print(f"  checked against the {checker.source}")
    for p in checker.problems:
        print(f"  FAIL {p}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"  FAIL no value for {', '.join(missing)}")
    correct = checker.failed == 0 and not checker.problems and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
