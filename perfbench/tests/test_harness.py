"""Smoke tests of the benchmark harness at tiny campaign sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


class _Layer:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    def steps(self, n):
        for i in range(n):
            self.inner(i)
            got = yield i
            assert got == i * 10
        return "done"


_TARGETS = (
    (__name__, "_Layer.outer", "sim.self_s"),
    (__name__, "_Layer.inner", "fs.self_s"),
    (__name__, "_Layer.steps", "darshan.observe_s"),
)


def test_spans_nest_and_reconcile_exactly():
    rec = tracer.SpanRecorder()
    undo, bucket_of = tracer.install(rec, _TARGETS)
    try:
        layer = _Layer()
        rec.begin_root()
        t0 = perf_counter_ns()
        assert layer.outer(3) == 3
        gen = layer.steps(2)
        assert next(gen) == 0
        assert gen.send(0) == 1
        with pytest.raises(StopIteration) as stop:
            gen.send(10)
        assert stop.value.value == "done"
        t1 = perf_counter_ns()
        rec.end_root()
    finally:
        tracer.uninstall(undo)
    assert _Layer.outer.__name__ == "outer" and not hasattr(
        _Layer.outer, "__wrapped__")
    # outer + 3 inner, then 3 generator resumes each calling inner once
    # (the last resume returns), plus the root.
    assert rec.calls == {"_Layer.outer": 1, "_Layer.inner": 5,
                         "_Layer.steps": 1}
    assert len(rec.start) == 1 + 1 + 3 + 3 + 2
    names = [rec.names[i] for i in rec.name_id]
    for i, name in enumerate(names):
        if name == "_Layer.inner":
            assert names[rec.parent[i]] in ("_Layer.outer", "_Layer.steps")
    summary = rec.summary(bucket_of, t0, t1)
    assert summary["reconciles"]
    assert summary["misnested"] == 0 and summary["root_brackets_wall"]
    assert (sum(summary["bucket_ns"].values()) + summary["residual_ns"]
            == summary["root_ns"])
    # A root span that does not bracket the measured wall (as when the
    # caller's clock readings and the spans disagree) fails the ledger.
    late = rec.summary(bucket_of, t0, rec.end[0] + tracer.ROOT_SLACK_NS)
    assert not late["root_brackets_wall"] and not late["reconciles"]
    # So does a span that ends after its parent.
    rec.end[1] = rec.end[0] + 1
    assert rec.summary(bucket_of, t0, t1)["misnested"] >= 1


def test_missing_target_fails_and_patches_nothing():
    rec = tracer.SpanRecorder()
    targets = _TARGETS + ((__name__, "_Layer.missing", "fs.self_s"),)
    with pytest.raises(tracer.MissingTargetError, match="_Layer.missing"):
        tracer.install(rec, targets)
    assert not hasattr(_Layer.outer, "__wrapped__")


def test_every_trace_target_exists():
    sys.path.insert(0, str(ROOT / "src"))
    undo, bucket_of = tracer.install(tracer.SpanRecorder())
    tracer.uninstall(undo)
    assert set(bucket_of) - {tracer.ROOT} == {q for _, q, _ in tracer.TARGETS}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run("--workload", "hmmer-inert", "--seed", "3", "--seconds",
                "0", "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert "median" in proc.stdout and "q1" in proc.stdout


def test_traced_run_matches_untraced_and_reports_every_layer():
    proc = _run("--workload", "hmmer-observed-live", "--seed", "3",
                "--seconds", "0", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    # One untraced rep, one traced rep, one dashboard-free control.
    assert result["attempted"] == 3
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert "exact=True" in proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["diagnosis.tick_calls"] > 0
    assert metrics["spine.rows"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "hmmer-inert", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
