"""Tests for the command-line front ends."""

import pytest

from repro.cli import main as repro_main
from repro.darshan.cli import main as parser_main, render_log


@pytest.fixture
def logfile(tmp_path):
    """A small real Darshan log on disk."""
    from repro.apps import MpiIoTest
    from repro.darshan import write_log
    from repro.experiments import World, WorldConfig, run_job

    world = World(WorldConfig(seed=1, quiet=True, n_compute_nodes=4))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=2, iterations=2, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(world, app, "nfs")
    path = tmp_path / "job.darshan"
    write_log(result.darshan_log, path)
    return path, result


def test_darshan_parser_renders_header_and_totals(logfile, capsys):
    path, result = logfile
    assert parser_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert f"# jobid: {result.job_id}" in out
    assert "# nprocs: 4" in out
    assert "POSIX module totals" in out
    assert "total_POSIX_BYTES_WRITTEN:" in out
    assert "MPIIO" in out


def test_darshan_parser_module_filter(logfile, capsys):
    path, _ = logfile
    assert parser_main([str(path), "--module", "MPIIO"]) == 0
    out = capsys.readouterr().out
    assert "MPIIO module totals" in out
    assert "POSIX module totals" not in out


def test_darshan_parser_dxt_output(logfile, capsys):
    path, _ = logfile
    assert parser_main([str(path), "--dxt"]) == 0
    out = capsys.readouterr().out
    assert "DXT segments" in out
    assert "\twrite\t" in out


def test_darshan_parser_bad_file(tmp_path, capsys):
    bad = tmp_path / "junk"
    bad.write_bytes(b"not a log")
    assert parser_main([str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_darshan_parser_missing_file(tmp_path, capsys):
    assert parser_main([str(tmp_path / "ghost")]) == 1


def test_render_log_contains_per_record_lines(logfile):
    path, result = logfile
    text = render_log(result.darshan_log)
    assert "POSIX_WRITES" in text
    assert "/nfs/scratch/mpi-io-test" in text


def test_repro_cli_fig7(capsys):
    assert repro_main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "anomalous" in out


def test_repro_cli_fig8(capsys):
    assert repro_main(["fig8"]) == 0
    out = capsys.readouterr().out
    assert "10 write phases" in out


def test_repro_cli_telemetry(capsys):
    assert repro_main([
        "telemetry", "--queue-depth", "1", "--inject-failure",
        "--fail-after", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "per-stage latency" in out
    assert "drop sites" in out
    assert (
        "reconciliation published == stored + Σ drops(site) "
        "+ in_flight_spill: EXACT" in out
    )
    assert "drop_overflow" in out
    assert "drop_daemon_failed" in out


def test_repro_cli_telemetry_check_passes(capsys):
    # A healthy run reconciles, so --check is a quiet exit 0.
    assert repro_main(["telemetry", "--check"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_repro_cli_telemetry_check_exits_nonzero_on_violation(
    monkeypatch, capsys
):
    from repro.telemetry.report import PipelineHealthReport

    monkeypatch.setattr(PipelineHealthReport, "verify", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["telemetry", "--check"])
    assert exc.value.code == 1
    assert "FAIL: loss reconciliation violated" in capsys.readouterr().out


def test_repro_cli_chaos_check(capsys):
    assert repro_main(["chaos", "--seed", "7", "--check"]) == 0
    out = capsys.readouterr().out
    assert "applied faults" in out
    assert "daemon_crash" in out
    assert "daemon_recover" in out
    assert "link_partition" in out
    assert "slow_store_begin" in out
    assert "recovery sites" in out
    assert "EXACT" in out


def test_repro_cli_chaos_check_exits_nonzero_on_violation(monkeypatch, capsys):
    from repro.telemetry.report import PipelineHealthReport

    monkeypatch.setattr(PipelineHealthReport, "verify", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["chaos", "--seed", "7", "--check"])
    assert exc.value.code == 1
    assert "FAIL: unaccounted events" in capsys.readouterr().out


def test_repro_cli_telemetry_json(capsys):
    import json

    assert repro_main(["telemetry", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] is True
    assert payload["published"] == payload["stored"]
    assert "end_to_end" in payload["histograms"]
    assert payload["rows"] and payload["rows"][0]["exact"] is True


def test_repro_cli_chaos_json(capsys):
    import json

    assert repro_main(["chaos", "--seed", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {f["kind"] for f in payload["applied_faults"]}
    assert {"daemon_crash", "link_partition", "slow_store_begin"} <= kinds
    assert payload["health"]["exact"] is True
    assert payload["fast_lane"] is True


def test_repro_cli_diagnose_check(capsys):
    assert repro_main(["diagnose", "--seed", "42", "--check"]) == 0
    out = capsys.readouterr().out
    assert "incident log" in out
    assert "fault detection scorecard" in out
    assert "recall=100%" in out
    assert "clean-run control: 0 alert(s) (OK)" in out
    assert "OK: every fault class detected; clean run silent" in out


def test_repro_cli_diagnose_json(capsys):
    import json

    assert repro_main(["diagnose", "--seed", "42", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"]["ok"] is True
    assert payload["score"]["classes"] == {
        "daemon_crash": True, "link_degrade": True, "slow_store": True,
    }
    assert payload["clean_run_alerts"] == 0
    assert payload["incidents"]
    # Incident ids are positional and durations are firing→resolved
    # spans (null while still firing) — the forensics cross-reference.
    assert [i["id"] for i in payload["incidents"]] == list(
        range(len(payload["incidents"]))
    )
    for incident in payload["incidents"]:
        assert "duration_s" in incident
        if incident["state"] == "resolved":
            assert incident["duration_s"] >= 0
        else:
            assert incident["duration_s"] is None
    for d in payload["score"]["detections"]:
        assert d["detected"] and d["detection_latency_s"] > 0


def test_repro_cli_diagnose_check_exits_nonzero_when_undetected(
    monkeypatch, capsys
):
    from repro.diagnosis import DiagnosisScore

    monkeypatch.setattr(DiagnosisScore, "ok", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["diagnose", "--seed", "42", "--check"])
    assert exc.value.code == 1
    assert "FAIL" in capsys.readouterr().out


def test_repro_cli_explain_text(capsys):
    assert repro_main(["explain"]) == 0
    out = capsys.readouterr().out
    assert "== applied faults ==" in out
    assert "== bottleneck verdicts (job" in out
    assert "== classification scorecard ==" in out
    assert "recall=100% precision=100%" in out
    assert "fired:" in out and "-> " in out
    assert "clean-run control: primary verdict 'healthy' (OK)" in out


def test_repro_cli_explain_json(capsys):
    import json

    assert repro_main(["explain", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"]["ok"] is True
    assert payload["score"]["recall"] == payload["score"]["precision"] == 1.0
    assert payload["clean_healthy"] is True
    assert payload["clean_primary"] == "healthy"
    report = payload["report"]
    assert report["primary"] != "healthy"
    assert {v["class"] for v in report["verdicts"]} == {
        "fs_contention", "network_transport", "pipeline_self_inflicted",
    }
    for verdict in report["verdicts"]:
        assert verdict["thresholds_fired"]
        assert verdict["evidence"]["incidents"]
        assert verdict["recommendations"]
    assert report["features"]["n_ranks"] == 8


def test_repro_cli_explain_check(capsys):
    assert repro_main(["explain", "--check"]) == 0
    out = capsys.readouterr().out
    assert "OK[slow]" in out and "OK[fast]" in out
    assert "OK: every fault class classified" in out


def test_repro_cli_explain_check_exits_nonzero_when_misclassified(
    monkeypatch, capsys
):
    from repro.diagnosis import ExplainScore

    monkeypatch.setattr(ExplainScore, "ok", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["explain", "--check"])
    assert exc.value.code == 1
    assert "FAIL" in capsys.readouterr().out


def test_repro_cli_explain_unknown_job_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["explain", "--job", "999999"])
    assert exc.value.code == 2
    assert "no stored events for job 999999" in capsys.readouterr().err


def test_repro_cli_explain_columnar_requires_fast_lane(capsys):
    """``--columnar`` is gone: the columnar path is the fast lane, the
    default, so the flag is a usage error (``_FOREIGN_FLAG_ARGVS``
    covers it on every command that once took it)."""
    with pytest.raises(SystemExit) as exc:
        repro_main(["explain", "--columnar", "--no-fast-lane"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --columnar" in capsys.readouterr().err


def test_repro_cli_profile(capsys):
    assert repro_main(["profile"]) == 0
    out = capsys.readouterr().out
    assert "pipeline sim-time profile" in out
    assert "connector" in out and "forwarder" in out
    assert "EXACT" in out


def test_repro_cli_profile_json(capsys):
    import json

    assert repro_main(["profile", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reconciles"] is True
    assert payload["messages"] > 0
    stages = {c["stage"] for c in payload["components"]}
    assert {"publish", "forward", "ingest"} <= stages


def test_repro_cli_unknown_command():
    with pytest.raises(SystemExit):
        repro_main(["frobnicate"])


# ----------------------------------------------------------- repro trace


def test_repro_cli_trace_slowest_check(capsys):
    assert repro_main(["trace", "--slowest", "3", "--check"]) == 0
    out = capsys.readouterr().out
    assert "retained 288 of 288 traces" in out
    assert out.count("critical path:") == 3
    assert "exact: yes" in out
    assert "critical-path rollup" in out
    assert "OK: 287 critical paths exact" in out


def test_repro_cli_trace_drops_with_sampling(capsys):
    assert repro_main([
        "trace", "--drops", "--head-rate", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    # Tail sampling keeps drops even at a 5% head rate.
    assert "dropped at" in out
    assert "tail" in out


def test_repro_cli_trace_by_id_and_missing_id(capsys):
    assert repro_main(["trace", "--trace-id", "259900:1:4"]) == 0
    out = capsys.readouterr().out
    assert "trace 259900:1:4" in out
    # An unknown identifier is a usage error (exit 2), not a broken
    # invariant (exit 1) — the uniform exit-code contract.
    with pytest.raises(SystemExit) as exc:
        repro_main(["trace", "--trace-id", "999:9:9"])
    assert exc.value.code == 2
    assert "not retained" in capsys.readouterr().out


def test_repro_cli_trace_json(capsys):
    import json

    assert repro_main(["trace", "--slowest", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rollup_reconciles_with_profile"] is True
    assert payload["registry"]["retained"] == payload["registry"]["offered"]
    assert len(payload["traces"]) == 2
    for t in payload["traces"]:
        assert t["critical_path"]["exact"] is True
        assert t["critical_path"]["total_s"] == t["root"]["duration_s"]


def test_repro_cli_trace_check_exits_nonzero_on_inexact(monkeypatch, capsys):
    from repro.telemetry import spans

    monkeypatch.setattr(
        spans.CriticalPath, "exact", property(lambda self: False)
    )
    with pytest.raises(SystemExit) as exc:
        repro_main(["trace", "--slowest", "1", "--check"])
    assert exc.value.code == 1
    assert "FAIL: critical path != end-to-end latency" in (
        capsys.readouterr().out
    )


# --------------------------------------------------- sorted JSON contract


@pytest.mark.parametrize(
    "argv",
    [
        ["telemetry", "--json"],
        ["chaos", "--seed", "7", "--json"],
        ["profile", "--json"],
        ["trace", "--slowest", "1", "--json"],
        ["forensics", "--capture", "--json"],
        ["explain", "--json"],
    ],
    ids=["telemetry", "chaos", "profile", "trace", "forensics", "explain"],
)
def test_repro_cli_json_outputs_are_stable_sorted(argv, capsys):
    """Every --json stdout is byte-stable: 2-space indent, sorted keys."""
    import json

    assert repro_main(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -------------------------------------------------------------- repro fleet


def test_repro_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().startswith("repro ")


def test_repro_cli_fleet_catalog_check(capsys):
    assert repro_main(["fleet", "--catalog", "--check"]) == 0
    out = capsys.readouterr().out
    assert "== signal catalog (61 signals, complete) ==" in out
    assert "OK: catalog complete (61 signals)" in out


def test_repro_cli_fleet_catalog_json(capsys):
    import json

    assert repro_main(["fleet", "--catalog", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["count"] == 61 and payload["missing"] == []
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_repro_cli_fleet_catalog_check_fails_when_incomplete(
    monkeypatch, capsys
):
    # Simulate the stack emitting a signal nobody catalogued.  (The
    # registries themselves can't be patched here: default_catalog()
    # reads the same tables expected_signals() does, so growing one
    # grows both.)
    from repro.diagnosis import signals

    real = signals.expected_signals
    monkeypatch.setattr(signals, "expected_signals",
                        lambda: real() | {"ghost_series"})
    with pytest.raises(SystemExit) as exc:
        repro_main(["fleet", "--catalog", "--check"])
    assert exc.value.code == 1
    assert "FAIL: signals missing from the catalog: ghost_series" in (
        capsys.readouterr().out
    )


def test_repro_cli_fleet_modes_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["fleet", "--export", "--catalog"])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_repro_cli_fleet_scan_check(capsys):
    assert repro_main(["fleet", "--scan", "--check"]) == 0
    out = capsys.readouterr().out
    assert "== fleet readiness ==" in out
    assert "== attaway: scorecard" in out
    assert "== signal catalog (61 signals, complete) ==" in out
    assert ("OK: 3 scorecards reconcile exactly; chaos faults deducted "
            "via matching components") in out


def test_repro_cli_fleet_json_sorted_and_stable(capsys):
    import json

    assert repro_main(["fleet", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["fleet_ready"] is False
    assert payload["worst_cluster"] == "attaway"
    names = [c["cluster"] for c in payload["clusters"]]
    assert names == ["voltrino", "chama", "attaway"]
    for c in payload["clusters"]:
        assert c["scorecard"]["reconciles"] is True


def test_repro_cli_fleet_export_check(capsys):
    assert repro_main(["fleet", "--export", "--check"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("# EOF\n")
    assert "# TYPE repro_health_score gauge" in captured.out
    assert 'repro_health_score{cluster="attaway"}' in captured.out
    assert "(uncatalogued)" not in captured.out
    assert "OK: every exported family catalogued" in captured.err


def test_repro_cli_fleet_scan_check_fails_on_broken_reconciliation(
    monkeypatch, capsys
):
    from repro.fleet.scorecard import HealthScore

    monkeypatch.setattr(HealthScore, "reconciles", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["fleet", "--check"])
    assert exc.value.code == 1
    assert "FAIL: scorecard does not reconcile" in capsys.readouterr().out


# ---------------------------------------------------------- repro forensics


def test_repro_cli_forensics_capture(capsys):
    assert repro_main(["forensics", "--capture"]) == 0
    out = capsys.readouterr().out
    assert "== applied faults ==" in out
    assert "== frozen bundles ==" in out
    assert "fb-0" in out
    assert "== rings (captured == retained + evicted) ==" in out
    assert "NO" not in out  # every ring reconciles
    assert "== fault-class evidence matches ==" in out
    assert "UNMATCHED" not in out
    assert "0 trigger(s) dropped" in out


def test_repro_cli_forensics_capture_json(capsys):
    import json

    assert repro_main(["forensics", "--capture", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reconciles"] is True
    assert payload["bundles"]
    for bundle in payload["bundles"]:
        assert bundle["evidence"]["rules"]
        assert bundle["evidence"]["signals"]
    for match in payload["matches"].values():
        assert match["matched"] is True
    assert payload["archive_bytes"] > 0


def test_repro_cli_forensics_show(capsys):
    assert repro_main(["forensics", "--show", "fb-0"]) == 0
    out = capsys.readouterr().out
    assert "bundle fb-0" in out
    assert "alerts" in out
    assert "evidence links:" in out


def test_repro_cli_forensics_show_unknown_bundle_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["forensics", "--show", "nope-99"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no bundle 'nope-99'" in err
    assert "fb-0" in err  # the error lists what did freeze


def test_repro_cli_forensics_diff_against_clean_snapshot(capsys):
    assert repro_main(["forensics", "--diff", "fb-0", "clean-0"]) == 0
    out = capsys.readouterr().out
    assert "diff fb-0 vs clean-0" in out
    assert "first divergence: stream" in out


def test_repro_cli_forensics_modes_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["forensics", "--show", "fb-0", "--diff", "a", "b"])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_repro_cli_forensics_check_ok(capsys):
    assert repro_main(["forensics", "--capture", "--check"]) == 0
    out = capsys.readouterr().out
    assert "OK[slow]" in out
    assert "OK[fast]" in out
    assert "OK: every fault class matched a bundle naming its signal" in out


def test_repro_cli_forensics_check_fails_on_unmatched_class(
    monkeypatch, capsys
):
    from repro.diagnosis import forensics

    monkeypatch.setattr(
        forensics, "match_bundles",
        lambda applied, bundles, epoch, grace_s=1.0: {
            "daemon_crash": forensics.ClassMatch("daemon_crash", 1),
        },
    )
    with pytest.raises(SystemExit) as exc:
        repro_main(["forensics", "--capture", "--check"])
    assert exc.value.code == 1
    assert "FAIL" in capsys.readouterr().out


# ------------------------------------------------------- subcommand parser

#: Each command declares only the flags it reads: these argvs pass a
#: flag some other command owns, a flag no command owns any more (the
#: retired ``--columnar`` and ``--out``), or a flag before the command.
_FOREIGN_FLAG_ARGVS = [
    ["fig7", "--drill"],
    ["diagnose", "--topology"],
    ["diagnose", "--columnar"],
    ["profile", "--check"],
    ["fleet", "--seed", "3"],
    ["--seed", "3", "chaos"],
    ["chaos", "--columnar"],
    ["chaos", "--columnar", "--no-fast-lane"],
    ["chaos", "--seed", "3", "--seeds", "3", "--check", "--columnar"],
    ["explain", "--columnar", "--no-fast-lane"],
    ["store", "--drill", "--check", "--columnar"],
    ["forensics", "--columnar"],
    ["bench", "--json"],
    ["bench", "--out", "x"],
    ["bench", "--seed", "1"],
]


def _documented_argvs():
    """Every repro argv in this file, the CI workflow and the README."""
    import ast
    import re
    import shlex
    from pathlib import Path

    from repro.cli import _COMMANDS

    root = Path(__file__).resolve().parents[1]
    argvs = []
    tree = ast.parse(Path(__file__).read_text())
    id_lists = {id(k.value) for k in ast.walk(tree)
                if isinstance(k, ast.keyword) and k.arg == "ids"}
    for node in ast.walk(tree):
        if id(node) in id_lists:
            continue
        if isinstance(node, ast.List) and node.elts and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts
        ) and node.elts[0].value in _COMMANDS:
            argvs.append([e.value for e in node.elts])
    for doc in (".github/workflows/ci.yml", "README.md"):
        text = (root / doc).read_text()
        for line in re.findall(r"python -m repro\.cli ([^#\n]*)", text):
            argvs.append(shlex.split(line))
    unique = {tuple(a): a for a in argvs
              if a and a[0] != "--version" and "--help" not in a
              and a not in _FOREIGN_FLAG_ARGVS}
    return sorted(unique.values())


@pytest.mark.parametrize("argv", _documented_argvs(), ids=" ".join)
def test_documented_argv_parses_to_its_command(argv):
    from repro.cli import _COMMANDS, build_parser

    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert args.handler is _COMMANDS[argv[0]][0]


def test_documented_argvs_cover_every_check_command():
    commands = {argv[0] for argv in _documented_argvs() if "--check" in argv}
    assert {"chaos", "store", "diagnose", "trace", "fleet", "forensics",
            "explain", "bench", "telemetry"} <= commands


@pytest.mark.parametrize("argv", _FOREIGN_FLAG_ARGVS, ids=" ".join)
def test_flag_owned_by_another_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_repro_cli_profile_reference_lane_is_reference_end_to_end(
    monkeypatch, capsys
):
    """``profile --no-fast-lane`` builds a slow world *and* a slow
    connector (the connector once kept its fast-lane default); the
    default builds both fast.  The connector takes its lane from the
    daemons it publishes into, so each must match its world."""
    import repro.experiments

    seen = []
    real = repro.experiments.run_job

    def spy(world, app, fs, connector_config=None, **kw):
        result = real(world, app, fs, connector_config=connector_config, **kw)
        seen.append((world.config.fast_lane, {
            c._daemon_for_node(node).fast_lane
            for c in world.connectors for node in world.fabric.compute_daemons
        }))
        return result

    monkeypatch.setattr(repro.experiments, "run_job", spy)
    assert repro_main(["profile", "--no-fast-lane"]) == 0
    assert repro_main(["profile"]) == 0
    assert seen == [(False, {False}), (True, {True})]
    assert "EXACT" in capsys.readouterr().out


def test_repro_cli_store_modes_and_lane_flags_are_usage_errors(capsys):
    for argv, message in (
        (["store", "--topology", "--drill"],
         "repro store: --topology and --drill are mutually exclusive"),
        (["chaos", "--columnar", "--no-fast-lane"],
         "unrecognized arguments: --columnar"),
    ):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def _stub_bench(monkeypatch, tmp_path, speedup):
    """``repro bench`` over a stubbed two-lane run and a tmp result file
    holding a committed speedup of 4.0; returns the file and the
    ``quick`` flags the stub was called with."""
    import json

    from repro.experiments import bench

    calls = []

    def fake(quick=False):
        calls.append(quick)
        lane = {"wall_s": 1.0, "events_per_sec": 10.0, "engine_events": 5}
        return {
            "campaign": {"n_families": 80 if quick else 400, "seed": 1},
            "slow": lane, "fast": dict(lane),
            "speedup_events_per_sec": speedup,
        }

    path = tmp_path / "BENCH_pipeline.json"
    path.write_text(json.dumps({"speedup_events_per_sec": 4.0}) + "\n")
    monkeypatch.setattr(bench, "pipeline_benchmark", fake)
    monkeypatch.setattr(bench, "DEFAULT_RESULT_PATH", path)
    return path, calls


def test_bench_quick_prints_and_never_rewrites_the_record(
    monkeypatch, tmp_path, capsys
):
    path, calls = _stub_bench(monkeypatch, tmp_path, speedup=3.3)
    committed = path.read_bytes()
    repro_main(["bench", "--quick"])
    out = capsys.readouterr().out
    assert calls == [True]
    assert "speedup (events/s, fast vs slow): 3.30x" in out
    assert "not recorded" in out and "wrote" not in out
    assert path.read_bytes() == committed
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_bench_full_run_is_the_only_writer(monkeypatch, tmp_path, capsys):
    import json

    path, calls = _stub_bench(monkeypatch, tmp_path, speedup=3.3)
    repro_main(["bench"])
    assert calls == [False]
    assert f"wrote {path}" in capsys.readouterr().out
    written = json.loads(path.read_text())
    assert written["campaign"]["n_families"] == 400
    assert written["speedup_events_per_sec"] == 3.3


@pytest.mark.parametrize("speedup, code", [(3.0, None), (2.9, 1)])
def test_bench_quick_check_reads_the_record_without_writing(
    monkeypatch, tmp_path, capsys, speedup, code
):
    path, calls = _stub_bench(monkeypatch, tmp_path, speedup=speedup)
    committed = path.read_bytes()
    if code is None:
        repro_main(["bench", "--quick", "--check"])
        assert "OK: lane speedup within 25% of committed" in \
            capsys.readouterr().out
    else:
        with pytest.raises(SystemExit) as exc:
            repro_main(["bench", "--quick", "--check"])
        assert exc.value.code == code
        assert "FAIL: speedup_events_per_sec" in capsys.readouterr().out
    assert calls == [True]
    assert path.read_bytes() == committed
