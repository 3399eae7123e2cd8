"""Pipeline-benchmark report shape and per-run freshness.

An earlier revision of ``repro.experiments.bench`` duplicated the
simulated outcome into every lane's section of the report.  Because
each lane runs a fresh world in the same process, the duplicated
numbers *looked* like a counters-not-reset bug (one result per lane,
all identical) — and would have silently hidden a real one.  The
report now keeps host metrics per lane and the simulated outcome in
one shared section, asserted identical across lanes on every run;
these tests pin both the layout and the freshness.
"""

from repro.experiments.bench import _SIM_KEYS, LANES, _run_lane, pipeline_benchmark


def test_run_lane_is_fresh_per_run():
    """The same lane twice in one process → identical numbers.

    Any host-side state carried over between runs (module caches aside,
    which are pure) would show up as diverging simulated stats or a
    diverging engine-event count.
    """
    first_host, first_sim = _run_lane(lane="fast", n_families=40, seed=11)
    second_host, second_sim = _run_lane(lane="fast", n_families=40, seed=11)
    assert first_sim == second_sim
    assert first_host["engine_events"] == second_host["engine_events"]
    assert first_host["spine"] == second_host["spine"]


def test_report_separates_host_from_simulated():
    result = pipeline_benchmark(quick=True, seed=42)
    # One shared simulated section...
    assert set(_SIM_KEYS) <= set(result["simulated"])
    for lane in LANES:
        section = result[lane]
        # ...and none of its keys duplicated into the per-lane host
        # sections (the old snapshot bug).
        assert not set(_SIM_KEYS) & set(section)
        assert section["lane"] == lane
        assert section["wall_s"] > 0
        assert section["engine_events"] > 0
        assert section["peak_rss_kib"] > 0
    assert list(LANES) == ["slow", "fast"]
    # Only the fast lane carries spine batch counters: its armed spine
    # carried every published message.
    assert "spine" not in result["slow"]
    spine = result["fast"]["spine"]
    assert spine["armed"] and spine["dearms"] == 0
    assert spine["rows"] == result["simulated"]["messages_published"]
    assert result["speedup_events_per_sec"] > 0
    assert not {"speedup_columnar_vs_fast", "speedup_columnar_vs_slow",
                "fast_baseline", "columnar"} & set(result)
    # Quick runs never claim a full-campaign baseline comparison.
    assert result["speedup_vs_seed_baseline"] is None
