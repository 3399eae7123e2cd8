"""Metric-primitive edge cases: merge, clamping, empty windows, re-arm."""

import math

import pytest

from repro.experiments import World, WorldConfig
from repro.telemetry import GaugeStats, LogHistogram


# ------------------------------------------------------- LogHistogram


def test_merge_combines_counts_and_summaries():
    a = LogHistogram()
    b = LogHistogram()
    for v in (1e-3, 1e-2, 0.5):
        a.observe(v)
    for v in (1e-4, 2.0):
        b.observe(v)
    a.merge(b)
    assert a.count == 5
    assert a.total == pytest.approx(1e-3 + 1e-2 + 0.5 + 1e-4 + 2.0)
    assert a.min == pytest.approx(1e-4)
    assert a.max == pytest.approx(2.0)
    assert sum(a.counts) == 5


def test_merge_is_equivalent_to_observing_everything():
    values_a = [10 ** (i / 7 - 5) for i in range(40)]
    values_b = [10 ** (i / 5 - 2) for i in range(20)]
    merged = LogHistogram()
    for v in values_a:
        merged.observe(v)
    other = LogHistogram()
    for v in values_b:
        other.observe(v)
    merged.merge(other)
    direct = LogHistogram()
    for v in values_a + values_b:
        direct.observe(v)
    assert merged.counts == direct.counts
    assert merged.count == direct.count
    assert merged.total == pytest.approx(direct.total)
    assert merged.percentile(95) == pytest.approx(direct.percentile(95))


def test_merge_with_empty_histogram_is_identity():
    a = LogHistogram()
    a.observe(0.5)
    before = (list(a.counts), a.count, a.total, a.min, a.max)
    a.merge(LogHistogram())
    assert (list(a.counts), a.count, a.total, a.min, a.max) == before
    # Merging *into* an empty one adopts the other's extrema.
    empty = LogHistogram()
    full = LogHistogram()
    full.observe(0.25)
    empty.merge(full)
    assert empty.min == 0.25 and empty.max == 0.25 and empty.count == 1


def test_merge_rejects_different_binning():
    a = LogHistogram(lo=1e-7, hi=1e4, bins_per_decade=3)
    for other in (
        LogHistogram(lo=1e-6, hi=1e4, bins_per_decade=3),
        LogHistogram(lo=1e-7, hi=1e3, bins_per_decade=3),
        LogHistogram(lo=1e-7, hi=1e4, bins_per_decade=5),
    ):
        with pytest.raises(ValueError, match="different bins"):
            a.merge(other)


def test_out_of_range_values_clamp_to_edge_bins():
    h = LogHistogram(lo=1e-3, hi=1e3, bins_per_decade=1)
    h.observe(1e-9)   # far below lo -> first bin
    h.observe(0.0)    # zero is below lo -> first bin
    h.observe(1e9)    # far above hi -> last bin
    assert h.counts[0] == 2
    assert h.counts[-1] == 1
    assert sum(h.counts) == h.count == 3  # nothing lost
    # Summary stats see the raw values, not the clamped bins.
    assert h.min == 0.0
    assert h.max == pytest.approx(1e9)
    # The exact lo edge lands in the first bin, the hi edge clamps back
    # into the last.
    h2 = LogHistogram(lo=1e-3, hi=1e3, bins_per_decade=1)
    h2.observe(1e-3)
    h2.observe(1e3)
    assert h2.counts[0] == 1 and h2.counts[-1] == 1


def test_infinity_clamps_to_last_bin():
    h = LogHistogram(lo=1e-3, hi=1e3, bins_per_decade=1)
    h.observe(0.5)
    h.observe(math.inf)
    assert h.counts[-1] == 1
    assert sum(h.counts) == h.count == 2
    assert h.max == math.inf
    assert h.min == 0.5


def test_exemplar_lookup_at_infinity_uses_last_bin():
    h = LogHistogram(lo=1e-3, hi=1e3, bins_per_decade=1)
    h.set_exemplar(h.n_bins - 1, "1:0:7")
    assert h.exemplar_for(math.inf) == "1:0:7"
    assert h.exemplar_for(-math.inf) is None


def test_nan_is_rejected_without_touching_state():
    h = LogHistogram(lo=1e-3, hi=1e3, bins_per_decade=1)
    h.observe(0.5)
    before = (list(h.counts), h.count, h.total, h.min, h.max)
    with pytest.raises(ValueError, match="NaN"):
        h.observe(math.nan)
    assert (list(h.counts), h.count, h.total, h.min, h.max) == before
    with pytest.raises(ValueError, match="NaN"):
        h.exemplar_for(math.nan)


@pytest.mark.parametrize("bins_per_decade", [1, 3, 7])
def test_observe_bins_every_value_where_bin_of_says(bins_per_decade):
    """``observe`` inlines ``_bin_of``; the two must never disagree."""
    h = LogHistogram(lo=1e-7, hi=1e4, bins_per_decade=bins_per_decade)
    values = [0.0, 1e-7, 1e4, 1e300, math.inf, -1.0, -math.inf]
    values += [10 ** (k / 17 - 8) for k in range(230)]
    for value in values:
        expected = h._bin_of(value)
        before = list(h.counts)
        h.observe(value)
        assert [a - b for a, b in zip(h.counts, before)] == [
            int(i == expected) for i in range(h.n_bins)
        ], value


def test_empty_histogram_summaries():
    h = LogHistogram()
    assert h.count == 0
    assert h.mean == 0.0
    assert h.percentile(50) == 0.0
    assert h.render() == ["(empty)"]
    d = h.to_dict()
    assert d["min"] == 0.0 and d["max"] == 0.0  # not +/-inf
    assert math.isfinite(d["mean"])


# ---------------------------------------------------------- GaugeStats


def test_gauge_stats_empty_window():
    g = GaugeStats()
    assert g.count == 0
    assert g.mean == 0.0  # no division by zero
    assert g.last == 0.0 and g.max == 0.0


def test_gauge_stats_observes():
    g = GaugeStats()
    for v in (3.0, 7.0, 5.0):
        g.observe(v)
    assert g.count == 3
    assert g.last == 5.0
    assert g.max == 7.0
    assert g.mean == pytest.approx(5.0)


# ------------------------------------------- PipelineStatsSampler


def _sampled_world(seed):
    """A traffic-free world sampling its own pipeline ledgers for 5s."""
    world = World(WorldConfig(seed=seed, quiet=True, n_compute_nodes=2))
    world.start_pipeline_samplers(interval_s=1.0)
    world.env.run(until=world.env.now + 5.0)
    world.stop_samplers()
    world.drain()
    rows = [dict(r) for r in world.query_metrics("forward_dropped_overflow")]
    for r in rows:
        r["timestamp"] -= world.config.epoch  # comparable across worlds
    return world, rows


def test_sampler_on_idle_fabric_publishes_zero_counters():
    """An empty sample window (no stream traffic besides the sampler's
    own sets) must still produce well-formed, all-zero drop counters."""
    world, rows = _sampled_world(seed=11)
    assert rows  # samples were taken and stored
    assert {r["source"] for r in rows} >= {"pipestats_head"}
    assert all(r["value"] == 0.0 for r in rows)
    dropped = [dict(r) for r in world.query_metrics("dropped_while_failed")]
    assert dropped and all(r["value"] == 0.0 for r in dropped)


def test_sampler_rearmed_across_two_world_runs():
    """Two Worlds, each arming its own sampler: the second run starts
    from a fresh ledger — no counter or sample bleed across
    environments, and the same seed reproduces the series exactly."""
    world_a, first = _sampled_world(seed=11)
    world_b, second = _sampled_world(seed=11)
    assert first  # not a vacuous comparison
    assert first == second
    # The second world's bus counters started from zero: its total
    # published count matches the first run's, not double it.
    a = world_a.fabric.l1.streams.stats.published
    b = world_b.fabric.l1.streams.stats.published
    assert a == b > 0


def test_sampler_rearm_guard_within_one_world():
    world = World(WorldConfig(seed=3, quiet=True, n_compute_nodes=2))
    world.start_pipeline_samplers(interval_s=1.0)
    with pytest.raises(RuntimeError, match="already running"):
        world.start_pipeline_samplers(interval_s=1.0)
    world.stop_samplers()
