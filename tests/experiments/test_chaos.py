"""The shared chaos campaign: lane table, campaign builder, check loop."""

import pytest

from repro.experiments.chaos import (
    CHECK_LANES,
    LANES,
    check_lanes,
    lane_name,
    run_campaign,
)


def _lanes_agree(world) -> bool:
    """Every connector runs the lane its world was built for: the lane
    it derives from each daemon it can publish into."""
    assert world.connectors
    return all(
        c._daemon_for_node(node).fast_lane == world.config.fast_lane
        for c in world.connectors for node in world.fabric.compute_daemons
    )


def test_lane_table_round_trips_through_lane_name():
    assert list(LANES) == ["slow", "fast"]
    for name, fast_lane in LANES.items():
        assert lane_name(fast_lane) == name
    assert set(CHECK_LANES) == set(LANES)


@pytest.mark.parametrize("lane", sorted(LANES))
def test_run_campaign_applies_the_lane_to_world_and_connector(lane):
    world, result = run_campaign(3, lane=lane, iterations=2)
    assert _lanes_agree(world)
    assert world.config.fast_lane == LANES[lane]
    # Only the fast lane builds a spine; the chaos world never arms it.
    assert (world.spine is not None) == LANES[lane]
    assert world.spine is None or not world.spine.armed
    assert result.health.verify()


def test_columnar_capture_campaign_runs_the_columnar_connector():
    """Regression: a check lane once built a connector on a different
    lane than its world (WorldConfig got a switch ConnectorConfig did
    not).  The fast lane's connector formats column-wise and its world
    carries the (unarmed) express spine."""
    from repro.diagnosis.forensics import capture_campaign

    cap = capture_campaign(seed=42, lane="fast")
    assert cap.world.spine is not None and not cap.world.spine.armed
    assert cap.world.config.fast_lane
    assert _lanes_agree(cap.world)


def test_columnar_explain_campaign_runs_the_columnar_connector():
    from repro.diagnosis.explain import explain_campaign

    campaign = explain_campaign(seed=42, lane="fast")
    assert campaign.world.config.fast_lane
    assert _lanes_agree(campaign.world)
    assert campaign.score.ok()


def test_check_lanes_emits_ok_and_fail_lines_per_lane():
    runs = iter([1, 1, 2, 3])

    def judge(campaign, lane):
        return (["judged bad"] if lane == "b" else []), f"value {campaign}"

    ok, lines = check_lanes(lambda lane: next(runs), lambda c: c, judge,
                            what="payload", lanes=("a", "b"))
    assert not ok
    assert lines == [
        "OK[a]: value 1",
        "FAIL[b]: payload not byte-stable across same-seed runs",
        "FAIL[b]: judged bad",
    ]
