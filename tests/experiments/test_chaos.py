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
    """Every connector runs the lane its world was built for."""
    assert world.connectors
    return all(
        c.config.fast_lane == world.config.fast_lane
        and c.config.columnar == world.config.columnar
        for c in world.connectors
    )


def test_lane_table_round_trips_through_lane_name():
    for name, switches in LANES.items():
        assert lane_name(switches["fast_lane"], switches["columnar"]) == name
    assert set(CHECK_LANES) <= set(LANES)
    with pytest.raises(ValueError):
        lane_name(fast=False, columnar=True)


@pytest.mark.parametrize("lane", sorted(LANES))
def test_run_campaign_applies_the_lane_to_world_and_connector(lane):
    world, result = run_campaign(3, lane=lane, iterations=2)
    assert _lanes_agree(world)
    assert world.config.fast_lane == LANES[lane]["fast_lane"]
    assert world.config.columnar == LANES[lane]["columnar"]
    assert result.health.verify()


def test_columnar_capture_campaign_runs_the_columnar_connector():
    """Regression: the columnar check lane once built a fast-lane connector
    (WorldConfig got ``columnar`` but ConnectorConfig did not)."""
    from repro.diagnosis.forensics import capture_campaign

    cap = capture_campaign(seed=42, fast=True, columnar=True)
    assert cap.world.spine is not None
    assert all(c._columnar for c in cap.world.connectors)
    assert _lanes_agree(cap.world)


def test_columnar_explain_campaign_runs_the_columnar_connector():
    from repro.diagnosis.explain import explain_campaign

    campaign = explain_campaign(seed=42, fast=True, columnar=True)
    assert all(c._columnar for c in campaign.world.connectors)
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
