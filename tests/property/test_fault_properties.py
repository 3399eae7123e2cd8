"""Fault-injection machinery must be invisible until it acts.

Two properties hold the chaos harness to the simulator's determinism
bar:

* an *empty* :class:`FaultPlan` arms to nothing — a world built with it
  is bit-identical (payload stream, connector stats, DSOS rows) to a
  world built with ``faults=None``;
* a full chaos campaign reconciles exactly with the fast lane on *and*
  off — recovery machinery, like the fast lane itself, never produces
  unaccounted events.
"""

import dataclasses

import pytest

from repro.apps import Hmmer, MpiIoTest
from repro.core import ConnectorConfig
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.faults import DaemonCrash, FaultPlan, LinkPartition, SlowStore
from repro.ldms.resilience import RetryPolicy


# ------------------------------------------------ empty plan ≡ no plan


def _baseline_campaign(faults):
    world = World(WorldConfig(
        seed=1337, quiet=True, n_compute_nodes=2, faults=faults,
    ))
    seen = []
    world.fabric.l2.streams.subscribe(
        STREAM_TAG, lambda m: seen.append((m.payload, m.src_node, m.publish_time))
    )
    app = Hmmer(ranks_per_node=4, n_families=40)
    result = run_job(world, app, "nfs", connector_config=ConnectorConfig())
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    return seen, dataclasses.asdict(result.connector.stats), rows


def test_empty_fault_plan_is_bit_identical_to_no_plan():
    seen_none, stats_none, rows_none = _baseline_campaign(faults=None)
    seen_empty, stats_empty, rows_empty = _baseline_campaign(faults=FaultPlan())

    assert stats_empty == stats_none   # every counter and second
    assert seen_empty == seen_none     # byte-identical payload stream
    assert rows_empty == rows_none     # the database agrees
    assert len(rows_empty) > 0


def test_empty_plan_installs_no_machinery():
    world = World(WorldConfig(seed=1, quiet=True, n_compute_nodes=2,
                              faults=FaultPlan()))
    assert world.fault_injector is not None  # armed...
    assert world.fault_injector.applied == []  # ...to nothing
    assert world.fault_injector._rng is None  # no RNG stream drawn


# -------------------------------------- chaos reconciles on both lanes


@pytest.mark.parametrize("fast", [True, False], ids=["fast-lane", "reference"])
def test_chaos_campaign_reconciles_on_both_lanes(fast):
    plan = FaultPlan((
        DaemonCrash("l1", after_messages=50, down_for=0.5),
        LinkPartition("nid00001", "head", at=0.2, duration=0.3),
        SlowStore(at=0.1, duration=0.4),
    ))
    world = World(WorldConfig(
        seed=7, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, faults=plan, retry=RetryPolicy(), standby_l1=True,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True),
        inter_job_gap_s=0.0,
    )

    health = result.health
    assert health.published > 0
    assert health.verify()  # zero unaccounted events
    assert health.in_flight == 0
    # The run was genuinely chaotic, not a trivial pass.
    assert len(world.fault_injector.applied) == 6
    assert health.recovery_sites()  # at least one self-healing event
