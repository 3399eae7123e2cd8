"""Span-tree properties: exactness, purity, tail retention, exemplars.

The ISSUE's bars for the tracing layer, pinned across a seeded chaos
campaign on both fast-lane settings:

* **Exactness** — every retained stored trace's critical path sums
  *exactly* (``==``, not approx) to its end-to-end latency, and the
  campaign rollup reconciles with the sim-time
  :class:`~repro.sim.PipelineProfile` built from the same trees.
* **Purity** — arming span telemetry at *any* head-sampling rate is
  byte-identical to running with telemetry absent: same L2 payload
  stream, same DSOS rows, same application timings, same final clock.
  Building registries/paths after the run schedules nothing.
* **Tail sampling** — at head rate 0, every dropped, recovered
  (replayed / redelivered / failover / dedup-skipped) and spilled
  trace is still retained; retention counters add up.
* **Exemplars** — every bucket exemplar id on the end-to-end histogram
  resolves to a retained tree that actually bins there.
"""

import dataclasses

import pytest

from repro.apps import MpiIoTest
from repro.core import ConnectorConfig
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.faults import DaemonCrash, FaultPlan, LinkPartition, SlowStore
from repro.ldms.resilience import RetryPolicy
from repro.sim import PipelineProfile
from repro.telemetry.collector import END_TO_END
from repro.telemetry.spans import TelemetryConfig, critical_path

SEED = 20260806


def _chaos_plan():
    return FaultPlan((
        DaemonCrash("l1", after_messages=40, down_for=0.5),
        LinkPartition("nid00001", "head", at=0.2, duration=0.3),
        SlowStore(at=0.1, duration=0.4),
    ))


def _campaign(fast: bool, telemetry, faults=None):
    world = World(WorldConfig(
        seed=SEED, quiet=True, n_compute_nodes=4, telemetry=telemetry,
        fast_lane=fast, faults=faults,
        retry=RetryPolicy() if faults is not None else None,
        standby_l1=faults is not None,
    ))
    seen = []
    world.fabric.l2.streams.subscribe(
        STREAM_TAG, lambda m: seen.append((m.payload, m.src_node, m.publish_time))
    )
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=6, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(
            spill=faults is not None,
        ),
        inter_job_gap_s=0.0,
    )
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    return {
        "world": world,
        "seen": seen,
        "rows": rows,
        "runtime_s": result.runtime_s,
        "final_now": world.env.now,
        "stats": dataclasses.asdict(result.connector.stats),
    }


# ------------------------------------------------------------ exactness


@pytest.mark.parametrize("fast", [True, False], ids=["fast-lane", "reference"])
def test_critical_paths_sum_exactly_under_chaos(fast):
    out = _campaign(fast, telemetry=True, faults=_chaos_plan())
    registry = out["world"].trace_registry()
    assert registry.offered == len(registry)  # keep-all default
    stored = [t for t in registry.trees.values() if t.status == "stored"]
    assert len(stored) > 100  # the property quantifies over real volume
    for tree in stored:
        path = critical_path(tree)
        assert path.exact
        assert path.total_s == tree.end_to_end_s

    rollup = registry.rollup()
    assert rollup.messages == len(stored)
    profile = PipelineProfile.from_registry(registry)
    assert profile.reconciles()
    assert rollup.reconciles_with(profile)
    # And against the profile built straight from the raw traces — the
    # trees must not have reshaped any timing.
    raw = PipelineProfile.from_collector(out["world"].telemetry)
    assert raw.end_to_end_s == profile.end_to_end_s
    assert raw.messages == profile.messages


# ------------------------------------------------------------ purity


@pytest.mark.parametrize("fast", [True, False], ids=["fast-lane", "reference"])
def test_armed_spans_byte_identical_to_absent(fast):
    """Telemetry armed (sampled policy) vs absent: identical bytes."""
    plain = _campaign(fast, telemetry=False, faults=_chaos_plan())
    armed = _campaign(
        fast,
        telemetry=TelemetryConfig(head_sample_rate=0.3, tail_latency_s=0.2),
        faults=_chaos_plan(),
    )

    # The sampled registry genuinely engaged — not a vacuous pass.
    registry = armed["world"].trace_registry()
    assert 0 < len(registry) < registry.offered

    assert armed["seen"] == plain["seen"]            # payload stream
    assert armed["rows"] == plain["rows"]            # DSOS contents
    assert armed["rows"]                             # ...and they exist
    assert armed["runtime_s"] == plain["runtime_s"]  # app timings
    assert armed["final_now"] == plain["final_now"]  # clock untouched
    assert armed["stats"] == plain["stats"]          # connector counters


def test_sampling_rate_never_changes_results():
    """Every retention policy sees the same campaign bytes."""
    keep_all = _campaign(True, telemetry=True)
    sampled = _campaign(
        True, telemetry=TelemetryConfig(head_sample_rate=0.1)
    )
    none_at_all = _campaign(True, telemetry=TelemetryConfig(
        head_sample_rate=0.0, exemplars=False,
    ))
    for other in (sampled, none_at_all):
        assert other["seen"] == keep_all["seen"]
        assert other["rows"] == keep_all["rows"]
        assert other["final_now"] == keep_all["final_now"]


# ------------------------------------------------------------ tail sampling


@pytest.mark.parametrize("fast", [True, False], ids=["fast-lane", "reference"])
def test_tail_sampling_retains_every_drop_and_recovery(fast):
    out = _campaign(
        fast,
        telemetry=TelemetryConfig(head_sample_rate=0.0),
        faults=_chaos_plan(),
    )
    collector = out["world"].telemetry
    registry = out["world"].trace_registry()

    from repro.telemetry.trace import RECOVERY_OUTCOMES

    must_keep = {
        t.trace_id
        for t in collector.traces.values()
        if t.status in ("dropped", "spilled")
        or any(h.outcome in RECOVERY_OUTCOMES for h in t.hops)
    }
    assert must_keep  # the chaos plan really dropped/recovered traces
    # 100% of them retained despite head rate 0...
    assert must_keep <= set(registry.trees)
    # ...and nothing else slipped in.
    assert set(registry.trees) == must_keep
    assert registry.head_kept == 0
    assert registry.tail_kept == len(must_keep)


# ------------------------------------------------------------ exemplars


def test_exemplar_ids_resolve_into_the_registry():
    out = _campaign(True, telemetry=True, faults=_chaos_plan())
    registry = out["world"].trace_registry()
    hist = out["world"].telemetry.histograms[END_TO_END]
    assert hist.exemplars  # annotation happened
    for idx, trace_id in hist.exemplars.items():
        tree = registry.get(trace_id)
        assert tree is not None
        assert hist._bin_of(tree.end_to_end_s) == idx


def test_exemplars_respect_the_policy_flag():
    out = _campaign(
        True,
        telemetry=TelemetryConfig(exemplars=False),
        faults=_chaos_plan(),
    )
    out["world"].trace_registry()
    hist = out["world"].telemetry.histograms[END_TO_END]
    assert hist.exemplars == {}
