"""The fast lane's load-bearing guarantee: speed without divergence.

Every host-side optimization in the pipeline (template-compiled
column-wise serialization with lazy payloads, coalesced publish,
callback forwarding with fused transfers, shape-compiled DSOS rows and
the express spine that virtualizes publish→forward→ingest) claims to be
invisible to the simulation.  These tests hold that line:

* property tests over random events — the column-wise serializer's
  payload, rendered on demand, is byte-identical to the reference
  walk, its accounting (numeric conversions, payload chars, cost)
  matches, and its parsed sidecar equals ``json.loads(payload)``;
* a deterministic HMMER campaign run from one seed on the slow lane,
  the event-driven fast lane and the armed express spine — connector
  stats, DSOS rows, simulated end time and (with telemetry) every
  histogram, gauge and hop record bit-identical; a foreign L2
  subscriber de-arms the spine and sees the byte-identical payload
  stream of the reference lane;
* generated worlds — seeds, 1/2/4 compute nodes, several HMMER and
  collective/independent MPI-IO-test jobs per world, overflowing
  forward queues, telemetry on and off — each run once with the spine
  armed and once with it de-armed before the first job (the
  event-driven path), compared counter for counter and hop for hop;
  the ``repro telemetry`` campaign is pinned the same way by name;
* chaos — a full fault campaign (daemon crash mid-burst, partition,
  slow store, retry, standby, spill/replay) never arms the spine,
  reconciles exactly and matches the reference lane's connector stats.
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import Hmmer, MpiIoTest
from repro.core import ConnectorConfig, MessageBuilder
from repro.core.json_format import ColumnarFormatted
from repro.darshan.runtime import IOEvent
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.faults import DaemonCrash, FaultPlan, LinkPartition, SlowStore
from repro.fs.posix import IOContext
from repro.ldms.resilience import RetryPolicy


# --------------------------------------------------------- random events

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _events(draw):
    module = draw(st.sampled_from(["POSIX", "MPIIO", "STDIO", "H5F", "H5D"]))
    op = draw(st.sampled_from(["open", "close", "read", "write", "flush"]))
    hdf5 = None
    if module == "H5D":
        hdf5 = {
            "data_set": draw(st.text(
                st.characters(codec="ascii", exclude_characters='"\\',
                              exclude_categories=("Cc",)),
                max_size=12)),
            "ndims": draw(st.integers(-1, 8)),
            "npoints": draw(st.integers(-1, 2**31)),
            "pt_sel": draw(st.integers(-1, 1)),
            "reg_hslab": draw(st.integers(-1, 4)),
            "irreg_hslab": draw(st.integers(-1, 4)),
        }
    start = draw(st.floats(0.0, 2e9))
    ctx = IOContext(
        job_id=draw(st.integers(0, 2**31)),
        uid=draw(st.integers(0, 2**16)),
        rank=draw(st.integers(0, 4096)),
        node_name=f"nid{draw(st.integers(0, 99999)):05d}",
        exe="/apps/bench",
        app="bench",
    )
    return IOEvent(
        module=module,
        op=op,
        path=draw(st.sampled_from(["/scratch/a.dat", "/nfs/x/y.h5", "/f"])),
        record_id=draw(st.integers(0, 2**63 - 1)),
        context=ctx,
        offset=draw(st.integers(0, 2**40)),
        nbytes=draw(st.integers(0, 2**30)),
        start=start,
        end=start + draw(st.floats(0.0, 1e3)),
        cnt=draw(st.integers(0, 2**20)),
        switches=draw(st.integers(0, 2**16)),
        flushes=draw(st.integers(-1, 2**16)),
        max_byte=draw(st.integers(-1, 2**40)),
        hdf5=hdf5,
    )


@given(events=st.lists(_events(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_fast_serializer_is_byte_identical(events):
    fast = MessageBuilder()
    reference = MessageBuilder()
    for event in events:
        ref = reference.format(event)
        fm = fast.format_columnar(event)
        if type(fm) is not ColumnarFormatted:
            # The shape's self-check fell back to the reference walk.
            assert fm == ref
            continue
        assert fm.numeric_conversions == ref.numeric_conversions
        assert fm.payload_chars == len(ref.payload)
        assert fm.format_cost_s == ref.format_cost_s
        # The payload, rendered on demand, and its parsed sidecar.
        assert fm.shape.render(fm.values)[0] == ref.payload
        assert fm.shape.parsed(fm.values) == json.loads(ref.payload)


# ------------------------------------------------------ world outcomes


def _world_outcome(config: WorldConfig, jobs, *, dearm: bool = False,
                   mutate=None) -> tuple[dict, World]:
    """Run ``jobs`` (``(app factory, file system, gap)``) back to back
    in one world on ``config``'s lane; everything an observer could
    compare, as plain data, and the world.  ``mutate(world)`` runs
    first; ``dearm`` then stands the spine down, so the run takes the
    event-driven path."""
    world = World(config)
    if mutate is not None:
        mutate(world)
    if dearm:
        world.spine.dearm()
    connector = ConnectorConfig()
    results = [
        run_job(world, app(), fs, connector_config=connector,
                inter_job_gap_s=gap)
        for app, fs, gap in jobs
    ]
    out = {
        "now": world.env.now,
        "stats": [dataclasses.asdict(r.connector.stats) for r in results],
        "runtime": [r.runtime_s for r in results],
        "rows": [[dict(o) for o in world.query_job(r.job_id)]
                 for r in results],
        "daemons": [d.stats_snapshot() for d in world.fabric.all_daemons()],
        "stored": world.store.objects_stored,
    }
    t = world.telemetry
    if t is not None:
        out["hops"] = {
            tid: [tuple(h) for h in tr.hops] for tid, tr in t.traces.items()
        }
        out["begins"] = {
            tid: (tr.job_id, tr.rank, tr.t_begin)
            for tid, tr in t.traces.items()
        }
        out["gauges"] = {k: v.__dict__.copy() for k, v in t.gauges.items()}
        out["hists"] = {k: v.to_dict() for k, v in t.histograms.items()}
    return out, world


def _assert_spine_exact(config: WorldConfig, jobs) -> dict:
    """The armed spine and the event-driven path agree on everything."""
    spine, _ = _world_outcome(config, jobs)
    event, world = _world_outcome(config, jobs, dearm=True)
    assert not world.spine.armed
    for key in event:
        assert spine[key] == event[key], key
    return spine


# ------------------------------------------------ one campaign, every path


def _hmmer_campaign(lane, *, telemetry=False, subscribe=False):
    """One small HMMER campaign on ``lane``: ``slow``, ``spine`` (the
    fast lane, armed) or ``event`` (the fast lane with the spine
    de-armed before the job).  ``subscribe`` adds a foreign L2
    subscriber, which de-arms the spine before it attaches; what it
    sees lands under ``seen``."""
    seen = []

    def tap(world):
        world.fabric.l2.streams.subscribe(
            STREAM_TAG,
            lambda m: seen.append((m.payload, m.src_node, m.publish_time)),
        )

    config = WorldConfig(seed=1337, quiet=True, n_compute_nodes=2,
                         fast_lane=lane != "slow", telemetry=telemetry)
    out, world = _world_outcome(
        config,
        [(lambda: Hmmer(ranks_per_node=4, n_families=40), "nfs", 120.0)],
        dearm=lane == "event", mutate=tap if subscribe else None,
    )
    out["seen"] = seen
    return out, world


_PLAIN = ("stats", "rows", "runtime", "now")


def test_fast_lane_campaign_is_bit_identical():
    slow, _ = _hmmer_campaign("slow", subscribe=True)
    fast, world = _hmmer_campaign("spine", subscribe=True)
    # The subscriber de-armed the spine pre-run: this run exercised the
    # per-message ColumnarMessage path end to end.
    assert world.spine.stats.dearms == 1 and world.spine.stats.rows == 0
    for key in _PLAIN:
        assert fast[key] == slow[key], key
    assert len(fast["seen"]) == len(slow["seen"])  # nothing dropped/dup'd
    # Byte-identical payloads, identical provenance, identical publish
    # instants, in the identical order — transport coalescing changed
    # how messages move, not what or when.
    assert fast["seen"] == slow["seen"]
    assert len(fast["rows"][0]) > 0               # and it is non-trivial


def test_spine_campaign_is_bit_identical_across_lanes():
    slow, _ = _hmmer_campaign("slow")
    event, _ = _hmmer_campaign("event")
    spine, world = _hmmer_campaign("spine")
    # The express spine actually ran (this is not a fallback pass) and
    # carried every published message.
    assert world.spine.armed and world.spine.stats.dearms == 0
    assert world.spine.stats.rows == spine["stats"][0]["messages_published"]
    for key in _PLAIN:
        assert spine[key] == event[key] == slow[key], key
    assert len(spine["rows"][0]) > 0


def test_spine_telemetry_is_bit_identical_to_event_driven():
    event, _ = _hmmer_campaign("event", telemetry=True)
    spine, world = _hmmer_campaign("spine", telemetry=True)
    assert world.spine.armed  # telemetry alone must not de-arm
    for key in (*_PLAIN, "daemons", "hists", "gauges", "begins", "hops"):
        assert spine[key] == event[key], key
    assert len(spine["hops"]) == spine["stats"][0]["messages_published"]


# ------------------------------------------ generated worlds: spine exact


@st.composite
def _jobs(draw, n_nodes: int):
    """One job: an app factory (HMMER, or MPI-IO-test collective or
    independent over up to every compute node), file system, gap."""
    kind = draw(st.sampled_from(["hmmer", "collective", "independent"]))
    if kind == "hmmer":
        app = (lambda rpn=draw(st.sampled_from([2, 4])),
               families=draw(st.integers(1, 4)):
               Hmmer(ranks_per_node=rpn, n_families=families))
    else:
        app = (lambda nodes=draw(st.integers(1, n_nodes)),
               rpn=draw(st.sampled_from([1, 2, 4])),
               iterations=draw(st.integers(1, 3)),
               sync=draw(st.booleans()), collective=kind == "collective":
               MpiIoTest(n_nodes=nodes, ranks_per_node=rpn,
                         iterations=iterations, block_size=2**20,
                         collective=collective, sync_per_iteration=sync))
    fs = draw(st.sampled_from(["nfs", "lustre"]))
    gap = draw(st.sampled_from([0.0, 0.5, 120.0]))
    return app, fs, gap


@st.composite
def _worlds(draw):
    n_nodes = draw(st.sampled_from([1, 2, 4]))
    config = WorldConfig(
        seed=draw(st.integers(0, 2**31 - 1)),
        quiet=draw(st.booleans()),
        n_compute_nodes=n_nodes,
        telemetry=draw(st.booleans()),
        # 1–3 overflow on same-instant bursts; the default never does.
        forward_queue_depth=draw(st.sampled_from([1, 2, 3, 8, 65536])),
    )
    jobs = draw(st.lists(_jobs(n_nodes), min_size=1, max_size=3))
    return config, jobs


@given(world=_worlds())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_world_spine_is_exact(world):
    config, jobs = world
    _assert_spine_exact(config, jobs)


def test_telemetry_campaign_spine_is_exact():
    """Regression: the ``repro telemetry`` campaign (clean, then with
    the forward outbox shrunk to 4) once diverged on same-instant
    bursts — 4 traces' forward/ingest ``t_out`` and the forwarders'
    ``max_queue_depth`` moved when the spine drained the first row of
    a burst at once instead of after the real zero-delay kick."""
    def app():
        return MpiIoTest(n_nodes=2, ranks_per_node=4, iterations=4,
                         block_size=2**20, collective=False,
                         sync_per_iteration=False)

    for depth in (65536, 4):
        config = WorldConfig(seed=42, quiet=True, n_compute_nodes=4,
                             telemetry=True, forward_queue_depth=depth)
        out = _assert_spine_exact(config, [(app, "nfs", 120.0)])
        assert len(out["hops"]) == out["stats"][0]["messages_published"]


# --------------------------------------------------------------- chaos


def _chaos_campaign(*, fast):
    plan = FaultPlan((
        # Mid-burst compute-daemon crash: messages queued behind the
        # crash spill and replay; a batch in flight at the L1 crash
        # below is dropped with per-row attribution.
        DaemonCrash("nid00001", after_messages=20, down_for=0.4),
        DaemonCrash("l1", after_messages=50, down_for=0.5),
        LinkPartition("nid00002", "head", at=0.2, duration=0.3),
        SlowStore(at=0.1, duration=0.4),
    ))
    world = World(WorldConfig(
        seed=7, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, faults=plan, retry=RetryPolicy(), standby_l1=True,
    ))
    if fast:
        # Guard discipline: a faulted world must never arm the spine.
        assert world.spine is not None and not world.spine.armed
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True),
        inter_job_gap_s=0.0,
    )
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    return result, rows, world


def test_chaos_campaign_reconciles_and_matches_reference_lane():
    result_slow, _, _ = _chaos_campaign(fast=False)
    result_fast, rows_fast, world = _chaos_campaign(fast=True)

    health = result_fast.health
    assert health.published > 0
    assert health.verify()  # zero unaccounted events
    assert health.in_flight == 0
    assert len(world.fault_injector.applied) >= 6
    # The run hit the interesting paths: spill/replay happened, and at
    # least one message was only partially delivered when a daemon died.
    stats_fast = dataclasses.asdict(result_fast.connector.stats)
    assert stats_fast["events_spilled"] > 0
    assert stats_fast["events_replayed"] > 0
    # Lane identity under chaos: same counters, same runtime.  (Stored
    # rows may differ from the reference lane on exact float-time ties
    # — the caveat ``_Forwarder`` documents — so rows are pinned across
    # a same-seed rerun instead.)
    assert stats_fast == dataclasses.asdict(result_slow.connector.stats)
    assert result_fast.runtime_s == result_slow.runtime_s
    result_again, rows_again, _ = _chaos_campaign(fast=True)
    assert rows_again == rows_fast
    assert result_again.runtime_s == result_fast.runtime_s
