"""Replicated-store property pins.

Two standing guarantees from the replication issue:

* **Legacy purity** — ``dsos_shards=1, dsos_replication=1`` (the
  default) is *byte-identical* to the pre-replication store on every
  path (slow lane, event-driven fast lane, express spine): same
  connector stats, same rows, same simulated clock, same telemetry.  Passing the topology knobs explicitly at their
  defaults must change nothing.
* **Deterministic convergence** — the crash drill replays
  bit-identically from one seed, the fast lane's spine stays out of
  the drill, and arbitrary crash/recover/write interleavings
  converge once every replica is recovered and repaired: zero
  under-replication always, a complete census whenever no WAL tail
  tore (a torn tail may destroy an object whose *every* acking
  replica's copy was in the tear — the un-fsynced-ack gap — but never
  leaves a partial one).

Plus a Hypothesis pin on the WAL discipline itself: whatever tail a
torn write loses, recovery yields an exact prefix of what was appended
and never resurrects bytes past the tear.  And one on the replicated
write path: encoding each record once and appending the same frame on
every replica leaves every WAL byte-identical to encoding per replica.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.apps import Hmmer, MpiIoTest
from repro.core import ConnectorConfig
from repro.dsos import Attr, DsosCluster, Schema
from repro.dsos.journal import StoreWal
from repro.experiments import World, WorldConfig, run_job
from repro.faults import FaultPlan, StoreCrash
from repro.ldms.resilience import RetryPolicy


# ------------------------------------------------- legacy purity pin


def _lane_campaign(lane, **dsos_kw):
    """``lane``: ``slow``, ``fast`` (spine armed) or ``event`` (the fast
    lane with the spine de-armed before the job)."""
    fast = lane != "slow"
    world = World(WorldConfig(
        seed=424, quiet=True, n_compute_nodes=2, telemetry=True,
        fast_lane=fast, **dsos_kw,
    ))
    if lane == "event":
        world.spine.dearm()
    app = Hmmer(ranks_per_node=4, n_families=30)
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(),
    )
    t = world.telemetry
    return {
        "stats": dataclasses.asdict(result.connector.stats),
        "rows": [dict(obj) for obj in world.query_job(result.job_id)],
        "runtime": result.runtime_s,
        "now": world.env.now,
        "hists": {k: v.__dict__.copy() for k, v in t.histograms.items()},
        "hops": {
            tid: [(h.stage, h.node, h.t_in, h.t_out, h.outcome)
                  for h in tr.hops]
            for tid, tr in t.traces.items()
        },
    }


def test_default_topology_knobs_change_nothing_on_any_lane():
    explicit = dict(
        dsos_shards=1, dsos_replication=1, dsos_write_quorum=None,
        dsos_repair=True,
    )
    for lane in ("slow", "event", "fast"):
        baseline = _lane_campaign(lane)
        knobbed = _lane_campaign(lane, **explicit)
        assert knobbed == baseline, lane
        assert len(baseline["rows"]) > 0


# ------------------------------------------- drill determinism pins


_DRILL = FaultPlan((
    StoreCrash(0, at=0.15, down_for=0.3, tear_tail=True),
    StoreCrash(3, at=0.25, down_for=0.25),
))


def _drill_campaign(*, seed, dearm=False):
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=True, faults=_DRILL,
        retry=RetryPolicy(), standby_l1=True,
        dsos_shards=2, dsos_replication=2, dsos_write_quorum=2,
    ))
    if dearm:
        world.spine.dearm()
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True),
        inter_job_gap_s=0.0,
    )
    return world, result


def test_same_seed_drill_replays_bit_identically():
    world_a, result_a = _drill_campaign(seed=99)
    world_b, result_b = _drill_campaign(seed=99)
    assert result_a.health.to_dict() == result_b.health.to_dict()
    assert [dataclasses.astuple(f) for f in world_a.fault_injector.applied] \
        == [dataclasses.astuple(f) for f in world_b.fault_injector.applied]
    assert (world_a.dsos.cluster.stats_snapshot()
            == world_b.dsos.cluster.stats_snapshot())


def test_columnar_drill_matches_fast_lane():
    world_fast, result_fast = _drill_campaign(seed=5, dearm=True)
    world_col, result_col = _drill_campaign(seed=5)
    # A sharded cluster never arms the express spine (quorum acks are
    # not virtualizable), so the fast lane runs event-driven here —
    # exactly as with the spine stood down by hand.
    assert world_col.spine is not None and not world_col.spine.armed
    assert result_col.health.to_dict() == result_fast.health.to_dict()
    assert result_col.health.verify()
    assert (world_col.dsos.cluster.stats_snapshot()
            == world_fast.dsos.cluster.stats_snapshot())
    assert world_col.dsos.cluster.census().complete


# ------------------------------------------------ WAL tear property


@given(
    n_records=st.integers(min_value=1, max_value=12),
    tear=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=80, deadline=None)
def test_torn_wal_always_recovers_an_exact_prefix(n_records, tear):
    wal = StoreWal()
    for seq in range(n_records):
        wal.append(seq, "events",
                   {"seq": seq, "op": "write", "ts": 0.25 * seq},
                   trace_id=f"1:0:{seq}")
    reference = bytes(wal._buf)
    wal.tear_tail(min(tear, len(reference)))
    recovery = wal.recover()
    # Recovered entries are a strict prefix of what was appended...
    assert [r.seq for r in recovery.entries] == list(
        range(len(recovery.entries))
    )
    for record in recovery.entries:
        assert record.valid
        assert record.obj["seq"] == record.seq
    # ...and the surviving buffer is exactly those records' bytes — no
    # untrusted tail survives recovery.
    replayed = b"".join(r.encode() for r in recovery.entries)
    assert bytes(wal._buf) == replayed
    assert reference.startswith(replayed)


# --------------------------------- census convergence under chaos ops


def _mini_cluster():
    schema = Schema(
        "events",
        [Attr("job_id", "int"), Attr("timestamp", "float")],
        {"job_time": ("job_id", "timestamp")},
    )
    c = DsosCluster("mini", shards=2, replication=2)
    c.attach_schema(schema)
    return c


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 7)),
            st.tuples(st.just("crash"), st.integers(0, 3)),
            st.tuples(st.just("crash_torn"), st.integers(0, 3)),
            st.tuples(st.just("recover"), st.integers(0, 3)),
        ),
        min_size=1, max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_census_converges_after_any_interleaving(ops):
    c = _mini_cluster()
    accepted = 0
    torn = False
    t = 0
    for op, arg in ops:
        if op == "write":
            t += 1
            ack = c.insert_replicated(
                "events", {"job_id": arg, "timestamp": float(t)}
            )
            accepted += 1 if ack.accepted else 0
        elif op in ("crash", "crash_torn"):
            d = c.daemons[arg]
            if d.alive:
                torn = torn or op == "crash_torn"
                c.crash_daemon(d, tear_tail=(op == "crash_torn"),
                               tear_bytes=11)
        elif op == "recover":
            d = c.daemons[arg]
            if not d.alive:
                c.recover_daemon(d)
    # Convergence: recover everything still down, then one repair pass.
    for d in c.daemons:
        if not d.alive:
            c.recover_daemon(d)
    c.repair_all()
    census = c.census()
    assert census.replicas_down == 0
    # Repair eliminates *under*-replication unconditionally: whatever
    # survives anywhere is pulled back to R copies everywhere.
    assert census.under_replicated == 0, census
    # Clean crashes lose nothing — the WAL replays in full.  Only a
    # torn tail may destroy an object outright (every acking replica's
    # copy torn away before any peer held it — the un-fsynced-ack gap).
    if not torn:
        assert census.complete, census
        assert census.lost == 0
    assert census.objects == accepted
    assert c.count("events") == census.objects - census.lost
    # Replica invariant, spelled out: every object is either fully
    # replicated (R live copies) or gone entirely — never in between.
    zero_copy = 0
    for shard in range(c.shards):
        for seq, copies in c._copies[shard].items():
            assert copies in (0, c.replication), (shard, seq, copies)
            zero_copy += 1 if copies == 0 else 0
    assert zero_copy == census.lost


# ------------------------ converged-shard short circuit vs full union


def _full_union_missing(cluster, daemon):
    """What repair must pull, by the reference computation: the union of
    every live peer's applied set minus the daemon's own."""
    peers = [r for r in cluster.replica_sets[daemon.shard_id]
             if r is not daemon and r.alive]
    union = set().union(*(p.applied for p in peers)) if peers else set()
    return sorted(union - daemon.applied)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 7)),
            st.tuples(st.just("crash"), st.integers(0, 5)),
            st.tuples(st.just("crash_torn"), st.integers(0, 5)),
            st.tuples(st.just("recover"), st.integers(0, 5)),
            st.tuples(st.just("repair"), st.integers(0, 5)),
        ),
        min_size=1, max_size=50,
    ),
)
@settings(max_examples=80, deadline=None)
def test_converged_shard_short_circuit_matches_full_union(ops):
    # 2 shards x 3 replicas: a shard can hold objects on 1, 2 or 3 of
    # its live replicas, so "converged" is not just "nothing crashed".
    schema = Schema(
        "events",
        [Attr("job_id", "int"), Attr("timestamp", "float")],
        {"job_time": ("job_id", "timestamp")},
    )
    c = DsosCluster("mini", shards=2, replication=3)
    c.attach_schema(schema)

    def checked_repair(d):
        live = sum(1 for r in c.replica_sets[d.shard_id] if r.alive)
        converged = all(
            not n or n == live for n in c._copy_hist[d.shard_id]
        )
        expected = _full_union_missing(c, d)
        if converged:
            assert expected == [], (d.name, dict(c._copy_hist[d.shard_id]))
        pulled = c.repair_daemon(d)
        assert [seq for seq, _ in pulled] == expected, d.name
        return converged

    t = 0
    for op, arg in ops:
        if op == "write":
            t += 1
            c.insert_replicated("events", {"job_id": arg, "timestamp": float(t)})
            continue
        d = c.daemons[arg]
        if op in ("crash", "crash_torn") and d.alive:
            c.crash_daemon(d, tear_tail=(op == "crash_torn"), tear_bytes=11)
        elif op == "recover" and not d.alive:
            c.recover_daemon(d)
        elif op == "repair" and d.alive:
            checked_repair(d)
    for d in c.daemons:
        if not d.alive:
            c.recover_daemon(d)
    for d in c.daemons:
        checked_repair(d)
    # After one full pass every shard is converged: the second pass is
    # all short circuits, and each still agrees with the full union.
    assert all(checked_repair(d) for d in c.daemons)


# ------------------------- replicated writes: one encoding per write


def _encode_per_replica(cluster):
    """Make every replica ignore the shared frame and encode the record
    itself (``WalRecord.make`` per replica): the reference path."""
    for daemon in cluster.daemons:
        def insert_seq(*args, frame=None, _insert=daemon.insert_seq, **kw):
            return _insert(*args, **kw)
        daemon.insert_seq = insert_seq


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 7)),
            st.tuples(st.just("crash"), st.integers(0, 5)),
            st.tuples(st.just("crash_torn"), st.integers(0, 5)),
            st.tuples(st.just("recover"), st.integers(0, 5)),
            st.tuples(st.just("repair"), st.integers(0, 5)),
        ),
        min_size=1, max_size=50,
    ),
    tear_bytes=st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_shared_wal_frame_is_byte_identical_to_per_replica_encoding(
        ops, tear_bytes):
    schema = Schema(
        "events",
        [Attr("job_id", "int"), Attr("timestamp", "float"),
         Attr("op", "string")],
        {"job_time": ("job_id", "timestamp")},
    )
    shared, reference = (DsosCluster("mini", shards=2, replication=3)
                         for _ in range(2))
    _encode_per_replica(reference)
    for c in (shared, reference):
        c.attach_schema(schema)

    def wals(c):
        return [(bytes(d.wal._buf), d.wal.records_appended, d.alive)
                for d in c.daemons]

    t = 0
    for op, arg in ops:
        if op == "write":
            t += 1
            obj = {"job_id": arg, "timestamp": 0.1 * t,
                   "op": ("write", "réad", "a|b")[t % 3]}
            acks = [c.insert_replicated("events", dict(obj),
                                        trace_id=f"1:{arg}:{t}")
                    for c in (shared, reference)]
            assert acks[0] == acks[1]
        else:
            for c in (shared, reference):
                d = c.daemons[arg]
                if op in ("crash", "crash_torn") and d.alive:
                    c.crash_daemon(d, tear_tail=(op == "crash_torn"),
                                   tear_bytes=tear_bytes)
                elif op == "recover" and not d.alive:
                    c.recover_daemon(d)
                elif op == "repair" and d.alive:
                    c.repair_daemon(d)
        assert wals(shared) == wals(reference), (op, arg)
    for c in (shared, reference):
        for d in c.daemons:
            if not d.alive:
                c.recover_daemon(d)
        c.repair_all()
    assert wals(shared) == wals(reference)
    assert shared.census() == reference.census()
