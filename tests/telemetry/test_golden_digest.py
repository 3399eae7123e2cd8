"""Golden telemetry digest: every hop, histogram and gauge, pinned.

The cross-lane properties compare lanes with each other, so a change
that shifts a histogram bin or loses a hop on *every* lane alike passes
them.  This test hashes everything the collector recorded on the chaos
campaign, per lane and fault plan, and compares it with a digest
recorded before the telemetry hot path was rewritten for speed.  Hops
are read by attribute, so any record type with the same fields hashes
the same.
"""

import hashlib
import json

import pytest

from repro.diagnosis.explain import explain_plan
from repro.diagnosis.forensics import chaos_plan
from repro.experiments.chaos import LANES, run_campaign

#: Plan name -> (fault plan factory, extra WorldConfig fields, the hop
#: outcomes the plan must produce for the digest to cover their paths).
PLANS = {
    "chaos": (chaos_plan, {}, {"failover", "redelivered"}),
    "explain": (
        explain_plan,
        {"dsos_shards": 2, "dsos_replication": 2},
        {"wal_replayed", "repair_pulled", "drop_daemon_failed"},
    ),
}

#: sha256 of :func:`telemetry_digest` per ``(plan, lane)``, seed 1.
GOLDEN = {
    ("chaos", "slow"): "1eb489718af64438ba3a13529960d093d58b777843a7c41a16bab9a82027577b",
    ("chaos", "fast"): "540e22fe452afe9ee0a92b3cb4a1955dd3e64ec17d01e2986beda73715fe81b9",
    ("explain", "slow"): "56b2ef493f5daa36008ae5d4ee4ddae4680bf007e1c3fed6e601056e20309cfc",
    ("explain", "fast"): "dcb464bab3ca3c7c6034e80d46315199b85514b1431032ee132a28b0e9fc5b87",
}


def _sites(sites: dict) -> list:
    return sorted([list(site), count] for site, count in sites.items())


def telemetry_digest(collector) -> str:
    """sha256 over the collector's traces, metrics and ledgers."""
    traces = [
        [
            trace.trace_id, trace.job_id, trace.rank, trace.t_begin.hex(),
            [
                [hop.stage, hop.node, hop.t_in.hex(), hop.t_out.hex(),
                 hop.outcome]
                for hop in trace.hops
            ],
        ]
        for trace in collector.traces.values()
    ]
    histograms = {
        stage: hist.to_dict() for stage, hist in collector.histograms.items()
    }
    gauges = {
        name: [g.count, g.last, g.max, g.total]
        for name, g in collector.gauges.items()
    }
    slowest = collector.slowest_stored
    reconcile = sorted(
        [list(key), {**group, "drops": _sites(group["drops"])}]
        for key, group in collector.reconcile().items()
    )
    payload = {
        "traces": traces,
        "histograms": histograms,
        "gauges": gauges,
        "slowest_stored": None if slowest is None else [
            slowest[0].hex(), slowest[1],
        ],
        "reconcile": reconcile,
        "drop_sites": _sites(collector.drop_sites()),
        "recovery_sites": _sites(collector.recovery_sites()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("lane", list(LANES))
@pytest.mark.parametrize("plan", list(PLANS))
def test_telemetry_digest_matches_golden(plan, lane):
    make_plan, fields, outcomes = PLANS[plan]
    world, _ = run_campaign(
        1, lane=lane, faults=make_plan(), telemetry=True, **fields
    )
    collector = world.telemetry
    seen = {
        hop.outcome for trace in collector.traces.values() for hop in trace.hops
    }
    assert outcomes <= seen, f"plan no longer reaches {outcomes - seen}"
    assert telemetry_digest(collector) == GOLDEN[(plan, lane)]
