"""Per-job feature vectors: the explain layer's classifier input."""

from dataclasses import fields

import pytest

from repro.diagnosis import FeatureVector, job_features
from repro.diagnosis.explain import explain_campaign


@pytest.fixture(scope="module")
def faulted():
    """One slow-lane chaos campaign shared by every test here."""
    return explain_campaign(seed=42, lane="slow")


def test_default_vector_is_all_zeros_idle():
    fv = FeatureVector(job_id=7)
    assert fv.workload_class == "idle"
    assert fv.n_events == fv.n_reads == fv.n_writes == 0
    assert fv.duration_s == 0.0
    assert fv.rank_imbalance_ratio == 0.0
    assert fv.busiest_rank == -1
    assert fv.fs_load_degenerate is True
    assert fv.slowest_trace_id == ""


def test_to_dict_covers_every_field():
    fv = FeatureVector(job_id=7)
    d = fv.to_dict()
    assert set(d) == {f.name for f in fields(FeatureVector)}
    assert d["job_id"] == 7


def test_job_features_requires_diagnosis_engine():
    class _NoEngine:
        diagnosis = None

    with pytest.raises(RuntimeError, match="diagnosis engine"):
        job_features(_NoEngine(), 1)


def test_unknown_job_is_the_empty_vector(faulted):
    fv = job_features(faulted.world, 999_999)
    assert fv.job_id == 999_999
    assert fv.n_events == 0
    assert fv.workload_class == "idle"


def test_features_distill_the_chaos_campaign(faulted):
    fv = job_features(faulted.world, faulted.result.job_id)
    # op mix: the MPI-IO job is balanced read/write over 8 ranks.
    assert fv.workload_class == "balanced-rw"
    assert fv.n_events > 0
    assert fv.n_reads == fv.n_writes > 0
    assert fv.bytes_read == fv.bytes_written > 0
    assert fv.n_ranks == 8
    assert fv.rank_imbalance_ratio == pytest.approx(1.0)
    assert 0.0 <= fv.metadata_op_fraction < 0.5
    # pipeline dynamics: every injected fault left its peak.
    assert fv.queue_depth_peak > 0          # trunk-link degrade
    assert fv.slow_pending_peak > 0         # slow store
    assert fv.daemons_failed_peak > 0       # daemon crash
    assert fv.store_replicas_down_peak > 0  # store crash
    # exemplar trace: the drill-down link every verdict cites.
    assert fv.slowest_trace_id != ""
    assert fv.slowest_trace_e2e_s > 0


def test_risk_fractions_are_fractions(faulted):
    fv = job_features(faulted.world, faulted.result.job_id)
    assert 0.0 <= fv.read_risk <= 1.0
    assert 0.0 <= fv.write_risk <= 1.0


def test_features_are_deterministic(faulted):
    a = job_features(faulted.world, faulted.result.job_id)
    b = job_features(faulted.world, faulted.result.job_id)
    assert a == b
    assert a.to_dict() == b.to_dict()
