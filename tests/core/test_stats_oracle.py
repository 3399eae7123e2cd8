"""Differential tests: the pure-Python Student-t quantile, incomplete
beta and Pearson test against scipy as the oracle.

scipy is a test-only dependency; the package itself never imports it.
Tolerances are relative and fixed beforehand: 1e-12 for every float
the oracle also computes.  The implementation works at 40 digits and
rounds once, so it is usually bit-equal to the exactly rounded value;
scipy's own error (up to ~1e-14 on the t quantile) sets the margin.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core import mean_confidence_interval
from repro.core.overhead import regularized_beta, student_t_ppf
from repro.webservices.correlation import pearsonr

stats = pytest.importorskip("scipy.stats")
special = pytest.importorskip("scipy.special")

REL = 1e-12


@given(
    df=st.integers(1, 10_000),
    confidence=st.floats(0.5, 0.999, exclude_min=True, exclude_max=True),
)
@example(df=1, confidence=0.9989)
@example(df=2, confidence=0.95)
@example(df=4, confidence=0.95)
@example(df=3, confidence=0.5000001)
@example(df=10_000, confidence=0.9989)
@example(df=10_000, confidence=0.5000001)
@settings(max_examples=120, deadline=None)
def test_t_quantile_matches_scipy(df, confidence):
    q = (1 + confidence) / 2.0
    assert student_t_ppf(q, df) == pytest.approx(stats.t.ppf(q, df), rel=REL)


def test_t_quantile_edges():
    assert student_t_ppf(0.5, 7) == 0.0
    for q in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            student_t_ppf(q, 5)
    with pytest.raises(ValueError):
        student_t_ppf(0.9, 0)


def test_figure5_interval_is_bit_identical():
    # Figure 5's committed CI (5 jobs, df 4) is 0.2 · t(0.975, 4).
    samples = [144, 144, 145, 144, 144]
    mean, half = mean_confidence_interval(samples)
    assert (mean, half) == (144.2, 0.5552890210395587)
    sem = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
    assert half == sem * float(stats.t.ppf(0.975, 4))


@given(
    a=st.floats(0.5, 2000.0),
    b=st.floats(0.5, 2000.0),
    x=st.floats(0.0, 1.0, allow_subnormal=False),
)
@settings(max_examples=150, deadline=None)
def test_regularized_beta_matches_scipy(a, b, x):
    ref = float(special.betainc(a, b, x))
    got = regularized_beta(a, b, x)
    if ref < 1e-280:  # near underflow scipy may flush to 0 before we do
        assert got < 1e-280
    else:
        assert got == pytest.approx(ref, rel=REL)


def test_regularized_beta_validation():
    with pytest.raises(ValueError):
        regularized_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_beta(1.0, 1.0, 1.5)
    assert regularized_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_beta(2.0, 3.0, 1.0) == 1.0


def _scipy_pearsonr(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # NearConstantInputWarning
        res = stats.pearsonr(x, y)
    return float(res.statistic), float(res.pvalue)


@given(
    n=st.integers(3, 400),
    slope=st.floats(-3.0, 3.0),
    scale=st.floats(1e-9, 1e6),
    offset=st.sampled_from([0.0, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_pearsonr_matches_scipy(n, slope, scale, offset, seed):
    # offset 1e6 with a tiny scale makes near-degenerate series (scipy
    # warns that r may be inaccurate; both sides still follow the same
    # steps, so they must still agree).
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = offset + scale * (slope * x + rng.normal(size=n))
    assume(np.ptp(y) > 0)
    r, p = pearsonr(x, y)
    r_ref, p_ref = _scipy_pearsonr(x, y)
    assert r == pytest.approx(r_ref, rel=REL, abs=1e-15)
    assert p == pytest.approx(p_ref, rel=REL, abs=1e-300)


def test_pearsonr_perfect_and_committed_values():
    x = np.arange(6.0)
    for y in (2 * x + 1, -x):
        r, p = pearsonr(x, y)
        assert (r, p) == _scipy_pearsonr(x, y)
        assert abs(r) == pytest.approx(1.0) and p == 0.0
    # extra_correlation.json's committed p-values (21 buckets) are the
    # correctly rounded I_x(9.5, 9.5) tails, bit for bit.
    a = 21 / 2 - 1
    for r, p in ((0.834415057704153, 2.574898346098145e-06),
                 (-0.44772391021381275, 0.04182407335779361)):
        half = (abs(r) + 1) / 2
        assert 2 * regularized_beta(a, a, 1 - half) == p
        assert 2 * float(special.betaincc(a, a, half)) == p


def test_pearsonr_rejects_short_or_unequal_series():
    with pytest.raises(ValueError):
        pearsonr(np.arange(2.0), np.arange(2.0))
    with pytest.raises(ValueError):
        pearsonr(np.arange(4.0), np.arange(5.0))
