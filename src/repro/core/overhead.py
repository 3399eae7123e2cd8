"""Overhead arithmetic for Table II.

The paper computes ``% Overhead`` from mean runtimes over five
repetitions of "Darshan only" vs "Darshan-LDMS Connector" (dC) runs,
and plots Figure 5 with 95 % confidence intervals.  These helpers hold
exactly that math.

The Student-t quantile behind the intervals is computed here in pure
Python (the regularized incomplete beta by continued fraction at 40
digits, inverted by safeguarded Newton), so the pipeline never imports
a statistics package: scipy alone costs more to import than a whole
inert campaign takes to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

__all__ = [
    "percent_overhead",
    "mean_confidence_interval",
    "regularized_beta",
    "student_t_ppf",
    "OverheadResult",
]

#: Working precision (significant digits) of the incomplete beta.  At
#: 40 digits the ``ln Γ`` cancellation (``ln Γ(5000)`` ≈ 37583) and the
#: continued fraction's rounding stay ~20 digits below a double's ulp,
#: so the float results are correctly rounded in practice.
_PREC = 40
#: Entered with ``localcontext`` (which copies it), so a caller's global
#: decimal settings never leak in.
_CONTEXT = Context(prec=_PREC)
_TOL = Decimal("1e-34")
_TINY = Decimal("1e-300")
_HALF = Decimal("0.5")
_LN_SQRT_2PI = Decimal("0.9189385332046727417803297364056176398614")
#: Stirling-series coefficients B_2k / (2k (2k - 1)) of ln Γ(z).
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
             (-691, 360360), (1, 156), (-3617, 122400))


def _ln_gamma(z: Decimal) -> Decimal:
    """ln Γ(z) for ``z > 0``: shift to ``z >= 40``, then Stirling."""
    shift = Decimal(1)
    while z < 40:
        shift *= z
        z += 1
    inv = 1 / z
    inv2 = inv * inv
    series = Decimal(0)
    for num, den in reversed(_STIRLING):
        series = series * inv2 + Decimal(num) / den
    return ((z - _HALF) * z.ln() - z + _LN_SQRT_2PI + series * inv
            - shift.ln())


def _beta_fraction(a: Decimal, b: Decimal, x: Decimal, y: Decimal) -> Decimal:
    """Didonato & Morris continued fraction, ``I_x(a, b) = power / F``,
    by modified Lentz; fast for ``x < (a + 1) / (a + b + 2)``."""
    f = a * (a * y - b * x + 1) / (a + 1)
    if not f:
        f = _TINY
    c, d = f, Decimal(0)
    for m in range(1, 100_000):
        den = a + 2 * m - 1
        an = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (den * den)
        bn = (m + m * (b - m) * x / den
              + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (a + 2 * m + 1))
        d = bn + an * d
        if not d:
            d = _TINY
        c = bn + an / c
        if not c:
            c = _TINY
        d = 1 / d
        delta = c * d
        f *= delta
        if abs(delta - 1) <= _TOL:
            return f
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _ln_beta(a: Decimal, b: Decimal) -> Decimal:
    return _ln_gamma(a) + _ln_gamma(b) - _ln_gamma(a + b)


def _ibeta(a: Decimal, b: Decimal, x: Decimal, y: Decimal,
           ln_beta: Decimal) -> Decimal:
    """``I_x(a, b)`` with ``y = 1 - x`` and ``ln_beta = ln B(a, b)``
    (hoisted: it is three ``ln Γ`` and fixed while a root search moves
    ``x``), in the caller's context."""
    if x <= 0:
        return Decimal(0)
    if y <= 0:
        return Decimal(1)
    flip = x * (a + b + 2) >= a + 1
    if flip:
        a, b, x, y = b, a, y, x
    power = (a * x.ln() + b * y.ln() - ln_beta).exp()
    result = power / _beta_fraction(a, b, x, y)
    return 1 - result if flip else result


def regularized_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta ``I_x(a, b)``, evaluated at
    :data:`_PREC` digits with the standard-library ``decimal`` module,
    then rounded once to a float."""
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    with localcontext(_CONTEXT):
        ad, bd, xd = Decimal(float(a)), Decimal(float(b)), Decimal(float(x))
        return float(_ibeta(ad, bd, xd, 1 - xd, _ln_beta(ad, bd)))


def _t_sf(t: Decimal, df: Decimal, ln_beta: Decimal) -> Decimal:
    """``P(T > t)`` for ``t >= 0``: ``½ I_{ν/(ν+t²)}(ν/2, ½)``."""
    t2 = t * t
    return _ibeta(df / 2, _HALF, df / (df + t2), t2 / (df + t2), ln_beta) / 2


def _t_pdf(t: float, df: float) -> float:
    return math.exp(
        math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi) - 0.5 * (df + 1.0) * math.log1p(t * t / df)
    )


def student_t_ppf(q: float, df: float) -> float:
    """Quantile of Student's t with ``df`` degrees of freedom.

    Solves ``P(T > t) = 1 - q``: the root is bracketed by doubling,
    then found by Newton from the bracket's lower end.  The tail is
    convex and decreasing for ``t > 0``, so those iterates climb
    monotonically and converge quadratically; a step that leaves the
    bracket bisects instead.  The density (the Newton slope) is a float
    — it sets the convergence rate, not the root.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not df > 0:
        raise ValueError("df must be positive")
    if q < 0.5:
        return -student_t_ppf(1.0 - q, df)
    if q == 0.5:
        return 0.0
    with localcontext(_CONTEXT):
        nu = Decimal(float(df))
        ln_beta = _ln_beta(nu / 2, _HALF)
        p = 1 - Decimal(float(q))
        lo, hi = Decimal(0), Decimal(1)
        while _t_sf(hi, nu, ln_beta) > p:
            lo, hi = hi, 2 * hi
        t = lo
        for _ in range(100):
            new = t + (_t_sf(t, nu, ln_beta) - p) / Decimal(_t_pdf(float(t), df))
            if not lo <= new <= hi:
                new = (t + hi) / 2
            if abs(new - t) <= _TOL * new:
                break
            t = new
        return float(new)


def percent_overhead(baseline_s: float, with_connector_s: float) -> float:
    """``(dC - Darshan) / Darshan × 100``; negative when dC ran faster
    (the paper's campaign-drift artefact)."""
    if baseline_s <= 0:
        raise ValueError("baseline runtime must be positive")
    return (with_connector_s - baseline_s) / baseline_s * 100.0


def mean_confidence_interval(samples, confidence: float = 0.95):
    """(mean, half-width) of the Student-t CI used by Figure 5."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return mean, 0.0
    half = float(sem * student_t_ppf((1 + confidence) / 2.0, arr.size - 1))
    return mean, half


@dataclass(frozen=True)
class OverheadResult:
    """One Table II cell group: a (config, file system) column."""

    label: str
    filesystem: str
    darshan_runtimes: tuple
    connector_runtimes: tuple
    avg_messages: float
    message_rate: float

    @property
    def darshan_mean(self) -> float:
        return float(np.mean(self.darshan_runtimes))

    @property
    def connector_mean(self) -> float:
        return float(np.mean(self.connector_runtimes))

    @property
    def overhead_percent(self) -> float:
        return percent_overhead(self.darshan_mean, self.connector_mean)

    def as_row(self) -> dict:
        """Flat dict in the shape of one Table II column."""
        return {
            "config": self.label,
            "filesystem": self.filesystem,
            "avg_messages": round(self.avg_messages),
            "rate_msgs_per_s": self.message_rate,
            "darshan_runtime_s": self.darshan_mean,
            "dC_runtime_s": self.connector_mean,
            "overhead_percent": self.overhead_percent,
        }
