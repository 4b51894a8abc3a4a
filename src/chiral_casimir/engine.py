"""Series evaluation of the chiral-gap Casimir free energy and pressure.

All internal math lives in two dimensionless variables: the round-trip
half-angle theta and the reduced temperature tau = 2 pi l k_B T / (hbar c).
The Matsubara sum over the log-determinant kernel collapses, after expanding
the logarithm and integrating the transverse momentum, to

    E(theta, tau) = -Sum_{m>=1} cos(2 m theta)/m^3 * [1/2 + w(2 m tau)],
    w(a) = 1/(e^a - 1) + a / (4 sinh^2(a/2)),

where E here is the free energy per unit area scaled by 4 pi beta l^2.  The
half-weights (the n=0 zero mode) are summed in closed form through the s=3
cosine series, leaving a remainder that falls off like 1/m^4 uniformly in tau
and exponentially once 2 m tau > 1.  Differentiating with respect to the
separation at fixed temperature and angle gives the pressure series with
weights 1 + sum_n e^{-2mn tau}(2 + 2a + a^2), again in closed form.

Sign convention: negative free energy / pressure means attraction.

At tau = 0 the sum becomes an integral and both quantities have exact
Bernoulli-polynomial closed forms (reduced_free_energy_T0 and
reduced_pressure_T0, in units of hbar c / l^3 and hbar c / l^4).

In a Faraday gap theta = V B l grows with the separation, so the pressure
gains -theta dE/dtheta = -theta [Sl_2(2 theta) + 2 Sum sin(2 m theta) w(2 m tau)/m^2],
summed in the same pass as the fixed-angle pressure (at tau = 0:
-theta Sl_3(2 theta)/(4 pi^2)).  No finite difference is taken.

Evaluation order is selectable: m_first is the production path described
above; n_first evaluates one Matsubara frequency at a time through the damped
polylogarithms and exists as an independent cross-check (the Faraday
pressure is m_first only).

The m_first terms are made by one numpy kernel (_m_series), one point per
call, in chunks of m that double from 32 to 4096; n_first adds one Matsubara
term at a time.  Both stop by one rule (_stops): at the first index where
the closed tail bound of the remaining terms plus an error floor is within
rel_tol of the running sum (certified), where the tail alone is but the
floor is not (the error floor), or at the term cap, _MAX_M or _MAX_N.  The
floor is the zero-mode error plus a charge for rounding every term for
m_first, and the error accumulated so far for n_first.  m_first values are
exact sums of the computed terms, rounded once.  n_first refuses up front,
unconverged, when its tail beyond _MAX_N already exceeds rel_tol.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernel import MediumKind, log_det_kernel
from .special_functions import (ZETA_2, ZETA_3, ZETA_4, clausen_cos, clausen_sin, fold_pi,
                                re_polylog_damped)

__all__ = [
    "HBAR",
    "C_LIGHT",
    "K_BOLTZMANN",
    "ZeroModePolicy",
    "CavityConfig",
    "ReducedPoint",
    "SeriesControl",
    "EvalResult",
    "reduced_free_energy",
    "reduced_free_energy_T0",
    "reduced_pressure",
    "reduced_pressure_T0",
    "classical_limit_reduced",
    "matsubara_term",
    "physical_free_energy",
    "physical_pressure",
    "effective_theta",
    "reduced_temperature",
]

# Defined SI constants (2019 redefinition), to the digits used everywhere here.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s
K_BOLTZMANN = 1.380649e-23  # J / K

EIGHT_PI2 = 8.0 * math.pi**2
_EPS = 2.0**-53  # unit roundoff

# Absolute error of clausen_cos(3, 2 theta) as the zero mode uses it, with
# theta folded into [0, pi/2], so phi = 2 theta lies in [0, pi] and is not
# reduced again.  special_functions._clausen_cos_3 returns
# fl(fl(Z + A) - T) with Z = ZETA_3, A = phi^2/2 (ln phi - 3/2) and the
# Bernoulli tail T = sum_j c_j phi^{2j}.  With u = 2^-53 and phi <= pi:
#   * rounding:
#       Z is zeta(3) rounded:                                   <= 1.4e-16
#       A from phi*phi, log (< 1 ulp), the subtraction and the product:
#         (phi^2/2)(3u |ln phi - 3/2| + 2u |ln phi|) <= 16.6u   <= 1.9e-15
#       T: each c_j is an exact rational rounded once, each power phi^{2j}
#         carries (2j - 1)u, and the 24 additions of positive terms 24u T;
#         with T <= T(pi) = 0.3505, dominated by j = 2:
#         (5.1 + 24)u T(pi)                                     <= 1.2e-15
#       the two final additions, |Z + A| and |C3| <= zeta(3):  <= 2.7e-16
#   * the truncated Bernoulli tail: the loop stops once a term falls below
#     1e-18 (1 + T); successive terms shrink by (phi/2pi)^2 <= 1/4, so the
#     rest is below a third of that                            <= 1e-18
#   * the 2 theta fold: theta is folded within 1.9e-16 of its value mod pi
#     (special_functions.fold_pi), phi within twice that, and
#     |dC3/dphi| = |Sl2| <= 1.015:
#                                                              <= 3.9e-16
# Sum: 3.9e-15.  A 40-digit mpmath check of a dense grid is in the tests.
_CLAUSEN_ERR = 4e-15

# Absolute error of grad * clausen_sin(2, 2 theta) per unit |grad| (the
# Faraday pressure), theta folded into [0, pi/2].  _clausen_sin_2 returns
# fl(A + T), A = phi (1 - ln phi), T = sum_j c_j phi^{2j+1}; u = 2^-53:
#   * A, from log (< 1 ulp), the subtraction and the product:
#       phi (2u |ln phi| + 2u |1 - ln phi|) <= 8.1u at phi = pi   <= 9.0e-16
#   * T: (2j + 2)u per term from c_j and the power, 4.1u weighted by the
#     terms, and 25 additions: (4.1 + 25)u T(pi), T(pi) = 0.4547  <= 1.5e-15
#   * the final addition and the product with grad, |Sl2| <= 1.015: <= 2.3e-16
#   * the fold: fold_pi moves theta by at most u|t| + 4.3e-18 (|k| times
#     the PI_LO error, |k| <= 1e15/pi), and pi - t adds 1.2e-16.  The slope
#     of Sl2, -ln(2 sin(phi/2)), grows like ln(1/phi), but over a shift of
#     d = 8.6e-18 near 0 Sl2 moves by at most d (1 + ln(1/d)) = 3.5e-16;
#     near phi = pi (slope ln 2) the shift 2(1.2e-16 + u pi/2 + 4.3e-18)
#     costs                                                       <= 4.2e-16
# Sum: 3.05e-15 (truncation 1e-18).  An mpmath check is in the tests.
_SL2_ERR = 3.1e-15


class ZeroModePolicy(Enum):
    """Treatment of the n=0 Matsubara term.

    FULL keeps both polarizations with chiral mixing at every frequency
    (the literal symmetric sum).  TM_ONLY is the experimental variant where
    the static term carries a single unmixed TM mode, replacing the n=0
    reduced term by -zeta(3)/2 independent of angle.
    """

    FULL = "full"
    TM_ONLY = "tm_only"


@dataclass(frozen=True)
class CavityConfig:
    """Physical scenario: plate separation, temperature, and gap medium."""

    separation: float  # meters
    temperature: float  # kelvin
    kind: MediumKind = MediumKind.FIXED_ANGLE
    theta: float = 0.0  # radians, consulted for FIXED_ANGLE only
    verdet: float = 0.0  # rad / (T m), consulted for FARADAY
    bfield: float = 0.0  # tesla, consulted for FARADAY
    zero_mode: ZeroModePolicy = ZeroModePolicy.FULL

    def __post_init__(self):
        if not (math.isfinite(self.separation) and self.separation > 0.0):
            raise ValueError(f"separation must be positive, got {self.separation!r}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError(f"temperature must be >= 0, got {self.temperature!r}")
        for v in (self.theta, self.verdet, self.bfield):
            if not math.isfinite(v):
                raise ValueError(f"config fields must be finite, got {v!r}")


@dataclass(frozen=True)
class ReducedPoint:
    """Dimensionless evaluation point (theta, tau)."""

    theta: float
    tau: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError(f"tau must be >= 0, got {self.tau!r}")


@dataclass(frozen=True)
class SeriesControl:
    """Convergence policy for the reduced series.

    rel_tol is the relative error a converged result certifies; order picks
    the summation order.  m_first sums at most _MAX_M terms; n_first at most
    _MAX_N, and refuses up front, unconverged, where that many terms cannot
    reach rel_tol.
    """

    rel_tol: float = 1e-10
    order: str = "m_first"  # or "n_first"

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if self.order not in ("m_first", "n_first"):
            raise ValueError(f"order must be 'm_first' or 'n_first', got {self.order!r}")


@dataclass(frozen=True)
class EvalResult:
    """Scalar result with truncation diagnostics.

    terms_used counts series terms in the active summation order (m terms for
    m_first, Matsubara terms including n=0 for n_first, 0 for closed forms).
    When converged is set, error_estimate <= rel_tol * |value|.
    """

    value: float
    error_estimate: float
    terms_used: int
    converged: bool


def _meets(err: float, rel_tol: float, value: float) -> bool:
    if value == 0.0:
        return err <= 1e-300
    return err <= rel_tol * abs(value)


def _stops(tail, floor, target):
    """Whether a sum stops here, on floats or numpy arrays alike.

    target is rel_tol |S| for the running sum S.  A sum stops where
    tail + floor <= target (certified) or tail <= target < floor (the error
    floor, which no number of further terms can get under).
    """
    return target - tail >= floor * (target >= floor)


def _canonical_theta(theta: float) -> tuple[float, float]:
    """Fold theta into [0, pi/2], and the sign the fold applied to odd functions.

    cos(2 m theta) is even and pi-periodic; dE/dtheta is odd and
    pi-periodic, so it is sign times its value at the folded angle.  fold_pi
    is bit-exact under theta -> -theta and within ~1e-16 of exact under
    theta -> theta+pi; it rejects |theta| > 1e15 rad.  Its PI_LO tail can
    leave |fold| a hair above pi/2, which the last step reflects back.
    """
    t = fold_pi(theta, "theta")
    sign = math.copysign(1.0, t)
    t = abs(t)
    if t > 0.5 * math.pi:
        return math.pi - t, -sign
    return t, sign


# m-series chunks: 32 terms, doubling up to 4096 per chunk, and the term cap
_FIRST_CHUNK = 32
_LAST_CHUNK = 4096
_MAX_M = 10**6
# Rounding charged per m-series term: EPS * weight/m^3 * (_TERM_ULPS + a + m phi).
# _TERM_ULPS covers the at most 27 ulps of error of the pressure term (18 for
# the energy): 2 each from exp and expm1, 1 from each division, sum and
# product in the weight, 2 from 1/m^3 and 1 from the product with it, 2 of
# absolute error from the cosine, 1 from the product with it, 1 from adding
# the sine term of the Faraday pressure and 1 from the exact per-chunk sum.
# A sine term 2 grad sin(m phi) w/m^2 carries at most 20: 10 from the energy
# weight, 3 from 1/m^2 (taken as m/m^3), 1 from the product with it, 2 of
# absolute error from the sine, 1 each from the products with it and with
# -2 grad, 1 from the addition and 1 from the per-chunk sum.  a = 2 m tau
# bounds the relative change of the weight when a is rounded, and m phi the
# absolute change of cos(m phi) or sin(m phi) when m phi is.
_TERM_ULPS = 32.0


@dataclass(frozen=True)
class _MSeries:
    """One m-series: its closed-form weight and the bound weight(a) <= k/a.

    The weight is a Matsubara sum in closed form, written through
    q = y/d = 1/(e^a - 1) and x = a/d with y = e^{-a}, d = 1 - y = -expm1(-a),
    which needs no branch: for large a, y underflows to 0, and for small a,
    x -> 1 and q -> 1/a.  The bound gives the algebraic tail
    k/(2 tau) sum_{j>m} 1/j^4 <= k/(6 tau m^3).
    """

    pressure: bool
    k: float

    def weight(self, y, q, x):
        """Works on floats and on numpy arrays alike."""
        if self.pressure:
            # Sum_{n>=1} e^{-nb} (2 + 2nb + (nb)^2); 6/b - 1 + O(b) as b -> 0
            return q * (2.0 + x * (2.0 + x * (1.0 + y)))
        # w(a) = Sum_{n>=1} e^{-na} (1 + na); 2/a - O(a^3) as a -> 0
        return q * (1.0 + x)

    def weight_at(self, a: float) -> float:
        y = math.exp(-a)
        dm = math.expm1(-a)
        return self.weight(y, y / -dm, -a / dm)

    def floor(self, theta: float, tau: float, base_err: float) -> float:
        """Zero-mode error plus the rounding charge of every term the series can sum.

        With mag_m = weight(2 m tau)/m^3 <= min(weight(2 tau)/m^3, k/(2 tau m^4)),
        sum mag_m and sum m mag_m are bounded in closed form; the charge is
        EPS sum_m mag_m (_TERM_ULPS + a_m + m phi).
        """
        a1 = 2.0 * tau
        w1 = self.weight_at(a1)
        s0 = min(ZETA_3 * w1, self.k * ZETA_4 / a1)  # >= sum mag_m
        s1 = min(ZETA_2 * w1, self.k * ZETA_3 / a1)  # >= sum m mag_m
        return base_err + _EPS * (_TERM_ULPS * s0 + (a1 + 2.0 * theta) * s1)


_ENERGY = _MSeries(pressure=False, k=2.0)
_PRESSURE = _MSeries(pressure=True, k=6.0)


def _sine_floor(theta: float, tau: float) -> float:
    """Rounding charge of the sine terms of dE/dtheta, like _MSeries.floor.

    With g_m = 2 w(2 m tau)/m^2 <= min(2 w(2 tau)/m^2, 2/(tau m^3)),
    sum g_m <= 2 min(zeta(2) w(2 tau), zeta(3)/tau) and sum m g_m <= 2 zeta(2)/tau.
    """
    a1 = 2.0 * tau
    s0 = 2.0 * min(ZETA_2 * _ENERGY.weight_at(a1), ZETA_3 / tau)
    s1 = 2.0 * ZETA_2 / tau
    # per m: m phi from rounding m phi, and m (2 theta + 2.3) EPS from the
    # fold, which leaves theta within EPS theta + 1.3e-16 of its value mod pi
    return _EPS * (_TERM_ULPS * s0 + (a1 + 4.0 * theta + 2.3) * s1)


@functools.lru_cache(maxsize=16)
def _chunk_m(lo: int, hi: int):
    """m and 1/m^3 over lo..hi+1 (the extra m feeds the tail bounds), -1/(2 m^2) over lo..hi."""
    m = np.arange(lo, hi + 2, dtype=np.float64)
    return m, 1.0 / (m * m * m), -0.5 / (m[:-1] * m[:-1])


def _chunks():
    lo, size = 1, _FIRST_CHUNK
    while lo <= _MAX_M:
        hi = min(lo + size - 1, _MAX_M)
        yield lo, hi
        lo = hi + 1
        size = min(2 * size, _LAST_CHUNK)


def _m_series(theta: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
              series: _MSeries, grad: float = 0.0) -> EvalResult:
    """base(theta) - sum_m cos(2 m theta) weight(2 m tau)/m^3 + grad dE/dtheta at a folded point.

    base is the closed-form zero mode, doubled for the pressure.  grad is 0
    except for the Faraday pressure, where it adds grad Sl2(2 theta) (the
    zero mode's slope; none under TM_ONLY) and the sine terms
    2 grad sin(2 m theta) w(2 m tau)/m^2, w the energy weight.  The point
    runs through the terms a chunk at a time and stops by _stops at its
    first m, or at m = _MAX_M.
    tail(m) = min(k/(6 tau m^3), weight_{m+1}/(2 m^2), weight_{m+1}/((m+1)^3 sin theta))
    bounds the cosine terms beyond m, where weight_{m+1} = weight(2(m+1) tau),
    plus |grad| min(1/(tau m^2), 2 w_{m+1}/m, 2 w_{m+1}/((m+1)^2 sin theta))
    for the sine terms; floor is _MSeries.floor plus |grad| _sine_floor.  The
    running sums S_m that decide where to stop are float cumulative sums on
    top of the exact sum of the earlier chunks.  The value is the exact sum
    (math.fsum) of the base and the per-chunk exact sums, rounded once; that
    rounding is charged too.
    """
    scale = 2.0 if series.pressure else 1.0
    # from tau = 400 on every weight underflows to exactly 0; capping tau
    # changes no result and keeps a and a^2 finite in the weights
    tau = min(tau, 1e3)
    base, base_err = _zero_mode_base(theta, zero_mode)
    parts = [scale * base]  # the base, then the exact sum of each finished chunk
    floor = series.floor(theta, tau, scale * base_err)
    if grad:
        floor += abs(grad) * _sine_floor(theta, tau)
        if zero_mode is ZeroModePolicy.FULL:  # the TM_ONLY zero mode has no slope
            parts.append(grad * clausen_sin(2, 2.0 * theta))
            floor += abs(grad) * _SL2_ERR
    head = math.fsum(parts)  # sum before the chunk
    phi, neg_2tau, tail_alg = 2.0 * theta, -2.0 * tau, series.k / (6.0 * tau)
    # Abel summation: partial sums of cos(2 m theta) and of sin(2 m theta) are
    # at most 1/sin(theta); below 1e-8 this bound only wins past m ~ 1e8
    neg_abel = -1.0 / math.sin(theta) if theta >= 1e-8 else 0.0
    for lo, hi in _chunks():
        m, inv_m3, neg_inv_2m2 = _chunk_m(lo, hi)
        na = neg_2tau * m  # -a = -2 m tau, with one extra m for the tail
        y = np.exp(na)
        dm = np.expm1(na)  # -d
        q, x = y / dm, na / dm  # q < 0 here, so the weights below are negated
        neg_weight = series.weight(y, q, x)
        neg_mag = neg_weight * inv_m3
        terms = np.cos(phi * m[:-1]) * neg_mag[:-1]
        # bounds on the terms beyond m: algebraic, exponential and Abel
        tail = np.minimum(tail_alg * inv_m3[:-1], neg_weight[1:] * neg_inv_2m2)
        if neg_abel:
            tail = np.minimum(tail, neg_mag[1:] * neg_abel)
        if grad:
            neg_w = _ENERGY.weight(y, q, x)
            neg_g = neg_w * (inv_m3 * m)  # -w/m^2
            terms = terms + (-2.0 * grad) * np.sin(phi * m[:-1]) * neg_g[:-1]
            sine_tail = np.minimum(inv_m3[:-1] * m[:-1] / tau, -2.0 * neg_w[1:] / m[:-1])
            if neg_abel:
                sine_tail = np.minimum(sine_tail, 2.0 * neg_abel * neg_g[1:])
            tail = tail + abs(grad) * sine_tail
        target = ctrl.rel_tol * np.abs(head + np.add.accumulate(terms))
        stop = _stops(tail, floor, target)
        if hi == _MAX_M:
            stop[-1] = True
        j = int(stop.argmax())
        if stop[j]:
            break
        parts.append(math.fsum(terms.tolist()))
        head = math.fsum(parts)
    parts.append(math.fsum(terms[:j + 1].tolist()))
    value = math.fsum(parts)
    tail_j = float(tail[j])
    err = tail_j + floor + _EPS * abs(value)
    return EvalResult(value, err, lo + j,
                      bool(tail_j + floor <= target[j]) and _meets(err, ctrl.rel_tol, value))


# The n_first term cap.  At rel_tol 1e-10 the up-front refusal starts near
# tau = 7e-4, and 20k terms (each a damped-polylog sum) take about 1.5 s on
# a 2-CPU host.
_MAX_N = 20_000

# Absolute error of li1 = -log1p(r (r - 2c))/2, c = cos 2 theta, against
# Re Li_1(r e^{2 i theta}) at the same r and theta, for 0 < r <= 1/2; u = 2^-53:
#   * cos within 1 ulp (2u|c|), then r - 2c and its product with r, u each:
#       the log1p argument z is off by at most u r (8|c| + 2r)
#   * 1 + z = (1 - r)^2 + 4 r sin^2 theta >= (1 - r)^2, so log1p moves by at
#     most u r (8|c| + 2r)/(1 + z), and its own ulp adds 2u |ln(1 + z)|
#   * halved, the sum over r is largest at r = 1/2, c = 1:
#       (18u + 2u ln 4)/2 = 10.4u, that is 20.8u r
# Below the normal range (a > 708) the product with r and the halving each add
# at most 2^-1075 instead, which the 5e-324 beside the charge covers.  The
# charge shrinks with r, so a^2 li1 adds no floor that grows with n.
_LI1_ULPS = 21.0


def _geometric_tails(tau: float, n: int) -> tuple[float, float, float]:
    # exact tails of sum y^k, sum k y^k, sum k^2 y^k over k > n, y = e^{-2 tau}
    y = math.exp(-2.0 * tau)
    om = -math.expm1(-2.0 * tau)
    ynp = y ** (n + 1)
    s0 = ynp / om
    # one om at a time: tiny tau overflows to inf instead of dividing by an
    # underflown om^3
    s1 = ynp * ((n + 1) - n * y) / om / om
    s2 = ynp * ((n + 1) ** 2 - (2 * n * n + 2 * n - 1) * y + n * n * y * y) / om / om / om
    return s0, s1, s2


def _energy_tail_n(n: int, tau: float) -> float:
    # per-term bound e^{-2 n tau} (1 + 2 n tau) zeta(2), summed exactly
    s0, s1, _ = _geometric_tails(tau, n)
    return (math.pi**2 / 6.0) * (s0 + 2.0 * tau * s1)


def _pressure_tail_n(n: int, tau: float) -> float:
    s0, s1, s2 = _geometric_tails(tau, n)
    z2 = math.pi**2 / 6.0
    return 2.0 * ZETA_3 * s0 + 4.0 * tau * z2 * s1 + 4.0 * tau * (tau / -math.expm1(-2.0 * tau)) * s2


def _check_tau(tau: float) -> None:
    if tau < 1e-300:
        raise ValueError(f"tau must be at least 1e-300, below which the series, which "
                         f"grows like 1/tau, overflows; got {tau!r}")


def _validate_point(p: ReducedPoint) -> None:
    if p.tau <= 0.0:
        raise ValueError(
            "tau must be positive for the thermal series; use the *_T0 "
            "closed forms at zero temperature"
        )
    _check_tau(p.tau)
    if p.tau < 1e-6:
        warnings.warn(
            f"tau = {p.tau:g} is deep in the quantum regime; the T=0 closed "
            "form is better conditioned there",
            RuntimeWarning,
            stacklevel=3,
        )


def _zero_mode_base(theta: float, zero_mode: ZeroModePolicy) -> tuple[float, float]:
    """Half-weighted n=0 contribution to the reduced free energy and its error."""
    if zero_mode is ZeroModePolicy.TM_ONLY:
        return -0.25 * ZETA_3, 1e-16
    return -0.5 * clausen_cos(3, 2.0 * theta), 0.5 * _CLAUSEN_ERR


def reduced_free_energy(p: ReducedPoint, ctrl: SeriesControl | None = None,
                        zero_mode: ZeroModePolicy = ZeroModePolicy.FULL) -> EvalResult:
    """Reduced free energy E(theta, tau) = E_c * 4 pi beta l^2 (signed).

    Requires tau > 0; zero temperature is a separate closed form.
    """
    _validate_point(p)
    return _reduced(p.theta, p.tau, ctrl or SeriesControl(), zero_mode, _ENERGY)


def _reduced(theta: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
             series: _MSeries, grad: float = 0.0) -> EvalResult:
    """Reduced free energy or pressure, plus grad dE/dtheta (m_first only), at any theta."""
    t, sign = _canonical_theta(theta)
    if ctrl.order == "m_first":
        return _m_series(t, tau, ctrl, zero_mode, series, grad * sign)
    return _n_first(t, tau, ctrl, zero_mode, series)


def _matsubara_n(n: int, theta: float, tau: float, pressure: bool) -> tuple[float, float]:
    """Term n >= 1 of the Matsubara sum of the reduced free energy or pressure, and its error."""
    a = 2.0 * n * tau
    if a > 745.0:  # e^{-a} underflows; term is identically zero at double precision
        return 0.0, 0.0
    r = math.exp(-a)
    phi = 2.0 * theta
    # Li_2 first: where r is so near 1 that the sums cannot meet their bound,
    # its tail is the larger and it fails before any summing
    li2, b2 = re_polylog_damped(2, r, phi, with_bound=True)
    li3, b3 = re_polylog_damped(3, r, phi, with_bound=True)
    if not pressure:
        term = -(li3 + a * li2)
        return term, b3 + a * b2 + 2e-16 * abs(term)
    # Re Li_1(r e^{2 i theta}) = -ln(1 + r^2 - 2 r cos 2 theta)/2, closed form
    if r <= 0.5:
        li1 = -0.5 * math.log1p(r * (r - 2.0 * math.cos(2.0 * theta)))
        li1_err = _LI1_ULPS * _EPS * r + 5e-324
    else:
        li1 = -0.5 * log_det_kernel(r, theta)
        # the kernel's log argument carries up to 7 ulps
        li1_err = 3.9e-16 + 2.3e-16 * abs(li1)
    term = -(2.0 * li3 + 2.0 * a * li2 + a * a * li1)
    return term, 2.0 * b3 + 2.0 * a * b2 + a * a * li1_err + 2e-16 * abs(term)


def _n_first(theta: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
             series: _MSeries) -> EvalResult:
    """Reduced free energy or fixed-angle pressure, one Matsubara term at a time.

    Stops by _stops at its first n >= 1, with the floor the error of the
    terms so far, or at n = _MAX_N.
    """
    # the tau-independent n=0 part of the pressure is twice its free-energy value
    scale = 2.0 if series.pressure else 1.0
    base, base_err = _zero_mode_base(theta, zero_mode)
    base, base_err = scale * base, scale * base_err
    tail = _pressure_tail_n if series.pressure else _energy_tail_n
    whole = tail(0, tau)  # bounds all n >= 1 terms, so |value| <= |base| + whole
    if not tail(_MAX_N, tau) + base_err <= ctrl.rel_tol * (abs(base) + whole) < math.inf:
        # _MAX_N terms cannot meet rel_tol however they cancel: refuse up front
        return EvalResult(base, base_err + whole, 1, False)
    total, acc_err = base, base_err
    for n in range(1, _MAX_N + 1):
        term, term_err = _matsubara_n(n, theta, tau, series.pressure)
        total += term
        acc_err += term_err
        tail_n = tail(n, tau)
        target = ctrl.rel_tol * abs(total)
        if _stops(tail_n, acc_err, target):
            break
    err = acc_err + tail_n
    return EvalResult(total, err, n + 1, bool(tail_n + acc_err <= target))


def reduced_free_energy_T0(theta: float) -> float:
    """Zero-temperature reduced free energy E_c l^3 / (hbar c), exact closed form."""
    t, _ = _canonical_theta(theta)
    return -clausen_cos(4, 2.0 * t) / EIGHT_PI2


def reduced_pressure(p: ReducedPoint, ctrl: SeriesControl | None = None,
                     zero_mode: ZeroModePolicy = ZeroModePolicy.FULL) -> EvalResult:
    """Reduced pressure P * 4 pi beta l^3 at fixed temperature and fixed angle.

    Term-wise l-derivative of the free-energy series: P_hat = 2 E_hat -
    tau dE_hat/dtau.  Negative means attraction.
    """
    _validate_point(p)
    return _reduced(p.theta, p.tau, ctrl or SeriesControl(), zero_mode, _PRESSURE)


def reduced_pressure_T0(theta: float) -> float:
    """Zero-temperature reduced pressure P l^4 / (hbar c) = 3 x the T=0 energy."""
    return 3.0 * reduced_free_energy_T0(theta)


def classical_limit_reduced(theta: float) -> float:
    """tau -> infinity limit of the reduced free energy (full zero-mode policy)."""
    return -0.5 * clausen_cos(3, 2.0 * _canonical_theta(theta)[0])


def matsubara_term(n: int, p: ReducedPoint) -> float:
    """Reduced contribution of Matsubara index n (before the n=0 half weight).

    n = 0 gives -clausen_cos(3, 2 theta) (full policy); n >= 1 needs tau > 0.
    """
    if n < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {n!r}")
    theta, _ = _canonical_theta(p.theta)
    if n == 0:
        return -clausen_cos(3, 2.0 * theta)
    if p.tau <= 0.0:
        raise ValueError("positive tau required for n >= 1 Matsubara terms")
    return _matsubara_n(n, theta, p.tau, pressure=False)[0]


def effective_theta(cfg: CavityConfig) -> float:
    """Round-trip half-angle actually seen by the series.

    Faraday rotation accumulates over the traversal (V B l); an optically
    active return pass undoes the rotation exactly, so the effective angle
    is identically zero there.
    """
    if cfg.kind is MediumKind.FARADAY:
        return cfg.verdet * cfg.bfield * cfg.separation
    if cfg.kind is MediumKind.OPTICALLY_ACTIVE:
        return 0.0
    return cfg.theta


def reduced_temperature(separation: float, temperature: float) -> float:
    """tau = 2 pi l k_B T / (hbar c)."""
    product = 2.0 * math.pi * separation * K_BOLTZMANN * temperature
    if product >= sys.float_info.min:
        return product / (HBAR * C_LIGHT)
    # a subnormal product has lost digits; k_B/(hbar c) = 437 keeps them
    return 2.0 * math.pi * separation * (K_BOLTZMANN / (HBAR * C_LIGHT)) * temperature


_LIFT = 2.0**600  # a power of two: scaling by it is exact


def _unit_scale(separation: float, temperature: float, pressure: bool) -> tuple[float, float]:
    """Factor taking the reduced free energy, or the pressure, to J/m^2 or Pa.

    At T = 0 the reduced quantities are E l^3/(hbar c) and P l^4/(hbar c);
    otherwise E 4 pi beta l^2 and P 4 pi beta l^3.  Returns (scale, lift) for
    the factor scale/lift.  lift is 1 unless k_B T is subnormal; then it is
    _LIFT, and scale keeps the digits that k_B T would lose.  Raises a
    ValueError naming the separation where its power l^k is not a normal float.
    """
    k = (3 if temperature == 0.0 else 2) + pressure
    try:
        power = separation**k
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power <= sys.float_info.max:
        raise ValueError(f"separation**{k} must be a normal float, or the factor to physical "
                         f"units loses its digits; got separation = {separation!r} m")
    if temperature == 0.0:
        return HBAR * C_LIGHT / power, 1.0
    kt = K_BOLTZMANN * temperature
    if kt >= sys.float_info.min:
        return kt / (4.0 * math.pi * power), 1.0
    return temperature * _LIFT * (K_BOLTZMANN / (4.0 * math.pi * power)), _LIFT


def _physical(cfg: CavityConfig, ctrl: SeriesControl, series: _MSeries) -> EvalResult:
    """Free energy in J/m^2 (_ENERGY) or pressure in Pa (_PRESSURE).

    In a Faraday gap theta = V B l, so l d/dl = tau d/dtau + theta d/dtheta
    and the pressure gains grad dE/dtheta with grad = -theta.
    """
    scale, lift = _unit_scale(cfg.separation, cfg.temperature, series.pressure)
    if scale < sys.float_info.min:
        raise ValueError(f"the factor to physical units underflows, and a subnormal float keeps "
                         f"too few digits; got separation = {cfg.separation!r} m, "
                         f"temperature = {cfg.temperature!r} K")
    theta = effective_theta(cfg)
    grad = -theta if series.pressure and cfg.kind is MediumKind.FARADAY else 0.0
    if cfg.temperature == 0.0:
        closed_form = reduced_pressure_T0 if series.pressure else reduced_free_energy_T0
        value = closed_form(theta)
        err = 3e-15 if series.pressure else 1e-15  # polynomial, roundoff level in reduced units
        if grad:
            # dE_0/dtheta = Sl3(2 theta)/(4 pi^2).  Sl3 is good to 1.6e-15:
            # 6.3e-16 from the fold (3.8e-16 in 2 theta, |Cl2| <= zeta(2)) and
            # 9.7e-16 from rounding x (x - pi)(x - 2 pi)/12, float(pi) included.
            # The product and the division by the rounded 4 pi^2 add 3.7u of
            # |Sl3| <= 0.995: (1.6e-15 + 4.1e-16)/(4 pi^2) = 5.1e-17 per unit |grad|.
            value += grad * clausen_sin(3, 2.0 * theta) / (4.0 * math.pi**2)
            err += abs(grad) * 5.1e-17 + _EPS * abs(value)
        res = EvalResult(value, err, 0, _meets(err, ctrl.rel_tol, value))
    else:
        tau = reduced_temperature(cfg.separation, cfg.temperature)
        _check_tau(tau)
        if abs(grad) > 1e307 * tau:  # |grad dE/dtheta| <= |grad| (1.02 + 2 zeta(3)/tau)
            raise ValueError(f"the Faraday pressure overflows its reduced units where "
                             f"|theta|/tau > 1e307; got theta = {theta!r}, tau = {tau!r}")
        res = _reduced(theta, tau, ctrl, cfg.zero_mode, series, grad)
    value = res.value * scale / lift
    if math.isinf(value):
        raise ValueError(f"the result overflows a float in physical units; got separation = "
                         f"{cfg.separation!r} m, temperature = {cfg.temperature!r} K")
    return EvalResult(value, res.error_estimate * scale / lift, res.terms_used, res.converged)


def physical_free_energy(cfg: CavityConfig, ctrl: SeriesControl | None = None) -> EvalResult:
    """Free energy per unit area in J/m^2 for the given physical scenario."""
    return _physical(cfg, ctrl or SeriesControl(), _ENERGY)


def physical_pressure(cfg: CavityConfig, ctrl: SeriesControl | None = None) -> EvalResult:
    """Pressure in Pa; negative means the plates attract.

    Every medium differentiates the series analytically.  In a Faraday
    medium the angle scales with the separation, theta = V B l, so the
    pressure is P_hat(theta, tau) - theta dE_hat/dtheta, both summed in one
    m-series pass and certified at rel_tol.  Only order="m_first" has it: a
    Faraday config with order="n_first" is a ValueError.
    """
    ctrl = ctrl or SeriesControl()
    if cfg.kind is MediumKind.FARADAY and ctrl.order != "m_first":
        raise ValueError("the Faraday pressure is evaluated by order='m_first' only, "
                         f"got order={ctrl.order!r}")
    return _physical(cfg, ctrl, _PRESSURE)
