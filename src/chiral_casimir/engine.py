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

Evaluation order is selectable: m_first is the production path described
above; n_first evaluates one Matsubara frequency at a time through the damped
polylogarithms and exists as an independent cross-check.

The m_first terms are made by one numpy kernel (_m_series), in chunks of m
that double from 32 to 4096.  A point stops at the first m where the closed
tail bound of the remaining terms, plus the zero-mode error and a charge for
rounding, is within rel_tol of the running sum; it gives up early where that
error floor alone exceeds rel_tol, and at max_m.  No streak of small terms is
waited for.  Values are exact sums of the computed terms, rounded once.
n_first refuses up front, unconverged, when its tail beyond max_n already
exceeds rel_tol.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .kernel import MediumKind, log_det_kernel
from .special_functions import ZETA_2, ZETA_3, ZETA_4, clausen_cos, re_polylog_damped

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

PI_LO = 1.2246467991473532e-16  # float(pi) + PI_LO ~ pi to ~3e-33
EIGHT_PI2 = 8.0 * math.pi**2
_EPS = 2.0**-53  # unit roundoff

# Beyond this |theta| the fold into [0, pi/2] loses accuracy: k = round(theta
# / pi) would no longer be exact past about 2^51, and k * PI_LO would leave
# [-pi/2, pi/2] past about 4e16.  Up to it the fold is within 1.9e-16.
_MAX_ABS_THETA = 1e15

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
#     (above), phi within twice that, and |dC3/dphi| = |Sl2| <= 1.015:
#                                                              <= 3.9e-16
# Sum: 3.9e-15.  A 40-digit mpmath check of a dense grid is in the tests.
_CLAUSEN_ERR = 4e-15


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
    theta: float = 0.0  # radians, consulted for FIXED_ANGLE / OPTICALLY_ACTIVE
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
    """Convergence policy for the reduced series."""

    rel_tol: float = 1e-10
    max_m: int = 10**6
    order: str = "m_first"  # or "n_first"
    max_n: int = 10**6

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if self.max_m < 1 or self.max_n < 1:
            raise ValueError("max_m and max_n must be >= 1")
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


def _canonical_theta(theta: float) -> float:
    """Fold theta into [0, pi/2]; cos(2 m theta) is even and pi-periodic.

    Uses the extended-precision pi tail so that folding is bit-exact under
    theta -> -theta and stays within ~1e-16 of exact under theta -> theta+pi.
    Rejects |theta| > 1e15 rad, beyond which the fold is not accurate.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if abs(theta) > _MAX_ABS_THETA:
        raise ValueError(f"|theta| must be at most {_MAX_ABS_THETA:g} rad, where folding "
                         f"into [0, pi/2] is accurate, got {theta!r}")
    r = math.remainder(theta, math.pi)
    k = round((theta - r) / math.pi)
    r -= k * PI_LO
    t = abs(r)
    if t > 0.5 * math.pi:
        t = math.pi - t
    return t


# m-series chunks: 32 terms, doubling up to 4096 per chunk.  The schedule is
# the same for every batch, so a point gives bit-identical results alone or
# batched with others.
_FIRST_CHUNK = 32
_LAST_CHUNK = 4096
# Rounding charged per m-series term: EPS * weight/m^3 * (_TERM_ULPS + a + m phi).
# _TERM_ULPS covers the at most 26 ulps of error of the pressure term (17 for
# the energy): 2 each from exp and expm1, 1 from each division, sum and
# product in the weight, 2 from 1/m^3 and 1 from the product with it, 2 of
# absolute error from the cosine, 1 from the product with it and 1 from the
# exact per-chunk sum.  a = 2 m tau bounds the relative change of the weight
# when a is rounded, and m phi the absolute change of cos(m phi) when m phi is.
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

    def floor(self, theta: float, tau: float, base_err: float) -> float:
        """Zero-mode error plus the rounding charge of every term the series can sum.

        With mag_m = weight(2 m tau)/m^3 <= min(weight(2 tau)/m^3, k/(2 tau m^4)),
        sum mag_m and sum m mag_m are bounded in closed form; the charge is
        EPS sum_m mag_m (_TERM_ULPS + a_m + m phi).
        """
        a1 = 2.0 * tau
        y = math.exp(-a1)
        dm = math.expm1(-a1)
        w1 = self.weight(y, y / -dm, -a1 / dm)
        s0 = min(ZETA_3 * w1, self.k * ZETA_4 / a1)  # >= sum mag_m
        s1 = min(ZETA_2 * w1, self.k * ZETA_3 / a1)  # >= sum m mag_m
        return base_err + _EPS * (_TERM_ULPS * s0 + (a1 + 2.0 * theta) * s1)


_ENERGY = _MSeries(pressure=False, k=2.0)
_PRESSURE = _MSeries(pressure=True, k=6.0)


@functools.lru_cache(maxsize=16)
def _chunk_m(lo: int, hi: int):
    """m and 1/m^3 over lo..hi+1 (the extra m feeds the tail bounds), -1/(2 m^2) over lo..hi."""
    m = np.arange(lo, hi + 2, dtype=np.float64)
    return m, 1.0 / (m * m * m), -0.5 / (m[:-1] * m[:-1])


def _chunks(max_m: int):
    lo, size = 1, _FIRST_CHUNK
    while lo <= max_m:
        hi = min(lo + size - 1, max_m)
        yield lo, hi
        lo = hi + 1
        size = min(2 * size, _LAST_CHUNK)


def _m_series(points, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
              series: _MSeries) -> list[EvalResult]:
    """base(theta) - sum_m cos(2 m theta) weight(2 m tau)/m^3 at folded (theta, tau) points.

    base is the closed-form zero mode, doubled for the pressure.  Each point
    runs through the terms a chunk at a time and stops at its first m where
      * tail(m) + floor <= rel_tol |S_m|: certified;
      * tail(m) <= rel_tol |S_m| < floor: the error floor, which no number
        of further terms can get under;
      * m = max_m.
    tail(m) = min(k/(6 tau m^3), weight_{m+1}/(2 m^2), weight_{m+1}/((m+1)^3 sin theta))
    bounds the terms beyond m, where weight_{m+1} = weight(2(m+1) tau), and
    floor is _MSeries.floor.  The running sums S_m that decide
    where to stop are float cumulative sums on top of the exact sum of the
    earlier chunks.  The value is the exact sum (math.fsum) of the base and
    the per-chunk exact sums, rounded once; that rounding is charged too.

    Points run one after another, each vectorised over m, so a point's
    result does not depend on the batch it came in.  For the one to four
    points a call carries, broadcasting them together measured slower.
    """
    scale = 2.0 if series.pressure else 1.0
    results = []
    for theta, tau in points:
        # from tau = 400 on every weight underflows to exactly 0; capping tau
        # changes no result and keeps a and a^2 finite in the weights
        tau = min(tau, 1e3)
        base, base_err = _zero_mode_base(theta, zero_mode)
        parts = [scale * base]  # the base, then the exact sum of each finished chunk
        head = parts[0]  # sum before the chunk
        floor = series.floor(theta, tau, scale * base_err)
        phi, neg_2tau, tail_alg = 2.0 * theta, -2.0 * tau, series.k / (6.0 * tau)
        # Abel summation: partial sums of cos(2 m theta) are at most
        # 1/sin(theta); below 1e-8 this bound only wins past m ~ 1e8
        neg_abel = -1.0 / math.sin(theta) if theta >= 1e-8 else 0.0
        for lo, hi in _chunks(ctrl.max_m):
            m, inv_m3, neg_inv_2m2 = _chunk_m(lo, hi)
            na = neg_2tau * m  # -a = -2 m tau, with one extra m for the tail
            y = np.exp(na)
            dm = np.expm1(na)  # -d
            neg_weight = series.weight(y, y / dm, na / dm)  # q < 0 here: -weight
            neg_mag = neg_weight * inv_m3
            terms = np.cos(phi * m[:-1]) * neg_mag[:-1]
            # bounds on the terms beyond m: algebraic, exponential and Abel
            tail = np.minimum(tail_alg * inv_m3[:-1], neg_weight[1:] * neg_inv_2m2)
            if neg_abel:
                tail = np.minimum(tail, neg_mag[1:] * neg_abel)
            target = ctrl.rel_tol * np.abs(head + np.add.accumulate(terms))
            # slack >= floor certifies; slack >= 0 suffices where target < floor
            stop = target - tail >= floor * (target >= floor)
            if hi == ctrl.max_m:
                stop[-1] = True
            j = int(stop.argmax())
            if stop[j]:
                parts.append(math.fsum(terms[:j + 1].tolist()))
                value = math.fsum(parts)
                tail_j = float(tail[j])
                err = tail_j + floor + _EPS * abs(value)
                certified = tail_j + floor <= target[j] and _meets(err, ctrl.rel_tol, value)
                results.append(EvalResult(value, err, lo + j, certified))
                break
            parts.append(math.fsum(terms.tolist()))
            head = math.fsum(parts)
    return results


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


def _sum_n_first(theta: float, tau: float, ctrl: SeriesControl, base: float,
                 base_err: float, per_n, tail) -> EvalResult:
    whole = tail(0, tau)  # bounds all n >= 1 terms, so |value| <= |base| + whole
    if not tail(ctrl.max_n, tau) + base_err <= ctrl.rel_tol * (abs(base) + whole) < math.inf:
        # max_n terms cannot meet rel_tol however they cancel: refuse up front
        return EvalResult(base, base_err + whole, 1, False)
    total = base
    acc_err = base_err
    small = 0
    n = 0
    converged = False
    err = math.inf
    while n < ctrl.max_n:
        n += 1
        term, term_err = per_n(n)
        total += term
        acc_err += term_err
        if abs(term) <= ctrl.rel_tol * abs(total):
            small += 1
            if small >= 3:
                err = acc_err + tail(n, tau)
                if err <= ctrl.rel_tol * abs(total):
                    converged = True
                    break
                if acc_err > ctrl.rel_tol * abs(total):
                    # accumulated roundoff alone exceeds the target; later
                    # terms only add to it, so bail out honestly
                    break
        else:
            small = 0
    if not converged:
        err = acc_err + tail(n, tau)
    return EvalResult(total, err, n + 1, converged and _meets(err, ctrl.rel_tol, total))


def _validate_point(p: ReducedPoint) -> None:
    if p.tau <= 0.0:
        raise ValueError(
            "tau must be positive for the thermal series; use the *_T0 "
            "closed forms at zero temperature"
        )
    if p.tau < 1e-300:
        raise ValueError(f"tau must be at least 1e-300, below which the series, which "
                         f"grows like 1/tau, overflows; got {p.tau!r}")
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
    ctrl = ctrl or SeriesControl()
    _validate_point(p)
    theta = _canonical_theta(p.theta)
    return _reduced([(theta, p.tau)], ctrl, zero_mode, _ENERGY)[0]


def _reduced(points, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
             series: _MSeries) -> list[EvalResult]:
    """Reduced free energies or pressures at folded (theta, tau) points."""
    if ctrl.order == "m_first":
        return _m_series(points, ctrl, zero_mode, series)
    n_first = _pressure_n_first if series.pressure else _free_energy_n_first
    return [n_first(theta, tau, ctrl, zero_mode) for theta, tau in points]


def _free_energy_n_first(theta: float, tau: float, ctrl: SeriesControl,
                         zero_mode: ZeroModePolicy) -> EvalResult:
    base, base_err = _zero_mode_base(theta, zero_mode)
    phi = 2.0 * theta

    def per_n(n: int) -> tuple[float, float]:
        a = 2.0 * n * tau
        if a > 745.0:  # e^{-a} underflows; term is identically zero at double precision
            return 0.0, 0.0
        r = math.exp(-a)
        li3, b3 = re_polylog_damped(3, r, phi, with_bound=True)
        li2, b2 = re_polylog_damped(2, r, phi, with_bound=True)
        term = -(li3 + a * li2)
        return term, b3 + a * b2 + 2e-16 * abs(term)

    return _sum_n_first(theta, tau, ctrl, base, base_err, per_n, _energy_tail_n)


def reduced_free_energy_T0(theta: float) -> float:
    """Zero-temperature reduced free energy E_c l^3 / (hbar c), exact closed form."""
    t = _canonical_theta(theta)
    return -clausen_cos(4, 2.0 * t) / EIGHT_PI2


def reduced_pressure(p: ReducedPoint, ctrl: SeriesControl | None = None,
                     zero_mode: ZeroModePolicy = ZeroModePolicy.FULL) -> EvalResult:
    """Reduced pressure P * 4 pi beta l^3 at fixed temperature and fixed angle.

    Term-wise l-derivative of the free-energy series: P_hat = 2 E_hat -
    tau dE_hat/dtau.  Negative means attraction.
    """
    ctrl = ctrl or SeriesControl()
    _validate_point(p)
    theta = _canonical_theta(p.theta)
    return _reduced([(theta, p.tau)], ctrl, zero_mode, _PRESSURE)[0]


def _pressure_n_first(theta: float, tau: float, ctrl: SeriesControl,
                      zero_mode: ZeroModePolicy) -> EvalResult:
    # the tau-independent n=0 part contributes twice its free-energy value
    base, base_err = _zero_mode_base(theta, zero_mode)
    base, base_err = 2.0 * base, 2.0 * base_err
    phi = 2.0 * theta

    def per_n(n: int) -> tuple[float, float]:
        a = 2.0 * n * tau
        if a > 745.0:
            return 0.0, 0.0
        r = math.exp(-a)
        li3, b3 = re_polylog_damped(3, r, phi, with_bound=True)
        li2, b2 = re_polylog_damped(2, r, phi, with_bound=True)
        li1 = -0.5 * log_det_kernel(r, theta)  # Re Li_1(r e^{2 i theta}), closed form
        # the kernel's log argument carries up to 7 ulps, an absolute error
        # that dominates li1 when r is tiny; there |exact li1| <= r/(1-r)
        li1_err = min(3.9e-16 + 2.3e-16 * abs(li1), r / (1.0 - r) + abs(li1))
        term = -(2.0 * li3 + 2.0 * a * li2 + a * a * li1)
        err = 2.0 * b3 + 2.0 * a * b2 + a * a * li1_err + 2e-16 * abs(term)
        return term, err
    return _sum_n_first(theta, tau, ctrl, base, base_err, per_n, _pressure_tail_n)


def reduced_pressure_T0(theta: float) -> float:
    """Zero-temperature reduced pressure P l^4 / (hbar c) = 3 x the T=0 energy."""
    return 3.0 * reduced_free_energy_T0(theta)


def classical_limit_reduced(theta: float) -> float:
    """tau -> infinity limit of the reduced free energy (full zero-mode policy)."""
    return -0.5 * clausen_cos(3, 2.0 * _canonical_theta(theta))


def matsubara_term(n: int, p: ReducedPoint) -> float:
    """Reduced contribution of Matsubara index n (before the n=0 half weight).

    n = 0 gives -clausen_cos(3, 2 theta) (full policy); n >= 1 needs tau > 0.
    """
    if n < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {n!r}")
    theta = _canonical_theta(p.theta)
    if n == 0:
        return -clausen_cos(3, 2.0 * theta)
    if p.tau <= 0.0:
        raise ValueError("positive tau required for n >= 1 Matsubara terms")
    a = 2.0 * n * p.tau
    if a > 745.0:
        return 0.0
    r = math.exp(-a)
    return -(re_polylog_damped(3, r, 2.0 * theta) + a * re_polylog_damped(2, r, 2.0 * theta))


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
    return 2.0 * math.pi * separation * K_BOLTZMANN * temperature / (HBAR * C_LIGHT)


def _unit_scales(separation: float, temperature: float) -> tuple[float, float]:
    """Factors taking the reduced free energy and pressure to J/m^2 and Pa.

    At T = 0 the reduced quantities are E l^3/(hbar c) and P l^4/(hbar c);
    otherwise E 4 pi beta l^2 and P 4 pi beta l^3.
    """
    if temperature == 0.0:
        return HBAR * C_LIGHT / separation**3, HBAR * C_LIGHT / separation**4
    return (K_BOLTZMANN * temperature / (4.0 * math.pi * separation**2),
            K_BOLTZMANN * temperature / (4.0 * math.pi * separation**3))


def _scaled(res: EvalResult, scale: float) -> EvalResult:
    return EvalResult(res.value * scale, res.error_estimate * scale, res.terms_used, res.converged)


def _physical_free_energies(cfgs, ctrl: SeriesControl) -> list[EvalResult]:
    """Free energies in J/m^2 of configurations sharing temperature and zero-mode policy."""
    if cfgs[0].temperature == 0.0:
        out = []
        for cfg in cfgs:
            value = reduced_free_energy_T0(effective_theta(cfg))
            err = 1e-15  # polynomial closed form, roundoff level in reduced units
            out.append(_scaled(EvalResult(value, err, 0, _meets(err, ctrl.rel_tol, value)),
                               _unit_scales(cfg.separation, 0.0)[0]))
        return out
    points = [(_canonical_theta(effective_theta(cfg)),
               reduced_temperature(cfg.separation, cfg.temperature)) for cfg in cfgs]
    results = _reduced(points, ctrl, cfgs[0].zero_mode, _ENERGY)
    return [_scaled(res, _unit_scales(cfg.separation, cfg.temperature)[0])
            for res, cfg in zip(results, cfgs)]


def physical_free_energy(cfg: CavityConfig, ctrl: SeriesControl | None = None) -> EvalResult:
    """Free energy per unit area in J/m^2 for the given physical scenario."""
    return _physical_free_energies([cfg], ctrl or SeriesControl())[0]


def physical_pressure(cfg: CavityConfig, ctrl: SeriesControl | None = None) -> EvalResult:
    """Pressure in Pa; negative means the plates attract.

    Fixed-angle and optically active media differentiate the series
    analytically.  In a Faraday medium the angle itself scales with the
    separation, so the derivative is taken by Richardson-extrapolated central
    differences of the free energy with step l * 1e-5, its four energies
    summed in one batch; its convergence is certified against
    max(rel_tol, 1e-6), the honest noise floor of the stencil.
    """
    ctrl = ctrl or SeriesControl()
    if cfg.kind is not MediumKind.FARADAY:
        theta = effective_theta(cfg)
        scale = _unit_scales(cfg.separation, cfg.temperature)[1]
        if cfg.temperature == 0.0:
            value = reduced_pressure_T0(theta)
            err = 3e-15
            return _scaled(EvalResult(value, err, 0, _meets(err, ctrl.rel_tol, value)), scale)
        tau = reduced_temperature(cfg.separation, cfg.temperature)
        return _scaled(_reduced([(_canonical_theta(theta), tau)], ctrl, cfg.zero_mode,
                                _PRESSURE)[0], scale)

    inner = replace(ctrl, rel_tol=min(ctrl.rel_tol, 1e-12))
    l = cfg.separation
    h = 1e-5 * l
    stencil = _physical_free_energies(
        [replace(cfg, separation=sep) for sep in (l + h, l - h, l + 0.5 * h, l - 0.5 * h)], inner)
    e = [res.value for res in stencil]
    terms = sum(res.terms_used for res in stencil)
    d_h = -(e[0] - e[1]) / (2.0 * h)
    d_h2 = -(e[2] - e[3]) / h
    value = (4.0 * d_h2 - d_h) / 3.0
    if not math.isfinite(value):
        return EvalResult(math.nan, math.inf, terms, False)
    err = abs(value - d_h2)  # Richardson defect dominates the stencil error
    fd_tol = max(ctrl.rel_tol, 1e-6)
    return EvalResult(value, err, terms, _meets(err, fd_tol, value))
