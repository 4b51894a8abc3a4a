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

Every angle goes through one fold, fold_pi, which subtracts the nearest
multiple of pi with its PI_LO tail: phi is reduced as 2 fold_pi(phi/2), into
[-pi, pi], and the even (cosine) and odd (sine) symmetries take it to
[0, pi].  |phi| above 2 MAX_FOLD = 2e15 is a ValueError, as is a non-finite
phi.  The engine folds theta with the same routine.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["clausen_cos", "clausen_sin", "re_polylog_damped"]

TWO_PI = 2.0 * math.pi
PI_LO = 1.2246467991473532e-16  # float(pi) + PI_LO ~ pi to ~3e-33

# Beyond this |x| fold_pi loses accuracy: k = round(x / pi) would no longer be
# exact past about 2^51, and k * PI_LO would leave [-pi/2, pi/2] past about
# 4e16.  Up to it the fold is within 1.9e-16 of x minus its nearest multiple
# of the exact pi.
MAX_FOLD = 1e15

ZETA_2 = math.pi**2 / 6.0
ZETA_3 = 1.2020569031595942854
ZETA_4 = math.pi**4 / 90.0


def _order(s: int) -> int:
    """The series order s, checked: only s in {2, 3, 4} arises in the reduced series."""
    if s not in (2, 3, 4):
        raise ValueError(f"polylog order must be 2, 3 or 4, got {s!r}")
    return s


def fold_pi(x: float, name: str, scale: float = 1.0) -> float:
    """x minus its nearest multiple of pi, in [-pi/2, pi/2] up to the PI_LO tail.

    Rejects non-finite x and |x| > MAX_FOLD.  The caller's argument is
    scale * x; the errors name it and give its limit, MAX_FOLD * scale.
    """
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x * scale!r}")
    if abs(x) > MAX_FOLD:
        raise ValueError(f"|{name}| must be at most {MAX_FOLD * scale:g} rad, where folding "
                         f"is accurate, got {x * scale!r}")
    r = math.remainder(x, math.pi)  # exact
    k = round((x - r) / math.pi)
    return r - k * PI_LO


def _fold_phi(phi: float) -> float:
    # phi minus its nearest multiple of 2 pi, in [-pi, pi]; halving and
    # doubling are exact outside the subnormal range
    return 2.0 * fold_pi(0.5 * phi, "phi", 2.0)


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


def _bern_tail(coefs, phi2: float, p: float, j: int) -> float:
    # Sum_{k>=j} coefs[k] p phi2^{k-j}, with p the power of phi that
    # multiplies coefs[j]; phi <= pi so the ratio < (pi/2pi)^2 ~ 1/4.
    total = 0.0
    for k in range(j, _NBERN + 1):
        term = coefs[k] * p
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
    phi2 = phi * phi
    tail = _bern_tail(_C3_COEF, phi2, phi2 * phi2, 2)
    return ZETA_3 + 0.5 * phi * phi * (math.log(phi) - 1.5) - tail


def _clausen_sin_2(phi: float) -> float:
    # Sl2(phi) = phi(1 - ln phi) + Sum_{j>=1} |B_2j| phi^{2j+1}/(2j (2j+1)!)
    if phi == 0.0:
        return 0.0
    phi2 = phi * phi
    return phi * (1.0 - math.log(phi)) + _bern_tail(_S2_COEF, phi2, phi2 * phi, 1)


def _clausen_sin_4(phi: float) -> float:
    # Sl4(phi) = zeta(3) phi + (phi^3/6)(ln phi - 11/6) - Sum_{j>=2} c_j phi^{2j+1}
    if phi == 0.0:
        return 0.0
    phi2 = phi * phi
    return (
        ZETA_3 * phi
        + phi**3 / 6.0 * (math.log(phi) - 11.0 / 6.0)
        - _bern_tail(_S4_COEF, phi2, phi2 * phi2 * phi, 2)
    )


def clausen_cos(s, phi: float) -> float:
    """Sum_{m>=1} cos(m phi)/m^s.

    phi is folded into [0, pi] (even).  s=2 and s=4 use the exact
    Bernoulli-polynomial closed forms there, wrong only by rounding.  s=3 uses
    the accelerated log expansion, with absolute error below 4e-15 (derived
    at engine._CLAUSEN_ERR).  Worst absolute error on 4,001 points of
    [-20, 20] against mpmath: 1.0e-15, 8.9e-16 and 2.1e-15 for s=2, 3, 4.
    |phi| <= 2e15.
    """
    n = _order(s)
    x = abs(_fold_phi(phi))  # even
    if n == 2:
        return ZETA_2 - math.pi * x / 2.0 + x * x / 4.0
    if n == 4:
        x2 = x * x
        return ZETA_4 - math.pi**2 * x2 / 12.0 + math.pi * x2 * x / 12.0 - x2 * x2 / 48.0
    return _clausen_cos_3(x)


def clausen_sin(s, phi: float) -> float:
    """Sum_{m>=1} sin(m phi)/m^s.

    phi is folded into [0, pi] (odd).  s=3 is the exact Bernoulli
    polynomial; s=2 and s=4 use log expansions.  Worst absolute error on
    4,001 points of [-20, 20] against mpmath: 5.8e-16, 4.4e-16 and 1.3e-15
    for s=2, 3, 4.  Within d of a multiple of 2pi the slope of s=2 is
    ln(1/d), so the fold's rounding costs up to 2.5e-16 ln(1/d) there.
    |phi| <= 2e15.
    """
    n = _order(s)
    r = _fold_phi(phi)
    x = abs(r)
    sign = math.copysign(1.0, r)  # odd
    if n == 3:
        return sign * x * (x - math.pi) * (x - TWO_PI) / 12.0
    if n == 2:
        return sign * _clausen_sin_2(x)
    return sign * _clausen_sin_4(x)


_MAX_TERMS = 1 << 28  # enough for r = 1 - 1e-6 at s = 2


def _damped_chunks():
    """(first m, last m) of each chunk that re_polylog_damped sums."""
    lo, chunk = 1, 256
    while lo <= _MAX_TERMS:
        yield lo, lo + chunk - 1
        lo += chunk
        chunk = min(2 * chunk, 1 << 22)


_LAST_M = max(hi for _, hi in _damped_chunks())  # 272,629,504


def _tail(n: int, log_r: float, one_minus: float, hi: int) -> tuple[float, bool]:
    """log of the bound r^{hi+1}/((hi+1)^s (1-r)) on the terms beyond hi, and whether it is met."""
    log_tail = (hi + 1) * log_r - n * math.log(hi + 1) - math.log(one_minus)
    return log_tail, log_tail < -30.0 or math.exp(log_tail) <= 1e-13


def re_polylog_damped(s, r: float, phi: float, with_bound: bool = False):
    """Sum_{m>=1} r^m cos(m phi)/m^s for 0 <= r < 1, abs error <= 1e-13.

    Direct summation in geometrically growing chunks; stops once the tail
    bound r^{M+1}/((M+1)^s (1-r)) drops below 1e-13.  with_bound=True also
    returns the achieved bound (tail at the stopping point plus roundoff),
    which is usually far below the 1e-13 contract.  |phi| <= 2e15.  Where
    the last chunk, past 2^28 terms, would not meet the bound (r within
    about 1e-8 of 1), raises RuntimeError at once.
    """
    n = _order(s)
    if not (0.0 <= r < 1.0):
        raise ValueError(f"damping must satisfy 0 <= r < 1, got {r!r}")
    if r == 0.0:
        return (0.0, 0.0) if with_bound else 0.0
    x = abs(_fold_phi(phi))  # even
    log_r = math.log(r)
    one_minus = 1.0 - r
    # the bound falls with m, so some chunk end meets it iff the last one does
    if not _tail(n, log_r, one_minus, _LAST_M)[1]:
        raise RuntimeError(f"series for r={r} did not meet the 1e-13 tail bound")
    total = 0.0
    for lo, hi in _damped_chunks():
        m = np.arange(lo, hi + 1, dtype=np.float64)
        total += float(np.sum(np.exp(m * log_r) * np.cos(m * x) / m**n))
        log_tail, met = _tail(n, log_r, one_minus, hi)
        if met:
            break
    if not with_bound:
        return total
    tail = 0.0 if log_tail < -700.0 else math.exp(log_tail)
    return total, tail + 3e-16 * min(r / one_minus, float(hi))
