"""Trigonometric polylogarithm sums on and inside the unit circle.

Everything downstream reduces to three families:

    clausen_cos(s, phi)          Sum_{m>=1} cos(m phi)/m^s  = Re Li_s(e^{i phi})
    clausen_sin(s, phi)          Sum_{m>=1} sin(m phi)/m^s  = Im Li_s(e^{i phi})
    re_polylog_damped(s, r, phi) Sum_{m>=1} r^m cos(m phi)/m^s = Re Li_s(r e^{i phi})

with s in {2, 3, 4}, and their real-argument twin

    polylog_exp(s, mu)           Sum_{m>=1} e^{-m mu}/m^s    = Li_s(e^{-mu})

with s in {1, 2, 3} (polylog_exp_23 gives s = 2 and 3 in one pass), which
the low-temperature image sum uses.  Even orders of the cosine family and
s=3 of the sine family have exact Bernoulli-polynomial closed forms on
[0, 2pi]; the remaining circle cases (cos s=3, sin s=2 and s=4) are
evaluated by log-accelerated expansions whose coefficients are exact
Bernoulli-number rationals rounded once, good to a few 1e-15 absolute, and
so is polylog_exp below mu = 1, where the same rationals give its log
expansion.  The damped sums, and polylog_exp above mu = 1, are summed
directly with a geometric tail bound.

Every angle goes through one fold, fold_pi, which subtracts the nearest
multiple of pi with its PI_LO tail: phi is reduced as 2 fold_pi(phi/2), into
[-pi, pi], and the even (cosine) and odd (sine) symmetries take it to
[0, pi].  |phi| above 2 MAX_FOLD = 2e15 is a ValueError, as is a non-finite
phi.  The engine folds theta with the same routine.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math

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
    if abs(x) <= 0.5 * math.pi:  # already folded: the steps below would return x itself
        return x
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
    at engine._CLAUSEN_ERR).  s=4 is the factored form
    zeta(4) - (x (2 pi - x))^2/48, whose absolute error for x = 2 theta,
    theta folded into [0, pi/2] by the engine, is below 2.5e-15 (derived at
    engine._CL4_ERR).  Worst absolute error on 4,001 points of [-20, 20]
    against mpmath: 1.0e-15, 8.8e-16 and 9.7e-16 for s=2, 3, 4.
    |phi| <= 2e15.
    """
    n = _order(s)
    x = abs(_fold_phi(phi))  # even
    if n == 2:
        return ZETA_2 - math.pi * x / 2.0 + x * x / 4.0
    if n == 4:
        v = x * (TWO_PI - x)
        return ZETA_4 - v * v / 48.0
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


# polylog_exp uses the log expansions below _LOG_MU and the direct sum above.
# The expansions cancel more as mu grows (their rounding bound is 17u of
# Li_3 at mu = 1 and 129u at mu = 2), the direct sum's terms fall more
# slowly as mu shrinks (43 at mu = 1).
_LOG_MU = 1.0
# (1/k^2, 1/k^3) at index k - 1, each rounded once, for the direct sums of
# 1 + int(42/mu) <= 43 terms
_INV_POW_23 = [(1.0 / k**2, 1.0 / k**3) for k in range(1, 44)]
# (sin2[j], cos3[j+1]) for j = 12 down to 1: below mu = 1 the alternating
# tails fall by more than (2 pi)^2 a term, so what the 12 leave out is below
# (2 pi)^-24 = 7e-20 of their first terms (Li_2's below 0.014, Li_3's below
# 0.0035)
_LOG_TAILS = list(zip(_S2_COEF[1:13], _C3_COEF[2:14]))[::-1]


def polylog_exp(s, mu: float) -> float:
    """Li_s(e^{-mu}) = Sum_{k>=1} e^{-k mu}/k^s for s in {1, 2, 3} and mu >= 0.

    Li_1 = -ln(1 - e^{-mu}) is a closed form (+inf at mu = 0); s = 2 and 3
    are polylog_exp_23's.  The relative error is below 17u, u = 2^-53
    (derived at engine._LI_ULPS); where e^{-mu} is subnormal (mu > 708) the
    absolute error is below 1e-322.
    """
    if s not in (1, 2, 3) or not mu >= 0.0:
        raise ValueError(f"polylog_exp takes s in (1, 2, 3) and mu >= 0, got s={s!r}, mu={mu!r}")
    if s > 1:
        return polylog_exp_23(mu)[s - 2]
    if mu < 0.6931471805599453:  # ln 2: e^{-mu} > 1/2, so 1 - e^{-mu} from expm1
        return -math.log(-math.expm1(-mu)) if mu else math.inf
    return -math.log1p(-math.exp(-mu))


def polylog_exp_23(mu: float) -> tuple[float, float]:
    """(Li_2(e^{-mu}), Li_3(e^{-mu})) for mu >= 0, in one pass.

    From mu = 1 on the direct sums, by Horner's rule over their first
    1 + int(42/mu) terms, which leaves out less than 2e-19 of them.  Below,
    the log expansions of DLMF 25.12.12,
        Sum_{j != s-1} zeta(s-j) (-mu)^j/j! + (-mu)^{s-1}/(s-1)! (H_{s-1} - ln mu),
    whose zeta(1-2i) = -B_{2i}/(2i) are the Clausen coefficients' Bernoulli
    rationals: the expansions of Sl2 and Cl3 in mu with mu^2 -> -mu^2.
    """
    if mu >= _LOG_MU:
        rho, acc2, acc3 = math.exp(-mu), 0.0, 0.0
        # the first k = 1 + int(42/mu) terms: e^{-k mu} < e^{-42}
        for inv2, inv3 in _INV_POW_23[int(42.0 / mu)::-1]:
            acc2, acc3 = acc2 * rho + inv2, acc3 * rho + inv3
        return acc2 * rho, acc3 * rho
    if not mu:
        return ZETA_2, ZETA_3
    mu2, log_mu, t2, t3 = mu * mu, math.log(mu), 0.0, 0.0
    for c2, c3 in _LOG_TAILS:  # the Bernoulli tails, by Horner's rule in -mu^2
        t2, t3 = t2 * -mu2 + c2, t3 * -mu2 + c3
    # zeta(2) - mu (1 - ln mu) - mu^2/4 + Sum_{j>=1} (-1)^{j+1} sin2[j] mu^{2j+1}
    # and zeta(3) - zeta(2) mu + (mu^2/2)(3/2 - ln mu) + mu^3/12
    #     + Sum_{j>=2} (-1)^{j+1} cos3[j] mu^{2j}
    return (ZETA_2 - mu * (1.0 - log_mu) - 0.25 * mu2 + t2 * (mu2 * mu),
            ZETA_3 - ZETA_2 * mu + 0.5 * mu2 * (1.5 - log_mu) + mu2 * mu / 12.0
            - t3 * (mu2 * mu2))


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
    import numpy as np  # on first use: only n_first and matsubara_term sum these

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
