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
Bernoulli-number rationals rounded once, good to a few 1e-15 absolute.
polylog_exp and the damped sums share one constant-cost algorithm in
mu = -ln r - i phi (r e^{i phi} = e^{-mu}; real for polylog_exp): below
Re mu = 1 the same rationals give the log expansion in mu, from Re mu = 1
on Horner's rule sums the first 1 + int(42/Re mu) terms directly.

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
_EPS = 2.0**-53  # unit roundoff

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


def _clausen_cos_4(x: float) -> float:
    # Cl4(x) = zeta(4) - (x (2 pi - x))^2/48 for x in [0, pi], the folded
    # argument: clausen_cos(4, .) and the engine's image sum both use it
    v = x * (TWO_PI - x)
    return ZETA_4 - v * v / 48.0


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
        return _clausen_cos_4(x)
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
# slowly as mu shrinks (43 at mu = 1).  re_polylog_damped splits at the
# same Re mu.
_LOG_MU = 1.0
# 1/k^s at index k - 1 for s = 2, 3, 4, each rounded once, for the direct
# sums of 1 + int(42/mu) <= 43 terms; polylog_exp_23 takes s = 2 and 3 in pairs
_INV_POW = {s: [1.0 / k**s for k in range(1, 44)] for s in (2, 3, 4)}
_INV_POW_23 = list(zip(_INV_POW[2], _INV_POW[3]))
# re_polylog_damped's direct sums, built once: _DAMPED_HORNER[s][K - 1] is
# 1/K^s, ..., 1/1^s, the Horner sequence of its first K = 1 + int(42/a) terms
_DAMPED_HORNER = {s: [tuple(inv[k::-1]) for k in range(43)] for s, inv in _INV_POW.items()}
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


# The Bernoulli tails of re_polylog_damped's log expansions, reversed for
# Horner's rule: sin2[j], j = 1..31, multiplies mu^{2j+1} (s = 2), cos3[j],
# j = 2..29, mu^{2j} (s = 3) and sin4[j], j = 2..27, mu^{2j+1} (s = 4).  The
# terms fall by at least w = |mu|^2/(2 pi)^2 < 0.276 a step, so at
# |mu|^2 < 1 + pi^2 those left out sum to below 1e-20 (tested).
_DAMPED_TAILS = {2: _S2_COEF[1:32][::-1], 3: _C3_COEF[2:30][::-1], 4: _S4_COEF[2:28][::-1]}

# Absolute error of re_polylog_damped(s, r, phi), the bound with_bound
# returns.  u = 2^-53; each float operation rounds by at most u, a complex
# product by sqrt(5) u of its modulus, a complex sum by u of its modulus
# (where one operand is real only the real part rounds), and log, log1p,
# cos, sin, atan2 and hypot are within 1 ulp, 2u of their results.
#   * x = |phi| is exact for |phi| <= pi; a folded phi leaves x within
#     dx = u x + 8.6e-18 (fold_pi), and d/dx Re Li_s(r e^{ix}) is
#     -Im Li_{s-1}(r e^{ix}), so dx costs at most dx |Li_{s-1}|.
#   * a = -ln r >= 1, Horner's rule on Sum_{k<=K} rho^k/k^s: rho from r cos x
#     and r sin x is within 3u |rho|; term k carries that k times, sqrt(5) u
#     from each of its k products, u from each of its k sums and u from
#     1/k^s: u (6.24 k + 1) r^k/k^s, and k dx r^k/k^s.  With
#     Sum_k k r^k/k^s = Li_{s-1}(r) and Li_{s-1}(r), Li_s(r) <= Li_1(r):
#         (7.24u + dx) Li_1(r),   Li_1(r) = -log1p(-r).
#     The terms left out, k > K = 1 + int(42/a), sum to below
#     e^{-42} r/((K + 1)^2 (1 - r)) <= 2.3e-19 r < 0.01u Li_1(r).  A
#     subnormal r (K = 1) rounds r cos x by 2^-1075 more.
#   * a < 1, the log expansion in mu = a - ix, |mu|^2 < 1 + pi^2:
#       - mu is off by 2u a (the log) plus dx, which moves Li_s by at most
#         that times max |Li_{s-1}|: -ln(1 - r) + pi/2 for s = 2 (that is
#         |ln(1 - rho)|, |arg(1 - rho)| < pi/2), zeta(2) and zeta(3) for
#         s = 3 and 4.
#       - the Bernoulli tail t = Sum_j c_j (-mu^2)^{j-1}, by Horner's rule:
#         the c_j fall by more than (2 pi)^2 a step, so its terms by
#         w = |mu|^2/(2 pi)^2 < 0.276.  Term j carries u from c_j and (j - 1)
#         times sqrt(5) u from mu^2, sqrt(5) u from a product and u from a
#         sum: u c_1 Sum_j (1 + 5.48 (j - 1)) w^{j-1} <= 4.26u c_1, and
#         |t| >= c_1 (1 - w/(1 - w)) = 0.62 c_1, so 6.9u |t|.  The terms
#         left out sum to below 1e-20 (_DAMPED_TAILS).
#       - lg = ln mu, from log(hypot(a, x)) and atan2, is within 2u + 2u |lg|.
#       - the parts P are summed left to right, each sum rounding by u of the
#         moduli so far, so the first two pay u a sum and each later one one
#         sum fewer.  Per part, in u |P|, its own rounding + its share of
#         the sums (mu^2 carries 2.24, mu^3 4.47, mu^4 6.71):
#           s = 2: zeta(2) 0.17 + 3; -mu (1 - lg) 5.24 + 3, and 4u |mu| from
#                  the absolute 2u + 2u of lg and 1 - lg; -mu^2/4 2.24 + 2;
#                  t mu^3 13.6 + 1
#           s = 3: zeta(3) 0.37 + 4; -zeta(2) mu 1.17 + 4;
#                  mu^2 (3/2 - lg)/2 7.48 + 3, and 2.5u |mu|^2;
#                  mu^3/12 5.47 + 2; -t mu^4 15.9 + 1
#           s = 4: zeta(4) 2.7e-16 absolute + 5; -zeta(3) mu 1.37 + 5;
#                  zeta(2) mu^2/2 3.41 + 4; -(mu^3/6)(11/6 - lg) 10.71 + 3,
#                  and 1.25u |mu|^3 (11/6 rounded adds 1.84u to lg's 2u);
#                  -mu^4/48 7.71 + 2; t mu^5 18.1 + 1
# Each constant below is its sum rounded up.  Worst error on 3,000 points
# (Re mu log-uniform on [1e-9, 316], x on [0, pi], edge and folded angles)
# against 40-digit mpmath: 0.69 of this bound; a 40-digit mpmath check of
# every branch is in the tests.


def re_polylog_damped(s, r: float, phi: float, with_bound: bool = False):
    """Re Li_s(r e^{i phi}) = Sum_{m>=1} r^m cos(m phi)/m^s for 0 <= r < 1, at constant cost.

    With mu = -ln r - i x, x = |phi| folded into [0, pi], r e^{ix} = e^{-mu}:
    from Re mu = 1 on the direct sum, by Horner's rule in r e^{ix} over its
    first 1 + int(42/Re mu) terms; below, the log expansion of DLMF 25.12.12
    in complex mu (polylog_exp_23's, with the same Bernoulli rationals),
    which converges since |mu| <= sqrt(1 + pi^2) < 2 pi.  with_bound=True
    also returns a bound on the absolute error, derived above: at most
    6e-16 for r <= 1/e, and 3.4e-14 anywhere (near r = 1/e and x = pi,
    where the log expansion cancels most).  |phi| <= 2e15.
    """
    if s not in (2, 3, 4):
        _order(s)  # raises
    if not (0.0 <= r < 1.0):
        raise ValueError(f"damping must satisfy 0 <= r < 1, got {r!r}")
    if r == 0.0:
        return (0.0, 0.0) if with_bound else 0.0
    x, dx = abs(phi), 0.0  # even
    if not x <= math.pi:  # folded, within dx of the exact fold (NaN and inf raise)
        x = abs(_fold_phi(phi))
        dx = _EPS * x + 8.6e-18
    a = -math.log(r)
    if a >= _LOG_MU:
        rho, acc = complex(r * math.cos(x), r * math.sin(x)), 0j
        for inv in _DAMPED_HORNER[s][int(42.0 / a)]:
            acc = acc * rho + inv
        value = (acc * rho).real
        if not with_bound:
            return value
        return value, (7.3 * _EPS + dx) * -math.log1p(-r) + 5e-324
    mu = complex(a, -x)
    mu2 = mu * mu
    z, t = -mu2, 0j
    for c in _DAMPED_TAILS[s]:
        t = t * z + c
    log_mu = complex(math.log(math.hypot(a, x)), -math.atan2(x, a))
    if s == 2:
        # zeta(2) - mu (1 - ln mu) - mu^2/4 + Sum_{j>=1} (-1)^{j+1} sin2[j] mu^{2j+1}
        p1, p2, p3 = -mu * (1.0 - log_mu), -0.25 * mu2, t * (mu2 * mu)
        value = (ZETA_2 + p1 + p2 + p3).real
        if not with_bound:
            return value
        rnd = 3.2 * ZETA_2 + 8.3 * abs(p1) + 4.0 * abs(mu) + 4.3 * abs(p2) + 14.7 * abs(p3)
        li_prev = 0.5 * math.pi - math.log1p(-r)
    elif s == 3:
        # zeta(3) - zeta(2) mu + (mu^2/2)(3/2 - ln mu) + mu^3/12
        #     + Sum_{j>=2} (-1)^{j+1} cos3[j] mu^{2j}
        p1, p2 = -ZETA_2 * mu, 0.5 * mu2 * (1.5 - log_mu)
        p3, p4 = mu2 * mu / 12.0, -t * (mu2 * mu2)
        value = (ZETA_3 + p1 + p2 + p3 + p4).real
        if not with_bound:
            return value
        rnd = (4.4 * ZETA_3 + 5.2 * abs(p1) + 10.5 * abs(p2) + 2.5 * abs(mu2) + 7.5 * abs(p3)
               + 16.9 * abs(p4))
        li_prev = ZETA_2
    else:
        # zeta(4) - zeta(3) mu + zeta(2) mu^2/2 - (mu^3/6)(11/6 - ln mu) - mu^4/48
        #     + Sum_{j>=2} (-1)^j sin4[j] mu^{2j+1}
        mu3 = mu2 * mu
        p1, p2, p3 = -ZETA_3 * mu, 0.5 * ZETA_2 * mu2, -mu3 / 6.0 * (11.0 / 6.0 - log_mu)
        p4, p5 = -mu2 * mu2 / 48.0, t * (mu3 * mu2)
        value = (ZETA_4 + p1 + p2 + p3 + p4 + p5).real
        if not with_bound:
            return value
        rnd = (2.5 + 5.0 * ZETA_4 + 6.4 * abs(p1) + 7.5 * abs(p2) + 13.8 * abs(p3)
               + 1.3 * abs(mu3) + 9.8 * abs(p4) + 19.2 * abs(p5))
        li_prev = ZETA_3
    return value, _EPS * rnd + (2.0 * _EPS * a + dx) * li_prev + 1e-20
