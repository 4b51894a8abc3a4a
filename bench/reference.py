"""Independent high-precision reference for the reduced free energy and pressure.

Shares no code with the package.  Starting from the mode sum, the reduced
free energy is (1/2)[J_0/2 + sum_{n>=1} J_n] with

    J_n = int_{2 n tau}^inf u ln(1 - 2 x cos 2theta + x^2) du,   x = e^{-u}.

Expanding ln(1 - 2x cos 2theta + x^2) = -2 sum_m cos(2 m theta) x^m / m and
integrating term by term gives

    E(theta, tau) = -Cl_3(2 theta)/2 - sum_m cos(2 m theta) w(2 m tau) / m^3,
    w(a) = sum_{n>=1} e^{-na}(1 + na) = y/(1-y) + a y/(1-y)^2,   y = e^{-a},

and P = 2E - tau dE/dtau gives the pressure with the weight

    p(b) = sum_{n>=1} e^{-nb}(2 + 2nb + n^2 b^2)
         = 2y/(1-y) + 2b y/(1-y)^2 + b^2 y(1+y)/(1-y)^3.

The angle derivative, needed for the Faraday pressure, is
dE/dtheta = Sl_2(2 theta) + 2 sum_m sin(2 m theta) w(2 m tau) / m^2.
At T = 0, E_0 = -Cl_4(2 theta)/(8 pi^2) and P_0 = 3 E_0.

mpmath supplies the Clausen functions and every constant at 60 digits; the
sums run in exact integer fixed point with FRAC_BITS fractional bits, which
is about 40 times faster than mpf arithmetic.  Each sum stops once its own
rigorous tail bound is below TAIL_REL of the partial sum (or after MAX_TERMS);
the returned bound is that tail plus the fixed-point rounding.  The bounds:

* w and p are positive and decreasing, w(a) <= 2/a and p(b) <= 6/b, so
  sum_{m>M} f_m <= k / (2 tau s M^s) for f_m = weight / m^s (k = 2 or 6);
* weight(a + 2 tau) / weight(a) <= e^{-2tau} (1 + 2tau/a)^j (j = 1 for w,
  2 for p), so the tail is also at most f_{M+1} / (1 - rho) when rho < 1;
* partial sums of cos(2 m theta) and sin(2 m theta) are at most 1/|sin theta|,
  so by Abel summation the tail is also at most f_{M+1} / |sin theta|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath

mpmath.mp.dps = 60

FRAC_BITS = 192
ONE = 1 << FRAC_BITS
TAIL_REL = 1e-12
MAX_TERMS = 200_000
_CHECK_EVERY = 8


def _fx(x, bits: int = FRAC_BITS) -> int:
    return int(mpmath.nint(mpmath.ldexp(x, bits)))


def _fl(v: int, bits: int) -> float:
    return math.ldexp(v, -bits)


@dataclass(frozen=True)
class RefValue:
    value: float
    bound: float  # |value - exact| <= bound, including the final rounding to float


def _result(total: int, tail: float, terms: int, tau: float) -> RefValue:
    value = _fl(total, 2 * FRAC_BITS)
    # fixed-point rounding: each weight is off by at most a few units of
    # 2^-FRAC_BITS / (2 tau)^3, the angle recurrences by at most m^2 units
    arith = 64.0 * (terms + 8) ** 3 * math.ldexp(1.0, -FRAC_BITS) * (1.0 + 1.0 / tau) ** 3
    return RefValue(value, tail + arith + abs(value) * 2.3e-16)


def _tail(f_next: float, m: int, tau: float, k_alg: float, s: int, j: int,
          inv_sin: float) -> float:
    best = k_alg / (2.0 * tau * s * m**s)
    rho = math.exp(-2.0 * tau) * (1.0 + 1.0 / (m + 1)) ** j
    if rho < 1.0:
        best = min(best, f_next / (1.0 - rho))
    best = min(best, f_next * inv_sin)
    return 1.0000001 * best


@functools.lru_cache(maxsize=256)
def _angle(theta: float):
    th = mpmath.mpf(theta)
    sin_abs = abs(float(mpmath.sin(th)))
    return (_fx(mpmath.cos(2 * th)), _fx(mpmath.sin(2 * th)),
            1.0 / sin_abs if sin_abs > 1e-300 else math.inf,
            _fx(mpmath.clcos(3, 2 * th), 2 * FRAC_BITS),
            _fx(mpmath.clsin(2, 2 * th), 2 * FRAC_BITS))


class _Weights:
    """w(2 m tau) and p(2 m tau) in fixed point for m = 1, 2, ..., grown on demand."""

    def __init__(self, tau: float):
        self.q = _fx(mpmath.exp(-2 * mpmath.mpf(tau)))
        self.two_tau = _fx(2 * mpmath.mpf(tau))
        self.y = self.q
        self.w: list[int] = []
        self.p: list[int] = []

    def grow(self, n: int) -> None:
        F = FRAC_BITS
        y, q, w_list, p_list = self.y, self.q, self.w, self.p
        for m in range(len(w_list) + 1, n + 1):
            d = ONE - y
            g = (y << F) // d  # y/(1-y)
            h = (g << F) // d  # y/(1-y)^2
            ah = (m * self.two_tau * h) >> F
            w = g + ah
            w_list.append(w)
            p_list.append(2 * w + ((m * self.two_tau * ah) >> F) * (ONE + y) // d)
            y = (y * q) >> F
        self.y = y


@functools.lru_cache(maxsize=64)  # a sweep has 50 temperatures
def _shared_weights(tau: float) -> _Weights:
    return _Weights(tau)


def thermal(theta: float, tau: float, derivative: bool = False, shared: bool = False):
    """E, P (and dE/dtheta if asked) at (theta, tau > 0) as RefValues.

    shared=True keeps the weights of this tau for later calls, which pays
    when many angles share few temperatures, as on a sweep grid.
    """
    if not (tau > 0.0 and math.isfinite(tau) and math.isfinite(theta)):
        raise ValueError(f"reference needs finite theta and tau > 0, got {theta!r}, {tau!r}")
    F = FRAC_BITS
    c1, s1, inv_sin, cl3, sl2 = _angle(theta)
    wt = _shared_weights(tau) if shared else _Weights(tau)
    c_prev, c = ONE, c1
    s_prev, s = 0, s1
    e_sum = p_sum = d_sum = 0
    e_tail = p_tail = d_tail = math.inf
    m = 0
    while m < MAX_TERMS:
        if m + _CHECK_EVERY >= len(wt.w):
            wt.grow(2 * m + 64)
        w_list, p_list = wt.w, wt.p
        for m in range(m + 1, m + 1 + _CHECK_EVERY):
            w = w_list[m - 1]
            m3 = m * m * m
            e_sum += (c * w) // m3
            p_sum += (c * p_list[m - 1]) // m3
            c_prev, c = c, ((2 * c1 * c) >> F) - c_prev
            if derivative:
                d_sum += (s * w) // (m * m)
                s_prev, s = s, ((2 * c1 * s) >> F) - s_prev
        # weights at m+1 in floats; they only enter the bounds
        n3 = float(m + 1) ** 3
        w1 = _fl(w_list[m], F)
        e_tail = _tail(w1 / n3, m, tau, 2.0, 3, 1, inv_sin)
        p_tail = _tail(_fl(p_list[m], F) / n3, m, tau, 6.0, 3, 2, inv_sin)
        done = (e_tail <= TAIL_REL * abs(_fl(-(cl3 >> 1) - e_sum, 2 * F))
                and p_tail <= TAIL_REL * abs(_fl(-cl3 - p_sum, 2 * F)))
        if derivative:
            d_tail = 2.0 * _tail(w1 / float(m + 1) ** 2, m, tau, 2.0, 2, 1, inv_sin)
            done = done and d_tail <= TAIL_REL * abs(_fl(sl2 + 2 * d_sum, 2 * F))
        if done or w_list[m] == 0:
            break

    energy = _result(-(cl3 >> 1) - e_sum, e_tail, m, tau)
    pressure = _result(-cl3 - p_sum, p_tail, m, tau)
    if not derivative:
        return energy, pressure
    return energy, pressure, _result(sl2 + 2 * d_sum, d_tail, m, tau)


def zero_temperature(theta: float) -> RefValue:
    """E_0 l^3 / (hbar c) = -Cl_4(2 theta) / (8 pi^2)."""
    v = -mpmath.clcos(4, 2 * mpmath.mpf(theta)) / (8 * mpmath.pi**2)
    f = float(v)
    return RefValue(f, abs(f) * 2.3e-16 + 1e-300)


def theta_slack(tau: float) -> tuple[float, float]:
    """Allowed difference from folding theta into [0, pi/2] in double precision.

    The engine evaluates at theta folded modulo pi, which moves the argument
    by a few 1e-16 (for |theta| far below 1e16); the reference evaluates at
    the exact input.  With |dE/dtheta| <= 1.02 + 2 zeta(3)/tau and
    |dP/dtheta| <= 2.04 + 6 zeta(3)/tau, a 1e-15 rad shift gives the (E, P)
    slack.
    """
    dtheta = 1e-15
    z3 = 1.2020569031595942
    return dtheta * (1.02 + 2.0 * z3 / tau), dtheta * (2.04 + 6.0 * z3 / tau)
