"""Brute-force quadrature cross-check for the series engine.

Everything here evaluates the free energy directly from its integral
definition: per Matsubara index n, the transverse-momentum integral becomes

    J_n = integral over u in [2 n tau, infinity) of u * L(e^{-u}, theta) du,

with L the round-trip log determinant, and the reduced free energy is
(1/2) [J_0/2 + sum_{n>=1} J_n].  Exchanging the sum and the integral, the
windows n = 1..N that the truncation keeps become one integral over u with
the weight 1/2 + (number of n >= 1 with 2 n tau <= u): one quadrature with
breakpoints at 2 n tau.  At zero temperature the sum itself turns into an
integral over the reduced frequency z, and exchanging the order of the z
and u integrals again leaves one 1-d quadrature.  No series
expansion of the logarithm happens anywhere in this module; the only shared
code with the engine is the kernel logarithm itself, so that an agreement
between the two is a genuine cross-check of the analytic reduction.

One adaptive Gauss-Kronrod loop (_integrate) does every quadrature, in
numpy: each round evaluates the 21-point rule on every open piece in array
calls of the kernel, _SLICE pieces at a time, and bisects the pieces over
their share of the tolerance.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._record import _Record, _setattr
from .kernel import log_det_kernel

__all__ = [
    "CERTIFY_TAUS",
    "CERTIFY_THETAS",
    "QuadControl",
    "CompareReport",
    "oracle_free_energy",
    "oracle_free_energy_T0",
    "oracle_matsubara_term",
    "oracle_pressure",
    "compare",
]

# canonical cross-check grid: every engine claim is certified on these points
CERTIFY_THETAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
CERTIFY_TAUS = (0.3, 0.7, 1.0, 2.0, 5.0)

_CUTOFF = 40.0  # integration window length in u = 2 kappa l
_MAX_N = 10**5  # Matsubara terms
_FD_STEP = 1e-5  # relative step for the finite-difference pressure

# The 21-point Gauss-Kronrod rule of QUADPACK's qk21 (Piessens et al. 1983)
# on [-1, 1]: the nonnegative Kronrod nodes, from the outside in, with their
# weights; nodes 2, 4, ..., 10 are those of the 10-point Gauss rule, whose
# weights are _WG.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208643474262, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array([-v for v in _XGK[:-1]] + list(_XGK[::-1]))
_K21 = np.array(_WGK[:-1] + _WGK[::-1])
_G10 = np.zeros(21)
_G10[1:10:2] = _WG
_G10[11:] = _G10[9::-1]
# the rule runs in t = sqrt(u), where the theta = 0 integrand u L ~ 2 u ln u
# becomes the smoother 8 t^3 ln t; du = 2 t dt puts the 2 into the weights
# of K21 and K21 - G10
_WEIGHTS = 2.0 * np.column_stack((_K21, _K21 - _G10))
_MID_HALF = np.array([[0.5, -0.5], [0.5, 0.5]])  # (a, b) -> (centre, half-width)

# Initial breakpoints in u besides those of each integral: geometric towards
# the theta = 0 logarithm at u = 0, so that the certify grid converges in
# the first round
_GRADING = (1e-3, 1e-2, 0.1, 1.0, 4.0, 10.0, 20.0)
_MAX_PIECES = 20_000
# Pieces per _rule call: the rule's node arrays, 21 doubles a piece each,
# would otherwise grow with the number of pieces, which grows like 1/tau in
# the thermal oracle's first round (57,569 windows at tau = 3e-4 took the
# peak RSS up by 80 MB).  A certify point has at most 54 pieces: one call.
_SLICE = 2048

# Rounding floor of the rule, charged per node on top of |K21 - G10|.  At a
# float u and x = exp(-u) rounded, log_det_kernel is within
# EPS (|L| + 2 x/(1 - x)) of L(e^{-u}): the 2 x/(1 - x) (about 2/u) is
# x -> 1 at theta = 0, and the log1p form keeps the error relative to L
# where x is small (at most 0.70 of it, float and array paths, against
# 40-digit values at 20,000 random u in [1e-6, 80] and theta in [0, pi/2];
# tests/test_kernel.py).  Rounding the node itself moves x by up to about
# EPS u x, so L by 2 EPS u x/(1 - x); the weight, the products and the
# 21-term sums add a few EPS |f|.  Since |L| <= 2 x/(1 - x), a node of
# weight (w0 + w1 u) u is charged _ROUNDING (3 + u) x/(1 - x) times it.
# Against 40-digit sums of the same rule on 4,979 random pieces (both
# oracles' weights, theta in [0, pi/2], u up to 120) the rounding error
# reached 0.57 of this.
_ROUNDING = 4.0 * sys.float_info.epsilon


class QuadControl(_Record):
    """Tolerance of the quadrature oracle; the window, term cap and step are fixed."""

    _fields = ("abs_tol",)
    abs_tol = 1e-10  # reduced units

    def __init__(self, abs_tol: float = abs_tol):
        if not (abs_tol > 0.0):
            raise ValueError(f"abs_tol must be positive, got {abs_tol!r}")
        _setattr(self, "abs_tol", abs_tol)


def _rule(theta: float, pieces):
    """K21, |K21 - G10| and the rounding floor of each piece.

    A row of pieces is (a, b, w0, w1): the integral over t in [a, b] of
    (w0 + w1 u) u L(e^{-u}, theta) 2 t dt with u = t^2.
    """
    mid_half = pieces[:, :2] @ _MID_HALF
    half = mid_half[:, 1]
    t = mid_half[:, :1] + mid_half[:, 1:] * _NODES
    u = t * t
    x = np.exp(-u)
    f = pieces[:, 2:3] + pieces[:, 3:4] * u
    f *= u
    f *= t
    floor = 3.0 + u
    floor *= x
    floor /= 1.0 - x
    floor *= f
    f *= log_det_kernel(x, theta)
    kd = f @ _WEIGHTS
    return kd[:, 0] * half, np.abs(kd[:, 1]) * half, (floor @ _WEIGHTS[:, 0]) * (_ROUNDING * half)


def _integrate(theta: float, edges, w0, w1, epsabs: float, epsrel: float) -> tuple[float, float]:
    """Integral over u of (w0 + w1 u) u L(e^{-u}, theta) and a bound on its error.

    edges are the increasing breakpoints in u; piece i, [edges[i],
    edges[i + 1]], has the weight w0[i] + w1[i] u, which must be nonnegative.
    The bound sums |K21 - G10| and the rounding floor over the pieces.  A
    round bisects the open pieces whose |K21 - G10| is over their share, by
    length in t, of the tolerance left above the floor; the others close.
    Returns once the bound meets max(epsabs, epsrel |value|), and raises
    RuntimeError where it cannot.
    """
    t_edges = np.sqrt(edges)
    pieces = np.column_stack((t_edges[:-1], t_edges[1:], w0, w1))
    span = t_edges[-1] - t_edges[0]
    closed_k = closed_d = closed_f = 0.0
    while True:
        parts = [_rule(theta, pieces[i:i + _SLICE]) for i in range(0, len(pieces), _SLICE)]
        k, d, f = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        total = closed_k + k.sum()
        floor = closed_f + f.sum()
        bound = closed_d + d.sum() + floor
        tol = max(epsabs, epsrel * abs(total))
        if bound <= tol:
            return float(total), float(bound)
        over = d > (pieces[:, 1] - pieces[:, 0]) * ((tol - floor) / span)
        if not floor < tol or 2 * np.count_nonzero(over) > _MAX_PIECES:
            raise RuntimeError(f"quadrature at theta={theta!r}: error bound {bound:.3g} "
                               f"above the tolerance {tol:.3g}")
        keep = ~over
        closed_k += k @ keep
        closed_d += d @ keep
        closed_f += f @ keep
        pieces = np.repeat(pieces[over], 2, axis=0)
        mid = 0.5 * (pieces[::2, 0] + pieces[::2, 1])
        pieces[::2, 1] = mid
        pieces[1::2, 0] = mid


def _breaks(lo: float, hi: float, inner=()):
    """Sorted breakpoints: lo, hi, the _GRADING points between them and inner."""
    pts = np.concatenate(((lo, hi), _GRADING, inner))
    return np.unique(pts[(pts >= lo) & (pts <= hi)])


def oracle_free_energy(p, q: QuadControl | None = None) -> float:
    """Reduced free energy by one quadrature over the Matsubara sum; requires p.tau > 0.

    Keeps the terms n = 1..N, with N the smallest count for which a bound on
    the whole dropped tail, b(a_{N+1}) / (1 - r), is below abs_tol (see
    _matsubara_count), and integrates every window, the n = 0 one included,
    up to the common top 2 N tau + C (C = _CUTOFF) in one quadrature.  That
    lengthens each window by at most 2 (C + 1) e^{-C} = 3.5e-16 in J_n.
    """
    return _free_energy(float(p.theta), float(p.tau), q or QuadControl())


def _matsubara_count(tau: float, abs_tol: float) -> int:
    # the reduced term |J_n|/2 is at most b(a) = e^{-a} (1 + a) pi^2/6 at
    # a = 2 n tau, and b(a + 2 tau)/b(a) = e^{-2 tau} (1 + 2 tau/(1 + a)) falls
    # with a, so after N the bounds fall at least geometrically by r taken at
    # a_{N+1}: the dropped terms sum to at most b(a_{N+1}) / (1 - r).  One
    # term's bound below abs_tol is not enough: it leaves 1.05e-9 out at
    # abs_tol 1e-10 and tau = 0.03.
    decay = math.exp(-2.0 * tau)
    for n in range(_MAX_N + 1):
        a = 2.0 * (n + 1) * tau
        r = decay * (1.0 + 2.0 * tau / (1.0 + a))
        if math.exp(-a) * (1.0 + a) * (math.pi**2 / 6.0) < abs_tol * (1.0 - r):
            return n
    raise RuntimeError(f"Matsubara truncation bound not reached within {_MAX_N} terms")


def _free_energy(theta: float, tau: float, q: QuadControl) -> float:
    if tau <= 0.0:
        raise ValueError("oracle_free_energy needs tau > 0; use the T0 oracle instead")
    # a tenth of abs_tol for the quadrature, the truncation takes the rest;
    # at abs_tol 1e-12 (oracle_pressure) a hundredth, 1e-14, sat below the
    # rounding floor near the energy zero at tau < 0.5.  epsrel as tight as
    # epsabs: the 1e-5 Richardson stencil of a Faraday pressure divides the
    # quadrature's error by the step
    eps = min(1e-12, q.abs_tol / 10.0)
    # window n >= 1 covers u >= 2 n tau, the n = 0 one all u >= 0 at half
    # weight; each piece starts on or after the windows that cover it
    starts = 2.0 * tau * np.arange(1, _matsubara_count(tau, q.abs_tol) + 1)
    edges = _breaks(0.0, (starts[-1] if starts.size else 0.0) + _CUTOFF, starts)
    w0 = 0.5 + np.searchsorted(starts, edges[:-1], side="right")
    val, _ = _integrate(theta, edges, w0, np.zeros_like(w0), eps, eps)
    return 0.5 * val


def oracle_matsubara_term(n: int, p, q: QuadControl | None = None) -> float:
    """Single reduced Matsubara term J_n/2 by adaptive quadrature."""
    q = q or QuadControl()
    if n < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {n!r}")
    lo = 2.0 * n * float(p.tau)
    edges = _breaks(lo, lo + _CUTOFF)
    w0 = np.ones(edges.size - 1)
    eps = min(1e-12, q.abs_tol)
    val, _ = _integrate(float(p.theta), edges, w0, np.zeros_like(w0), eps, eps)
    return 0.5 * val


def oracle_free_energy_T0(theta: float, q: QuadControl | None = None,
                          return_error: bool = False):
    """Zero-temperature reduced free energy by one 1-d quadrature.

    The energy is 1/(32 pi^2) times the integral over the reduced imaginary
    frequency z = 2 l zeta in [0, C] of the integral over u in [z, z + C] of
    u L(e^{-u}, theta), with C = _CUTOFF.  Exchanging the order (Fubini), z
    covers a length min(u, 2C - u) at each u in [0, 2C], so one quadrature
    with a breakpoint at u = C does it.  With return_error=True it also
    returns the quadrature's bound on the absolute error, which covers the
    integrand's rounding (_ROUNDING).
    """
    q = q or QuadControl()
    edges = _breaks(0.0, 2.0 * _CUTOFF, (_CUTOFF,))
    upper = edges[:-1] >= _CUTOFF
    # epsrel follows epsabs, as in _free_energy: a fixed epsrel would make
    # every abs_tol below it void
    eps = q.abs_tol / 10.0
    val, err = _integrate(float(theta), edges, np.where(upper, 2.0 * _CUTOFF, 0.0),
                          np.where(upper, -1.0, 1.0), eps, eps)
    scale = 1.0 / (32.0 * math.pi**2)
    if return_error:
        return val * scale, err * scale
    return val * scale


def oracle_pressure(theta: float, tau: float, q: QuadControl | None = None) -> float:
    """Reduced pressure at fixed angle by Richardson central differences.

    Scales the free energy back to physical separation dependence, takes
    -dE/dl numerically, and rescales.  tau > 0 returns P * 4 pi beta l^3;
    tau = 0 returns P l^4 / (hbar c).
    """
    q = q or QuadControl()
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    tight = QuadControl(min(q.abs_tol, 1e-12))

    if tau == 0.0:
        # E(l) ~ E0_hat / l^3 at fixed angle, in units of the base separation
        e0 = oracle_free_energy_T0(theta, tight)

        def g(lam: float) -> float:
            return e0 / lam**3
    else:
        # E(l) ~ E_hat(theta, tau l / l0) / l^2 in units of the base point
        def g(lam: float) -> float:
            return _free_energy(theta, tau * lam, tight) / lam**2

    # P_hat = -(d/dlam) g(lam) at lam = 1, central stencil plus one Richardson level
    h = _FD_STEP
    d_h = (g(1.0 + h) - g(1.0 - h)) / (2.0 * h)
    d_h2 = (g(1.0 + 0.5 * h) - g(1.0 - 0.5 * h)) / h
    return -(4.0 * d_h2 - d_h) / 3.0


class CompareReport(_Record):
    """Outcome of one engine-vs-oracle comparison."""

    _fields = ("engine_value", "oracle_value", "abs_gap", "rel_gap", "rel_tol", "passed")

    def __init__(self, engine_value: float, oracle_value: float, abs_gap: float,
                 rel_gap: float, rel_tol: float, passed: bool):
        _setattr(self, "engine_value", engine_value)
        _setattr(self, "oracle_value", oracle_value)
        _setattr(self, "abs_gap", abs_gap)
        _setattr(self, "rel_gap", rel_gap)
        _setattr(self, "rel_tol", rel_tol)
        _setattr(self, "passed", passed)


def compare(engine_value: float, oracle_value: float, rel_tol: float) -> CompareReport:
    """Pass iff the relative gap is strictly below rel_tol.

    The denominator is max(|engine|, |oracle|, 1e-30) so that exact zeros
    compare equal and near-zeros do not blow up.
    """
    for v in (engine_value, oracle_value, rel_tol):
        if not math.isfinite(v):
            raise ValueError(f"compare needs finite inputs, got {v!r}")
    abs_gap = abs(engine_value - oracle_value)
    rel_gap = abs_gap / max(abs(engine_value), abs(oracle_value), 1e-30)
    return CompareReport(engine_value, oracle_value, abs_gap, rel_gap, rel_tol,
                         rel_gap < rel_tol)
