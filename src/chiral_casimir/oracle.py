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
numpy, and runs a batch of integrals at once: each round evaluates the
21-point rule on the open pieces of every open integral in array calls of
the kernel, _SLICE pieces at a time, and keeps each integral's sums, bound
and tolerance apart, closing it or bisecting its pieces over their share
of its tolerance.  Integrals that share their first-round pieces (one
array per tau, one for every T = 0 angle) share the rule's node table: the
angle-free part of each piece (its nodes, x = e^{-u}, weights and rounding
floor) is made once per piece and taken per integral, so that only the
kernel and the 21-term sums run per angle; the certify grid's 595 pieces
rest on 119 such rows.  oracle_free_energy and oracle_free_energy_T0 take one
point (or angle) or a sequence of them; a sequence is one batch, and each
value has the same bits as its single call.

The set-up around the quadrature runs in plain Python, since its cost is
the count of calls, not the work in them: a tau's pieces (the window
starts 2 tau k, the sorted distinct breakpoints, their square roots and
the window count at each) are four lists, of which _integrate makes one
array per call, and the Matsubara count starts from a guess of where its
tail bound passes, gallops to a bracket and bisects it.

The pressure takes no derivative of a quadrature.  J_n depends on tau only
through its lower limit a_n = 2 n tau, so tau dJ_n/dtau = -a_n^2 L(e^{-a_n},
theta), and the reduced pressure P = 2 E - tau dE/dtau is

    P = 2 E + (1/2) sum_{n>=1} a_n^2 L(e^{-a_n}, theta):

one energy quadrature and a plain sum of kernel values, cut where a
geometric bound on its tail (from |L| <= 2x/(1 - x)) is within abs_tol.  At
zero temperature E scales as 1/l^3 at a fixed angle, so P = 3 E exactly.
Each value carries a bound on its error (_free_energy, _pressure), which
the public functions do not return.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right

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
# the part of a window above the common top 2 N tau + C that one quadrature
# leaves out (oracle_free_energy): the integral of u 2x/(1 - x) over
# [C, infinity), 2 (C + 1) e^{-C}/(1 - e^{-C}) = 3.48e-16 in J_n, rounded up
_WINDOW_CUT = 3.5e-16

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

# Initial breakpoints in u besides those of each integral: geometric towards
# the theta = 0 logarithm at u = 0, so that the certify grid converges in
# the first round
_GRADING = (1e-3, 1e-2, 0.1, 1.0, 4.0, 10.0, 20.0)
_MAX_PIECES = 20_000
# Pieces per _rule call: the rule's node arrays, 21 doubles a piece each,
# would otherwise grow with the number of pieces, which grows like 1/tau in
# the thermal oracle's first round (57,569 windows at tau = 3e-4 took the
# peak RSS up by 80 MB).  The certify grid has 595 pieces: one call.
_SLICE = 2048

# Rounding floor of the rule, charged per node on top of |K21 - G10|.  At a
# float u and x = exp(-u) rounded, log_det_kernel is within
# EPS (|L| + 2 x/(1 - x)) of L(e^{-u}): the 2 x/(1 - x) (about 2/u) is
# x -> 1 at theta = 0, and the log1p form keeps the error relative to L
# where x is small (at most 0.70 of it, float and array paths, the latter
# with one angle and with an angle per element, against 40-digit values at
# 20,000 random u in [1e-6, 80] and theta in [0, pi/2]; tests/test_kernel.py).
# Rounding the node itself moves x by up to about EPS u x, so L by
# 2 EPS u x/(1 - x); the weight, the products and the 21-term sums add a
# few EPS |f|.  Since |L| <= 2 x/(1 - x), a node of
# weight (w0 + w1 u) u is charged _ROUNDING (3 + u) x/(1 - x) times it.
# Against 40-digit sums of the same rule on 4,979 random pieces (both
# oracles' weights, theta in [0, pi/2], u up to 120) the rounding error
# reached 0.57 of this with BLAS sums over the nodes; on 2,500 other such
# pieces it reached 0.17 with _rule's fixed-order sums.
_ROUNDING = 4.0 * sys.float_info.epsilon


class QuadControl(_Record):
    """Tolerance of the quadrature oracle; the window and term cap are fixed."""

    _fields = ("abs_tol",)
    abs_tol = 1e-10  # reduced units

    def __init__(self, abs_tol: float = abs_tol):
        if not (abs_tol > 0.0):
            raise ValueError(f"abs_tol must be positive, got {abs_tol!r}")
        _setattr(self, "abs_tol", abs_tol)


def _pieces(edges, w0, w1):
    """Columns (a, b, w0, w1) in t = sqrt(u) of the pieces between the increasing
    breakpoints edges in u, piece i weighted by w0[i] + w1[i] u.

    Four lists, not an array: _integrate makes one array of all the
    distinct pieces of a call, so that a few dozen pieces per tau cost no
    numpy call of their own.
    """
    t = [math.sqrt(u) for u in edges]
    return t[:-1], t[1:], w0, w1


def _rule(rows, theta, take):
    """K21, |K21 - G10| and the rounding floor of the pieces rows[take] at angles theta.

    A row is (a, b, w0, w1): the integral over t in [a, b] of
    (w0 + w1 u) u L(e^{-u}, theta) 2 t dt with u = t^2.  The angle-free
    part (the nodes, x = e^{-u}, the weight and the rounding floor) is made
    once per row, and take gives each piece's row (None: one piece per
    row), so that pieces at several angles share a row's nodes; only the
    kernel and the sums run per piece.  The nodes run down the first axis;
    einsum adds a piece's 21 products in a fixed order, so that the piece
    gets the same bits wherever it sits in the array (a BLAS product's
    depend on its position).
    """
    a, b = rows[:, 0], rows[:, 1]
    half = 0.5 * (b - a)
    t = 0.5 * (a + b) + _NODES[:, None] * half
    u = t * t
    x = np.exp(-u)
    f = rows[:, 2] + rows[:, 3] * u
    f *= u
    f *= t
    floor = 3.0 + u
    floor *= x
    floor /= 1.0 - x
    floor *= f
    r = np.einsum("jn,j->n", floor, _WEIGHTS[:, 0])
    r *= _ROUNDING * half
    if take is not None:
        half, x, f, r = half[take], x[:, take], f[:, take], r[take]
    f *= log_det_kernel(x, theta)
    k, d = np.einsum("jn,jk->kn", f, _WEIGHTS)
    return k * half, np.abs(d) * half, r


def _integrate(jobs, epsabs: float, epsrel: float) -> list[tuple[float, float]]:
    """Integrals over u of (w0 + w1 u) u L(e^{-u}, theta), each with a bound on its error.

    jobs is a sequence of (theta, pieces), pieces as _pieces makes them,
    whose weights must be nonnegative; the result is one (value, bound) per
    job, in order.  Every round runs the rule on the open pieces of all the
    open integrals at once, and keeps each integral's sums, bound,
    tolerance and piece cap apart (np.bincount over the piece's owner), so
    that a value has the same bits alone and in any batch.  Jobs that pass
    the same pieces object share its rows in the first round, where the
    rule makes their angle-free part once.  An integral's bound sums
    |K21 - G10| and the rounding floor over its pieces.  A round bisects
    the open pieces whose |K21 - G10| is over their share, by length in t,
    of the tolerance left above the floor; the others close.  An integral
    is done once its bound meets max(epsabs, epsrel |value|); where one
    cannot, RuntimeError names its theta.
    """
    if not jobs:
        return []
    n = len(jobs)
    thetas = np.array([float(theta) for theta, _ in jobs])
    # rows holds each distinct pieces object once, and the open pieces are
    # rows[col], owned by jobs owner; sorted by row, a _SLICE of them spans
    # a run of rows, and each job's pieces keep their order (its rows are
    # distinct and increasing).  first maps each distinct object to its
    # first row and its length in t
    first, columns, m = {}, ([], [], [], []), 0
    for _, p in jobs:
        if id(p) not in first:
            first[id(p)] = m, p[1][-1] - p[0][0]
            for column, part in zip(columns, p):
                column += part
            m += len(p[0])
    rows = np.array(columns, dtype=float).T
    sizes = [len(p[0]) for _, p in jobs]
    owner = np.repeat(np.arange(n), sizes)
    col = np.arange(len(owner))
    offsets, span = zip(*[first[id(p)] for _, p in jobs])
    if len(first) < n:
        shift = np.array(offsets) - (np.cumsum(sizes) - sizes)
        col += np.repeat(shift, sizes)
        order = np.argsort(col)
        col, owner = col[order], owner[order]
    span = np.array(span)
    closed_k, closed_d, closed_f = np.zeros((3, n))
    done = np.zeros(n, dtype=bool)
    out = [None] * n
    while True:
        theta = thetas[owner]
        parts = []
        for i in range(0, len(owner), _SLICE):
            # every row between c[0] and c[-1] is in c, so c takes each row
            # once exactly when it has c[-1] + 1 - c[0] pieces
            c = col[i:i + _SLICE]
            lo, hi = c[0], c[-1] + 1
            parts.append(_rule(rows[lo:hi], theta[i:i + _SLICE], None if hi - lo == len(c) else c - lo))
        k, d, f = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        total = closed_k + np.bincount(owner, k, n)
        floor = closed_f + np.bincount(owner, f, n)
        bound = closed_d + np.bincount(owner, d, n) + floor
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        met = ~done & (bound <= tol)
        values, bounds = total.tolist(), bound.tolist()
        for j in np.flatnonzero(met).tolist():
            out[j] = values[j], bounds[j]
        done |= met
        if done.all():
            return out
        # a finished integral's pieces neither close nor split
        share = np.where(done, np.inf, (tol - floor) / span)
        over = d > (rows[:, 1] - rows[:, 0])[col] * share[owner]
        stuck = ~done & (~(floor < tol) | (2 * np.bincount(owner, over, n) > _MAX_PIECES))
        if stuck.any():
            j = int(np.flatnonzero(stuck)[0])
            raise RuntimeError(f"quadrature at theta={float(thetas[j])!r}: error bound {bound[j]:.3g} "
                               f"above the tolerance {tol[j]:.3g}")
        keep = ~over
        closed_k += np.bincount(owner[keep], k[keep], n)
        closed_d += np.bincount(owner[keep], d[keep], n)
        closed_f += np.bincount(owner[keep], f[keep], n)
        owner = np.repeat(owner[over], 2)
        rows = np.repeat(rows[col[over]], 2, axis=0)
        mid = 0.5 * (rows[::2, 0] + rows[::2, 1])
        rows[::2, 1] = mid
        rows[1::2, 0] = mid
        col = np.arange(len(rows))


def _breaks(lo: float, hi: float, inner=()) -> list[float]:
    """Sorted breakpoints, each once: lo, hi, and the _GRADING and inner points between them."""
    pts = sorted([u for u in (lo, hi, *_GRADING, *inner) if lo <= u <= hi])
    return [u for u, before in zip(pts, [None, *pts]) if u != before]


# The pieces of the T = 0 oracle, the same at every angle and tolerance:
# the weight at u is the length min(u, 2C - u) that z covers there
# (oracle_free_energy_T0), with a breakpoint at u = C
_T0_EDGES = _breaks(0.0, 2.0 * _CUTOFF, (_CUTOFF,))
_T0_PIECES = tuple(map(tuple, _pieces(_T0_EDGES,
                                      [2.0 * _CUTOFF if u >= _CUTOFF else 0.0 for u in _T0_EDGES[:-1]],
                                      [-1.0 if u >= _CUTOFF else 1.0 for u in _T0_EDGES[:-1]])))


def oracle_free_energy(p, q: QuadControl | None = None):
    """Reduced free energy by one quadrature over the Matsubara sum; requires p.tau > 0.

    p is a ReducedPoint, which returns a float, or a sequence of them, which
    returns a list of floats in the same order from one batched quadrature
    (_integrate); each value has the same bits either way.

    Keeps the terms n = 1..N, with N the smallest count for which a bound on
    the whole dropped tail, b(a_{N+1}) / (1 - r), is below abs_tol (see
    _matsubara_count), and integrates every window, the n = 0 one included,
    up to the common top 2 N tau + C (C = _CUTOFF) in one quadrature.  That
    lengthens each window by at most 2 (C + 1) e^{-C} = 3.5e-16 in J_n.
    """
    q = q or QuadControl()
    if hasattr(p, "tau"):
        return _free_energy([(p.theta, p.tau)], q)[0][0]
    return [val for val, _ in _free_energy([(s.theta, s.tau) for s in p], q)]


def _matsubara_count(tau: float, abs_tol: float) -> int:
    # the reduced term |J_n|/2 is at most b(a) = e^{-a} (1 + a) pi^2/6 at
    # a = 2 n tau, and b(a + 2 tau)/b(a) = e^{-2 tau} (1 + 2 tau/(1 + a)) falls
    # with a, so after N the bounds fall at least geometrically by r taken at
    # a_{N+1}: the dropped terms sum to at most b(a_{N+1}) / (1 - r).  One
    # term's bound below abs_tol is not enough: it leaves 1.05e-9 out at
    # abs_tol 1e-10 and tau = 0.03.  Both b(a_{N+1}) and r fall with N, so
    # the test holds from N on: search for the first n <= _MAX_N that
    # passes it, with lo failing and hi passing (or past _MAX_N).  Since
    # b(a) >= e^{-a} zeta2 and 1 - r <= 1, no n with a_{n+1} <= ln(zeta2/abs_tol)
    # passes, and N lies near the fixed point of a = ln(zeta2 (1 + a) /
    # (abs_tol (1 - r))): two steps of that iteration from ln(zeta2/abs_tol)
    # guess it to within a few terms for tau in [1e-4, 300] and abs_tol in
    # [1e-15, 1e-5].  The search probes the guess, gallops away from it,
    # doubling its step, until it brackets N, then bisects, in at most 14
    # tests there against 17 for a bisection of [0, _MAX_N]; a poor guess
    # costs tests, never the result
    exp, log = math.exp, math.log
    decay = exp(-2.0 * tau)
    zeta2 = math.pi**2 / 6.0
    a = lower = max(0.0, log(zeta2) - log(abs_tol))
    for _ in range(2):
        gap = 1.0 - decay * (1.0 + 2.0 * tau / (1.0 + a))
        if not gap > 0.0:
            break
        a = lower + log((1.0 + a) / gap)
    guess = a / (2.0 * tau)
    lo, hi = -1, _MAX_N + 1
    n, step = int(guess) if guess < _MAX_N else _MAX_N, 1
    while hi - lo > 1:
        if not lo < n < hi:
            # bracketed: bisect from here on
            n, step = (lo + hi) // 2, hi
        a = 2.0 * (n + 1) * tau
        r = decay * (1.0 + 2.0 * tau / (1.0 + a))
        if exp(-a) * (1.0 + a) * zeta2 < abs_tol * (1.0 - r):
            hi, n = n, n - step
        else:
            lo, n = n, n + step
        step *= 2
    if hi > _MAX_N:
        raise RuntimeError(f"Matsubara truncation bound not reached within {_MAX_N} terms")
    return hi


def _free_energy(points, q: QuadControl) -> list[tuple[float, float]]:
    """Reduced free energy at each (theta, tau) of points and a bound on its error, in one _integrate call.

    The bound is half the quadrature's, plus abs_tol for the dropped
    windows (_matsubara_count) and half of _WINDOW_CUT for each kept one,
    n = 0 included.
    """
    # a tenth of abs_tol for the quadrature, the truncation takes the rest;
    # at abs_tol 1e-12 a hundredth, 1e-14, sat below the rounding floor near
    # the energy zero at tau < 0.5.  epsrel as tight as epsabs: criterion
    # 08's Faraday check, a 1e-5 Richardson stencil of these energies,
    # divides the quadrature's error by the step
    eps = min(1e-12, q.abs_tol / 10.0)
    windows = {}  # tau -> its pieces, which do not depend on theta, and its truncation bound
    jobs, cuts = [], []
    for theta, tau in points:
        tau = float(tau)
        if tau <= 0.0:
            raise ValueError("oracle_free_energy needs tau > 0; use the T0 oracle instead")
        if tau not in windows:
            # window n >= 1 covers u >= 2 n tau, the n = 0 one all u >= 0 at
            # half weight; each piece starts on or after the windows that cover it
            step = 2.0 * tau
            count = _matsubara_count(tau, q.abs_tol)
            starts = [step * n for n in range(1, count + 1)]
            edges = _breaks(0.0, (starts[-1] if starts else 0.0) + _CUTOFF, starts)
            windows[tau] = (_pieces(edges, [0.5 + bisect_right(starts, u) for u in edges[:-1]],
                                    [0.0] * (len(edges) - 1)),
                            q.abs_tol + 0.5 * _WINDOW_CUT * (count + 1))
        pieces, cut = windows[tau]
        jobs.append((theta, pieces))
        cuts.append(cut)
    return [(0.5 * val, 0.5 * bound + cut) for (val, bound), cut in zip(_integrate(jobs, eps, eps), cuts)]


def _kernel_sum(theta: float, tau: float, tol: float) -> tuple[float, float]:
    """S = sum_{n>=1} a_n^2 L(e^{-a_n}, theta), a_n = 2 n tau, and a bound on its error.

    |L| <= 2x/(1 - x) bounds a term by c(a) = 2 a^2 x/(1 - x), x = e^{-a},
    and c(a_{n+1})/c(a_n) <= (1 + 1/n)^2 e^{-2 tau}, so the terms after M
    sum to at most c(a_{M+1})/(1 - r), r = (1 + 1/(M + 1))^2 e^{-2 tau},
    where r < 1.  From a_{M+1} >= 2 on, where c falls, that bound falls
    with M: the sum keeps the terms up to the first such M whose bound is
    within tol, found by a gallop and a bisection.  A float term is within
    EPS (8 + a) a^2 x/(1 - x) of the exact one: the kernel's error
    (_ROUNDING's comment), the rounding of a = 2 tau n, which moves L by at
    most EPS a x/(1 - x), and the products.  _ROUNDING (3 + a) a^2 x/(1 - x)
    covers that, and _ROUNDING |S| the one rounding of math.fsum.
    """
    decay = math.exp(-2.0 * tau)

    def tail(m):  # the bound on the terms n > m
        a, k = 2.0 * tau * (m + 1), 1.0 + 1.0 / (m + 1)
        r = k * k * decay
        return 2.0 * a * a * math.exp(-a) / -math.expm1(-a) / (1.0 - r) if r < 1.0 else math.inf

    m, step = max(0, math.ceil(1.0 / tau) - 1), 1
    lo = m - 1
    while not tail(m) <= tol:
        lo, m, step = m, m + step, 2 * step
    while m - lo > 1:  # lo fails or lies below the start, m passes
        mid = (lo + m) // 2
        lo, m = (lo, mid) if tail(mid) <= tol else (mid, m)
    a = 2.0 * tau * np.arange(1, m + 1)
    x = np.exp(-a)
    a2 = a * a
    s = math.fsum((a2 * log_det_kernel(x, theta)).tolist())
    rounding = _ROUNDING * float(np.dot(3.0 + a, a2 * x / -np.expm1(-a)))
    return s, tail(m) + rounding + _ROUNDING * abs(s)


def _pressure(points, q: QuadControl) -> list[tuple[float, float]]:
    """Reduced pressure at each (theta, tau > 0) of points and a bound on its error.

    P = 2 E + S/2 with S the kernel sum (_kernel_sum, cut at abs_tol) and
    E from one batched _free_energy call: the bound is twice E's, half of
    S's, and the rounding of the sum.
    """
    out = []
    for (theta, tau), (e, e_bound) in zip(points, _free_energy(points, q)):
        s, s_bound = _kernel_sum(float(theta), float(tau), q.abs_tol)
        p = 2.0 * e + 0.5 * s
        out.append((p, 2.0 * e_bound + 0.5 * s_bound + _ROUNDING * abs(p)))
    return out


def oracle_matsubara_term(n: int, p, q: QuadControl | None = None) -> float:
    """Single reduced Matsubara term J_n/2 by adaptive quadrature."""
    q = q or QuadControl()
    if n < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {n!r}")
    lo = 2.0 * n * float(p.tau)
    edges = _breaks(lo, lo + _CUTOFF)
    w0 = [1.0] * (len(edges) - 1)
    eps = min(1e-12, q.abs_tol)
    [(val, _)] = _integrate([(p.theta, _pieces(edges, w0, [0.0] * len(w0)))], eps, eps)
    return 0.5 * val


def oracle_free_energy_T0(theta, q: QuadControl | None = None, return_error: bool = False):
    """Zero-temperature reduced free energy by one 1-d quadrature.

    theta is one angle, which returns one value, or a sequence of angles,
    which returns a list of values in the same order from one batched
    quadrature (_integrate); each value has the same bits either way.

    The energy is 1/(32 pi^2) times the integral over the reduced imaginary
    frequency z = 2 l zeta in [0, C] of the integral over u in [z, z + C] of
    u L(e^{-u}, theta), with C = _CUTOFF.  Exchanging the order (Fubini), z
    covers a length min(u, 2C - u) at each u in [0, 2C], so one quadrature
    with a breakpoint at u = C does it.  With return_error=True it also
    returns the quadrature's bound on the absolute error, which covers the
    integrand's rounding (_ROUNDING).
    """
    q = q or QuadControl()
    # epsrel follows epsabs, as in _free_energy: a fixed epsrel would make
    # every abs_tol below it void
    eps = q.abs_tol / 10.0
    one = np.ndim(theta) == 0
    scale = 1.0 / (32.0 * math.pi**2)
    out = [(val * scale, err * scale) if return_error else val * scale
           for val, err in _integrate([(t, _T0_PIECES) for t in ([theta] if one else theta)], eps, eps)]
    return out[0] if one else out


def oracle_pressure(theta: float, tau: float, q: QuadControl | None = None) -> float:
    """Reduced pressure at fixed angle, with no finite difference.

    tau > 0 returns P * 4 pi beta l^3 = 2 E + (1/2) sum_{n>=1} a_n^2
    L(e^{-a_n}, theta), a_n = 2 n tau: one energy quadrature and a sum of
    kernel values (_pressure, which also bounds its error).  tau = 0 returns
    P l^4 / (hbar c) = 3 E0, E0 from oracle_free_energy_T0.
    """
    q = q or QuadControl()
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    if tau == 0.0:
        return 3.0 * oracle_free_energy_T0(theta, q)
    return _pressure([(theta, tau)], q)[0][0]


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
