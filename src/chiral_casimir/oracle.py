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

Deliberately slow and simple; adaptive Gauss-Kronrod does the work.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

from scipy.integrate import quad

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

# Rounding of the T = 0 integrand, which QUADPACK's estimate does not cover
# (the estimate fell up to 23x below the true error).  With x = exp(-u)
# rounded, log_det_kernel is within EPS (1 + 2/u) of L(e^{-u}) (the 2/u from
# x -> 1 at theta = 0; measured at most 0.96 of it against 40-digit values at
# 20,000 random u in [1e-6, 80] and theta in [0, pi/2]).  Weighted by
# u min(u, 2C - u), that integrates to EPS (C^3 + 2 C^2); Gauss-Kronrod sums
# this piecewise quadratic exactly, since the breakpoint sits at its kink.
# Doubled; the window cut beyond u = 2C, under 2e-14, sits inside the doubling.
_T0_ROUNDING = 2.0 * sys.float_info.epsilon * (_CUTOFF**3 + 2.0 * _CUTOFF**2)


@dataclass(frozen=True)
class QuadControl:
    """Tolerance of the quadrature oracle; the window, term cap and step are fixed."""

    abs_tol: float = 1e-10  # reduced units

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol!r}")


def _integrand(u: float, theta: float) -> float:
    return u * log_det_kernel(math.exp(-u), theta)


def _quad(f, lo: float, hi: float, args: tuple, epsabs: float,
          epsrel: float = 1e-12, points: tuple | None = None,
          limit: int = 200) -> tuple[float, float]:
    # tolerances this close to machine precision make QUADPACK report
    # roundoff even when the estimate is fine; full_output keeps it from
    # warning, and the returned error bound, not the message, decides
    val, err = quad(f, lo, hi, args=args, epsabs=epsabs, epsrel=epsrel, limit=limit,
                    points=points, full_output=1)[:2]
    if not math.isfinite(val) or err > 1e-8:
        raise RuntimeError(
            f"quadrature failed on [{lo:g}, {hi:g}]: value {val!r}, error {err:g}"
        )
    return val, err


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


def _summed_integrand(u: float, theta: float, pts: tuple) -> float:
    # window n >= 1 covers u >= 2 n tau = pts[n - 1], the n = 0 one all u >= 0
    # at half weight; bisect_right on quad's own breakpoints counts the
    # windows, so a node never takes the weight of the neighbouring piece
    return (0.5 + bisect_right(pts, u)) * _integrand(u, theta)


def _free_energy(theta: float, tau: float, q: QuadControl) -> float:
    if tau <= 0.0:
        raise ValueError("oracle_free_energy needs tau > 0; use the T0 oracle instead")
    eps = min(1e-12, q.abs_tol / 100.0)
    pts = tuple(2.0 * n * tau for n in range(1, _matsubara_count(tau, q.abs_tol) + 1))
    top = (pts[-1] if pts else 0.0) + _CUTOFF
    # epsrel as tight as epsabs: at abs_tol 1e-12 an epsrel of 1e-12 sits at
    # QUADPACK's rounding floor, where it stops in varying places, and the
    # 1e-5 Richardson stencil of a Faraday pressure reads that as 3e-8
    val, _ = _quad(_summed_integrand, 0.0, top, (theta, pts), eps, epsrel=eps,
                   points=pts or None, limit=200 + 4 * len(pts))
    return 0.5 * val


def oracle_matsubara_term(n: int, p, q: QuadControl | None = None) -> float:
    """Single reduced Matsubara term J_n/2 by adaptive quadrature."""
    q = q or QuadControl()
    if n < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {n!r}")
    lo = 2.0 * n * float(p.tau)
    val, _ = _quad(_integrand, lo, lo + _CUTOFF, (float(p.theta),), min(1e-12, q.abs_tol))
    return 0.5 * val


def _T0_integrand(u: float, theta: float) -> float:
    # u L(e^{-u}) times the length of z in [max(0, u - C), min(C, u)]
    return _integrand(u, theta) * (u if u < _CUTOFF else 2.0 * _CUTOFF - u)


def oracle_free_energy_T0(theta: float, q: QuadControl | None = None,
                          return_error: bool = False):
    """Zero-temperature reduced free energy by one 1-d quadrature.

    The energy is 1/(32 pi^2) times the integral over the reduced imaginary
    frequency z = 2 l zeta in [0, C] of the integral over u in [z, z + C] of
    u L(e^{-u}, theta), with C = _CUTOFF.  Exchanging the order (Fubini), z
    covers a length min(u, 2C - u) at each u in [0, 2C], so one quadrature
    with a breakpoint at u = C does it.  With return_error=True it also
    returns a bound on the absolute error: QUADPACK's estimate plus the
    integrand's rounding (_T0_ROUNDING); at most 2.2e-13 on theta in
    [0, pi/2] at abs_tol 1e-10 and 1e-12.
    """
    q = q or QuadControl()
    val, err = _quad(_T0_integrand, 0.0, 2.0 * _CUTOFF, (theta,), q.abs_tol / 10.0,
                     epsrel=1e-11, points=(_CUTOFF,))
    scale = 1.0 / (32.0 * math.pi**2)
    if return_error:
        return val * scale, (err + _T0_ROUNDING) * scale
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


@dataclass(frozen=True)
class CompareReport:
    """Outcome of one engine-vs-oracle comparison."""

    engine_value: float
    oracle_value: float
    abs_gap: float
    rel_gap: float
    rel_tol: float
    passed: bool


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
