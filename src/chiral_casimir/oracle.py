"""Brute-force quadrature cross-check for the series engine.

Everything here evaluates the free energy directly from its integral
definition: per Matsubara index n, the transverse-momentum integral becomes

    J_n = integral over u in [2 n tau, infinity) of u * L(e^{-u}, theta) du,

with L the round-trip log determinant, and the reduced free energy is
(1/2) [J_0/2 + sum_{n>=1} J_n].  At zero temperature the sum itself turns
into an integral and the energy is a nested 2-d quadrature.  No series
expansion of the logarithm happens anywhere in this module; the only shared
code with the engine is the kernel logarithm itself, so that an agreement
between the two is a genuine cross-check of the analytic reduction.

Deliberately slow and simple; adaptive Gauss-Kronrod does the work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.integrate import IntegrationWarning, quad

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
          epsrel: float = 1e-12) -> tuple[float, float]:
    # tolerances this close to machine precision make QUADPACK report
    # roundoff even when the estimate is fine; trust the returned error
    # bound instead of the warning, and trip only if that bound is bad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, lo, hi, args=args, epsabs=epsabs, epsrel=epsrel, limit=200)
    if not math.isfinite(val) or err > 1e-8:
        raise RuntimeError(
            f"quadrature failed on [{lo:g}, {hi:g}]: value {val!r}, error {err:g}"
        )
    return val, err


def _segment(theta: float, lo: float, width: float, eps: float) -> float:
    val, _ = _quad(_integrand, lo, lo + width, (theta,), eps)
    return val


def oracle_free_energy(p, q: QuadControl | None = None) -> float:
    """Reduced free energy by direct per-n quadrature; requires p.tau > 0.

    Truncates the Matsubara sum once the per-term bound
    e^{-2 n tau} (1 + 2 n tau) pi^2/6 falls below abs_tol.
    """
    return _free_energy(float(p.theta), float(p.tau), q or QuadControl())


def _free_energy(theta: float, tau: float, q: QuadControl) -> float:
    if tau <= 0.0:
        raise ValueError("oracle_free_energy needs tau > 0; use the T0 oracle instead")
    eps = min(1e-12, q.abs_tol / 100.0)
    total = 0.5 * _segment(theta, 0.0, _CUTOFF, eps)
    for n in range(1, _MAX_N + 1):
        a = 2.0 * n * tau
        if math.exp(-a) * (1.0 + a) * (math.pi**2 / 6.0) < q.abs_tol:
            return 0.5 * total
        total += _segment(theta, a, _CUTOFF, eps)
    raise RuntimeError(f"Matsubara truncation bound not reached within {_MAX_N} terms")


def oracle_matsubara_term(n: int, p, q: QuadControl | None = None) -> float:
    """Single reduced Matsubara term J_n/2 by adaptive quadrature."""
    q = q or QuadControl()
    if n < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {n!r}")
    lo = 2.0 * n * float(p.tau)
    return 0.5 * _segment(float(p.theta), lo, _CUTOFF, min(1e-12, q.abs_tol))


def oracle_free_energy_T0(theta: float, q: QuadControl | None = None,
                          return_error: bool = False):
    """Zero-temperature reduced free energy by nested quadrature.

    Outer integral over the reduced imaginary frequency z = 2 l zeta, inner
    over u in [z, z + cutoff]; absolute error <= 1e-8 at the default control.
    """
    q = q or QuadControl()
    eps_inner = min(1e-12, q.abs_tol / 100.0)

    def outer(z: float) -> float:
        val, _ = _quad(_integrand, z, z + _CUTOFF, (theta,), eps_inner)
        return val

    val, err = _quad(outer, 0.0, _CUTOFF, (), q.abs_tol / 10.0, epsrel=1e-11)
    scale = 1.0 / (32.0 * math.pi**2)
    if return_error:
        return val * scale, (err + eps_inner * _CUTOFF) * scale
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
        def g(lam: float) -> float:
            return oracle_free_energy_T0(theta, tight) / lam**3
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
