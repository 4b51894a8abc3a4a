"""Quadrature cross-check module: self-consistency and engine agreement."""

import inspect
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import chiral_casimir.oracle as oracle_module
from chiral_casimir.engine import (
    ReducedPoint,
    matsubara_term,
    reduced_free_energy,
    reduced_free_energy_T0,
    reduced_pressure,
)
from chiral_casimir.oracle import (
    CERTIFY_TAUS,
    CERTIFY_THETAS,
    CompareReport,
    QuadControl,
    compare,
    oracle_free_energy,
    oracle_free_energy_T0,
    oracle_matsubara_term,
    oracle_pressure,
)


def test_grid_constants():
    assert CERTIFY_THETAS == (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8,
                              math.pi / 2)
    assert CERTIFY_TAUS == (0.3, 0.7, 1.0, 2.0, 5.0)


def test_independence_from_series_code():
    # the whole point of the oracle is an independent derivation path: it may
    # share the kernel logarithm but must not import the series machinery
    src = inspect.getsource(oracle_module)
    imports = re.findall(r"^\s*(?:from|import)\s+[.\w]+.*$", src, re.MULTILINE)
    joined = "\n".join(imports)
    assert "engine" not in joined
    assert "special_functions" not in joined
    assert "kernel" in joined


def test_package_resolves_oracle_names_lazily(package_env):
    # in a fresh interpreter: only the oracle's own names load the oracle
    code = ("import sys\n"
            "import chiral_casimir\n"
            "import chiral_casimir.special_functions\n"
            "assert not hasattr(chiral_casimir, 'Matrix2')\n"
            "assert 'chiral_casimir.oracle' not in sys.modules\n"
            "from chiral_casimir import QuadControl, oracle_free_energy\n"
            "import chiral_casimir.oracle as oracle\n"
            "assert oracle_free_energy is oracle.oracle_free_energy\n"
            "assert QuadControl is oracle.QuadControl\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------- zero temperature

def test_T0_parallel_plates():
    val = oracle_free_energy_T0(0.0)
    assert val == pytest.approx(-math.pi**2 / 720.0, rel=0, abs=1e-8)


def test_T0_error_report_covers_truth():
    # against the 40-digit -Cl4(2 theta)/(8 pi^2) at 201 angles: QUADPACK's
    # estimate alone fell below the true error (up to 3.5e-15) at about half
    # of these points; the reported bound covers it everywhere and stays small
    import mpmath

    with mpmath.workdps(40):
        for abs_tol in (1e-10, 1e-12):
            for i in range(201):
                theta = math.pi / 2 * i / 200
                val, err = oracle_free_energy_T0(theta, QuadControl(abs_tol), return_error=True)
                exact = -mpmath.clcos(4, 2 * mpmath.mpf(theta)) / (8 * mpmath.pi**2)
                assert 0.0 < err <= 1e-12
                assert abs(val - exact) <= err, (abs_tol, theta)


def _count_nodes(monkeypatch):
    # the oracle calls the kernel once per round on an array of nodes, up to
    # _SLICE pieces at a time
    seen = {"nodes": 0, "calls": 0}
    kernel = oracle_module.log_det_kernel

    def counting(x, theta):
        seen["nodes"] += np.size(x)
        seen["calls"] += 1
        return kernel(x, theta)

    monkeypatch.setattr(oracle_module, "log_det_kernel", counting)
    return seen


def test_T0_quadrature_call_budget(monkeypatch):
    # one 1-d quadrature: 189 nodes in one round, against about 23k nested
    # scalar calls
    seen = _count_nodes(monkeypatch)
    for theta in (0.0, 0.6, math.pi / 4, math.pi / 2):
        seen.update(nodes=0, calls=0)
        oracle_free_energy_T0(theta)
        assert 0 < seen["nodes"] <= 400
        assert seen["calls"] <= 3


def test_T0_matches_closed_form_across_angles():
    for theta in (0.0, 0.6, math.pi / 4, math.pi / 2):
        assert oracle_free_energy_T0(theta) == pytest.approx(
            reduced_free_energy_T0(theta), rel=0, abs=1e-12)


# ------------------------------------------------------------ finite temperature

def test_engine_agreement_spotcheck():
    for theta, tau in [(0.0, 1.0), (0.3, 0.5), (math.pi / 2, 1.0), (1.2, 0.3)]:
        o = oracle_free_energy(ReducedPoint(theta, tau))
        e = reduced_free_energy(ReducedPoint(theta, tau)).value
        assert e == pytest.approx(o, rel=1e-6)


def test_thermal_quadrature_call_budget(monkeypatch):
    # one quadrature per point over the whole Matsubara sum: 12,495 nodes
    # in 25 rounds on the certify grid, against 42,147 scalar calls with
    # one quadrature per window
    seen = _count_nodes(monkeypatch)
    for theta in CERTIFY_THETAS:
        for tau in CERTIFY_TAUS:
            oracle_free_energy(ReducedPoint(theta, tau))
    assert 0 < seen["nodes"] <= 15_000
    assert seen["calls"] <= 50


@pytest.mark.parametrize("theta", [0.0, 0.6, math.pi / 2])
@pytest.mark.parametrize("tau", [0.3, 2.0])
def test_one_quadrature_is_the_sum_of_matsubara_terms(theta, tau):
    # (1/2) [J_0/2 + sum_{n=1..N} J_n] term by term, each window [2 n tau,
    # 2 n tau + C]; the one quadrature runs every window to 2 N tau + C,
    # at most 2 (C + 1) e^{-C} more in each J_n
    p = ReducedPoint(theta, tau)
    n_kept = oracle_module._matsubara_count(tau, QuadControl().abs_tol)
    assert n_kept > 0
    terms = [0.5 * oracle_matsubara_term(0, p)]
    terms += [oracle_matsubara_term(n, p) for n in range(1, n_kept + 1)]
    c = oracle_module._CUTOFF
    cut = (n_kept + 1) * 2.0 * (c + 1.0) * math.exp(-c)
    assert oracle_free_energy(p) == pytest.approx(math.fsum(terms), rel=0, abs=1e-12 + cut)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
@pytest.mark.parametrize("tau", [0.01, 0.03, 0.1, 0.3])
def test_truncation_stays_within_abs_tol(theta, tau):
    # stopping at the first term bound below abs_tol left 1.2e-10 (tau 0.3)
    # to 3.2e-9 (tau 0.01) out; the engine's estimate here is below 1e-12
    q = QuadControl()
    p = ReducedPoint(theta, tau)
    exact = reduced_free_energy(p)
    assert exact.converged and exact.error_estimate < 1e-12
    assert abs(oracle_free_energy(p, q) - exact.value) <= q.abs_tol


def test_many_breakpoints_converge():
    # tau = 0.01 keeps about 1,400 windows, each a piece of the first round
    tau = 0.01
    assert oracle_module._matsubara_count(tau, QuadControl().abs_tol) > 1000
    p = ReducedPoint(0.6, tau)
    assert oracle_free_energy(p) == pytest.approx(reduced_free_energy(p).value, rel=0, abs=1e-10)


def _recording_bounds(monkeypatch):
    # (bound, requested tolerance) of every quadrature the oracle runs
    seen = []
    integrate = oracle_module._integrate

    def recording(theta, edges, w0, w1, epsabs, epsrel):
        val, bound = integrate(theta, edges, w0, w1, epsabs, epsrel)
        seen.append((bound, max(epsabs, epsrel * abs(val))))
        return val, bound

    monkeypatch.setattr(oracle_module, "_integrate", recording)
    return seen


def test_every_bound_meets_its_request_at_tight_tolerance(monkeypatch):
    # at abs_tol 1e-12, as oracle_pressure and criterion 08 ask; QUADPACK's
    # estimate was 3.9e-12 at (-1.1, 0.5) and 1.1e-12 at (0.3, 1.0) here
    seen = _recording_bounds(monkeypatch)
    tight = QuadControl(1e-12)
    for theta, tau in ((-1.1, 0.5), (0.3, 1.0), (2.4, 2.0), (7.0, 0.7), (0.7, 0.3)):
        oracle_free_energy(ReducedPoint(theta, tau), tight)
    for theta in (0.0, 0.6, math.pi / 2):
        oracle_free_energy_T0(theta, tight)
        oracle_matsubara_term(1, ReducedPoint(theta, 0.5), tight)
    oracle_pressure(-1.1, 0.5)
    assert len(seen) == 5 + 6 + 4
    for bound, tol in seen:
        assert 0.0 < bound <= tol


def test_unreachable_tolerance_raises_quickly():
    # no bound can meet 1e-300: the rounding floor alone is above it, and
    # the oracle says so instead of returning.  The T = 0 oracle's epsrel
    # follows its epsabs: a fixed 1e-11 returned a bound near 2e-15 here
    p = ReducedPoint(0.3, 1.0)
    for call in (lambda: oracle_free_energy(p, QuadControl(1e-300)),
                 lambda: oracle_matsubara_term(1, p, QuadControl(1e-300)),
                 lambda: oracle_free_energy_T0(0.3, QuadControl(1e-300))):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"theta=0\.3: error bound .* above the tolerance"):
            call()
        assert time.perf_counter() - start < 1.0


def test_many_windows_keep_the_peak_memory_bounded(package_env):
    # at tau = 3e-4 the first round has 57,569 windows; the rule runs on
    # _SLICE pieces at a time, where one call on them all raised a fresh
    # interpreter's peak RSS by 80 MB
    code = ("import resource\n"
            "from chiral_casimir.engine import ReducedPoint\n"
            "from chiral_casimir.oracle import oracle_free_energy\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "oracle_free_energy(ReducedPoint(0.6, 3e-4))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 20 * 1024  # ru_maxrss is in KiB


def test_gauss_kronrod_constants():
    # the embedded G10 is numpy's 10-point Gauss-Legendre rule, and K21
    # integrates x^d over [-1, 1] exactly for d <= 31
    nodes, weights = np.polynomial.legendre.leggauss(10)
    g10 = oracle_module._G10 > 0.0
    assert np.allclose(oracle_module._NODES[g10], nodes, rtol=0, atol=1e-15)
    assert np.allclose(oracle_module._G10[g10], weights, rtol=0, atol=1e-15)
    x, k21 = oracle_module._NODES, oracle_module._K21
    for d in range(32):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert math.fsum(k21 * x**d) == pytest.approx(exact, rel=0, abs=1e-15), d


def test_tightening_the_tolerance_converges():
    p = ReducedPoint(0.4, 0.8)
    loose = oracle_free_energy(p, QuadControl(abs_tol=1e-6))
    tight = oracle_free_energy(p, QuadControl(abs_tol=1e-10))
    assert abs(loose - tight) < 1e-5
    assert abs(tight - reduced_free_energy(p).value) < abs(loose - tight) + 1e-9


def test_single_matsubara_term():
    p = ReducedPoint(0.5, 0.7)
    assert oracle_matsubara_term(2, p) == pytest.approx(
        matsubara_term(2, p), rel=0, abs=1e-8)
    with pytest.raises(ValueError):
        oracle_matsubara_term(-1, p)


def test_tau_zero_rejected():
    with pytest.raises(ValueError):
        oracle_free_energy(ReducedPoint(0.3, 0.0))


def test_periodic_in_theta():
    a = oracle_free_energy(ReducedPoint(0.3, 1.0))
    b = oracle_free_energy(ReducedPoint(0.3 + math.pi, 1.0))
    assert a == pytest.approx(b, rel=0, abs=1e-9)


# ----------------------------------------------------------------- pressure FD

def test_pressure_T0_ideal_metal():
    assert oracle_pressure(0.0, 0.0) == pytest.approx(
        -math.pi**2 / 240.0, rel=0, abs=1e-8)


def test_pressure_T0_evaluates_the_quadrature_once(monkeypatch):
    # E0 does not depend on the stencil's lambda; only 1/lambda^3 does
    seen = []
    t0 = oracle_module.oracle_free_energy_T0

    def counting(theta, q=None, return_error=False):
        seen.append(theta)
        return t0(theta, q, return_error)

    monkeypatch.setattr(oracle_module, "oracle_free_energy_T0", counting)
    assert oracle_pressure(0.6, 0.0) == pytest.approx(
        3.0 * reduced_free_energy_T0(0.6), rel=0, abs=1e-8)
    assert seen == [0.6]


def test_pressure_finite_T_matches_engine():
    for theta, tau in [(0.0, 1.0), (0.3, 0.8)]:
        o = oracle_pressure(theta, tau)
        e = reduced_pressure(ReducedPoint(theta, tau)).value
        assert e == pytest.approx(o, rel=1e-6)


def test_pressure_negative_tau_rejected():
    with pytest.raises(ValueError):
        oracle_pressure(0.3, -1.0)


# -------------------------------------------------------------------- compare

def test_compare_strict_boundary():
    rep = compare(1.0, 2.0, 0.5)
    assert isinstance(rep, CompareReport)
    assert not rep.passed  # rel gap exactly at tolerance does not pass
    assert rep.rel_gap == 0.5


def test_compare_pass_and_zero():
    assert compare(1.0, 1.0 + 1e-12, 1e-6).passed
    zero = compare(0.0, 0.0, 1e-12)
    assert zero.passed
    assert zero.rel_gap == 0.0


def test_compare_rejects_non_finite():
    with pytest.raises(ValueError):
        compare(math.nan, 1.0, 1e-6)
    with pytest.raises(ValueError):
        compare(1.0, math.inf, 1e-6)


def test_quad_control_validation():
    with pytest.raises(ValueError):
        QuadControl(abs_tol=0.0)
    # the integration window, the term cap and the difference step are fixed
    for field in ("kappa_cutoff_factor", "max_n", "fd_step_rel"):
        with pytest.raises(TypeError):
            QuadControl(**{field: 1})
