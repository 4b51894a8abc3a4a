"""Quadrature cross-check module: self-consistency and engine agreement."""

import inspect
import math
import re
import subprocess
import sys

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
    val, err = oracle_free_energy_T0(0.0, return_error=True)
    assert err > 0.0
    assert abs(val + math.pi**2 / 720.0) <= err + 1e-10


def test_T0_matches_closed_form_across_angles():
    for theta in (0.0, 0.6, math.pi / 4, math.pi / 2):
        assert oracle_free_energy_T0(theta) == pytest.approx(
            reduced_free_energy_T0(theta), rel=0, abs=1e-8)


# ------------------------------------------------------------ finite temperature

def test_engine_agreement_spotcheck():
    for theta, tau in [(0.0, 1.0), (0.3, 0.5), (math.pi / 2, 1.0), (1.2, 0.3)]:
        o = oracle_free_energy(ReducedPoint(theta, tau))
        e = reduced_free_energy(ReducedPoint(theta, tau)).value
        assert e == pytest.approx(o, rel=1e-6)


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
