"""Series engine: closed-form limits, frozen quadrature references, symmetry.

Frozen reference values were produced by the quadrature module in this
repository (adaptive per-mode integration, abs_tol 1e-12) and by Richardson
finite differences of that quadrature for the pressure; they are pinned here
so regressions surface without rerunning the slow path.
"""

import math
from fractions import Fraction
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chiral_casimir import engine
from chiral_casimir.engine import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    CavityConfig,
    EvalResult,
    ReducedPoint,
    SeriesControl,
    ZeroModePolicy,
    classical_limit_reduced,
    effective_theta,
    matsubara_term,
    physical_free_energy,
    physical_pressure,
    reduced_free_energy,
    reduced_free_energy_T0,
    reduced_pressure,
    reduced_pressure_T0,
    _unit_scale,
    reduced_temperature,
)
from chiral_casimir.kernel import MediumKind
from chiral_casimir.special_functions import ZETA_3, clausen_cos, clausen_sin

N_FIRST = SeriesControl(order="n_first")
# below every error floor: a sum stops once its tail is within EPS of it
BELOW_FLOOR = SeriesControl(rel_tol=1e-300)


def finished(path, theta, tau, ctrl, *args):
    """The result of a private sum (_images, _m_series): its parts, finished at ctrl's rel_tol."""
    return engine._finish(path(theta, tau, ctrl, *args), ctrl.rel_tol)


def summed(theta, tau, ctrl, zero_mode, pressure, grad=0.0):
    """The result at any theta: folded by _canonical_theta, grad signed by the fold, by _summed."""
    t, sign = engine._canonical_theta(theta)
    return finished(engine._summed, t, tau, ctrl, zero_mode, pressure, grad * sign)


# engine outputs cross-checked against the independent quadrature oracle,
# frozen at more digits than the oracle's 1e-10 budget
ENERGY_REFS = {
    (0.0, 1.0): -1.1321090423384,
    (math.pi / 2, 1.0): 0.9580869760645,
    (math.pi / 4, 2.0): 0.0567240221590,
    (0.3, 0.5): -1.6801786437380,
    (1.2, 0.3): 2.4242071395862,
    (0.0, 5.0): -0.6015278995051,
}
PRESSURE_REFS = {
    (0.0, 1.0): -3.2580807066250,
    (math.pi / 2, 1.0): 2.8304978779820,
    (0.3, 0.8): -3.1380790675070,
    (1.0, 0.4): 3.3479126722330,
    (0.0, 10.0): -1.2020578141860,
}


# ------------------------------------------------------------ closed-form T=0

def test_zero_temperature_ideal_metal():
    assert reduced_free_energy_T0(0.0) == pytest.approx(-math.pi**2 / 720.0,
                                                        rel=1e-14)
    assert reduced_pressure_T0(0.0) == pytest.approx(-math.pi**2 / 240.0,
                                                     rel=1e-14)


def test_zero_temperature_crossed_plates_ratio():
    # quarter-turn rotation flips the sign and scales by 7/8
    ratio = reduced_free_energy_T0(math.pi / 2) / reduced_free_energy_T0(0.0)
    assert ratio == pytest.approx(-7.0 / 8.0, rel=1e-13)


def test_zero_temperature_quarter_angle():
    assert reduced_free_energy_T0(math.pi / 4) == pytest.approx(
        7.0 * math.pi**2 / 92160.0, rel=1e-13)


def test_pressure_is_three_times_energy_at_T0():
    for theta in np.linspace(0.0, math.pi / 2, 9):
        assert reduced_pressure_T0(theta) == 3.0 * reduced_free_energy_T0(theta)


def test_monotone_increasing_on_quarter_period():
    vals = [reduced_free_energy_T0(t) for t in np.linspace(0.0, math.pi / 2, 50)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_T0_gradient_closed_form():
    rng = np.random.default_rng(11)
    h = 1e-5
    for theta in rng.uniform(0.05, math.pi / 2 - 0.05, size=20):
        fd = (reduced_free_energy_T0(theta + h)
              - reduced_free_energy_T0(theta - h)) / (2.0 * h)
        grad = clausen_sin(3, 2.0 * theta) / (4.0 * math.pi**2)
        assert fd == pytest.approx(grad, rel=0, abs=1e-8)


# ------------------------------------------------------------ classical limit

def test_classical_values():
    assert classical_limit_reduced(0.0) == pytest.approx(-0.5 * ZETA_3, rel=1e-15)
    assert classical_limit_reduced(math.pi / 2) == pytest.approx(
        3.0 * ZETA_3 / 8.0, rel=1e-13)
    for theta in (0.2, 0.9, 1.4):
        assert classical_limit_reduced(theta) == pytest.approx(
            -0.5 * clausen_cos(3, 2.0 * theta), rel=1e-13)


def test_series_reaches_classical_plateau():
    # by tau = 60 every thermal weight has underflown
    res = reduced_free_energy(ReducedPoint(0.0, 60.0))
    assert res.converged
    assert res.value == classical_limit_reduced(0.0)
    pres = reduced_pressure(ReducedPoint(0.0, 60.0))
    assert pres.value == pytest.approx(-ZETA_3, rel=1e-14)


# --------------------------------------------------------- frozen references

@pytest.mark.parametrize("point, expected", sorted(ENERGY_REFS.items()))
def test_energy_matches_frozen_quadrature(point, expected):
    res = reduced_free_energy(ReducedPoint(*point))
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("point, expected", sorted(PRESSURE_REFS.items()))
def test_pressure_matches_frozen_quadrature(point, expected):
    res = reduced_pressure(ReducedPoint(*point))
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-9)


# ------------------------------------------------------------------ dual order

def test_dual_order_agreement_on_grid():
    thetas = np.linspace(0.0, math.pi / 2, 10)
    taus = [*np.geomspace(0.3, 8.0, 10), 30.0, 100.0]
    for theta in thetas:
        for tau in taus:
            p = ReducedPoint(theta, tau)
            em = reduced_free_energy(p)
            en = reduced_free_energy(p, N_FIRST)
            assert em.converged and en.converged
            assert en.value == pytest.approx(em.value, rel=1e-9, abs=1e-12)
            pm = reduced_pressure(p)
            pn = reduced_pressure(p, N_FIRST)
            assert pm.converged and pn.converged
            assert pn.value == pytest.approx(pm.value, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------- matsubara terms

def test_zero_mode_term():
    for theta in (0.0, 0.4, math.pi / 2):
        assert matsubara_term(0, ReducedPoint(theta, 1.0)) == pytest.approx(
            -clausen_cos(3, 2.0 * theta), rel=1e-13)


def test_half_weighted_sum_reassembles_energy():
    p = ReducedPoint(0.4, 1.5)
    total = 0.5 * matsubara_term(0, p)
    total += sum(matsubara_term(n, p) for n in range(1, 60))
    res = reduced_free_energy(p)
    # the engine value itself carries the 1e-10 relative truncation budget
    assert total == pytest.approx(res.value, rel=0, abs=1e-9)


def test_matsubara_validation():
    with pytest.raises(ValueError):
        matsubara_term(-1, ReducedPoint(0.3, 1.0))
    with pytest.raises(ValueError):
        matsubara_term(2, ReducedPoint(0.3, 0.0))
    # e^{-2 n tau} rounds to 1: re_polylog_damped's "damping" error named neither
    with pytest.raises(ValueError, match="n = 1, tau = 1e-17"):
        matsubara_term(1, ReducedPoint(0.3, 1e-17))
    assert matsubara_term(1000, ReducedPoint(0.3, 1.0)) == 0.0  # underflown
    # n is an integer: 1.5 returned a value with no meaning; numpy integers pass
    for n in (1.5, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="n must be an integer"):
            matsubara_term(n, ReducedPoint(0.3, 1.0))
    assert matsubara_term(np.int64(2), ReducedPoint(0.3, 1.0)) == matsubara_term(
        2, ReducedPoint(0.3, 1.0))
    # past the float range: 10**400 raised OverflowError.  2 n tau is taken
    # exactly, so a subnormal tau still gives a term, here at 2 n tau = 2^-49
    assert matsubara_term(10**400, ReducedPoint(0.3, 1e-300)) == 0.0
    assert matsubara_term(2**1024, ReducedPoint(0.3, 5e-324)) == matsubara_term(
        1, ReducedPoint(0.3, 2.0**-50))
    with pytest.raises(ValueError, match="need e\\^\\(-2 n tau\\) < 1"):
        matsubara_term(10**400, ReducedPoint(0.3, 0.0))


# ------------------------------------------------------ limits and continuity

@pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 4, math.pi / 2])
def test_high_temperature_limit(theta):
    res = reduced_free_energy(ReducedPoint(theta, 10.0))
    assert res.value == pytest.approx(classical_limit_reduced(theta), rel=1e-6)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2])
def test_low_temperature_continuity(theta):
    # E tau/(8 pi^2) -> E_0 as tau -> 0
    tau = 1e-3
    res = reduced_free_energy(ReducedPoint(theta, tau))
    assert res.converged
    rescaled = res.value * tau / (8.0 * math.pi**2)
    assert rescaled == pytest.approx(reduced_free_energy_T0(theta), rel=1e-5)


def test_deep_quantum_regime_is_summed_by_the_images_without_warning():
    # every image after the first is below e^{-pi^2/tau} of the sum: one image at tau = 1e-7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (reduced_free_energy, reduced_pressure):
            res = fn(ReducedPoint(0.3, 1e-7))
            assert res.converged
            assert res.terms_used == 1


def test_tau_zero_raises():
    with pytest.raises(ValueError):
        reduced_free_energy(ReducedPoint(0.3, 0.0))
    with pytest.raises(ValueError):
        reduced_pressure(ReducedPoint(0.3, 0.0))


def test_extreme_tau_evaluates_or_fails_clearly():
    # the weights stay finite from 1e-300 up to the largest float
    for tau in (1e-300, 1e160, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (reduced_free_energy, reduced_pressure):
                res = fn(ReducedPoint(0.3, tau))
                assert res.converged and math.isfinite(res.value)
    with pytest.raises(ValueError, match="1e-300"):
        reduced_free_energy(ReducedPoint(0.3, 5e-324))


# ------------------------------------------------------------------- symmetry

@given(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.floats(min_value=0.35, max_value=6.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_energy_symmetries(theta, tau):
    base = reduced_free_energy(ReducedPoint(theta, tau)).value
    flipped = reduced_free_energy(ReducedPoint(-theta, tau)).value
    shifted = reduced_free_energy(ReducedPoint(theta + math.pi, tau)).value
    assert flipped == base  # canonical angle is bit-identical under the flip
    assert shifted == pytest.approx(base, rel=0, abs=1e-12 * max(1.0, abs(base)))


# ------------------------------------------------------- convergence contract

def test_eval_result_invariant_on_grid():
    for theta in (0.0, 0.7, 1.3):
        for tau in (0.4, 1.0, 3.0):
            for ctrl in (None, N_FIRST):
                res = reduced_free_energy(ReducedPoint(theta, tau), ctrl)
                assert res.converged
                assert res.error_estimate <= 1e-10 * max(abs(res.value), 1e-300)


def test_truncation_reports_non_convergence():
    # the m-series has no term cap: at a rel_tol below EPS it stops once its
    # tail is within EPS of its sum (at most 14, 11 and 2 terms over these
    # angles), unconverged, and in any case within 1 + 373/tau terms, where
    # the weights at m + 1 underflow (2 (m + 1) tau > 745) and zero its tail
    for tau in (engine._TAU_C, 2.0, 10.0):
        for theta in np.linspace(0.0, math.pi / 2, 30).tolist():
            for kind in "EPF":
                series, grad = _series_and_grad(kind, theta)
                most = finished(engine._m_series, theta, tau, BELOW_FLOOR, ZeroModePolicy.FULL,
                                series, grad)
                res = finished(engine._m_series, theta, tau, SeriesControl(), ZeroModePolicy.FULL,
                               series, grad)
                assert most.converged is False, (tau, theta, kind)
                assert most.terms_used <= 1 + 373.0 / tau, (tau, theta, kind)
                assert abs(res.value - most.value) <= res.error_estimate + most.error_estimate


def test_error_floor_exits_early():
    # at the classical root the target is below the zero-mode error floor;
    # the loop must give up quickly instead of running to the tail's
    # underflow, 1 + 373/tau terms
    res = reduced_free_energy(ReducedPoint(0.7251727334628189, 40.0))
    assert not res.converged
    assert res.terms_used < 10


def test_custom_tolerance_loosens_error():
    tight = reduced_free_energy(ReducedPoint(0.2, 0.8))
    loose = reduced_free_energy(ReducedPoint(0.2, 0.8), SeriesControl(rel_tol=1e-6))
    assert loose.converged
    assert loose.terms_used <= tight.terms_used
    assert loose.value == pytest.approx(tight.value, rel=1e-6)


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(order="sideways")
    # both orders have fixed term caps
    with pytest.raises(TypeError):
        SeriesControl(max_m=100)
    with pytest.raises(TypeError):
        SeriesControl(max_n=10)


@pytest.mark.parametrize("fn, point, ctrl, converged", [
    (reduced_free_energy, (0.3, 1.0), None, True),  # certified
    (reduced_free_energy, (0.7251727334628189, 40.0), None, False),  # error floor
    (reduced_free_energy, (0.05, 2.0), BELOW_FLOOR, False),  # m-series stopped at EPS
    (reduced_pressure, (0.3, 1.0), N_FIRST, True),  # n_first certified
    (reduced_free_energy, (0.3, 1e-4), N_FIRST, False),  # n_first refusal
    (reduced_pressure, (1.2, 1.0), None, True),  # images certified
    (reduced_free_energy, (0.7550357, 1e-9), None, False),  # images' error floor: Cl4 ~ 0
])
def test_converged_is_a_python_bool(fn, point, ctrl, converged):
    res = fn(ReducedPoint(*point), ctrl)
    assert type(res.converged) is bool
    assert res.converged is converged


def m_series_energy(p, ctrl, zero_mode):
    """The m-series alone, at a folded point that the images would take."""
    return finished(engine._m_series, p.theta, p.tau, ctrl, zero_mode, engine._ENERGY)


@pytest.mark.parametrize("fn, point, zero_mode, terms, converged", [
    # the m-series (last case) and the k-series dual, which the images
    # replace, each stopped a term short here, at 1.0003 and 1.0005 times the
    # target, while the stop left out the final rounding the verdict charges
    (reduced_free_energy, (0.004066302431953077, 0.0728114441391683), ZeroModePolicy.FULL, 1,
     True),
    (reduced_free_energy, (1.4193374325022445, 1.375331411488388), ZeroModePolicy.TM_ONLY, 6,
     True),
    # the error floor alone is 1.0035 times the target: no further image helps
    (reduced_pressure, (0.7423066175340628, 0.04968028471515477), ZeroModePolicy.FULL, 1,
     False),
    (m_series_energy, (0.004066302431953077, 0.0728114441391683), ZeroModePolicy.FULL, 136,
     True),
])
def test_the_stop_and_the_verdict_are_one_inequality(fn, point, zero_mode, terms, converged):
    res = fn(ReducedPoint(*point), SeriesControl(rel_tol=1e-13), zero_mode)
    assert (res.terms_used, res.converged) == (terms, converged)
    assert res.converged is (res.error_estimate <= 1e-13 * abs(res.value))


def test_an_infinite_value_is_not_converged():
    # the estimate inf <= rel_tol * inf held: both calls were called converged
    grown = summed(1e15, 1e-300, SeriesControl(), ZeroModePolicy.FULL, engine._PRESSURE, -1e15)
    alone = engine._finish(([math.inf], 0.0, 0.0, 1), 1e-10)
    for res in (grown, alone):
        assert math.isinf(res.value)
        assert res.converged is False


# ------------------------------------------------------------ zero-mode policy

def test_tm_only_shifts_by_the_zero_mode_difference():
    theta, tau = 0.4, 0.8
    p = ReducedPoint(theta, tau)
    full = reduced_free_energy(p).value
    tm = reduced_free_energy(p, zero_mode=ZeroModePolicy.TM_ONLY).value
    expected = -0.5 * clausen_cos(3, 2.0 * theta) + 0.25 * ZETA_3
    assert full - tm == pytest.approx(expected, rel=0, abs=1e-12)
    pfull = reduced_pressure(p).value
    ptm = reduced_pressure(p, zero_mode=ZeroModePolicy.TM_ONLY).value
    assert pfull - ptm == pytest.approx(2.0 * expected, rel=0, abs=1e-12)


def test_tm_only_is_angle_blind_in_the_zero_mode():
    # its n=0 part is -zeta(3)/4 regardless of theta
    tau = 50.0
    a = reduced_free_energy(ReducedPoint(0.0, tau), zero_mode=ZeroModePolicy.TM_ONLY)
    b = reduced_free_energy(ReducedPoint(1.2, tau), zero_mode=ZeroModePolicy.TM_ONLY)
    assert a.value == pytest.approx(-0.25 * ZETA_3, rel=1e-13)
    assert a.value == pytest.approx(b.value, rel=1e-13)


# ------------------------------------------------------------- physical units

def make_config(**kw):
    base = dict(separation=1e-6, temperature=300.0, kind=MediumKind.FIXED_ANGLE,
                theta=0.3, verdet=0.0, bfield=0.0)
    base.update(kw)
    return CavityConfig(**base)


def test_reduced_temperature_formula():
    l, T = 2e-6, 150.0
    expected = 2.0 * math.pi * l * K_BOLTZMANN * T / (HBAR * C_LIGHT)
    assert reduced_temperature(l, T) == pytest.approx(expected, rel=1e-15)


def test_reduced_temperature_keeps_its_digits_below_the_normal_range():
    # 2 pi l k_B T is subnormal at 1e-290 K and 1 um; tau itself is not
    tau = reduced_temperature(1e-6, 1e-290)
    assert tau == pytest.approx(reduced_temperature(1e-6, 1.0) * 1e-290, rel=1e-15)
    # bit for bit the left-to-right formula wherever its product is normal
    for l, T in ((1e-6, 1e-270), (1e-9, 1e-260), (1.0, 1e6)):
        assert reduced_temperature(l, T) == 2.0 * math.pi * l * K_BOLTZMANN * T / (HBAR * C_LIGHT)


def test_tiny_temperatures_approach_T0_or_fail_by_name():
    for fn in (physical_free_energy, physical_pressure):
        cold = fn(make_config(theta=1.0, temperature=1e-290))
        zero = fn(make_config(theta=1.0, temperature=0.0))
        assert cold.converged
        assert abs(cold.value - zero.value) <= cold.error_estimate + zero.error_estimate
        with pytest.raises(ValueError, match="tau"):
            fn(make_config(theta=1.0, temperature=1e-300))
        # k_B T / (4 pi l^k) is subnormal at 1 mm and 1e-300 K, and 0.0 in floats at 1 m and
        # 1e-303 K, yet tau is not
        for l, T in ((1e-3, 1e-300), (1.0, 1e-303)):
            cold = fn(make_config(theta=1.0, separation=l, temperature=T))
            zero = fn(make_config(theta=1.0, separation=l, temperature=0.0))
            assert cold.converged
            assert abs(cold.value - zero.value) <= cold.error_estimate + zero.error_estimate
    # hbar c / l^4 is subnormal at 1e71 m
    with pytest.raises(ValueError, match="separation"):
        physical_pressure(make_config(separation=1e71, temperature=0.0))


def test_unit_scales_keep_their_digits_where_kT_is_subnormal():
    for l, T in ((1e-6, 1e-290), (1e-3, 1e-300), (1.0, 1e-303)):  # k_B T <= 1.4e-313
        for k in (2, 3):
            scale, lift = _unit_scale(l, T, pressure=k == 3)
            exact = Fraction(K_BOLTZMANN) * Fraction(T) / (4 * Fraction(math.pi) * Fraction(l) ** k)
            assert abs(Fraction(scale) / Fraction(lift) / exact - 1) < 5 * 2.0**-53


def test_separations_whose_powers_leave_the_normal_range_fail_by_name():
    # l^4 is 0.0 and l^3 subnormal at 1e-104 m; l^3 is 0.0 at 1e-120 m, where
    # at 300 K the energy overflows a float instead
    for l, T in ((1e-104, 0.0), (1e-120, 300.0)):
        for fn in (physical_free_energy, physical_pressure):
            with pytest.raises(ValueError, match="separation"):
                fn(make_config(separation=l, temperature=T))
    # l^4 overflows at 1e80 m and is subnormal at 1e-80 m; l^3 is normal at
    # both, and the energy keeps its digits there
    for l in (1e80, 1e-80):
        with pytest.raises(ValueError, match="separation"):
            physical_pressure(make_config(separation=l, temperature=0.0))
        res = physical_free_energy(make_config(separation=l, temperature=0.0))
        assert res.converged
        assert res.value == reduced_free_energy_T0(0.3) * (HBAR * C_LIGHT / l**3)
    # the pressure at 1e-90 m and 300 K is about -1e333 Pa
    with pytest.raises(ValueError, match="separation"):
        physical_pressure(make_config(separation=1e-90))


def test_physical_energy_scaling_finite_T():
    cfg = make_config()
    tau = reduced_temperature(cfg.separation, cfg.temperature)
    reduced = reduced_free_energy(ReducedPoint(cfg.theta, tau)).value
    scale = K_BOLTZMANN * cfg.temperature / (4.0 * math.pi * cfg.separation**2)
    res = physical_free_energy(cfg)
    assert res.value == pytest.approx(reduced * scale, rel=1e-12)


def test_physical_energy_scaling_T0():
    cfg = make_config(temperature=0.0)
    res = physical_free_energy(cfg)
    expected = reduced_free_energy_T0(cfg.theta) * HBAR * C_LIGHT / cfg.separation**3
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-14)


def test_physical_pressure_scaling():
    cfg = make_config(theta=0.0, temperature=0.0, separation=1e-6)
    res = physical_pressure(cfg)
    expected = -math.pi**2 * HBAR * C_LIGHT / (240.0 * cfg.separation**4)
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_pressure_is_minus_energy_slope():
    # central-difference cross-check of the analytic pressure path at fixed T
    cfg = make_config(theta=0.25, temperature=400.0, separation=1.5e-6)
    ctrl = SeriesControl(rel_tol=1e-13)
    h = 1e-4 * cfg.separation

    def energy(l):
        return physical_free_energy(make_config(theta=0.25, temperature=400.0,
                                                 separation=l), ctrl).value

    d1 = (energy(cfg.separation + h) - energy(cfg.separation - h)) / (2.0 * h)
    d2 = (energy(cfg.separation + h / 2) - energy(cfg.separation - h / 2)) / h
    richardson = (4.0 * d2 - d1) / 3.0
    assert physical_pressure(cfg, ctrl).value == pytest.approx(-richardson, rel=1e-7)


# ------------------------------------------------------------- medium handling

def test_effective_theta_by_medium():
    assert effective_theta(make_config(theta=0.7)) == 0.7
    faraday = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=40.0,
                          bfield=2.0, separation=1e-5)
    assert effective_theta(faraday) == 40.0 * 2.0 * 1e-5
    optical = make_config(kind=MediumKind.OPTICALLY_ACTIVE, theta=1.1)
    assert effective_theta(optical) == 0.0


def test_optically_active_equals_unrotated_bitwise():
    rng = np.random.default_rng(5)
    for theta in rng.uniform(-3.0, 3.0, size=10):
        active = make_config(kind=MediumKind.OPTICALLY_ACTIVE, theta=float(theta))
        plain = make_config(theta=0.0)
        assert physical_free_energy(active).value == physical_free_energy(plain).value


def test_faraday_energy_equals_fixed_angle_at_same_rotation():
    v, b, l = 120.0, 1.5, 2e-6
    far = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=v, bfield=b,
                      separation=l)
    fix = make_config(theta=v * b * l, separation=l)
    assert physical_free_energy(far).value == physical_free_energy(fix).value


def test_faraday_pressure_picks_up_the_angle_gradient():
    # at T=0: P = hbar c (3 E0/l^4 - V B Sl3(2 theta)/(4 pi^2 l^3))
    import mpmath

    v, b, l = 3.0e4, 2.0, 1e-6
    for bfield in (b, -b, 40.0 * b):  # theta = 0.06, -0.06 and 2.4 (past pi/2)
        cfg = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=v, bfield=bfield,
                          separation=l, temperature=0.0)
        theta = effective_theta(cfg)
        expected = HBAR * C_LIGHT * (
            3.0 * reduced_free_energy_T0(theta) / l**4
            - theta * clausen_sin(3, 2.0 * theta) / (4.0 * math.pi**2 * l**4))
        with mpmath.workdps(40):
            x = mpmath.mpf(theta)
            exact = float((-3 * mpmath.clcos(4, 2 * x) / (8 * mpmath.pi**2)
                           - x * mpmath.clsin(3, 2 * x) / (4 * mpmath.pi**2))
                          * (HBAR * C_LIGHT / l**4))
        res = physical_pressure(cfg)
        assert res.converged and res.terms_used == 0
        assert res.error_estimate <= 1e-10 * abs(res.value)
        assert abs(res.value - expected) <= res.error_estimate
        assert abs(res.value - exact) <= res.error_estimate


def test_faraday_pressure_is_m_first_only():
    for temperature in (300.0, 0.0):
        cfg = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=1e5, bfield=2.0,
                          temperature=temperature)
        with pytest.raises(ValueError, match="m_first"):
            physical_pressure(cfg, N_FIRST)
        assert physical_free_energy(cfg, N_FIRST).converged  # the energy keeps both orders


def test_faraday_pressure_refuses_to_overflow_by_name():
    # theta dE/dtheta ~ 2 theta Sl3(2 theta)/tau overflows a float here (tau = 2.7e-294)
    cfg = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=1e15, bfield=1.0,
                      separation=1.0, temperature=1e-297)
    with pytest.raises(ValueError, match="overflows"):
        physical_pressure(cfg)
    # a thousand times warmer it evaluates
    assert physical_pressure(make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=1e15,
                                         bfield=1.0, separation=1.0, temperature=1e-294)).converged


def test_each_quantity_raises_only_on_its_own_checks():
    # l = 1e-80 m at T = 0: l^3 is a normal float, l^4 is not.  The pressure
    # raises by name on every call, and the energy evaluates, whichever of
    # the two a config sees first
    expected = physical_free_energy(make_config(separation=1e-80, temperature=0.0))
    assert expected.converged and math.isfinite(expected.value)
    for order in ("PEP", "EPEP"):
        cfg = make_config(separation=1e-80, temperature=0.0)
        messages = []
        for quantity in order:
            if quantity == "E":
                assert physical_free_energy(cfg) == expected
                continue
            with pytest.raises(ValueError, match=r"separation\*\*4 must be a normal float") as info:
                physical_pressure(cfg)
            messages.append(str(info.value))
        assert len(messages) == 2 and messages[0] == messages[1], order


def test_faraday_pressure_differs_from_fixed_angle():
    v, b, l = 3.0e4, 2.0, 1e-6
    far = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=v, bfield=b,
                      separation=l, temperature=0.0)
    fix = make_config(theta=v * b * l, separation=l, temperature=0.0)
    pf = physical_pressure(far).value
    px = physical_pressure(fix).value
    assert abs(pf - px) / abs(px) > 1e-4  # the d theta/d l term is real


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(separation=0.0)
    with pytest.raises(ValueError):
        make_config(separation=-1e-6)
    with pytest.raises(ValueError):
        make_config(temperature=-1.0)


def test_eval_result_shape():
    res = reduced_free_energy(ReducedPoint(0.1, 1.0))
    assert isinstance(res, EvalResult)
    assert res.terms_used >= 1
    assert isinstance(res.converged, bool)


# ------------------------------------------------------------ m-series kernel

def mp_series(theta, tau, pressure=False, faraday=False, tm_only=False, rel=1e-12):
    """40-digit sum of the m-series with a rigorous bound on its own error.

    Sums m = 1..M-1 and bounds the rest, terms f_m c_m with
    f_m = weight(2 m tau)/m^3 and |c_m| = |cos(2 m theta)| <= 1, by the least
    of three bounds on sum_{m>=M} f_m c_m:
      * Abel summation: f_m decreases, and partial sums of cos(2 m theta) are
        at most 1/|sin theta|, so the rest is at most f_M/|sin theta|;
      * geometric: weight(a + 2 tau)/weight(a) <= e^{-2 tau}(1 + 2 tau/a)^j
        (j = 1 for w, 2 for the pressure weight), so with
        r = e^{-2 tau}(1 + 1/M)^j < 1 the rest is at most f_M/(1 - r);
      * algebraic: w(a) <= 2/a and the pressure weight is at most 6/a, so
        f_m <= k/(2 tau m^4) (k = 2 or 6) and the rest is at most
        k/(2 tau) (1/M^4 + 1/(3 M^3)).
    faraday=True gives the Faraday pressure, the pressure minus
    theta dE/dtheta = theta [Sl2(2 theta) + 2 sum sin(2 m theta) w(2 m tau)/m^2],
    whose sine terms take the same bounds with 1/m^2 for 1/m^3 (partial sums
    of sin(2 m theta) are at most 1/|sin theta| too); tm_only=True takes the
    TM_ONLY zero mode, -zeta(3)/4, which has no angle slope.  Stops once the
    bound is below rel of the running sum; callers pass a hundredth of the
    rel_tol under test (the default 1e-12 for the default rel_tol).
    """
    import mpmath

    with mpmath.workdps(40):
        th, t = mpmath.mpf(theta), mpmath.mpf(tau)
        scale = 2 if pressure or faraday else 1
        if tm_only:
            total = -scale * mpmath.zeta(3) / 4
        else:
            total = -scale * mpmath.clcos(3, 2 * th) / 2
            if faraday:
                total -= th * mpmath.clsin(2, 2 * th)
        c1, s1 = mpmath.cos(2 * th), mpmath.sin(2 * th)
        c_prev, c = mpmath.mpf(1), c1
        s_prev, s = mpmath.mpf(0), s1
        y1 = mpmath.exp(-2 * t)
        y = y1
        sin_th = abs(mpmath.sin(th))

        def weight(m, y, pressure):
            a = 2 * m * t
            q = y / (1 - y)
            if pressure:
                return 2 * q + 2 * a * q / (1 - y) + a * a * q * (1 + y) / (1 - y) ** 2
            return q + a * q / (1 - y)

        def rest(f, m, j, k, s):
            # bound on the terms from m on, f = weight/m^s the first magnitude
            best = k / (2 * t) * (1 / mpmath.mpf(m) ** (s + 1) + 1 / (s * mpmath.mpf(m) ** s))
            r = y1 * (1 + mpmath.mpf(1) / m) ** j
            if r < 1:
                best = min(best, f / (1 - r))
            if sin_th > 0:
                best = min(best, f / sin_th)
            return best

        def bound(m, y):
            j, k = (2, 6) if pressure or faraday else (1, 2)
            b = rest(weight(m, y, pressure or faraday) / m**3, m, j, k, 3)
            if faraday:
                b += abs(th) * 2 * rest(weight(m, y, False) / m**2, m, 1, 2, 2)
            return b

        m = 1
        while True:
            total -= c * weight(m, y, pressure or faraday) / m**3
            if faraday:
                total -= th * 2 * s * weight(m, y, False) / m**2
            y *= y1
            c_prev, c = c, 2 * c1 * c - c_prev
            s_prev, s = s, 2 * c1 * s - s_prev
            m += 1
            if m % 8 == 0 and bound(m, y) < rel * abs(total):
                return float(total), float(bound(m, y) + abs(total) * mpmath.mpf(2) ** -53)


@pytest.mark.parametrize("theta, tau", [(0.7550, 1e-4), (0.7550, 1e-9), (0.3, 1e-9)])
def test_kernel_within_its_estimate_of_mpmath(theta, tau):
    e = reduced_free_energy(ReducedPoint(theta, tau))
    p = reduced_pressure(ReducedPoint(theta, tau))
    for res, pressure in ((e, False), (p, True)):
        ref, ref_bound = mp_series(theta, tau, pressure)
        assert res.converged
        assert res.error_estimate <= 1e-10 * abs(res.value)
        assert abs(res.value - ref) <= res.error_estimate + ref_bound


@pytest.mark.parametrize("theta, tau, zero_mode", [
    (0.4, 1.0, ZeroModePolicy.FULL),
    (-0.9, 0.3, ZeroModePolicy.FULL),  # negative B
    (2.3, 0.05, ZeroModePolicy.FULL),  # past pi/2
    (7.7, 2.0, ZeroModePolicy.FULL),  # several periods
    (-11.0, 1e-3, ZeroModePolicy.FULL),
    (0.755, 1e-4, ZeroModePolicy.FULL),
    (1.2, 0.01, ZeroModePolicy.TM_ONLY),
    (-4.0, 1e-4, ZeroModePolicy.TM_ONLY),
])
def test_faraday_pressure_within_its_estimate_of_mpmath(theta, tau, zero_mode):
    l = 1e-6
    temperature = tau * HBAR * C_LIGHT / (2.0 * math.pi * l * K_BOLTZMANN)
    bfield = math.copysign(1.0, theta)
    cfg = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=abs(theta) / l, bfield=bfield,
                      separation=l, temperature=temperature, zero_mode=zero_mode)
    res = physical_pressure(cfg)
    scale = K_BOLTZMANN * temperature / (4.0 * math.pi * l**3)
    value, estimate = res.value / scale, res.error_estimate / scale
    ref, ref_bound = mp_series(effective_theta(cfg), reduced_temperature(l, temperature),
                               faraday=True, tm_only=zero_mode is ZeroModePolicy.TM_ONLY)
    assert res.converged
    assert estimate <= 1e-10 * abs(value) * (1.0 + 1e-15)
    # 4 ulps for the unit conversion, here and in the engine
    assert abs(value - ref) <= estimate + ref_bound + 4.0 * 2.0**-53 * abs(value)


# angles anywhere up to the fold's 1e15 rad, within 1e-6 of k pi/2 and
# within 1e-3 of k pi + theta*, the energy zero
_T0_ANGLES = st.one_of(
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
    st.builds(lambda k, d: k * math.pi / 2 + d, st.integers(-10**6, 10**6), st.floats(-1e-6, 1e-6)),
    st.builds(lambda k, d: k * math.pi + 0.7550352635972403 + d, st.integers(-10**6, 10**6),
              st.floats(-1e-3, 1e-3)),
)


@given(_T0_ANGLES, st.sampled_from(["E", "P", "F"]))
@example(0.0, "E")
@example(math.pi / 2, "P")
@example(0.7550352635972403, "E")
@example(0.7552, "P")  # the CLI's default temperature is 0: this point exits 0
@example(1e15, "F")
@example(-1e15, "E")
@example(-3 * math.pi + 0.7550352635972403, "F")
@example(1001 * math.pi / 2 + 1e-12, "F")
@settings(max_examples=150, deadline=None)
def test_T0_results_are_within_their_estimate_of_mpmath(theta, kind):
    # E0 = -Cl4(2 theta)/(8 pi^2), P0 = 3 E0 and the Faraday P0 - theta
    # Sl3(2 theta)/(4 pi^2), at 40 digits, against physical results at
    # l = 1 m, where the Faraday angle V B l is theta itself; 4 ulps for
    # the unit conversion, as in the thermal Faraday test
    import mpmath

    if kind == "F":
        cfg = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=abs(theta),
                          bfield=math.copysign(1.0, theta), separation=1.0, temperature=0.0)
        assert effective_theta(cfg) == theta
    else:
        cfg = make_config(theta=theta, separation=1.0, temperature=0.0)
    res = (physical_free_energy if kind == "E" else physical_pressure)(cfg)
    scale = HBAR * C_LIGHT
    value, estimate = res.value / scale, res.error_estimate / scale
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        ref = -mpmath.clcos(4, 2 * th) / (8 * mpmath.pi**2)
        if kind != "E":
            ref *= 3
        if kind == "F":
            ref -= th * mpmath.clsin(3, 2 * th) / (4 * mpmath.pi**2)
        ref = float(ref)
    assert res.terms_used == 0
    assert abs(value - ref) <= estimate + 4.0 * 2.0**-53 * abs(value)
    if kind != "F":
        # the derived floor: _CL4_ERR/(8 pi^2) = 3.2e-17 (three times that for
        # the pressure) plus rounding, which certifies the energy zero's
        # neighbourhood as narrowly as the thermal sums do
        assert estimate <= (1.0 if kind == "E" else 3.0) * 4e-17 + 8.0 * 2.0**-53 * abs(value)


def test_kernel_certifies_below_the_old_clausen_floor():
    # |E| = 1.38e-3 here; a 5e-13 zero-mode charge left it uncertified
    res = reduced_free_energy(ReducedPoint(0.755, 0.05))
    assert res.converged
    assert res.error_estimate <= 1e-10 * abs(res.value)


def test_kernel_stops_at_max_m():
    # the m-series has no term cap; its largest m is where the weights at
    # m + 1 underflow (2 (m + 1) tau > 745), 1 + 373/tau = 150 here.  Below
    # the error floor the pressure runs on past the default stop, stops
    # within that reach (where its tail is within EPS of its sum) and reports
    # the target missed
    tau = 2.5
    default = reduced_pressure(ReducedPoint(0.0, tau))
    res = reduced_pressure(ReducedPoint(0.0, tau), BELOW_FLOOR)
    assert default.terms_used < res.terms_used <= 1 + 373.0 / tau
    assert res.converged is False
    assert res.error_estimate > BELOW_FLOOR.rel_tol * abs(res.value)
    assert abs(res.value - default.value) <= res.error_estimate + default.error_estimate


def test_a_rel_tol_below_eps_stops_at_the_error_floor():
    # below EPS no target can be met; the m-series at tau = 1.5 took 228-230
    # terms here, running to its tail's underflow, where rel_tol 1e-17 gives
    # the same value in 12-13.  Now every sum stops once its tail is within
    # EPS of its sum, and _finish still judges against the caller's rel_tol
    tau = 1.5
    for theta in (0.0, 0.3, 1.2):
        for kind in "EPF":
            series, grad = _series_and_grad(kind, theta)
            for path in (engine._m_series, engine._images):
                need = finished(path, theta, tau, SeriesControl(rel_tol=1e-17), ZeroModePolicy.FULL,
                                series, grad)
                most = finished(path, theta, tau, BELOW_FLOOR, ZeroModePolicy.FULL, series, grad)
                assert most.terms_used <= 2 * need.terms_used, (path, theta, kind)
                assert most.converged is False
                assert abs(most.value - need.value) <= most.error_estimate + need.error_estimate


def test_numpy_scalar_inputs_give_python_results():
    # ReducedPoint and CavityConfig keep the caller's types; the engine takes
    # Python floats at its doors, so no numpy scalar reaches a result
    f64 = np.float64
    cases = [(reduced_free_energy, ReducedPoint(f64(0.3), f64(3.0)), SeriesControl(rel_tol=1e-17)),
             (reduced_free_energy, ReducedPoint(f64(0.3), f64(0.5)), None),
             (reduced_pressure, ReducedPoint(f64(1.2), f64(3.0)), None),
             (reduced_pressure, ReducedPoint(f64(0.3), f64(0.5)), N_FIRST)]
    for kind in MediumKind:
        for temperature in (0.0, 300.0, 3000.0):
            cfg = CavityConfig(f64(1e-6), f64(temperature), kind=kind, theta=f64(0.4),
                               verdet=f64(1e5), bfield=f64(2.0))
            cases += [(physical_free_energy, cfg, None), (physical_pressure, cfg, None)]
    for fn, arg, ctrl in cases:
        res = fn(arg, ctrl)
        assert [type(v) for v in (res.value, res.error_estimate, res.terms_used, res.converged)] \
            == [float, float, int, bool], (fn, arg)
    assert type(matsubara_term(2, ReducedPoint(f64(0.3), f64(0.5)))) is float


@pytest.mark.parametrize("ctrl", [None, N_FIRST])
def test_a_point_folds_its_angle_once(monkeypatch, ctrl):
    # the energy and then the pressure of one point share the fold that the
    # first call keeps on it; numpy inputs still give Python results
    calls = []
    fold = engine._canonical_theta

    def counted(theta):
        calls.append(theta)
        return fold(theta)

    monkeypatch.setattr(engine, "_canonical_theta", counted)
    point = ReducedPoint(np.float64(-2.5), np.float64(0.7))
    results = [reduced_free_energy(point, ctrl), reduced_pressure(point, ctrl),
               reduced_free_energy(point, ctrl)]
    assert len(calls) == 1
    assert results[2] == results[0]
    for res in results:
        assert [type(v) for v in res] == [float, float, int, bool]
    # the fold is kept outside the fields
    fresh = ReducedPoint(np.float64(-2.5), np.float64(0.7))
    assert point == fresh and hash(point) == hash(fresh) and repr(point) == repr(fresh)


@pytest.mark.parametrize("tau", [0.0, 1e-301])
def test_a_point_that_fails_its_checks_raises_on_every_call(tau):
    point = ReducedPoint(0.3, tau)
    for fn in (reduced_free_energy, reduced_pressure, reduced_free_energy):
        with pytest.raises(ValueError, match="tau"):
            fn(point)
    assert point._fold is None


def mp_images(theta, tau, pressure=False, faraday=False, tm_only=False, rel=1e-12):
    """40-digit sum over the images with a bound on its own error: mp_series' twin at small tau.

    With phi = 2 theta mod 2 pi, the images alpha in {phi, 2 pi - phi} + 2 pi j
    (j >= 0) and rho = e^{-pi alpha/tau},
        E = -Cl4(phi)/tau + tau^3/90 - sum [alpha tau/(2 pi) Li2(rho) + tau^2/(2 pi^2) Li3(rho)],
        P = -3 Cl4(phi)/tau - tau^3/90 + sum alpha^2/2 Li1(rho),
        dE/dtheta = 2 Sl3(phi)/tau + sum +-alpha Li1(rho), + for phi + 2 pi j.
    It sums the pairs j < J, J >= 1.  Each later image lies in
    [2 pi j, 2 pi (j + 1)] for some j >= J, so with q = e^{-2 pi^2/tau} its
    rho <= q^j and Li_s(rho) <= rho/(1 - rho) <= q^j/(1 - q^J).  Its weight,
    w(alpha) = alpha tau/(2 pi) + tau^2/(2 pi^2) (E) or
    alpha^2/2 + |theta| alpha (P and the Faraday pressure), is a polynomial of
    degree at most 2, so w(2 pi (j + 1)) <= ((j + 1)/(J + 1))^2 w(2 pi (J + 1)),
    and the rest is at most 2 w(2 pi (J + 1)) q^J (1 + q)/((1 - q)^3 (1 - q^J)).
    The zero mode and the Faraday pressure are mp_series' (the images carry
    the FULL zero mode; TM_ONLY swaps it).  Stops once the bound is below rel
    of the running sum.
    """
    import mpmath

    with mpmath.workdps(40):
        th, t = mpmath.mpf(theta), mpmath.mpf(tau)
        two_pi = 2 * mpmath.pi
        phi = (2 * th) % two_pi
        scale = 2 if pressure or faraday else 1
        if scale == 1:
            total = -mpmath.clcos(4, phi) / t + t**3 / 90
        else:
            total = -3 * mpmath.clcos(4, phi) / t - t**3 / 90
        if faraday:
            total -= th * 2 * mpmath.clsin(3, phi) / t
        if tm_only:  # the TM_ONLY zero mode in place of the full one
            total += -scale * mpmath.zeta(3) / 4 + scale * mpmath.clcos(3, phi) / 2
            if faraday:
                total += th * mpmath.clsin(2, phi)

        def image(alpha, sign):
            if alpha == 0:  # the Li1 terms vanish, and E keeps tau^2/(2 pi^2) zeta(3)
                return 0 if scale == 2 else -t**2 / (2 * mpmath.pi**2) * mpmath.zeta(3)
            mu = mpmath.pi * alpha / t
            rho = mpmath.exp(-mu)
            if scale == 1:
                return -(alpha * t / two_pi * mpmath.polylog(2, rho)
                         + t**2 / (2 * mpmath.pi**2) * mpmath.polylog(3, rho))
            # -ln(1 - rho), 1 - rho formed without cancelling where rho ~ 1
            li1 = -(mpmath.log(-mpmath.expm1(-mu)) if mu < 1 else mpmath.log1p(-rho))
            value = alpha**2 / 2 * li1
            if faraday:
                value -= th * sign * alpha * li1
            return value

        q = mpmath.exp(-2 * mpmath.pi**2 / t)
        j = 0
        while True:
            total += image(phi + two_pi * j, 1) + image(two_pi - phi + two_pi * j, -1)
            j += 1
            a = two_pi * (j + 1)
            w = a * t / two_pi + t**2 / (2 * mpmath.pi**2) if scale == 1 else a**2 / 2 + abs(th) * a
            bound = 2 * w * q**j * (1 + q) / ((1 - q) ** 3 * (1 - q**j))
            if bound < rel * abs(total):
                return float(total), float(bound + abs(total) * mpmath.mpf(2) ** -53)


@pytest.mark.parametrize("i, tau", list(enumerate(np.geomspace(1e-3, 2.0, 12))))
def test_mp_images_agrees_with_mp_series(i, tau):
    # the two references share no code; they meet on tau in [1e-3, 2]
    theta = (0.3, -1.1, 2.0, 0.755, 1.5707963267948966, 7.7)[i % 6]
    kind = "EPF"[i % 3]
    tm_only = i % 4 == 3
    args = dict(pressure=kind == "P", faraday=kind == "F", tm_only=tm_only)
    a, a_bound = mp_images(theta, float(tau), **args)
    b, b_bound = mp_series(theta, float(tau), **args)
    assert abs(a - b) <= a_bound + b_bound


def _series_and_grad(kind, theta):
    return {"E": (engine._ENERGY, 0.0), "P": (engine._PRESSURE, 0.0),
            "F": (engine._PRESSURE, -theta)}[kind]


def test_images_sum_at_most_their_bound():
    # the tail reaches 0 where pi alpha/tau > 745: at most 2 + 745 tau/pi^2
    # images, even at a rel_tol no sum can meet; at the default rel_tol a few
    ctrl, endless = SeriesControl(), SeriesControl(rel_tol=1e-300)
    for theta in (0.0, 0.3, 1.2, math.pi / 2):
        for tau in (1e-3, 0.3, 1.0, engine._TAU_C):
            for kind in "EPF":
                series, grad = _series_and_grad(kind, theta)
                res = finished(engine._images, theta, tau, ctrl, ZeroModePolicy.FULL, series, grad)
                most = finished(engine._images, theta, tau, endless, ZeroModePolicy.FULL, series,
                                grad)
                assert res.converged and res.terms_used <= 5
                assert not most.converged and most.terms_used <= 2 + 745 * tau / math.pi**2
                assert abs(res.value - most.value) <= res.error_estimate + most.error_estimate


@pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-6, 0.01, 0.7550, math.pi / 2])
def test_small_tau_costs_at_most_two_images(theta):
    # at theta = 0 the m-series took 1,245-1,455 terms here, and at theta = 1e-6
    # and tau = 1e-3 1,245: e.g. reduced_free_energy(ReducedPoint(1e-6, 1e-3))
    for tau in (1e-300, 1e-9, 1e-5, 1e-3, 0.5):
        for zero_mode in ZeroModePolicy:
            for kind in "EPF":
                series, grad = _series_and_grad(kind, theta)
                res = summed(theta, tau, SeriesControl(), zero_mode, series, grad)
                assert res.converged and res.terms_used <= 2, (theta, tau, zero_mode, kind)
    assert reduced_free_energy(ReducedPoint(1e-6, 1e-3)).terms_used == 1


def test_underflown_images_are_not_summed(monkeypatch):
    # where pi 2t/tau > 745.2 every image is 0.0: the closed forms are the
    # sum, with no stop to test.  Just below that the one image is summed
    calls, stops = [], engine._stops

    def counted(*args):
        calls.append(args)
        return stops(*args)

    monkeypatch.setattr(engine, "_stops", counted)
    theta, edge = 0.6, math.pi * 1.2 / 745.2
    for tau, stops_per_sum in ((1e-6, 0), (edge * (1.0 - 1e-6), 0), (edge * (1.0 + 1e-6), 1)):
        for kind in "EPF":
            series, grad = _series_and_grad(kind, theta)
            for zero_mode in ZeroModePolicy:
                del calls[:]
                res = summed(theta, tau, SeriesControl(), zero_mode, series, grad)
                assert len(calls) == stops_per_sum, (tau, kind, zero_mode)
                assert res.converged and res.terms_used == 1
    p = ReducedPoint(theta, 1e-6)
    del calls[:]
    assert reduced_free_energy(p).terms_used == reduced_pressure(p).terms_used == 1
    assert not calls


@pytest.mark.parametrize("kind", ["E", "P", "F"])
@pytest.mark.parametrize("zero_mode", list(ZeroModePolicy))
def test_dual_and_m_series_agree_on_their_overlap(kind, zero_mode):
    # the dual: the image sum, the low-temperature dual of the m-series
    ctrl = SeriesControl()
    served = 0
    for theta in (0.0, 0.2, 0.5, 0.755, 1.0, 1.3, math.pi / 2):
        for tau in (0.3, 0.5, 0.7, 1.0, 1.25, engine._TAU_C):
            series, grad = _series_and_grad(kind, theta)
            img = finished(engine._images, theta, tau, ctrl, zero_mode, series, grad)
            m = finished(engine._m_series, theta, tau, ctrl, zero_mode, series, grad)
            served += img.converged and m.converged  # not so near a zero of the result
            assert img.terms_used <= 5
            assert abs(img.value - m.value) <= img.error_estimate + m.error_estimate
    assert served >= 35


@pytest.mark.parametrize("theta, tau, kind, zero_mode", [
    (0.7550, 1e-4, "E", ZeroModePolicy.FULL),
    (0.7550, 1e-4, "P", ZeroModePolicy.TM_ONLY),
    (0.7550, 1e-9, "F", ZeroModePolicy.FULL),
    (math.pi / 2 - 1e-12, 1e-3, "E", ZeroModePolicy.FULL),
    (math.pi / 2 - 1e-12, 0.4, "F", ZeroModePolicy.TM_ONLY),
    (-1.2, 0.5, "F", ZeroModePolicy.FULL),
    (2.5, 1.2, "E", ZeroModePolicy.TM_ONLY),
    (0.02, 1e-3, "P", ZeroModePolicy.FULL),
] + [
    # either side of pi 2t/tau = 745.2, below which no image is summed (t the
    # folded theta: 1.2, and pi - 2.5 with the fold's sign for F)
    (theta, math.pi * 2.0 * engine._canonical_theta(theta)[0] / 745.2 * (1.0 + side), kind,
     zero_mode)
    for kind, theta in (("E", 1.2), ("P", 1.2), ("F", 2.5))
    for zero_mode in ZeroModePolicy
    for side in (-1e-6, 1e-6)
])
def test_dual_within_its_estimate_of_mpmath(theta, tau, kind, zero_mode):
    # the dual: the image sum, the low-temperature dual of the m-series
    series, grad = _series_and_grad(kind, theta)
    res = summed(theta, tau, SeriesControl(), zero_mode, series, grad)
    assert res.converged and res.terms_used <= 5
    assert res.error_estimate <= 1e-10 * abs(res.value)
    ref, ref_bound = mp_series(theta, tau, pressure=kind == "P", faraday=kind == "F",
                               tm_only=zero_mode is ZeroModePolicy.TM_ONLY)
    assert abs(res.value - ref) <= res.error_estimate + ref_bound


@given(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.floats(min_value=-9.0, max_value=5.0, allow_nan=False),
    st.sampled_from(["E", "P", "F"]),
    st.sampled_from(list(ZeroModePolicy)),
    st.floats(min_value=-13.0, max_value=-4.0, allow_nan=False),
)
@example(0.3, -3.0, "E", ZeroModePolicy.FULL, -10.0)  # one image
@example(-7.9, 0.3, "F", ZeroModePolicy.TM_ONLY, -10.0)  # the m-series
@example(0.004066302431953077, -1.1377, "E", ZeroModePolicy.FULL, -13.0)  # 0.4% under target
@example(0.0, -9.0, "E", ZeroModePolicy.FULL, -10.0)  # the alpha = 0 image
@example(0.0, -4.0, "P", ZeroModePolicy.TM_ONLY, -13.0)
@example(1e-12, -6.0, "F", ZeroModePolicy.FULL, -12.0)
@example(1e-12, -1.0, "E", ZeroModePolicy.TM_ONLY, -13.0)
@example(math.pi / 2 - 1e-12, -8.0, "P", ZeroModePolicy.FULL, -10.0)
@example(math.pi / 2 - 1e-12, 0.1, "F", ZeroModePolicy.TM_ONLY, -12.0)
# either side of the m-series' tau = 1e3 cap, and far above it
@example(0.3, math.log10(999.9), "F", ZeroModePolicy.FULL, -13.0)
@example(0.3, math.log10(1000.1), "F", ZeroModePolicy.FULL, -13.0)
@example(1.2, math.log10(1000.1), "P", ZeroModePolicy.TM_ONLY, -10.0)
@example(0.7, 5.0, "E", ZeroModePolicy.FULL, -13.0)
@example(-1.4, 5.0, "F", ZeroModePolicy.TM_ONLY, -10.0)
# huge angles, and angles within 1e-12 of k pi/2 and of k pi + theta*
@example(1e15, 0.5, "F", ZeroModePolicy.FULL, -10.0)
@example(-1e15, -3.0, "E", ZeroModePolicy.FULL, -10.0)
@example(-987654321.125, 1.0, "P", ZeroModePolicy.TM_ONLY, -12.0)
@example(3e14 + 0.5, 2.5, "F", ZeroModePolicy.FULL, -13.0)
@example(1001 * math.pi / 2 + 1e-12, -2.0, "F", ZeroModePolicy.FULL, -10.0)
@example(7 * math.pi / 2 - 1e-12, 0.7, "P", ZeroModePolicy.FULL, -13.0)
@example(-6 * math.pi / 2 + 1e-12, 0.0, "F", ZeroModePolicy.TM_ONLY, -10.0)
@example(1000 * math.pi + 0.7550352635972403, -1.0, "F", ZeroModePolicy.FULL, -10.0)
@example(-5 * math.pi + 0.7550352635972403 + 1e-12, 0.3, "E", ZeroModePolicy.FULL, -10.0)
@example(3 * math.pi + 0.7550352635972403, 1.0, "F", ZeroModePolicy.FULL, -12.0)
# theta = pi/2 exactly, where the images come in equal pairs and the tail
# bound is all but an equality: |error|/estimate 0.999995 and 0.99985
# against 40-digit sums at rel 1e-30
@example(math.pi / 2, math.log10(1.33), "E", ZeroModePolicy.FULL, math.log10(2.4e-7))
@example(math.pi / 2, math.log10(1.05), "P", ZeroModePolicy.FULL, -6.0)
@settings(max_examples=60, deadline=None)
def test_converged_results_are_within_their_estimate_of_mpmath(theta, log_tau, kind, zero_mode,
                                                                log_tol):
    tau, ctrl = 10.0**log_tau, SeriesControl(rel_tol=10.0**log_tol)
    series, grad = _series_and_grad(kind, theta)
    res = summed(theta, tau, ctrl, zero_mode, series, grad)
    if not res.converged:
        return
    if tau <= engine._TAU_C:
        assert res.terms_used <= 2 + 745 * tau / math.pi**2
    else:
        # e^{-2 m tau} weights: 13 m-terms at most in 200,000 random draws
        assert res.terms_used <= 14
    # below tau = 1e-3 the direct sum would take too many terms at small theta
    reference = mp_images if tau < 1e-3 else mp_series
    ref, ref_bound = reference(theta, tau, pressure=kind == "P", faraday=kind == "F",
                               tm_only=zero_mode is ZeroModePolicy.TM_ONLY,
                               rel=ctrl.rel_tol / 100.0)
    assert abs(res.value - ref) <= res.error_estimate + ref_bound
    assert res.error_estimate <= ctrl.rel_tol * abs(res.value)


# ------------------------------------------------------------ n-first cost bound

def test_n_first_refuses_an_unreachable_target_at_once():
    import time

    for tau in (1e-5, 1e-4):
        t0 = time.perf_counter()
        res = reduced_free_energy(ReducedPoint(0.3, tau), N_FIRST)
        assert time.perf_counter() - t0 < 1.0
        assert not res.converged
        assert res.terms_used == 1
        exact = reduced_free_energy(ReducedPoint(0.3, tau)).value
        assert abs(res.value - exact) <= res.error_estimate  # an honest, if useless, bound
        pres = reduced_pressure(ReducedPoint(0.3, tau), N_FIRST)
        assert not pres.converged and pres.terms_used == 1


def test_n_first_gives_up_on_a_cancelling_sum_once_no_stop_can_come():
    # |P| = 8.66 here, far below the up-front bound |zero mode| + tail(0) =
    # 6.4e5, so the up-front refusal lets the sum run; it used to sum all
    # _MAX_N terms (0.14-0.24 s) and return unconverged with an estimate of
    # 1.8e-7.  From about n = 5,650 on, stop_tol (|S_n| + tail(n)) is below
    # tail(_MAX_N), so no stop can come, and the sum gives up there (5,655
    # terms), not at the cap.
    point = ReducedPoint(-5.529453610820525, 8.853980017038642e-4)
    res = reduced_pressure(point, N_FIRST)
    assert not res.converged and 1 < res.terms_used <= 5_700
    exact = reduced_pressure(point)
    assert exact.converged
    assert abs(res.value - exact.value) <= res.error_estimate  # covers the m_first value


@pytest.mark.parametrize("fn, point, pressure", [
    (reduced_free_energy, (0.3, 0.01), False),  # 1,557 terms
    (reduced_pressure, (0.0, 0.05), True),  # 354 terms
])
def test_n_first_value_is_the_exact_sum_of_its_terms(fn, point, pressure):
    # a float running total was 1.4e-15 and 1.3e-15 off this sum
    theta, tau = point
    res = fn(ReducedPoint(theta, tau), SeriesControl(rel_tol=1e-12, order="n_first"))
    assert res.converged
    zero = matsubara_term(0, ReducedPoint(theta, tau)) * (1.0 if pressure else 0.5)
    phi = 2.0 * theta
    terms = [engine._matsubara_n(2.0 * n * tau, theta, phi, 2.0 * math.cos(phi), pressure)[0]
             for n in range(1, res.terms_used)]
    assert res.value == math.fsum([zero, *terms])


def test_n_first_within_its_estimate_of_mpmath():
    rng = np.random.default_rng(17)
    points = [(float(rng.uniform(-4.0, 4.0)), float(10.0 ** rng.uniform(-3.0, 2.0)))
              for _ in range(8)]
    # a pressure that stopped at its error floor while li1 was charged a^2 3.9e-16 per term
    points.append((-2.3917076921924316, 0.03689621103896396))
    for i, (theta, tau) in enumerate(points):
        zero_mode = (ZeroModePolicy.FULL, ZeroModePolicy.TM_ONLY)[i % 2]
        tm_only = zero_mode is ZeroModePolicy.TM_ONLY
        for fn, pressure in ((reduced_free_energy, False), (reduced_pressure, True)):
            res = fn(ReducedPoint(theta, tau), N_FIRST, zero_mode)
            ref, ref_bound = mp_series(theta, tau, pressure, tm_only=tm_only)
            assert res.converged, (theta, tau, pressure)
            assert abs(res.value - ref) <= res.error_estimate + ref_bound
            assert res.error_estimate <= 1e-10 * abs(res.value)


def test_n_first_agrees_with_m_first_within_both_estimates():
    # n_first sums the Matsubara frequencies through the damped polylogs,
    # m_first the images or the m-series: they share only the zero mode.
    # 2,000 seeded points with tau log-uniform on [0.05, 100] and 40 on
    # [7e-4, 0.05], where n_first takes up to 20k terms; E and P under both
    # zero-mode policies.  Each converged pair agrees within the sum of its
    # estimates, and nearly every pair converges.
    rng = np.random.default_rng(41)
    points = [(float(rng.uniform(-8.0, 8.0)), float(10.0 ** rng.uniform(-1.3, 2.0)))
              for _ in range(2000)]
    points += [(float(rng.uniform(-8.0, 8.0)), float(10.0 ** rng.uniform(-3.15, -1.3)))
               for _ in range(40)]
    compared = 0
    for i, (theta, tau) in enumerate(points):
        zero_mode = (ZeroModePolicy.FULL, ZeroModePolicy.TM_ONLY)[i % 2]
        for fn in (reduced_free_energy, reduced_pressure):
            n = fn(ReducedPoint(theta, tau), N_FIRST, zero_mode)
            m = fn(ReducedPoint(theta, tau), None, zero_mode)
            if n.converged and m.converged:
                compared += 1
                assert abs(n.value - m.value) <= n.error_estimate + m.error_estimate, \
                    (theta, tau, fn, zero_mode)
    assert compared >= 0.98 * 2 * len(points)


# ------------------------------------------------------------ huge angles

def test_huge_angles_are_rejected_by_name():
    for theta in (1e300, -1e16):
        with pytest.raises(ValueError, match="theta"):
            reduced_free_energy(ReducedPoint(theta, 1.0))
        with pytest.raises(ValueError, match="theta"):
            reduced_free_energy_T0(theta)
    # the largest accepted angle folds like any other
    big = 1e15
    res = reduced_free_energy(ReducedPoint(big, 1.0))
    assert res.converged and math.isfinite(res.value)
