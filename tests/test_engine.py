"""Series engine: closed-form limits, frozen quadrature references, symmetry.

Frozen reference values were produced by the quadrature module in this
repository (adaptive per-mode integration, abs_tol 1e-12) and by Richardson
finite differences of that quadrature for the pressure; they are pinned here
so regressions surface without rerunning the slow path.
"""

import contextlib
import math
from fractions import Fraction
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
CAPPED = SeriesControl()  # run with the term cap engine._MAX_M lowered

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
    assert matsubara_term(1000, ReducedPoint(0.3, 1.0)) == 0.0  # underflown


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


def test_deep_quantum_regime_warns():
    with pytest.warns(RuntimeWarning):
        reduced_free_energy(ReducedPoint(0.3, 1e-7))


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
            warnings.filterwarnings("ignore", message="tau =")
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


def test_truncation_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_M", 5)
    res = reduced_free_energy(ReducedPoint(0.3, 0.4))
    assert not res.converged
    assert math.isfinite(res.value)
    assert res.error_estimate > 0.0


def test_error_floor_exits_early():
    # at the classical root the target is below the zero-mode error floor;
    # the loop must give up quickly instead of burning _MAX_M terms
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
    (reduced_free_energy, (0.3, 1.0), CAPPED, False),  # term cap
    (reduced_pressure, (0.3, 1.0), N_FIRST, True),  # n_first certified
    (reduced_free_energy, (0.3, 1e-4), N_FIRST, False),  # n_first refusal
])
def test_converged_is_a_python_bool(fn, point, ctrl, converged, monkeypatch):
    if ctrl is CAPPED:
        monkeypatch.setattr(engine, "_MAX_M", 3)
    res = fn(ReducedPoint(*point), ctrl)
    assert type(res.converged) is bool
    assert res.converged is converged


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

def mp_series(theta, tau, pressure=False, faraday=False, tm_only=False):
    """40-digit sum of the m-series with a rigorous bound on its own error.

    Sums m = 1..M and bounds the rest by Abel summation: the magnitudes
    f_m = weight(2 m tau)/m^3 decrease, and partial sums of cos(2 m theta)
    are at most 1/|sin theta|, so |sum_{m>M}| <= f_{M+1}/|sin theta|.
    faraday=True gives the Faraday pressure, the pressure minus
    theta dE/dtheta = theta [Sl2(2 theta) + 2 sum sin(2 m theta) w(2 m tau)/m^2],
    whose sine terms take the same bound (partial sums of sin(2 m theta) are
    at most 1/|sin theta| too); tm_only=True takes the TM_ONLY zero mode,
    -zeta(3)/4, which has no angle slope.  Stops once the bound is below
    1e-12 of the running sum, a hundredth of the default rel_tol.
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
        inv_sin = 1 / abs(mpmath.sin(th))

        def weight(m, y, pressure):
            a = 2 * m * t
            q = y / (1 - y)
            if pressure:
                return 2 * q + 2 * a * q / (1 - y) + a * a * q * (1 + y) / (1 - y) ** 2
            return q + a * q / (1 - y)

        def bound(m, y):
            b = weight(m, y, pressure or faraday) / m**3
            if faraday:
                b += abs(th) * 2 * weight(m, y, False) / m**2
            return b * inv_sin

        m = 1
        while True:
            total -= c * weight(m, y, pressure or faraday) / m**3
            if faraday:
                total -= th * 2 * s * weight(m, y, False) / m**2
            y *= y1
            c_prev, c = c, 2 * c1 * c - c_prev
            s_prev, s = s, 2 * c1 * s - s_prev
            m += 1
            if bound(m, y) < 1e-12 * abs(total):
                return float(total), float(bound(m, y) + abs(total) * mpmath.mpf(2) ** -53)


@pytest.mark.parametrize("theta, tau", [(0.7550, 1e-4), (0.7550, 1e-9), (0.3, 1e-9)])
def test_kernel_within_its_estimate_of_mpmath(theta, tau):
    with pytest.warns(RuntimeWarning) if tau < 1e-6 else contextlib.nullcontext():
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


def test_kernel_certifies_below_the_old_clausen_floor():
    # |E| = 1.38e-3 here; a 5e-13 zero-mode charge left it uncertified
    res = reduced_free_energy(ReducedPoint(0.755, 0.05))
    assert res.converged
    assert res.error_estimate <= 1e-10 * abs(res.value)


def test_kernel_stops_at_max_m(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_M", 40)
    res = reduced_pressure(ReducedPoint(0.3, 1e-3))
    assert res.terms_used == 40
    assert not res.converged
    assert res.error_estimate > 1e-10 * abs(res.value)


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
