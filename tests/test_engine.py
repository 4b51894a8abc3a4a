"""Series engine: closed-form limits, frozen quadrature references, symmetry.

Frozen reference values were produced by the quadrature module in this
repository (adaptive per-mode integration, abs_tol 1e-12) and by Richardson
finite differences of that quadrature for the pressure; they are pinned here
so regressions surface without rerunning the slow path.
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    reduced_temperature,
)
from chiral_casimir.kernel import MediumKind
from chiral_casimir.special_functions import ZETA_3, clausen_cos, clausen_sin

N_FIRST = SeriesControl(order="n_first")

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
    taus = np.geomspace(0.3, 8.0, 10)
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
    ctrl = SeriesControl(max_m=100)
    with pytest.warns(RuntimeWarning):
        reduced_free_energy(ReducedPoint(0.3, 1e-7), ctrl)


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


def test_truncation_reports_non_convergence():
    ctrl = SeriesControl(max_m=5)
    res = reduced_free_energy(ReducedPoint(0.3, 0.4), ctrl)
    assert not res.converged
    assert math.isfinite(res.value)
    assert res.error_estimate > 0.0


def test_error_floor_exits_early():
    # at the classical root the target is below the zero-mode error floor;
    # the loop must give up quickly instead of burning max_m terms
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
    with pytest.raises(ValueError):
        SeriesControl(max_m=0)


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
    v, b, l = 3.0e4, 2.0, 1e-6
    cfg = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=v, bfield=b,
                      separation=l, temperature=0.0)
    theta = v * b * l
    expected = HBAR * C_LIGHT * (
        3.0 * reduced_free_energy_T0(theta) / l**4
        - v * b * clausen_sin(3, 2.0 * theta) / (4.0 * math.pi**2 * l**3))
    res = physical_pressure(cfg)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-6)


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

def mp_series(theta, tau, pressure=False):
    """40-digit sum of the m-series with a rigorous bound on its own error.

    Sums m = 1..M and bounds the rest by Abel summation: the magnitudes
    f_m = weight(2 m tau)/m^3 decrease, and partial sums of cos(2 m theta)
    are at most 1/|sin theta|, so |sum_{m>M}| <= f_{M+1}/|sin theta|.
    Stops once that is below 1e-12 of the running sum, a hundredth of the
    default rel_tol.
    """
    import mpmath

    with mpmath.workdps(40):
        th, t = mpmath.mpf(theta), mpmath.mpf(tau)
        scale = 2 if pressure else 1
        total = -scale * mpmath.clcos(3, 2 * th) / 2
        c1 = mpmath.cos(2 * th)
        c_prev, c = mpmath.mpf(1), c1
        y1 = mpmath.exp(-2 * t)
        y = y1
        inv_sin = 1 / abs(mpmath.sin(th))

        def magnitude(m, y):
            a = 2 * m * t
            q = y / (1 - y)
            if pressure:
                return (2 * q + 2 * a * q / (1 - y) + a * a * q * (1 + y) / (1 - y) ** 2) / m**3
            return (q + a * q / (1 - y)) / m**3

        m = 1
        while True:
            total -= c * magnitude(m, y)
            y *= y1
            c_prev, c = c, 2 * c1 * c - c_prev
            m += 1
            bound = magnitude(m, y) * inv_sin
            if bound < 1e-12 * abs(total):
                return float(total), float(bound + abs(total) * mpmath.mpf(2) ** -53)


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


def test_kernel_point_alone_equals_point_in_batch():
    # the Faraday stencil's four separations go through the kernel together
    from dataclasses import replace

    from chiral_casimir.engine import _m_series, _canonical_theta, _ENERGY, _PRESSURE

    cfg = make_config(kind=MediumKind.FARADAY, theta=0.0, verdet=1e5, bfield=3.0)
    l, h = cfg.separation, 1e-5 * cfg.separation
    cfgs = [replace(cfg, separation=s) for s in (l + h, l - h, l + 0.5 * h, l - 0.5 * h)]
    points = [(_canonical_theta(effective_theta(c)), reduced_temperature(c.separation, c.temperature))
              for c in cfgs]
    ctrl = SeriesControl(rel_tol=1e-12)
    for series in (_ENERGY, _PRESSURE):
        batch = _m_series(points, ctrl, ZeroModePolicy.FULL, series)
        alone = [_m_series([pt], ctrl, ZeroModePolicy.FULL, series)[0] for pt in points]
        assert batch == alone
    for c, res in zip(cfgs, _m_series(points, ctrl, ZeroModePolicy.FULL, _ENERGY)):
        scale = K_BOLTZMANN * c.temperature / (4.0 * math.pi * c.separation**2)
        assert physical_free_energy(c, ctrl) == EvalResult(
            res.value * scale, res.error_estimate * scale, res.terms_used, res.converged)


def test_kernel_certifies_below_the_old_clausen_floor():
    # |E| = 1.38e-3 here; a 5e-13 zero-mode charge left it uncertified
    res = reduced_free_energy(ReducedPoint(0.755, 0.05))
    assert res.converged
    assert res.error_estimate <= 1e-10 * abs(res.value)


def test_kernel_stops_at_max_m():
    res = reduced_pressure(ReducedPoint(0.3, 1e-3), SeriesControl(max_m=40))
    assert res.terms_used == 40
    assert not res.converged
    assert res.error_estimate > 1e-10 * abs(res.value)


# ------------------------------------------------------------ n-first cost bound

def test_n_first_refuses_an_unreachable_target_at_once():
    import time

    t0 = time.perf_counter()
    res = reduced_free_energy(ReducedPoint(0.3, 1e-5), N_FIRST)
    assert time.perf_counter() - t0 < 1.0
    assert not res.converged
    assert res.terms_used == 1
    exact = reduced_free_energy(ReducedPoint(0.3, 1e-5)).value
    assert abs(res.value - exact) <= res.error_estimate  # an honest, if useless, bound
    pres = reduced_pressure(ReducedPoint(0.3, 1e-5), N_FIRST)
    assert not pres.converged and pres.terms_used == 1


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
