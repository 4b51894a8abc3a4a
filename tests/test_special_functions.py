"""Clausen sums and damped polylogarithms against brute-force partial sums.

Reference values come from direct numpy summation with an Abel tail bound
|sum_{m>M} e^{i m phi}/m^s| <= 1/(|sin(phi/2)| M^s), so every tolerance
below is backed by an explicit remainder estimate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiral_casimir.special_functions import (
    ZETA_2,
    ZETA_3,
    ZETA_4,
    clausen_cos,
    clausen_sin,
    re_polylog_damped,
)

BRUTE_TERMS = 5_000_000

# angles outside [0, 2 pi], which the fold brings back
OUTSIDE = (-20.0, 20.0, -1.0, -2.0 * math.pi + 0.3, 2.0 * math.pi * 3 + 0.3,
           2.0 * math.pi * 100 + 0.3)


def brute_clausen(s: int, phi: float, kind: str, terms: int = BRUTE_TERMS) -> float:
    total = 0.0
    fn = np.cos if kind == "cos" else np.sin
    for lo in range(1, terms + 1, 1_000_000):
        m = np.arange(lo, min(lo + 1_000_000, terms + 1), dtype=np.float64)
        total += float(np.sum(fn(m * phi) / m**s))
    return total


def abel_tail(s: int, phi: float, terms: int = BRUTE_TERMS) -> float:
    return 1.0 / (abs(math.sin(phi / 2.0)) * terms**s)


def brute_polylog(s: int, r: float, phi: float) -> float:
    # geometric decay; 10^7 terms covers r up to 1 - 1e-6 at 1e-13
    total = 0.0
    for lo in range(1, 16_000_001, 4_000_000):
        m = np.arange(lo, lo + 4_000_000, dtype=np.float64)
        chunk = float(np.sum(np.exp(m * math.log(r)) * np.cos(m * phi) / m**s))
        total += chunk
        if abs(chunk) < 1e-18:
            break
    return total


# ---------------------------------------------------------------- closed forms

@pytest.mark.parametrize("s, phi, expected", [
    (2, 0.0, ZETA_2),
    (3, 0.0, ZETA_3),
    (4, 0.0, ZETA_4),
    (2, math.pi, -(math.pi**2) / 12.0),     # -eta(2)
    (3, math.pi, -0.75 * ZETA_3),           # -eta(3)
    (4, math.pi, -7.0 * math.pi**4 / 720.0),
])
def test_cosine_endpoint_values(s, phi, expected):
    # s=3 at phi=pi exercises the accelerated log expansion at its slowest
    # point; ~1e-13 is that branch's documented absolute budget
    assert clausen_cos(s, phi) == pytest.approx(expected, rel=0, abs=1e-13)


@pytest.mark.parametrize("s, phi, expected", [
    (2, 0.0, 0.0),
    (3, 0.0, 0.0),
    (4, 0.0, 0.0),
    (3, math.pi, 0.0),
    (3, math.pi / 2.0, math.pi**3 / 32.0),  # 1 - 1/27 + 1/125 - ...
])
def test_sine_endpoint_values(s, phi, expected):
    assert clausen_sin(s, phi) == pytest.approx(expected, rel=0, abs=5e-15)


def test_zeta_constants():
    assert ZETA_2 == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
    assert ZETA_4 == pytest.approx(math.pi**4 / 90.0, rel=1e-15)
    assert ZETA_3 == pytest.approx(1.2020569031595943, rel=1e-15)


# ------------------------------------------------------------- brute agreement

@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("phi", [0.4, 1.0, 1.4503454669256377, 2.2, math.pi / 2, 3.0, 5.5])
def test_cosine_matches_partial_sums(s, phi):
    ref = brute_clausen(s, phi, "cos")
    tol = abel_tail(s, phi) + 1e-12
    assert abs(clausen_cos(s, phi) - ref) < tol


@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("phi", [0.4, 1.0, 2.2, math.pi / 2, 3.0, 5.5])
def test_sine_matches_partial_sums(s, phi):
    ref = brute_clausen(s, phi, "sin")
    tol = abel_tail(s, phi) + 1e-12
    assert abs(clausen_sin(s, phi) - ref) < tol


def test_near_corner_small_angle():
    # log-singular derivatives cluster at phi = 0; the accelerated branch
    # must stay accurate where the plain partial sum converges slowest
    phi = 1e-4
    ref = brute_clausen(3, phi, "cos", terms=2_000_000)
    assert abs(clausen_cos(3, phi) - ref) < abel_tail(3, phi, 2_000_000) + 1e-12
    ref2 = brute_clausen(2, phi, "sin", terms=2_000_000)
    assert abs(clausen_sin(2, phi) - ref2) < abel_tail(2, phi, 2_000_000) + 1e-12


def test_clausen_cos3_within_the_engine_budget_against_mpmath():
    # dense grid of (0, 2 pi) plus folded angles, 40-digit reference; the
    # engine charges _CLAUSEN_ERR to every zero mode it evaluates
    import mpmath

    from chiral_casimir.engine import _CLAUSEN_ERR

    n = 1001
    phis = [2.0 * math.pi * i / n for i in range(1, n)] + list(OUTSIDE)
    with mpmath.workdps(40):
        worst = max(abs(clausen_cos(3, phi) - mpmath.clcos(3, phi)) for phi in phis)
    assert worst <= _CLAUSEN_ERR


def test_clausen_sin2_within_the_engine_budget_against_mpmath():
    # the Faraday pressure charges _SL2_ERR per unit angle to sign Sl2(2 t),
    # with (t, sign) the engine's fold of theta; 40-digit reference at the
    # unfolded theta, over a grid of [0, pi], folded angles and angles
    # just off multiples of pi/2 (there the slope of Sl2 grows like ln(1/t))
    import mpmath

    from chiral_casimir.engine import _SL2_ERR, _canonical_theta

    n = 401
    thetas = [math.pi * i / n for i in range(n + 1)] + [0.5 * phi for phi in OUTSIDE]
    for k in (1, 2, 7, 10**6, 3 * 10**14):
        for d in (0.0, 1e-17, 1e-12, 1e-6, -1e-9):
            thetas += [k * math.pi / 2 + d, -k * math.pi + d]
    worst = 0.0
    with mpmath.workdps(40):
        for theta in thetas:
            t, sign = _canonical_theta(theta)
            ref = mpmath.clsin(2, 2 * mpmath.mpf(theta))
            worst = max(worst, abs(sign * clausen_sin(2, 2.0 * t) - ref))
    assert worst <= _SL2_ERR


@pytest.mark.parametrize("s", [2, 4])
def test_clausen_sin_log_expansions_against_mpmath(s):
    import mpmath

    n = 201
    phis = [2.0 * math.pi * i / n for i in range(1, n)] + list(OUTSIDE)
    with mpmath.workdps(40):
        worst = max(abs(clausen_sin(s, phi) - mpmath.clsin(s, phi)) for phi in phis)
    assert worst <= 5e-15


# ---------------------------------------------------------------- periodicity

@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.sampled_from([2, 3, 4]),
)
@settings(max_examples=200, deadline=None)
def test_cosine_periodic_and_even(phi, s):
    base = clausen_cos(s, phi)
    assert clausen_cos(s, phi + 2.0 * math.pi) == pytest.approx(base, rel=0, abs=1e-12)
    assert clausen_cos(s, -phi) == pytest.approx(base, rel=0, abs=1e-12)


@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.sampled_from([2, 3, 4]),
)
@settings(max_examples=200, deadline=None)
def test_sine_periodic_and_odd(phi, s):
    base = clausen_sin(s, phi)
    assert clausen_sin(s, phi + 2.0 * math.pi) == pytest.approx(base, rel=0, abs=1e-12)
    assert clausen_sin(s, -phi) == pytest.approx(-base, rel=0, abs=1e-12)


@pytest.mark.parametrize("fn, args", [
    (clausen_cos, (3, 1e300)),
    (clausen_cos, (4, 1e20)),
    (clausen_sin, (2, 1e300)),
    (re_polylog_damped, (3, 0.5, 1e300)),
])
def test_huge_angles_are_rejected_by_name(fn, args):
    # past 2e15 the fold into [-pi, pi] is no longer accurate
    with pytest.raises(ValueError, match=r"\|phi\| must be at most 2e\+15"):
        fn(*args)
    with pytest.raises(ValueError, match="phi"):
        fn(*args[:-1], math.inf)
    assert math.isfinite(fn(*args[:-1], -2e15))  # the largest accepted angle


def test_derivative_ladder():
    # d/dphi Cl_cos(s) = -Cl_sin(s-1); central differences, h^2 truncation
    rng = np.random.default_rng(7)
    h = 1e-6
    for phi in rng.uniform(0.3, 5.9, size=20):
        fd = (clausen_cos(3, phi + h) - clausen_cos(3, phi - h)) / (2.0 * h)
        assert fd == pytest.approx(-clausen_sin(2, phi), rel=0, abs=1e-6)
        fd4 = (clausen_sin(4, phi + h) - clausen_sin(4, phi - h)) / (2.0 * h)
        assert fd4 == pytest.approx(clausen_cos(3, phi), rel=0, abs=1e-6)


# ----------------------------------------------------------- damped polylogs

def test_polylog_known_points():
    # Li_3(-0.3) and the dilogarithm identity Li_2(1/2) = pi^2/12 - ln^2(2)/2
    li3 = re_polylog_damped(3, 0.3, math.pi)
    assert li3 == pytest.approx(-0.28964003414183094, rel=0, abs=1e-13)
    li2 = re_polylog_damped(2, 0.5, 0.0)
    assert li2 == pytest.approx(math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0,
                                rel=0, abs=1e-13)


@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("r, phi", [
    (0.1, 0.9), (0.5, 2.0), (0.9, 0.3), (0.99, 4.4), (0.999, 1.7),
])
def test_polylog_matches_brute(s, r, phi):
    assert re_polylog_damped(s, r, phi) == pytest.approx(
        brute_polylog(s, r, phi), rel=0, abs=2e-13)


def test_polylog_bound_is_honest():
    for s, r, phi in [(2, 0.5, 1.1), (3, 0.018, 1.57), (2, 0.999, 2.4)]:
        val, bound = re_polylog_damped(s, r, phi, with_bound=True)
        assert val == re_polylog_damped(s, r, phi)  # same summation path
        assert bound >= 0.0
        assert abs(val - brute_polylog(s, r, phi)) <= bound + 1e-13


def test_polylog_continuity_to_circle():
    # r -> 1 limit approaches the Clausen value like (1-r) log(1-r)
    gap = abs(re_polylog_damped(2, 1.0 - 1e-6, 1.0) - clausen_cos(2, 1.0))
    assert gap < 1e-4
    assert gap > 0.0


def test_polylog_fails_at_once_where_the_bound_is_out_of_reach():
    # r within ~1e-8 of 1: 2^28 terms cannot meet the 1e-13 tail bound, and
    # the bound at the last chunk end tells so before any summing
    import time

    from chiral_casimir.engine import ReducedPoint, matsubara_term

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="tail bound"):
        matsubara_term(3, ReducedPoint(0.8, 1.3e-9))
    for s, r in ((2, 1.0 - 1e-9), (3, 1.0 - 1e-14)):
        with pytest.raises(RuntimeError, match="tail bound"):
            re_polylog_damped(s, r, 0.5)
    assert time.perf_counter() - t0 < 1.0


def test_polylog_zero_damping():
    assert re_polylog_damped(3, 0.0, 2.2) == 0.0
    assert re_polylog_damped(3, 0.0, 2.2, with_bound=True) == (0.0, 0.0)


# ------------------------------------------------------------------ validation

@pytest.mark.parametrize("bad", [0, 1, 5, -2])
def test_order_out_of_range(bad):
    with pytest.raises(ValueError):
        clausen_cos(bad, 1.0)


@pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
def test_polylog_domain(r):
    with pytest.raises(ValueError):
        re_polylog_damped(2, r, 1.0)
