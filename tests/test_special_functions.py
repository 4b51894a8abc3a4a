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
    _C3_COEF,
    _DAMPED_TAILS,
    _S2_COEF,
    _S4_COEF,
    clausen_cos,
    clausen_sin,
    polylog_exp,
    polylog_exp_23,
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


def test_clausen_cos4_within_the_engine_budget_against_mpmath():
    # the image sum charges _CL4_ERR to clausen_cos(4, 2 t), with t the
    # engine's fold of theta; 40-digit reference at the unfolded theta, over
    # a grid of [0, pi], folded angles, angles just off multiples of pi/2 and
    # the zero of Cl4(2 theta) near theta* = 0.755
    import mpmath

    from chiral_casimir.engine import _CL4_ERR, _canonical_theta

    n = 401
    thetas = [math.pi * i / n for i in range(n + 1)] + [0.5 * phi for phi in OUTSIDE]
    for k in (1, 2, 7, 10**6, 3 * 10**14):
        for d in (0.0, 1e-17, 1e-12, 1e-6, -1e-9):
            thetas += [k * math.pi / 2 + d, -k * math.pi + d, k * math.pi + 0.7550352635972402 + d]
    worst = 0.0
    with mpmath.workdps(40):
        for theta in thetas:
            t, _ = _canonical_theta(theta)
            worst = max(worst, abs(clausen_cos(4, 2.0 * t) - mpmath.clcos(4, 2 * mpmath.mpf(theta))))
    assert worst <= _CL4_ERR


@pytest.mark.parametrize("s", [2, 4])
def test_clausen_sin_log_expansions_against_mpmath(s):
    import mpmath

    n = 201
    phis = [2.0 * math.pi * i / n for i in range(1, n)] + list(OUTSIDE)
    with mpmath.workdps(40):
        worst = max(abs(clausen_sin(s, phi) - mpmath.clsin(s, phi)) for phi in phis)
    assert worst <= 5e-15


# ------------------------------------------------------- Li_s(e^{-mu}), real

def mp_li(s: int, mu: float):
    """Li_s(e^{-mu}) to 40 digits; e^{-mu} keeps them down to mu = 1e-300."""
    import mpmath

    with mpmath.workdps(40 + max(0, int(-math.log10(mu))) if mu else 40):
        m = mpmath.mpf(mu)
        if s == 1:  # -ln(1 - e^{-mu}), 1 - e^{-mu} formed without cancelling
            return -(mpmath.log(-mpmath.expm1(-m)) if mu < 1 else mpmath.log1p(-mpmath.exp(-m)))
        return mpmath.polylog(s, mpmath.exp(-m))


# each branch and both sides of each switch: mu = 0 (s >= 2), the log
# expansions below 1, Li_1's expm1 form below ln 2, the direct sums above 1,
# and e^{-mu} subnormal (beyond 708.4) and 0 (beyond 745.1)
POLYLOG_EXP_MUS = (1e-300, 1e-12, 1e-3, math.log(2.0) - 1e-12, math.log(2.0) + 1e-12, 0.999999999,
                   1.0, 1.000000001, 1.0 + 1e-15, 2.0 * math.pi - 1e-9, 2.0 * math.pi + 1e-9, 7.0,
                   40.0, 708.0, 709.0, 745.0, 746.0)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_polylog_exp_within_the_engine_budget_against_mpmath(s):
    # the image sum charges engine._LI_ULPS units of 2^-53 of every Li it forms
    from chiral_casimir.engine import _LI_ULPS

    n = 2001
    mus = [2.0 * math.pi * i / n for i in range(1, n)] + list(POLYLOG_EXP_MUS)
    worst = 0.0
    for mu in mus:
        value, ref = polylog_exp(s, mu), mp_li(s, mu)
        if ref >= 2.2250738585072014e-308:
            worst = max(worst, float(abs(value - ref) / ref))
        else:  # e^{-mu} subnormal or 0: an absolute error
            assert abs(value - ref) <= 1e-322, (s, mu)
    assert worst <= _LI_ULPS * 2.0**-53
    if s > 1:
        assert polylog_exp(s, 0.0) == (ZETA_2 if s == 2 else ZETA_3)
        assert polylog_exp_23(0.0) == (ZETA_2, ZETA_3)
    else:
        assert polylog_exp(1, 0.0) == math.inf  # -ln(1 - 1)


def test_the_li_ratios_the_image_floor_uses():
    # the image sum bounds how the rounding of an image moves it through
    # mu Li_{s-1}(e^{-mu}) <= (1 + mu) Li_s(e^{-mu}) for s = 1 (Li_0 =
    # e^{-mu}/(1 - e^{-mu})) and s = 2
    import mpmath

    for mu in np.geomspace(1e-30, 1e3, 200):
        mu = float(mu)
        with mpmath.workdps(40 + max(0, int(-math.log10(mu)))):
            m = mpmath.mpf(mu)
            li0 = 1 / mpmath.expm1(m)
            assert m * li0 <= (1 + m) * mp_li(1, mu)
            assert m * mp_li(1, mu) <= (1 + m) * mp_li(2, mu)


@pytest.mark.parametrize("s, mu", [(0, 1.0), (4, 1.0), (2, -1e-300), (1, math.nan)])
def test_polylog_exp_domain(s, mu):
    with pytest.raises(ValueError):
        polylog_exp(s, mu)


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


def mp_damped(s: int, r: float, phi: float):
    """Re Li_s(r e^{i phi}) to 40 digits at the float r and phi as given."""
    import mpmath

    with mpmath.workdps(40):
        return mpmath.re(mpmath.polylog(s, mpmath.mpf(r) * mpmath.expj(mpmath.mpf(phi))))


def _best_of_three(fn):
    import time

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


def test_polylog_near_one_evaluates_at_constant_cost():
    # r within ~1e-8 of 1 used to raise a RuntimeError: 2^28 terms of the
    # direct sum could not meet a 1e-13 tail bound.  The log expansion in
    # mu = -ln r - i phi serves every r < 1 at the same cost.
    from chiral_casimir import engine
    from chiral_casimir.engine import ReducedPoint, matsubara_term

    for s, r in ((2, 1.0 - 1e-9), (3, 1.0 - 1e-9), (2, 1.0 - 1e-14), (3, 1.0 - 1e-14)):
        (value, bound), took = _best_of_three(lambda: re_polylog_damped(s, r, 0.5, with_bound=True))
        assert took < 1e-3, (s, r, took)
        assert abs(value - mp_damped(s, r, 0.5)) <= bound, (s, r)
    theta, tau = 0.8, 1.3e-9
    term, took = _best_of_three(lambda: matsubara_term(3, ReducedPoint(theta, tau)))
    assert took < 1e-3
    a = 6.0 * tau
    value, bound = engine._matsubara_n(a, theta, 2.0 * theta, 2.0 * math.cos(2.0 * theta),
                                       pressure=False)
    assert term == value
    r = math.exp(-a)
    ref = -(mp_damped(3, r, 2.0 * theta) + a * mp_damped(2, r, 2.0 * theta))
    assert abs(term - ref) <= bound


def _damped_points(n: int, seed: int):
    # Re mu = -ln r log-uniform over both branches, r = 0, 1e-300, both sides
    # of e^{-1} (the branch switch) and 1 - 1e-12; phi at the edge angles,
    # uniform, and folded from far out, up to 2e15
    rng = np.random.default_rng(seed)
    edge_r = (0.0, 1e-300, math.exp(-1.0), math.nextafter(math.exp(-1.0), 1.0),
              math.nextafter(math.exp(-1.0), 0.0), 1.0 - 1e-12)
    edge_phi = (0.0, 1e-9, -1e-9, math.pi / 2, math.pi, -math.pi, 2e15, -1.999999999e15)
    points = [(s, r, phi) for s in (2, 3, 4) for r in edge_r for phi in edge_phi]
    while len(points) < n:
        s = int(rng.integers(2, 5))
        r = math.exp(-(10.0 ** rng.uniform(-12.0, 2.8)))
        pick = rng.integers(0, 4)
        if pick == 0:
            phi = float(rng.choice(edge_phi))
        elif pick == 1:
            phi = float(rng.uniform(-math.pi, math.pi))
        elif pick == 2:
            turns = rng.integers(-10**6, 10**6)
            phi = float(rng.uniform(-math.pi, math.pi) + 2.0 * math.pi * turns)
        else:
            phi = float(rng.uniform(-2e15, 2e15))
        points.append((s, r, phi))
    return points


def test_damped_polylog_within_its_bound_of_mpmath():
    # every branch: the direct sum from -ln r = 1 on, the log expansion
    # below, r = 0 and r = 1e-300; the bound is derived in special_functions,
    # next to re_polylog_damped
    points = _damped_points(1200, 29)
    for s, r, phi in points:
        value, bound = re_polylog_damped(s, r, phi, with_bound=True)
        assert value == re_polylog_damped(s, r, phi)
        if r == 0.0:
            assert (value, bound) == (0.0, 0.0)
            continue
        assert abs(value - mp_damped(s, r, phi)) <= bound, (s, r, phi)
        assert bound <= (6e-16 if r <= math.exp(-1.0) else 3.4e-14), (s, r, phi)


def test_damped_log_tails_leave_out_less_than_their_charge():
    # re_polylog_damped bounds the rounding of its Bernoulli tails with
    # c_{j+1} <= c_j/(2 pi)^2, and charges 1e-20 for the terms it leaves out
    # at |mu|^2 < 1 + pi^2, where they fall by w = |mu|^2/(2 pi)^2 a step
    mu2 = 1.0 + math.pi**2
    w = mu2 / (2.0 * math.pi) ** 2
    for s, coefs, first, odd in ((2, _S2_COEF, 1, True), (3, _C3_COEF, 2, False),
                                 (4, _S4_COEF, 2, True)):
        for j in range(first, len(coefs) - 1):
            assert coefs[j + 1] * (2.0 * math.pi) ** 2 < coefs[j]
        kept = len(_DAMPED_TAILS[s])
        assert _DAMPED_TAILS[s] == coefs[first:first + kept][::-1]
        j = first + kept  # the first term left out
        assert coefs[j] * mu2**j * (math.sqrt(mu2) if odd else 1.0) / (1.0 - w) < 1e-20


def test_polylog_zero_damping():
    assert re_polylog_damped(3, 0.0, 2.2) == 0.0
    assert re_polylog_damped(3, 0.0, 2.2, with_bound=True) == (0.0, 0.0)


# ------------------------------------------------------------------ validation

@pytest.mark.parametrize("bad", [0, 1, 5, -2])
def test_order_out_of_range(bad):
    with pytest.raises(ValueError):
        clausen_cos(bad, 1.0)


@pytest.mark.parametrize("s", [1, 5])
def test_polylog_order_out_of_range(s):
    with pytest.raises(ValueError, match="polylog order must be 2, 3 or 4"):
        re_polylog_damped(s, 0.5, 0.3)


def test_damped_horner_sequences_are_the_reversed_inverse_powers():
    # re_polylog_damped and polylog_exp_23 walk these, built once, in place
    # of a slice per call
    from chiral_casimir.special_functions import _DAMPED_HORNER, _HORNER_23, _INV_POW

    for s in (2, 3, 4):
        assert len(_DAMPED_HORNER[s]) == 43
        for k in range(1, 44):
            assert list(_DAMPED_HORNER[s][k - 1]) == _INV_POW[s][k - 1::-1], (s, k)
    assert len(_HORNER_23) == 43
    for k in range(1, 44):
        assert list(_HORNER_23[k - 1]) == list(zip(_INV_POW[2], _INV_POW[3]))[k - 1::-1], k


@pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
def test_polylog_domain(r):
    with pytest.raises(ValueError):
        re_polylog_damped(2, r, 1.0)
