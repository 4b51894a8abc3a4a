"""The round-trip log determinant and the gap media."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiral_casimir.kernel import MediumKind, log_det_kernel

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


# -------------------------------------------------------------------- log det

@pytest.mark.parametrize("x, theta, expected", [
    (0.5, 0.0, 2.0 * math.log(0.5)),
    (0.5, math.pi / 2.0, 2.0 * math.log(1.5)),
    (0.5, math.pi / 4.0, math.log(1.25)),
    (0.0, 1.3, 0.0),
])
def test_log_det_examples(x, theta, expected):
    assert log_det_kernel(x, theta) == pytest.approx(expected, rel=0, abs=1e-14)


@given(st.floats(min_value=0.0, max_value=0.99), angles)
@settings(max_examples=200, deadline=None)
def test_log_det_equals_true_determinant(x, theta):
    # det(I - x R(2 theta)) of the explicit 2x2 round-trip rotation; the
    # naive determinant cancels near x -> 1, theta -> 0, hence the loose
    # absolute tolerance
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    det = np.linalg.det(np.eye(2) - x * np.array([[c, s], [-s, c]]))
    assert log_det_kernel(x, theta) == pytest.approx(math.log(det), rel=0, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=0.999999), angles)
@settings(max_examples=200, deadline=None)
def test_log_det_bounds_and_symmetry(x, theta):
    val = log_det_kernel(x, theta)
    assert 2.0 * math.log1p(-x) - 1e-12 <= val <= 2.0 * math.log1p(x) + 1e-12
    # theta + pi rounds, so the shifted angle is only ulp-close
    assert log_det_kernel(x, theta + math.pi) == pytest.approx(val, rel=0, abs=1e-9)
    assert log_det_kernel(x, -theta) == val  # sin^2 is exactly even


@pytest.mark.parametrize("x", [-0.2, 1.0, 1.0 - 1e-16, 2.0, math.nan])
def test_log_det_domain(x):
    with pytest.raises(ValueError):
        log_det_kernel(x, 0.4)
    # one bad element spoils an array
    with pytest.raises(ValueError):
        log_det_kernel(np.array([0.3, x, 0.5]), 0.4)


def test_log_det_array_and_scalar_paths():
    x = np.array([[0.0, 0.25, 0.5], [0.5 + 1e-16, 0.9, 0.999999]])
    out = log_det_kernel(x, 0.7)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    for xi, oi in zip(x.ravel(), out.ravel()):
        assert oi == pytest.approx(log_det_kernel(float(xi), 0.7), rel=4e-16, abs=1e-300)
    # an array of angles broadcasts against x, each element as the float path
    thetas = np.array([[0.0], [1.2]]) + np.array([0.0, 0.4, 0.7])
    for th in (thetas, thetas[:, :1]):
        out = log_det_kernel(x, th)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        for xi, ti, oi in zip(x.ravel(), np.broadcast_to(th, x.shape).ravel(), out.ravel()):
            assert oi == pytest.approx(log_det_kernel(float(xi), float(ti)), rel=4e-16, abs=1e-300)
    with pytest.raises(ValueError):  # the result keeps x's shape
        log_det_kernel(x[:, :1], thetas)
    # any memory layout: a transposed x gives the transposed result
    assert np.array_equal(log_det_kernel(x.T, 0.7), log_det_kernel(x, 0.7).T)
    assert np.array_equal(log_det_kernel(x.T, thetas.T), log_det_kernel(x, thetas).T)
    for scalar in (0.3, np.float64(0.3), np.array(0.3), 0):
        assert type(log_det_kernel(scalar, 0.7)) is float
    assert log_det_kernel(np.empty(0), 0.7).shape == (0,)


def test_log_det_within_its_rounding_bound():
    # at a float u and x = exp(-u) rounded, both paths, and the array path
    # with an array of angles as the oracle calls it, are within
    # EPS (|L| + 2 x/(1 - x)) of the 40-digit L(e^{-u}); the oracle's
    # rounding floor (oracle._ROUNDING) rests on this bound
    import mpmath

    eps = sys.float_info.epsilon
    rng = np.random.default_rng(20)
    u = np.exp(rng.uniform(math.log(1e-6), math.log(80.0), 20_000))
    theta = rng.uniform(0.0, math.pi / 2, u.size)
    theta[::10] = rng.choice([0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2],
                             theta[::10].size)
    batched = log_det_kernel(np.exp(-u), theta).tolist()
    worst = 0.0
    with mpmath.workdps(40):
        for ui, ti, bi in zip(u.tolist(), theta.tolist(), batched):
            x = mpmath.exp(-mpmath.mpf(ui))
            exact = mpmath.log1p(x * (x - 2 * mpmath.cos(2 * mpmath.mpf(ti))))
            xf = float(x)
            bound = eps * (abs(float(exact)) + 2.0 * xf / (1.0 - xf))
            for got in (log_det_kernel(math.exp(-ui), ti),
                        log_det_kernel(np.exp(-np.array([ui])), ti)[0], bi):
                worst = max(worst, abs(float(got - exact)) / bound)
    assert worst <= 1.0, worst


def test_medium_kind_values():
    assert {k.value for k in MediumKind} == {
        "fixed_angle", "faraday", "optically_active"}
