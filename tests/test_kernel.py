"""The round-trip log determinant and the gap media."""

import math

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


def test_medium_kind_values():
    assert {k.value for k in MediumKind} == {
        "fixed_angle", "faraday", "optically_active"}
