"""The round-trip log-determinant integrand and the gap media.

A single traversal of the gap rotates the polarization plane by theta; the
round trip either doubles the angle (Faraday case, where the sense of
rotation is tied to the magnetic field direction) or undoes it (optically
active case).  The resulting mode-mixing enters the free energy only through

    ln det(I - x R(2 theta)) = ln(1 + x^2 - 2 x cos 2 theta),   x = e^{-2 kappa l},

with R the 2x2 rotation matrix, which log_det_kernel evaluates as
log1p(x (x - 2 cos 2 theta)) for x <= 1/2, where the logarithm is small and
its error stays relative to it, and in the cancellation-free form
ln((1-x)^2 + 4 x sin^2 theta) above.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = ["MediumKind", "log_det_kernel"]

# x may approach 1 only at kappa = 0, a measure-zero point of the integrals;
# reject the ill-conditioned sliver next to the log-zero singularity.
X_MAX = 1.0 - 1e-15


class MediumKind(Enum):
    FIXED_ANGLE = "fixed_angle"
    FARADAY = "faraday"
    OPTICALLY_ACTIVE = "optically_active"


def log_det_kernel(x, theta):
    """ln(1 + x^2 - 2 x cos 2 theta) for x = e^{-2 kappa l} in [0, 1).

    x is a float, which returns a float with theta one angle, or a numpy
    array of them, which returns an array of x's shape (a 0-d array counts
    as a float); with an array x, theta is one angle or an array of angles
    that broadcasts to x's shape, or ValueError.  For x <= 1/2 it is
    log1p(x (x - 2 cos 2 theta)): 1 + x^2 - 2 x cos 2 theta >= 1/4 there,
    so the error stays relative to the logarithm as x -> 0.  Above,
    ln((1-x)^2 + 4 x sin^2 theta), exact rearrangement that stays
    conditioned as x -> 1 for theta away from multiples of pi.  Every
    element must lie in [0, X_MAX), or ValueError.
    """
    if isinstance(x, (int, float)):
        if not (0.0 <= x < X_MAX):
            raise ValueError(f"reflection weight must lie in [0, {X_MAX}), got {x!r}")
        if x <= 0.5:
            return math.log1p(x * (x - 2.0 * math.cos(2.0 * theta)))
        one_minus = 1.0 - x
        s = math.sin(theta)
        return math.log(one_minus * one_minus + 4.0 * x * s * s)
    import numpy as np

    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return log_det_kernel(float(x), theta)
    # min and max are nan if any element is, and nan fails both tests
    if x.size and not (x.min() >= 0.0 and x.max() < X_MAX):
        raise ValueError(f"reflection weights must lie in [0, {X_MAX})")
    # log1p on every element, x clipped to 1/2 so that its argument stays
    # above -1; the elements above 1/2 are then overwritten by the second
    # form, computed on them alone (a masked ufunc, where=, runs several
    # times slower than one on the whole array)
    small = np.minimum(x, 0.5)
    out = small - 2.0 * np.cos(2.0 * theta)
    if out.shape != x.shape:
        raise ValueError(f"theta of shape {np.shape(theta)} does not broadcast to x's {x.shape}")
    out *= small
    np.log1p(out, out=out)
    # a boolean mask gathers and scatters in the same (C) order whatever the
    # layout; sin runs on theta's own shape, which the oracle keeps to one
    # angle per piece, and is broadcast to the elements
    near = x > 0.5
    if near.any():
        xn = x[near]
        s = np.broadcast_to(np.sin(theta), x.shape)[near]
        one_minus = 1.0 - xn
        one_minus *= one_minus
        one_minus += xn * (4.0 * s * s)
        out[near] = np.log(one_minus)
    return out
