"""The round-trip log-determinant integrand and the gap media.

A single traversal of the gap rotates the polarization plane by theta; the
round trip either doubles the angle (Faraday case, where the sense of
rotation is tied to the magnetic field direction) or undoes it (optically
active case).  The resulting mode-mixing enters the free energy only through

    ln det(I - x R(2 theta)) = ln(1 + x^2 - 2 x cos 2 theta),   x = e^{-2 kappa l},

with R the 2x2 rotation matrix, which log_det_kernel evaluates in the
cancellation-free form ln((1-x)^2 + 4 x sin^2 theta).
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


def log_det_kernel(x: float, theta: float) -> float:
    """ln(1 + x^2 - 2 x cos 2 theta) for x = e^{-2 kappa l} in [0, 1).

    Computed as ln((1-x)^2 + 4 x sin^2 theta), exact rearrangement that stays
    conditioned as x -> 1 for theta away from multiples of pi.
    """
    if not (0.0 <= x < X_MAX):
        raise ValueError(f"reflection weight must lie in [0, {X_MAX}), got {x!r}")
    one_minus = 1.0 - x
    s = math.sin(theta)
    return math.log(one_minus * one_minus + 4.0 * x * s * s)
