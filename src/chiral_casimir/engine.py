"""Series evaluation of the chiral-gap Casimir free energy and pressure.

All internal math lives in two dimensionless variables: the round-trip
half-angle theta and the reduced temperature tau = 2 pi l k_B T / (hbar c).
The Matsubara sum over the log-determinant kernel collapses, after expanding
the logarithm and integrating the transverse momentum, to

    E(theta, tau) = -Sum_{m>=1} cos(2 m theta)/m^3 * [1/2 + w(2 m tau)],
    w(a) = 1/(e^a - 1) + a / (4 sinh^2(a/2)),

where E here is the free energy per unit area scaled by 4 pi beta l^2.  The
half-weights (the n=0 zero mode) are summed in closed form through the s=3
cosine series, leaving a remainder that falls off like 1/m^4 uniformly in tau
and exponentially once 2 m tau > 1.  Differentiating with respect to the
separation at fixed temperature and angle gives the pressure series with
weights 1 + sum_n e^{-2mn tau}(2 + 2a + a^2), again in closed form.

Sign convention: negative free energy / pressure means attraction.

At tau = 0 the sum becomes an integral and both quantities have exact
Bernoulli-polynomial closed forms (reduced_free_energy_T0 and
reduced_pressure_T0, in units of hbar c / l^3 and hbar c / l^4).

In a Faraday gap theta = V B l grows with the separation, so the pressure
gains -theta dE/dtheta = -theta [Sl_2(2 theta) + 2 Sum sin(2 m theta) w(2 m tau)/m^2],
summed in the same pass as the fixed-angle pressure (at tau = 0:
-theta Sl_3(2 theta)/(4 pi^2)).  No finite difference is taken.

Evaluation order is selectable: m_first is the production path described
above; n_first evaluates one Matsubara frequency at a time through the damped
polylogarithms and exists as an independent cross-check (the Faraday
pressure is m_first only).

m_first sums the same series in one of two ways.  At low temperature the
m-series needs thousands of terms (its 1/m^4 tail falls at a rate set by
tau only once 2 m tau > 1).  Its images (_images), from the Mittag-Leffler
expansion 1/2 + w(2 m tau) = 1/(m tau) + sum_k 2 m^3 tau^3/(m^2 tau^2 + pi^2 k^2)^2,
the sum over m in closed form (temperature inversion) and the sum over k in
polylogarithms of e^{-pi alpha/tau}, are
    E = -Cl4(2 theta)/tau + tau^3/90
        - sum_alpha [alpha tau/(2 pi) Li2 + tau^2/(2 pi^2) Li3](e^{-pi alpha/tau})
over the images alpha in {2 theta, 2 pi - 2 theta} + 2 pi j, j >= 0; P and
dE/dtheta follow in the same way.  From one image pair to the next the
terms fall by about e^{-2 pi^2/tau}, and at theta = 0 the alpha = 0
image is the -zeta(3) tau^2/(2 pi^2) of Brown and Maclay, so every angle
takes one image at small tau and a handful at tau = _TAU_C.  Points at
tau <= _TAU_C go to the images, the rest to the m-series.

Above _TAU_C the m-series weights fall like e^{-2 m tau}, so it needs a
few terms at any sane rel_tol.  The m-series (_m_series), the images and
n_first each add one term at a time, and all three stop by one rule
(_stops): at the first index where the closed tail bound of the remaining
terms, an error floor and the final rounding EPS |S| together are within
rel_tol of the running sum S (certified), or where the tail alone is but the
rest is not (the error floor).  Only n_first needs a term cap, _MAX_N: the
tail bounds of the others reach 0 where their terms underflow, within
1 + 373/tau m-terms and 2 + 745 tau/pi^2 images.  The floor is the error of
the closed-form zero mode (_zero_mode) plus a charge for rounding every term
for the m-series, the error of the closed forms plus a charge for every
image so far for the images, and the error accumulated so far for n_first.
Every result leaves through _finish: its value is the exact sum
(math.fsum) of its parts, rounded once, and it is converged where
tail + floor + EPS |value| is within rel_tol |value|, the inequality the stop
tested.  n_first refuses up front, unconverged, when its tail beyond _MAX_N
already exceeds rel_tol, and stops unconverged at the first n where that tail
exceeds the stop tolerance of |S| + tail(n), a bound on |value| that no
later term can pass.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum

from ._record import _Record, _setattr
from .kernel import MediumKind, log_det_kernel
from .special_functions import (TWO_PI, ZETA_2, ZETA_3, _clausen_cos_4, clausen_cos,
                                clausen_sin, fold_pi, polylog_exp, polylog_exp_23,
                                re_polylog_damped)

__all__ = [
    "HBAR",
    "C_LIGHT",
    "K_BOLTZMANN",
    "ZeroModePolicy",
    "CavityConfig",
    "ReducedPoint",
    "SeriesControl",
    "EvalResult",
    "reduced_free_energy",
    "reduced_free_energy_T0",
    "reduced_pressure",
    "reduced_pressure_T0",
    "classical_limit_reduced",
    "matsubara_term",
    "physical_free_energy",
    "physical_pressure",
    "effective_theta",
    "reduced_temperature",
]

# Defined SI constants (2019 redefinition), to the digits used everywhere here.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s
K_BOLTZMANN = 1.380649e-23  # J / K

EIGHT_PI2 = 8.0 * math.pi**2
_EPS = 2.0**-53  # unit roundoff

# Absolute error of clausen_cos(3, 2 theta) as the zero mode uses it, with
# theta folded into [0, pi/2], so phi = 2 theta lies in [0, pi] and is not
# reduced again.  special_functions._clausen_cos_3 returns
# fl(fl(Z + A) - T) with Z = ZETA_3, A = phi^2/2 (ln phi - 3/2) and the
# Bernoulli tail T = sum_j c_j phi^{2j}.  With u = 2^-53 and phi <= pi:
#   * rounding:
#       Z is zeta(3) rounded:                                   <= 1.4e-16
#       A from phi*phi, log (< 1 ulp), the subtraction and the product:
#         (phi^2/2)(3u |ln phi - 3/2| + 2u |ln phi|) <= 16.6u   <= 1.9e-15
#       T: each c_j is an exact rational rounded once, each power phi^{2j}
#         carries (2j - 1)u, and the 24 additions of positive terms 24u T;
#         with T <= T(pi) = 0.3505, dominated by j = 2:
#         (5.1 + 24)u T(pi)                                     <= 1.2e-15
#       the two final additions, |Z + A| and |C3| <= zeta(3):  <= 2.7e-16
#   * the truncated Bernoulli tail: the loop stops once a term falls below
#     1e-18 (1 + T); successive terms shrink by (phi/2pi)^2 <= 1/4, so the
#     rest is below a third of that                            <= 1e-18
#   * the 2 theta fold: theta is folded within 1.9e-16 of its value mod pi
#     (special_functions.fold_pi), phi within twice that, and
#     |dC3/dphi| = |Sl2| <= 1.015:
#                                                              <= 3.9e-16
# Sum: 3.9e-15.  A 40-digit mpmath check of a dense grid is in the tests.
_CLAUSEN_ERR = 4e-15

# Absolute error of grad * clausen_sin(2, 2 theta) per unit |grad| (the
# Faraday pressure), theta folded into [0, pi/2].  _clausen_sin_2 returns
# fl(A + T), A = phi (1 - ln phi), T = sum_j c_j phi^{2j+1}; u = 2^-53:
#   * A, from log (< 1 ulp), the subtraction and the product:
#       phi (2u |ln phi| + 2u |1 - ln phi|) <= 8.1u at phi = pi   <= 9.0e-16
#   * T: (2j + 2)u per term from c_j and the power, 4.1u weighted by the
#     terms, and 25 additions: (4.1 + 25)u T(pi), T(pi) = 0.4547  <= 1.5e-15
#   * the final addition and the product with grad, |Sl2| <= 1.015: <= 2.3e-16
#   * the fold: fold_pi moves theta by at most u|t| + 4.3e-18 (|k| times
#     the PI_LO error, |k| <= 1e15/pi), and pi - t adds 1.2e-16.  The slope
#     of Sl2, -ln(2 sin(phi/2)), grows like ln(1/phi), but over a shift of
#     d = 8.6e-18 near 0 Sl2 moves by at most d (1 + ln(1/d)) = 3.5e-16;
#     near phi = pi (slope ln 2) the shift 2(1.2e-16 + u pi/2 + 4.3e-18)
#     costs                                                       <= 4.2e-16
# Sum: 3.05e-15 (truncation 1e-18).  An mpmath check is in the tests.
_SL2_ERR = 3.1e-15

# Absolute error of Cl4(2 theta) as the image sum takes it from
# special_functions._clausen_cos_4 (clausen_cos(4, .) after its fold),
# theta folded into [0, pi/2], so x = 2 theta lies in [0, pi], is exact and
# is not reduced again.  _clausen_cos_4 returns fl(Z - fl(fl(v v)/48))
# with v = fl(x fl(TWO_PI - x)), V = v^2/48 <= pi^4/48; u = 2^-53:
#   * Z = ZETA_4 = fl(fl(pi^4)/90) is off zeta(4) by                 <= 2.7e-16
#   * v: TWO_PI is off 2 pi by 2.45e-16, at most 0.70u of 2 pi - x >= pi,
#     and the subtraction and the product add u each: 2.70u of v; v v
#     carries 6.40u and the division by 48 one more: 7.40u of V
#   * the final subtraction: u |Cl4| <= 0.947u at x = pi
#     7.40u V + u |Cl4| is largest at x = pi:                           <= 1.78e-15
#   * the fold: theta within 1.9e-16 of its value mod pi, so x within
#     3.8e-16, and |dCl4/dx| = |Sl3| <= 0.995:                          <= 3.8e-16
# Sum: 2.42e-15.  At theta = 0.755, |Cl4(1.51)| = 6.9e-5, so the images
# certify rel_tol 1e-10 there with room, but not within about 1.3e-5 rad of
# the energy zero theta* = 0.7550352635972403, where |Cl4| < 2.5e-5 and this
# error alone exceeds rel_tol 1e-10.  A 40-digit mpmath check is in the tests.
_CL4_ERR = 2.5e-15

# Absolute error of clausen_sin(3, 2 theta), theta folded into [0, pi/2]:
# 6.3e-16 from the fold (3.8e-16 in 2 theta, |Cl2| <= zeta(2)) and 9.7e-16
# from rounding x (x - pi)(x - 2 pi)/12, float(pi) included.
_SL3_ERR = 1.6e-15


class ZeroModePolicy(Enum):
    """Treatment of the n=0 Matsubara term.

    FULL keeps both polarizations with chiral mixing at every frequency
    (the literal symmetric sum).  TM_ONLY is the experimental variant where
    the static term carries a single unmixed TM mode, replacing the n=0
    reduced term by -zeta(3)/2 independent of angle.
    """

    FULL = "full"
    TM_ONLY = "tm_only"


# An enum member read from its class goes through EnumType.__getattr__ on
# CPython 3.11, about 90 ns a read; the code that runs per call compares
# with these names
_FARADAY, _OPTICALLY_ACTIVE = MediumKind.FARADAY, MediumKind.OPTICALLY_ACTIVE
_TM_ONLY = ZeroModePolicy.TM_ONLY


class CavityConfig(_Record):
    """Physical scenario: plate separation, temperature, and gap medium.

    separation in meters, temperature in kelvin; theta (radians) is consulted
    for FIXED_ANGLE only, verdet (rad / (T m)) and bfield (tesla) for FARADAY.
    """

    _fields = ("separation", "temperature", "kind", "theta", "verdet", "bfield", "zero_mode")
    kind = MediumKind.FIXED_ANGLE
    theta = 0.0
    verdet = 0.0
    bfield = 0.0
    zero_mode = ZeroModePolicy.FULL
    _theta_tau = _energy_units = _pressure_units = None  # set by _units, outside the fields

    def __init__(self, separation: float, temperature: float, kind: MediumKind = kind,
                 theta: float = theta, verdet: float = verdet, bfield: float = bfield,
                 zero_mode: ZeroModePolicy = zero_mode):
        if not (math.isfinite(separation) and separation > 0.0):
            raise ValueError(f"separation must be positive, got {separation!r}")
        if not (math.isfinite(temperature) and temperature >= 0.0):
            raise ValueError(f"temperature must be >= 0, got {temperature!r}")
        for v in (theta, verdet, bfield):
            if not math.isfinite(v):
                raise ValueError(f"config fields must be finite, got {v!r}")
        _setattr(self, "separation", separation)
        _setattr(self, "temperature", temperature)
        _setattr(self, "kind", kind)
        _setattr(self, "theta", theta)
        _setattr(self, "verdet", verdet)
        _setattr(self, "bfield", bfield)
        _setattr(self, "zero_mode", zero_mode)


class ReducedPoint(_Record):
    """Dimensionless evaluation point (theta, tau)."""

    _fields = ("theta", "tau")
    _fold = None  # (t, sign, tau), set by _point_fold, outside the fields

    def __init__(self, theta: float, tau: float):
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
        if not (math.isfinite(tau) and tau >= 0.0):
            raise ValueError(f"tau must be >= 0, got {tau!r}")
        _setattr(self, "theta", theta)
        _setattr(self, "tau", tau)


class SeriesControl(_Record):
    """Convergence policy for the reduced series.

    rel_tol is the relative error a converged result certifies, the final
    rounding of its value included; order picks the summation order.
    m_first sums the images at tau <= _TAU_C, at most 2 + 745 tau/pi^2 of
    them, and the m-series above, at most 1 + 373/tau terms (250 at _TAU_C);
    n_first at most _MAX_N, and refuses up front, unconverged, where that many
    terms cannot reach rel_tol, or gives up where no later stop can come.  A
    sum stops where its estimate meets rel_tol, or where no further term can
    make it do so.
    """

    _fields = ("rel_tol", "order")
    rel_tol = 1e-10
    order = "m_first"  # or "n_first"

    def __init__(self, rel_tol: float = rel_tol, order: str = order):
        if not (0.0 < rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
        if order not in ("m_first", "n_first"):
            raise ValueError(f"order must be 'm_first' or 'n_first', got {order!r}")
        # a Python float, so that a numpy rel_tol gives bool verdicts
        rel_tol = float(rel_tol)
        _setattr(self, "rel_tol", rel_tol)
        _setattr(self, "order", order)
        # the tolerance the sums stop at (_stops), outside the fields: below
        # EPS no target can be met, and the sums stop at the error floor
        _setattr(self, "_stop_tol", max(rel_tol, _EPS))


_DEFAULT_CTRL = SeriesControl()  # frozen: one instance serves every call without a ctrl


_new_tuple = tuple.__new__


class EvalResult(namedtuple("EvalResult", ("value", "error_estimate", "terms_used",
                                          "converged"))):
    """Scalar result with truncation diagnostics.

    terms_used counts series terms in the active summation order (for
    m_first the images summed at tau <= _TAU_C and m terms above, Matsubara
    terms including n=0 for n_first, 0 for closed forms).  error_estimate
    bounds the truncated tail, the error of the closed forms and of every
    term, and the rounding of value, the exact sum of the parts rounded once.
    converged is set where error_estimate <= rel_tol * |value|.

    A named tuple: immutable, it unpacks as (value, error_estimate,
    terms_used, converged), compares equal to a plain tuple of the same
    fields, and a changed copy comes from ._replace (not dataclasses.replace).
    """

    __slots__ = ()


def _stops(tail: float, floor: float, s: float, rel_tol: float) -> bool:
    """Whether a sum stops here.

    s is |S| for the running sum S.  The floor is charged the final rounding
    EPS s, as _finish charges EPS |value|, so with target = rel_tol s a sum
    stops where tail + floor + EPS s <= target (certified, the verdict
    _finish gives where value = S) or tail <= target < floor + EPS s (the
    error floor, which no number of further terms can get under).  Each sum
    passes SeriesControl._stop_tol = max(rel_tol, EPS): below EPS the target
    is under the floor anyway, and the sum stops once its tail is within
    EPS s rather than running to the tail's underflow, while _finish still
    judges the result against the caller's rel_tol.
    """
    floor = floor + _EPS * s
    target = rel_tol * s
    return target - tail >= floor * (target >= floor)


def _finish(parts, tail: float, floor: float, terms: int, rel_tol: float,
            scale: float = 1.0, lift: float = 1.0) -> EvalResult:
    """The result of a sum that stopped: the exact sum of its parts, rounded once.

    Its estimate is tail + floor plus that rounding, EPS |value|, and it is
    converged where the value is finite and the estimate within rel_tol |value|.
    Value and estimate are then scaled by scale/lift, the factor to physical
    units of _physical (_unit_scale); the default 1/1 changes no bit.
    """
    value = math.fsum(parts)
    err = tail + floor + _EPS * abs(value)
    # the object EvalResult(...) returns, without its Python-level __new__
    return _new_tuple(EvalResult, (value * scale / lift, err * scale / lift, terms,
                                   err <= rel_tol * abs(value) < math.inf))


def _canonical_theta(theta: float) -> tuple[float, float]:
    """Fold theta into [0, pi/2], and the sign the fold applied to odd functions.

    cos(2 m theta) is even and pi-periodic; dE/dtheta is odd and
    pi-periodic, so it is sign times its value at the folded angle.  fold_pi
    is bit-exact under theta -> -theta and within ~1e-16 of exact under
    theta -> theta+pi; it rejects |theta| > 1e15 rad.  Its PI_LO tail can
    leave |fold| a hair above pi/2, which the last step reflects back.  Both
    are Python floats, also for a numpy scalar theta.
    """
    t = fold_pi(theta, "theta")
    sign = math.copysign(1.0, t)
    t = math.fabs(t)
    if t > 0.5 * math.pi:
        return math.pi - t, -sign
    return t, sign


# Rounding charged per m-series term: EPS * weight/m^3 * (_TERM_ULPS + a + m phi).
# In units of u = EPS, to first order, with libm's exp, expm1, cos and sin
# each within 1 ulp (2u):
#   * the energy weight q (1 + x), q = y/d, x = a/d: y and d 2u each, q 5u,
#     x 3u, 1 + x 4u (x >= 1), the product                            10u
#   * the pressure weight q (2 + x (2 + x (1 + y))): 1 + y 2u (y <= 1),
#     x (1 + y) 6u, 2 + that 7u, x times that 11u, 2 + that 12u, q times
#     that                                                               18u
#   * a cosine term cos(m phi) weight/m^3: the weight's, 1/m^3 2u (m^3 is
#     exact), the product with it u, the cosine 2u of absolute error, the
#     product with it u and adding the sine term of the Faraday pressure u:
#     17u for the energy and, for the pressure,                       25u
#   * a sine term 2 grad sin(m phi) w/m^2: the energy weight 10u, m/m^3 3u,
#     the product with it u, the sine 2u, the products with it and with
#     2 grad u each, the addition u                                   19u
# _finish sums the terms exactly and charges the one rounding of the value,
# so no term pays for a running sum.  32 covers the largest, 25u.  a = 2 m tau
# bounds the relative change of the weight when a is rounded, and m phi the
# absolute change of cos(m phi) or sin(m phi) when m phi is.
_TERM_ULPS = 32.0


_ENERGY, _PRESSURE = False, True  # the pressure flag that every sum takes


def _weight(y: float, q: float, x: float, pressure: bool) -> float:
    """The closed-form weight of the energy's or the pressure's m-series.

    The weight is a Matsubara sum in closed form, written through
    q = y/d = 1/(e^a - 1) and x = a/d with y = e^{-a}, d = 1 - y = -expm1(-a),
    which needs no branch: for large a, y underflows to 0, and for small a,
    x -> 1 and q -> 1/a.  It falls as a grows.
    """
    if pressure:
        # Sum_{n>=1} e^{-nb} (2 + 2nb + (nb)^2); 6/b - 1 + O(b) as b -> 0
        return q * (2.0 + x * (2.0 + x * (1.0 + y)))
    # w(a) = Sum_{n>=1} e^{-na} (1 + na); 2/a - O(a^3) as a -> 0
    return q * (1.0 + x)


def _weight_at(a: float, pressure: bool) -> float:
    y = math.exp(-a)
    dm = math.expm1(-a)
    return _weight(y, y / -dm, -a / dm, pressure)


def _zero_mode(theta: float, zero_mode: ZeroModePolicy, pressure: bool,
               grad: float = 0.0) -> tuple[list[float], float]:
    """The closed-form n=0 parts of the series at a folded theta, and their error.

    The half-weighted zero mode, -Cl3(2 theta)/2 under FULL and the
    angle-blind -zeta(3)/4 under TM_ONLY, doubled for the pressure; under
    FULL the Faraday pressure adds its slope grad Sl2(2 theta).
    """
    times = 2.0 if pressure else 1.0
    if zero_mode is _TM_ONLY:
        return [times * (-0.25 * ZETA_3)], times * 1e-16
    parts = [times * (-0.5 * clausen_cos(3, 2.0 * theta))]
    err = times * (0.5 * _CLAUSEN_ERR)
    if grad:
        parts.append(grad * clausen_sin(2, 2.0 * theta))
        err += abs(grad) * _SL2_ERR
    return parts, err


def _m_series(theta: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
              pressure: bool, grad: float = 0.0, scale: float = 1.0,
              lift: float = 1.0) -> EvalResult:
    """zero mode - sum_m cos(2 m theta) weight(2 m tau)/m^3 + grad dE/dtheta at a folded point.

    The zero mode is _zero_mode's.  grad is 0 except for the Faraday
    pressure, where it adds the sine terms 2 grad sin(2 m theta) w(2 m tau)/m^2,
    w the energy weight.  One term at a time: the weights at m + 1, one exp
    and one expm1, feed the tail at m and are the next term's weights.
    tail(m) = weight_{m+1}/(2 m^2) + |grad| 2 w_{m+1}/m bounds the terms
    beyond m, as weight_{m+1} = weight(2(m+1) tau) bounds every later
    weight.  floor is the zero mode's error plus the rounding of every term
    the series can sum, bounded in the same way by the weights at m = 1:
    with mag_m = weight(2 m tau)/m^3, EPS sum_m mag_m (_TERM_ULPS + a_m +
    m phi) <= EPS weight(2 tau) (zeta(3) _TERM_ULPS + zeta(2) (2 tau + phi)),
    and the sine terms g_m = 2 w(2 m tau)/m^2 have sum g_m <= 2 zeta(2)
    w(2 tau) and, as w(a) <= 2/a, sum m g_m <= 2 zeta(2)/tau.  Stops by
    _stops at its first m; _finish scales the result by scale/lift.
    No cap is needed: once 2(m+1) tau > 745 the weights at m + 1 underflow
    to 0, and so does the tail, so the sum stops within 1 + 373/tau terms,
    250 at tau = _TAU_C.  The float running sum only steers the stop:
    _finish sums the zero mode and the terms exactly.
    """
    # from tau = 400 on every weight underflows to exactly 0; capping tau
    # changes no result and keeps a and a^2 finite in the weights (a
    # conditional costs a fifth of min())
    tau = 1e3 if 1e3 < tau else tau
    parts, floor = _zero_mode(theta, zero_mode, pressure, grad)
    s = math.fsum(parts)
    stop_tol = ctrl._stop_tol
    phi, two_tau, abs_grad = 2.0 * theta, 2.0 * tau, abs(grad)
    # the weights at m + 1; w, the energy weight of the sine terms, only with grad
    m, weight_next = 0, _weight_at(two_tau, pressure)
    floor += _EPS * (_TERM_ULPS * (ZETA_3 * weight_next) + (two_tau + phi) * (ZETA_2 * weight_next))
    w_next = 0.0
    if grad:
        w_next = _weight_at(two_tau, _ENERGY)
        # per m: m phi from rounding m phi, and m (2 theta + 2.3) EPS from the
        # fold, which leaves theta within EPS theta + 1.3e-16 of its value mod pi
        floor += abs_grad * (_EPS * (_TERM_ULPS * (2.0 * (ZETA_2 * w_next))
                                     + (two_tau + 4.0 * theta + 2.3) * (2.0 * ZETA_2 / tau)))
    while True:
        m += 1
        weight = weight_next
        a = two_tau * (m + 1)
        y = math.exp(-a)
        d = -math.expm1(-a)
        q, x = y / d, a / d
        weight_next = _weight(y, q, x, pressure)
        inv_m3 = 1.0 / (m * m * m)
        term = -(math.cos(phi * m) * (weight * inv_m3))
        tail = weight_next * (0.5 / (m * m))
        if grad:
            w, w_next = w_next, _weight(y, q, x, _ENERGY)
            term += (2.0 * grad * math.sin(phi * m)) * (w * (inv_m3 * m))
            tail += abs_grad * (2.0 * w_next / m)
        parts.append(term)
        s += term
        if _stops(tail, floor, abs(s), stop_tol):
            return _finish(parts, tail, floor, m, ctrl.rel_tol, scale, lift)


# m_first sums every point at tau <= _TAU_C by its images, the rest by the
# m-series.  On a 2-CPU host (Python 3.11, best of 9 timeit repeats, theta
# in {0.1, 0.5, 1, 1.5}), at tau = 1.5 an energy call takes 5.7-7.3 us by
# its 3-4 images against 6.4-7.9 us by the m-series (7 terms), a pressure
# call 4.7-6.0 us (4-5 images) against 7.4-9.0 us (8 terms).  At tau = 2
# the m-series is ahead for E (5.2-6.7 us against 8.0-9.2 us, 5-6 images)
# and about even for P; at tau = 3, where E needs 8-9 images, it takes
# half the time or less (4.1-6.2 us against 8.8-14.7 us).  On a grid of 13
# angles and tau in {1e-9, 1e-8, ..., 1, 1.5} the median image call takes
# 1.9 us and the slowest, at tau = 1.5, 4.1 times that for E and 2.9 times
# for P; with tau = 2 in place of 1.5, 4.8 and 3.5 times.  Moving _TAU_C
# would move the bits of every result between the old and the new value.
_TAU_C = 1.5

# Relative error of special_functions.polylog_exp and polylog_exp_23,
# Li_s(e^{-mu}) for s = 1, 2, 3 and mu >= 0, in units of u = 2^-53.  Each
# operation rounds by at most u, log, exp, expm1 and log1p by at most 2u;
# ZETA_2 and ZETA_3 are off by 0.17u and 0.37u.
#   * Li_1 = -ln(d), d = 1 - e^{-mu}: for mu < ln 2 d comes from expm1 (2u)
#     and |ln d| >= ln 2, so 2u/ln 2 + 2u from the log; above, log1p(-rho)
#     moves by 2u rho/((1 - rho) |ln(1 - rho)|) <= 2.9u for rho <= 1/2,
#     plus its own 2u:                                                  <= 4.9u
#   * mu < 1, the log expansions: every operation rounds at the magnitude
#     of its result, and Horner's rule in -mu^2 on the Bernoulli tails
#     charges each step 2u of the terms it holds.  Adding these up gives a
#     bound that grows with mu as the parts cancel more; at mu = 1 it is
#     9.9u of Li_2 and                                                  16.6u of Li_3
#   * mu >= 1, Horner's rule on sum_{k<=K} rho^k/k^s: term k carries 2ku
#     from rho^k, k multiplications and k additions of the Horner partial
#     sums that contain it, and 1u from 1/k^s: u sum_k (4k + 1) rho^k/k^s,
#     at most 5.5u of the sum at mu = 1 and falling with mu; the terms
#     left out are below 2e-19 of it.
# The largest, 16.6u, rounded up.  Where e^{-mu} is subnormal (mu > 708)
# the error is absolute, below 1e-322.  A 40-digit mpmath check of every
# branch is in the tests.
_LI_ULPS = 17.0


def _images(theta: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
            pressure: bool, grad: float = 0.0, scale: float = 1.0,
            lift: float = 1.0) -> EvalResult:
    """The m-series of _m_series summed over its images, at a folded point with tau <= _TAU_C.

    Temperature inversion (Mittag-Leffler for coth, then the sum over m in
    closed form) and the sum over the inverse index in polylogarithms give,
    with phi = 2 theta, the images alpha in {phi, 2 pi - phi} + 2 pi j,
    j >= 0, in increasing order, and rho = e^{-pi alpha/tau}:
        E = -Cl4(phi)/tau + tau^3/90 - sum [alpha tau/(2 pi) Li2(rho) + tau^2/(2 pi^2) Li3(rho)],
        P = -3 Cl4(phi)/tau - tau^3/90 + sum alpha^2/2 Li1(rho),
        dE/dtheta = 2 Sl3(phi)/tau + sum +-alpha Li1(rho),
    + for the phi + 2 pi j images.  At theta = 0 the alpha = 0 image is the
    -zeta(3) tau^2/(2 pi^2) of Brown and Maclay.  Each image after the first
    has alpha >= pi, and is bounded by b(alpha) rho/(1 - rho) (Li_s(rho) <=
    rho/(1 - rho)), b(alpha) = alpha tau/(2 pi) + tau^2/(2 pi^2) for E and
    alpha^2/2 + |grad| alpha for P.  That bound falls with alpha for
    tau < pi^2/2, and by at most q (1 + 2 pi/alpha)^2 <= 9q, q = e^{-2 pi^2/tau},
    from one image to the one 2 pi further on: the images from the next
    one, alpha', on sum to at most 2 b(alpha') rho'/((1 - rho')(1 - 9q)).  The
    floor is the error of the closed forms (_CL4_ERR, _SL3_ERR and, under
    TM_ONLY, the two zero modes) plus that of every image.  Stops by _stops,
    which the tail reaching 0 at mu = pi alpha/tau > 745 ensures within
    2 + 745 tau/pi^2 images; terms_used counts the images.  _finish scales
    the result by scale/lift.
    """
    phi = 2.0 * theta
    # -Cl4/tau + tau^3/90 for E, three times the first minus the second for P
    c4, cube = (3.0, -tau * tau * tau / 90.0) if pressure else (1.0, tau * tau * tau / 90.0)
    c4_term = -(c4 * _clausen_cos_4(phi)) / tau  # phi in [0, pi]: no fold
    parts = [c4_term, cube]
    floor = c4 * _CL4_ERR / tau + 2.0 * _EPS * abs(c4_term) + 3.0 * _EPS * abs(cube)
    if grad:
        slope = grad * (2.0 * clausen_sin(3, phi) / tau)
        parts.append(slope)
        floor += abs(grad) * 2.0 * _SL3_ERR / tau + 2.0 * _EPS * abs(slope)
    if zero_mode is _TM_ONLY:
        # the TM_ONLY zero mode in place of the full one, as the m-series has it
        tm, tm_err = _zero_mode(theta, zero_mode, pressure, grad)
        full, full_err = _zero_mode(theta, ZeroModePolicy.FULL, pressure, grad)
        parts += tm + [-x for x in full]
        floor += tm_err + full_err
    s = math.fsum(parts)
    stop_tol = ctrl._stop_tol
    abs_grad = abs(grad)
    pi_tau = math.pi / tau
    c1 = 0.5 * tau / math.pi  # tau/(2 pi)
    c0 = c1 * tau / math.pi  # tau^2/(2 pi^2)
    geo = 0.5 - 4.5 * math.exp(-2.0 * math.pi * pi_tau)  # (1 - 9q)/2
    far = TWO_PI - phi
    i, alpha = 0, phi
    while True:
        mu = pi_tau * alpha
        # slope_d bounds |d term/d alpha|: (alpha/2) Li1 <= tau/(2 pi) (1 + mu) Li2
        # for E (mu Li1 <= (1 + mu) Li2), alpha Li1 (3/2 + mu/2) for P and
        # (2 + mu) Li1 per unit grad for the slope
        if mu > 745.2:  # e^{-mu} underflows to 0, and with it every Li_s
            term = mag = slope_d = 0.0
        elif pressure:
            l1 = polylog_exp(1, mu) if mu else 0.0  # the alpha = 0 terms vanish
            term = alpha * l1 * (0.5 * alpha + (grad if i % 2 == 0 else -grad))
            mag = alpha * l1 * (0.5 * alpha + abs_grad)
            slope_d = l1 * (alpha * (1.5 + 0.5 * mu) + abs_grad * (2.0 + mu))
        else:
            l2, l3 = polylog_exp_23(mu)
            term = -(mag := c1 * alpha * l2 + c0 * l3)
            slope_d = c1 * l2 * (1.0 + mu)
        parts.append(term)
        s += term
        # the fold leaves theta within u theta + 1.3e-16 of its value mod pi,
        # TWO_PI is 2.45e-16 off 2 pi per 2 pi in alpha and each of the two
        # sums u, and mu = (pi/tau) alpha adds 2.4u of alpha: u (7 alpha + 4.6)
        # in all.  Forming the term adds 6u to the _LI_ULPS of its Li, and
        # 1e-300 covers the Li of a subnormal e^{-mu}.
        floor += _EPS * ((_LI_ULPS + 6.0) * mag + slope_d * (7.0 * alpha + 4.6)) + 1e-300
        i += 1
        alpha = (far if i % 2 else phi) + TWO_PI * (i // 2)
        rho = math.exp(-pi_tau * alpha)
        bound = alpha * (0.5 * alpha + abs_grad) if pressure else c1 * alpha + c0
        tail = bound * rho / ((1.0 - rho) * geo)
        if _stops(tail, floor, abs(s), stop_tol):
            break
    return _finish(parts, tail, floor, i, ctrl.rel_tol, scale, lift)


# The n_first term cap.  At rel_tol 1e-10 the up-front refusal starts near
# tau = 7e-4, and 20k terms (each two constant-cost damped polylogarithms)
# take 0.064-0.067 s on a 2-CPU host (the energy at theta = 0.3,
# tau = 6.6e-4: 19,963 terms, best of 3 in each of eight runs; up to 0.11 s
# when the host is busy).
_MAX_N = 20_000

# Absolute error of li1 = -log1p(r (r - 2c))/2, c = cos 2 theta, against
# Re Li_1(r e^{2 i theta}) at the same r and theta, for 0 < r <= 1/2; u = 2^-53:
#   * cos within 1 ulp (2u|c|), then r - 2c and its product with r, u each:
#       the log1p argument z is off by at most u r (8|c| + 2r)
#   * 1 + z = (1 - r)^2 + 4 r sin^2 theta >= (1 - r)^2, so log1p moves by at
#     most u r (8|c| + 2r)/(1 + z), and its own ulp adds 2u |ln(1 + z)|
#   * halved, the sum over r is largest at r = 1/2, c = 1:
#       (18u + 2u ln 4)/2 = 10.4u, that is 20.8u r
# Below the normal range (a > 708) the product with r and the halving each add
# at most 2^-1075 instead, which the 5e-324 beside the charge covers.  The
# charge shrinks with r, so a^2 li1 adds no floor that grows with n.
_LI1_ULPS = 21.0


def _n_tail(n: int, y: float, om: float, tau: float, tau_om: float, pressure: bool) -> float:
    """Bound on the n-series terms beyond n, from _n_first's per-call constants.

    y = e^{-2 tau}, om = 1 - y = -expm1(-2 tau) and tau_om = tau/om.  The
    per-term bounds e^{-2 k tau} (1 + 2 k tau) zeta(2) of the energy and
    e^{-2 k tau} (2 zeta(3) + 4 k tau zeta(2) + 4 k^2 tau^2/om) of the
    pressure are summed exactly over k > n through the geometric tails
    s0, s1, s2 of sum y^k, sum k y^k, sum k^2 y^k.
    """
    ynp = y ** (n + 1)
    s0 = ynp / om
    # one om at a time: tiny tau overflows to inf instead of dividing by an
    # underflown om^3
    s1 = ynp * ((n + 1) - n * y) / om / om
    if not pressure:
        return ZETA_2 * (s0 + 2.0 * tau * s1)
    s2 = ynp * ((n + 1) ** 2 - (2 * n * n + 2 * n - 1) * y + n * n * y * y) / om / om / om
    return 2.0 * ZETA_3 * s0 + 4.0 * tau * ZETA_2 * s1 + 4.0 * tau * tau_om * s2


def _check_tau(tau: float) -> None:
    if tau < 1e-300:
        raise ValueError(f"tau must be at least 1e-300, below which the series, which "
                         f"grows like 1/tau, overflows; got {tau!r}")


def _validate_point(p: ReducedPoint) -> None:
    if p.tau <= 0.0:
        raise ValueError(
            "tau must be positive for the thermal series; use the *_T0 "
            "closed forms at zero temperature"
        )
    _check_tau(p.tau)


def _point_fold(p: ReducedPoint) -> tuple[float, float, float]:
    """(t, sign, tau) of a point: the fold of theta (_canonical_theta) and tau, checked.

    Both are Python floats, so that numpy scalar inputs give float and bool
    results.  A point is frozen, so the first thermal call on it sets them on
    it by _setattr, outside its fields (see _record), and a later call, the
    pressure after the energy say, reads them back.  A point that fails a
    check raises on every call and keeps nothing.
    """
    fold = p._fold
    if fold is None:
        _validate_point(p)
        fold = (*_canonical_theta(p.theta), float(p.tau))
        _setattr(p, "_fold", fold)
    return fold


def reduced_free_energy(p: ReducedPoint, ctrl: SeriesControl | None = None,
                        zero_mode: ZeroModePolicy = ZeroModePolicy.FULL) -> EvalResult:
    """Reduced free energy E(theta, tau) = E_c * 4 pi beta l^2 (signed).

    Requires tau > 0; zero temperature is a separate closed form.  The fold
    of theta is taken once per point and kept on it (_point_fold).
    """
    t, _, tau = _point_fold(p)
    return _summed(t, tau, ctrl or _DEFAULT_CTRL, zero_mode, _ENERGY, 0.0)


def _reduced(theta: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
             pressure: bool, grad: float = 0.0) -> EvalResult:
    """Reduced free energy or pressure, plus grad dE/dtheta (m_first only), at any theta.

    theta (by _canonical_theta) and tau become Python floats here, so that
    numpy scalar inputs give float and bool results; _physical takes both
    from _units, and reduced_free_energy and reduced_pressure from
    _point_fold, instead.
    """
    t, sign = _canonical_theta(theta)
    return _summed(t, float(tau), ctrl, zero_mode, pressure, grad * sign)


def _summed(t: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
            pressure: bool, grad: float, scale: float = 1.0, lift: float = 1.0) -> EvalResult:
    """The thermal sum at an angle t folded by _canonical_theta, grad signed by its fold.

    The one door of every thermal sum: m_first takes the images at
    tau <= _TAU_C and the m-series above, n_first its own sum.  The result
    is scaled by scale/lift (_finish).
    """
    if ctrl.order == "m_first":
        path = _images if tau <= _TAU_C else _m_series
        return path(t, tau, ctrl, zero_mode, pressure, grad, scale, lift)
    return _n_first(t, tau, ctrl, zero_mode, pressure, scale, lift)


def _matsubara_n(n: int, theta: float, phi: float, two_cos: float, tau: float,
                 pressure: bool) -> tuple[float, float]:
    """Term n >= 1 of the Matsubara sum of the reduced free energy or pressure, and its error.

    theta is folded; phi = 2 theta and, for the pressure, two_cos = 2 cos phi
    are taken once per sum by the caller.
    """
    a = 2.0 * n * tau
    if a > 745.0:  # e^{-a} underflows; term is identically zero at double precision
        return 0.0, 0.0
    r = math.exp(-a)
    li2, b2 = re_polylog_damped(2, r, phi, True)
    li3, b3 = re_polylog_damped(3, r, phi, True)
    if not pressure:
        term = -(li3 + a * li2)
        return term, b3 + a * b2 + 2e-16 * abs(term)
    # Re Li_1(r e^{2 i theta}) = -ln(1 + r^2 - 2 r cos 2 theta)/2, closed form
    if r <= 0.5:
        li1 = -0.5 * math.log1p(r * (r - two_cos))
        li1_err = _LI1_ULPS * _EPS * r + 5e-324
    else:
        li1 = -0.5 * log_det_kernel(r, theta)
        # the kernel's log argument carries up to 7 ulps
        li1_err = 3.9e-16 + 2.3e-16 * abs(li1)
    term = -(2.0 * li3 + 2.0 * a * li2 + a * a * li1)
    return term, 2.0 * b3 + 2.0 * a * b2 + a * a * li1_err + 2e-16 * abs(term)


def _n_first(theta: float, tau: float, ctrl: SeriesControl, zero_mode: ZeroModePolicy,
             pressure: bool, scale: float = 1.0, lift: float = 1.0) -> EvalResult:
    """Reduced free energy or fixed-angle pressure, one Matsubara term at a time.

    Stops by _stops at its first n >= 1, with the floor the error of the
    terms so far, or at n = _MAX_N.  The float running total only steers
    the stop: _finish sums the zero mode and the terms exactly, and scales
    the result by scale/lift.

    It refuses up front, unconverged, where _MAX_N terms cannot meet rel_tol
    however they cancel, and gives up, unconverged, at the first n where
    they cannot stop at all.  Any stop at N needs tail(N) <= stop_tol |S_N|,
    where tail(N) >= tail(_MAX_N) and, up to rounding, |S_N| <= |S_n| +
    tail(n), so none can come once stop_tol (|S_n| + tail(n)) < tail(_MAX_N):
    a cancelling sum whose |value| is far below the up-front bound
    |zero mode| + tail(0) then stops early, and every sum that would stop
    before _MAX_N stops where it did.
    """
    parts, acc_err = _zero_mode(theta, zero_mode, pressure)
    total = parts[0]
    # what no term changes, taken once: the tails' y = e^{-2 tau}, om = 1 - y
    # and tau/om, and the terms' phi = 2 theta and 2 cos phi
    y, om = math.exp(-2.0 * tau), -math.expm1(-2.0 * tau)
    tau_om = tau / om
    phi = 2.0 * theta
    two_cos = 2.0 * math.cos(phi) if pressure else 0.0
    # whole bounds all n >= 1 terms, so |value| <= |zero mode| + whole
    whole = _n_tail(0, y, om, tau, tau_om, pressure)
    tail_max = _n_tail(_MAX_N, y, om, tau, tau_om, pressure)
    if not tail_max + acc_err <= ctrl.rel_tol * (abs(total) + whole) < math.inf:
        # _MAX_N terms cannot meet rel_tol however they cancel: refuse up front
        return _finish(parts, whole, acc_err, 1, ctrl.rel_tol, scale, lift)
    stop_tol = ctrl._stop_tol
    for n in range(1, _MAX_N + 1):
        term, term_err = _matsubara_n(n, theta, phi, two_cos, tau, pressure)
        parts.append(term)
        total += term
        acc_err += term_err
        tail_n = _n_tail(n, y, om, tau, tau_om, pressure)
        s = abs(total)
        if _stops(tail_n, acc_err, s, stop_tol) or stop_tol * (s + tail_n) < tail_max:
            break
    return _finish(parts, tail_n, acc_err, n + 1, ctrl.rel_tol, scale, lift)


def reduced_free_energy_T0(theta: float) -> float:
    """Zero-temperature reduced free energy E_c l^3 / (hbar c), exact closed form."""
    t, _ = _canonical_theta(theta)
    return -clausen_cos(4, 2.0 * t) / EIGHT_PI2


def reduced_pressure(p: ReducedPoint, ctrl: SeriesControl | None = None,
                     zero_mode: ZeroModePolicy = ZeroModePolicy.FULL) -> EvalResult:
    """Reduced pressure P * 4 pi beta l^3 at fixed temperature and fixed angle.

    Term-wise l-derivative of the free-energy series: P_hat = 2 E_hat -
    tau dE_hat/dtau.  Negative means attraction.  The fold of theta is
    taken once per point and kept on it (_point_fold): the energy and then
    the pressure of one point fold it once.
    """
    t, _, tau = _point_fold(p)
    return _summed(t, tau, ctrl or _DEFAULT_CTRL, zero_mode, _PRESSURE, 0.0)


def reduced_pressure_T0(theta: float) -> float:
    """Zero-temperature reduced pressure P l^4 / (hbar c) = 3 x the T=0 energy."""
    return 3.0 * reduced_free_energy_T0(theta)


def classical_limit_reduced(theta: float) -> float:
    """tau -> infinity limit of the reduced free energy (full zero-mode policy)."""
    return _zero_mode(_canonical_theta(theta)[0], ZeroModePolicy.FULL, _ENERGY)[0][0]


def matsubara_term(n: int, p: ReducedPoint) -> float:
    """Reduced contribution of Matsubara index n (before the n=0 half weight).

    n = 0 gives -clausen_cos(3, 2 theta) (full policy); n >= 1 needs tau > 0.
    """
    if n < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {n!r}")
    if n == 0:  # twice the half-weighted zero mode
        return 2.0 * classical_limit_reduced(p.theta)
    theta, _ = _canonical_theta(p.theta)
    if p.tau <= 0.0:
        raise ValueError("positive tau required for n >= 1 Matsubara terms")
    # the energy term reads no cosine
    return _matsubara_n(n, theta, 2.0 * theta, 0.0, float(p.tau), _ENERGY)[0]


def effective_theta(cfg: CavityConfig) -> float:
    """Round-trip half-angle actually seen by the series.

    Faraday rotation accumulates over the traversal (V B l); an optically
    active return pass undoes the rotation exactly, so the effective angle
    is identically zero there.
    """
    if cfg.kind is _FARADAY:
        return cfg.verdet * cfg.bfield * cfg.separation
    if cfg.kind is _OPTICALLY_ACTIVE:
        return 0.0
    return cfg.theta


def reduced_temperature(separation: float, temperature: float) -> float:
    """tau = 2 pi l k_B T / (hbar c)."""
    product = 2.0 * math.pi * separation * K_BOLTZMANN * temperature
    if product >= sys.float_info.min:
        return product / (HBAR * C_LIGHT)
    # a subnormal product has lost digits; k_B/(hbar c) = 437 keeps them
    return 2.0 * math.pi * separation * (K_BOLTZMANN / (HBAR * C_LIGHT)) * temperature


_LIFT = 2.0**600  # a power of two: scaling by it is exact


def _unit_scale(separation: float, temperature: float, pressure: bool) -> tuple[float, float]:
    """Factor taking the reduced free energy, or the pressure, to J/m^2 or Pa.

    At T = 0 the reduced quantities are E l^3/(hbar c) and P l^4/(hbar c);
    otherwise E 4 pi beta l^2 and P 4 pi beta l^3.  Returns (scale, lift) for
    the factor scale/lift.  lift is 1 unless k_B T is subnormal; then it is
    _LIFT, and scale keeps the digits that k_B T would lose.  Raises a
    ValueError naming the separation where its power l^k is not a normal float.
    """
    k = (3 if temperature == 0.0 else 2) + pressure
    try:
        power = separation**k
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power <= sys.float_info.max:
        raise ValueError(f"separation**{k} must be a normal float, or the factor to physical "
                         f"units loses its digits; got separation = {separation!r} m")
    if temperature == 0.0:
        return HBAR * C_LIGHT / power, 1.0
    kt = K_BOLTZMANN * temperature
    if kt >= sys.float_info.min:
        return kt / (4.0 * math.pi * power), 1.0
    return temperature * _LIFT * (K_BOLTZMANN / (4.0 * math.pi * power)), _LIFT


def _units(cfg: CavityConfig, pressure: bool) -> tuple[float, ...]:
    """(theta, tau, t, sign, grad, scale, lift) of a config, for the energy or the pressure.

    theta is the effective angle, tau the reduced temperature (0 at T = 0),
    t and sign the fold of theta (_canonical_theta), grad the Faraday slope
    factor -theta (0 elsewhere) and scale/lift the factor to physical units
    (_unit_scale), checked as _physical needs them.  A config is frozen, so
    they are derived on first use and set on it by _setattr, outside its
    fields (see _record): theta, tau and the fold once per config, as
    _theta_tau, and the whole tuple once per quantity, as _energy_units and
    _pressure_units.  A second call on the same config, and a sweep row of
    the cli, read them back.  A config that fails a check raises each time,
    and only on the calls whose checks it fails.  The inputs are taken as
    Python floats, so that numpy scalars give float results.
    """
    known = cfg._pressure_units if pressure else cfg._energy_units
    if known is not None:
        return known
    separation, temperature = float(cfg.separation), float(cfg.temperature)
    scale, lift = _unit_scale(separation, temperature, pressure)
    if scale < sys.float_info.min:
        raise ValueError(f"the factor to physical units underflows, and a subnormal float keeps "
                         f"too few digits; got separation = {cfg.separation!r} m, "
                         f"temperature = {cfg.temperature!r} K")
    derived = cfg._theta_tau
    if derived is None:
        theta = float(effective_theta(cfg))
        tau = reduced_temperature(separation, temperature)
        if temperature != 0.0:
            _check_tau(tau)
        derived = (theta, tau, *_canonical_theta(theta))
        _setattr(cfg, "_theta_tau", derived)
    theta, tau, t, sign = derived
    grad = -theta if pressure and cfg.kind is _FARADAY else 0.0
    if temperature != 0.0 and abs(grad) > 1e307 * tau:
        # |grad dE/dtheta| <= |grad| (1.02 + 2 zeta(3)/tau)
        raise ValueError(f"the Faraday pressure overflows its reduced units where "
                         f"|theta|/tau > 1e307; got theta = {theta!r}, tau = {tau!r}")
    known = (theta, tau, t, sign, grad, scale, lift)
    _setattr(cfg, "_pressure_units" if pressure else "_energy_units", known)
    return known


def _physical(cfg: CavityConfig, ctrl: SeriesControl, pressure: bool) -> EvalResult:
    """Free energy in J/m^2 (_ENERGY) or pressure in Pa (_PRESSURE).

    In a Faraday gap theta = V B l, so l d/dl = tau d/dtau + theta d/dtheta
    and the pressure gains grad dE/dtheta with grad = -theta.  The sum is
    taken at the fold that _units keeps and judged in reduced units, then
    scaled by scale/lift as _finish builds the one result.
    """
    theta, tau, t, sign, grad, scale, lift = _units(cfg, pressure)
    if cfg.temperature == 0.0:
        # E0 = -Cl4(2 theta)/(8 pi^2) is off by _CL4_ERR/(8 pi^2) from Cl4,
        # and by 2.7u |E0| from the division by the rounded 8 pi^2 (math.pi
        # is within 0.36u of pi, its square within 1.7u of pi^2); P0 = 3 E0
        # triples both and adds u |P0| for the product
        e0 = -clausen_cos(4, 2.0 * t) / EIGHT_PI2  # reduced_free_energy_T0 at the fold
        if pressure:
            parts = [3.0 * e0]
            floor = 3.0 * _CL4_ERR / EIGHT_PI2 + 3.7 * _EPS * abs(parts[0])
        else:
            parts = [e0]
            floor = _CL4_ERR / EIGHT_PI2 + 2.7 * _EPS * abs(e0)
        if grad:
            # dE_0/dtheta = Sl3(2 theta)/(4 pi^2).  The product and the division
            # by the rounded 4 pi^2 add 3.7u of |Sl3| <= 0.995 to _SL3_ERR:
            # (1.6e-15 + 4.1e-16)/(4 pi^2) = 5.1e-17 per unit |grad|.
            parts.append(grad * clausen_sin(3, 2.0 * theta) / (4.0 * math.pi**2))
            floor += abs(grad) * 5.1e-17
        res = _finish(parts, 0.0, floor, 0, ctrl.rel_tol, scale, lift)
    else:
        res = _summed(t, tau, ctrl, cfg.zero_mode, pressure, grad * sign, scale, lift)
    if math.isinf(res.value):
        raise ValueError(f"the result overflows a float in physical units; got separation = "
                         f"{cfg.separation!r} m, temperature = {cfg.temperature!r} K")
    return res


def physical_free_energy(cfg: CavityConfig, ctrl: SeriesControl | None = None) -> EvalResult:
    """Free energy per unit area in J/m^2 for the given physical scenario."""
    return _physical(cfg, ctrl or _DEFAULT_CTRL, _ENERGY)


def physical_pressure(cfg: CavityConfig, ctrl: SeriesControl | None = None) -> EvalResult:
    """Pressure in Pa; negative means the plates attract.

    Every medium differentiates the series analytically.  In a Faraday
    medium the angle scales with the separation, theta = V B l, so the
    pressure is P_hat(theta, tau) - theta dE_hat/dtheta, both summed in one
    m-series pass and certified at rel_tol.  Only order="m_first" has it: a
    Faraday config with order="n_first" is a ValueError.
    """
    ctrl = ctrl or _DEFAULT_CTRL
    if cfg.kind is _FARADAY and ctrl.order != "m_first":
        raise ValueError("the Faraday pressure is evaluated by order='m_first' only, "
                         f"got order={ctrl.order!r}")
    return _physical(cfg, ctrl, _PRESSURE)
