"""Acceptance gate: one pass/fail line per criterion, asserted at pinned
tolerances.  Run with `pytest tests/test_acceptance.py -s` to see the lines
inline; they are printed outside capture either way.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from chiral_casimir.engine import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    CavityConfig,
    ReducedPoint,
    SeriesControl,
    classical_limit_reduced,
    effective_theta,
    physical_free_energy,
    physical_pressure,
    reduced_free_energy,
    reduced_free_energy_T0,
    reduced_pressure,
    reduced_pressure_T0,
    reduced_temperature,
)
from chiral_casimir import oracle
from chiral_casimir.kernel import MediumKind
from chiral_casimir.oracle import (
    CERTIFY_TAUS,
    CERTIFY_THETAS,
    QuadControl,
    oracle_free_energy,
    oracle_free_energy_T0,
)
from chiral_casimir.special_functions import clausen_sin


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def fixed_config(theta: float, separation: float, temperature: float) -> CavityConfig:
    return CavityConfig(separation=separation, temperature=temperature,
                        kind=MediumKind.FIXED_ANGLE, theta=theta)


def test_criterion_01_ideal_metal_limit(capsys):
    t0 = time.perf_counter()
    e = reduced_free_energy_T0(0.0)
    p = reduced_pressure_T0(0.0)
    o = oracle_free_energy_T0(0.0)
    elapsed = time.perf_counter() - t0
    gap_e = abs(e + math.pi**2 / 720.0)
    gap_p = abs(p + math.pi**2 / 240.0)
    gap_o = abs(o + math.pi**2 / 720.0)
    ok = gap_e < 1e-10 and gap_p < 1e-10 and gap_o < 1e-12 and elapsed < 1.0
    report(capsys, 1, ok,
           f"parallel-plate T=0 energy/pressure vs -pi^2/720, -pi^2/240: "
           f"gaps {gap_e:.1e}/{gap_p:.1e}, quadrature gap {gap_o:.1e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_boyer_ratio(capsys):
    ratio = reduced_free_energy_T0(math.pi / 2) / reduced_free_energy_T0(0.0)
    gap = abs(ratio + 7.0 / 8.0)
    ok = gap < 1e-10
    report(capsys, 2, ok,
           f"quarter-turn/parallel T=0 energy ratio -7/8: gap {gap:.1e}")


def test_criterion_03_quarter_angle_repulsion(capsys):
    val = reduced_free_energy_T0(math.pi / 4)
    gap = abs(val - 7.0 * math.pi**2 / 92160.0)

    lo, hi = 0.74, 0.76
    sign_change = reduced_pressure_T0(lo) < 0.0 < reduced_pressure_T0(hi)
    a, b = lo, hi
    for _ in range(60):
        mid = 0.5 * (a + b)
        if reduced_pressure_T0(mid) < 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    ok = gap < 1e-10 and sign_change and lo < root < hi
    report(capsys, 3, ok,
           f"E0(pi/4) = +7 pi^2/92160 (gap {gap:.1e}); pressure zero "
           f"bracketed at theta* = {root:.6f} in (0.74, 0.76)")


def test_criterion_04_optically_active_is_unrotated(capsys):
    rng = np.random.default_rng(20260814)
    exact = 0
    for theta in rng.uniform(-math.pi, math.pi, size=10):
        active = CavityConfig(separation=1e-6, temperature=300.0,
                              kind=MediumKind.OPTICALLY_ACTIVE, theta=float(theta))
        plain = fixed_config(0.0, 1e-6, 300.0)
        exact += (physical_free_energy(active).value
                  == physical_free_energy(plain).value)
    ok = exact == 10
    report(capsys, 4, ok,
           f"optically active medium reproduces the unrotated energy "
           f"bit-for-bit at {exact}/10 random angles")


def test_criterion_05_engine_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for theta in CERTIFY_THETAS:
        for tau in CERTIFY_TAUS:
            point = ReducedPoint(theta, tau)
            e = reduced_free_energy(point).value
            o = oracle_free_energy(point)
            worst = max(worst, abs(e - o) / abs(o))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(capsys, 5, ok,
           f"series vs quadrature on the 25-point grid: worst relative "
           f"gap {worst:.2e} (budget 1e-9), {elapsed:.1f}s")


def test_criterion_06_dual_evaluation_order(capsys):
    n_first = SeriesControl(order="n_first")
    t0 = time.perf_counter()
    worst = 0.0
    for theta in CERTIFY_THETAS:
        for tau in CERTIFY_TAUS:
            point = ReducedPoint(theta, tau)
            m = reduced_free_energy(point).value
            n = reduced_free_energy(point, n_first).value
            worst = max(worst, abs(m - n) / max(abs(m), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(capsys, 6, ok,
           f"m-first vs n-first on the same grid: worst relative gap "
           f"{worst:.2e} (budget 1e-9), {elapsed:.2f}s")


def test_criterion_07_temperature_limits(capsys):
    worst_hot = 0.0
    for theta in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
        hot = reduced_free_energy(ReducedPoint(theta, 10.0)).value
        cl = classical_limit_reduced(theta)
        worst_hot = max(worst_hot, abs(hot - cl) / abs(cl))

    worst_cold = 0.0
    tau = 1e-3
    for theta in (0.0, 0.3, math.pi / 2):
        cold = reduced_free_energy(ReducedPoint(theta, tau)).value
        rescaled = cold * tau / (8.0 * math.pi**2)
        t0_val = reduced_free_energy_T0(theta)
        worst_cold = max(worst_cold, abs(rescaled - t0_val) / abs(t0_val))
    # the physical gap at tau = 1e-3 is zeta(3) tau^3/(2 pi^2 zeta(4)) < 1e-10
    ok = worst_hot <= 1e-6 and worst_cold <= 1e-9
    report(capsys, 7, ok,
           f"tau=10 vs classical limit: {worst_hot:.2e} (budget 1e-6); "
           f"tau=1e-3 rescaled vs T=0: {worst_cold:.2e} (budget 1e-9)")


def test_criterion_08_derivative_consistency(capsys):
    ctrl = SeriesControl(rel_tol=1e-13)
    l = 1e-6
    points = [(theta, tau) for theta in (0.0, 0.3, math.pi / 2) for tau in (0.3, 1.0, 3.0)]
    worst_fd = 0.0
    for theta, tau in points:
        T = tau * HBAR * C_LIGHT / (2.0 * math.pi * l * K_BOLTZMANN)
        h = 1e-4 * l

        def energy(sep):
            return physical_free_energy(fixed_config(theta, sep, T), ctrl).value

        d1 = (energy(l + h) - energy(l - h)) / (2.0 * h)
        d2 = (energy(l + h / 2) - energy(l - h / 2)) / h
        fd = -(4.0 * d2 - d1) / 3.0
        p = physical_pressure(fixed_config(theta, l, T), ctrl).value
        worst_fd = max(worst_fd, abs(p - fd) / abs(p))
    # the same points against the oracle's pressure, 2 E + (1/2) sum a_n^2
    # L(e^{-a_n}), which shares no series code: two-sided, within the
    # engine's estimate plus the oracle's bound, and that sum within 1e-8 |P|
    worst_side, worst_budget = 0.0, 0.0
    for (theta, tau), (o, bound) in zip(points, oracle._pressure(points, QuadControl())):
        res = reduced_pressure(ReducedPoint(theta, tau), ctrl)
        worst_side = max(worst_side, abs(res.value - o) / (res.error_estimate + bound))
        worst_budget = max(worst_budget, (res.error_estimate + bound) / abs(res.value))
    rng = np.random.default_rng(8)
    worst_grad = 0.0
    hh = 1e-5
    for theta in rng.uniform(0.02, math.pi / 2 - 0.02, size=20):
        fd = (reduced_free_energy_T0(theta + hh)
              - reduced_free_energy_T0(theta - hh)) / (2.0 * hh)
        grad = clausen_sin(3, 2.0 * theta) / (4.0 * math.pi**2)
        worst_grad = max(worst_grad, abs(fd - grad))
    # Faraday gap: theta = V B l moves with l; the engine's analytic pressure
    # against a Richardson difference of the quadrature oracle along that line
    tight = QuadControl(abs_tol=1e-12)
    worst_far = 0.0
    for theta_eff, tau in ((0.3, 1.0), (-1.1, 0.5), (2.4, 2.0), (7.0, 0.7)):
        T = tau * HBAR * C_LIGHT / (2.0 * math.pi * l * K_BOLTZMANN)
        cfg = CavityConfig(separation=l, temperature=T, kind=MediumKind.FARADAY,
                           verdet=theta_eff / l, bfield=1.0)
        theta, tau = effective_theta(cfg), reduced_temperature(l, T)

        def g(lam):  # E(lam l) in units of the energy scale at l
            return oracle_free_energy(ReducedPoint(theta * lam, tau * lam), tight) / lam**2

        h = 1e-5
        d1 = (g(1.0 + h) - g(1.0 - h)) / (2.0 * h)
        d2 = (g(1.0 + h / 2) - g(1.0 - h / 2)) / h
        fd = -(4.0 * d2 - d1) / 3.0
        p = physical_pressure(cfg).value / (K_BOLTZMANN * T / (4.0 * math.pi * l**3))
        worst_far = max(worst_far, abs(p - fd) / abs(p))
    # budgets at least 40 times the readings (3.03e-12, 2.34e-12, 1.49e-11);
    # the oracle pair read 0.47 of its two-sided bound, which was 2.1e-10 of |P|
    ok = (worst_fd <= 1e-8 and worst_side <= 1.0 and worst_budget <= 1e-8
          and worst_grad <= 1e-10 and worst_far <= 1e-8)
    report(capsys, 8, ok,
           f"pressure vs Richardson dE/dl on 9 points: {worst_fd:.2e} "
           f"(budget 1e-8); pressure vs oracle 2E + sum a^2 L/2 on the same points: "
           f"gap/(estimate + bound) {worst_side:.2f} (budget 1), (estimate + bound)/|P| "
           f"{worst_budget:.2e} (budget 1e-8); T=0 angle gradient vs closed form: "
           f"{worst_grad:.2e} (budget 1e-10); Faraday pressure vs Richardson "
           f"oracle dE/dl on 4 points: {worst_far:.2e} (budget 1e-8)")


def test_criterion_09_symmetry_suite(capsys):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        theta = float(rng.uniform(-8.0, 8.0))
        tau = float(rng.uniform(0.35, 6.0))
        for fn in (reduced_free_energy, reduced_pressure):
            base = fn(ReducedPoint(theta, tau)).value
            scale = max(1.0, abs(base))
            for other in (-theta, theta + math.pi):
                gap = abs(fn(ReducedPoint(other, tau)).value - base) / scale
                worst = max(worst, gap)
    ok = worst <= 1e-12
    report(capsys, 9, ok,
           f"pi-periodicity and evenness of energy and pressure at 100 "
           f"random points: worst deviation {worst:.2e} (budget 1e-12)")


def test_criterion_10_cli_surface(capsys, tmp_path, package_env):
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "chiral_casimir.cli", *argv],
                              env=package_env, capture_output=True, timeout=300)

    certify = cli("--mode", "certify")

    point = cli("--mode", "point", "--theta", "0", "--separation", "1e-6",
                "--temperature", "0")
    lines = point.stdout.decode().strip().splitlines()
    header = lines[0].split(",")
    value = float(dict(zip(header, lines[1].split(",")))["pressure_Pa"])
    expected = -math.pi**2 * HBAR * C_LIGHT / (240.0 * (1e-6) ** 4)
    rel = abs(value - expected) / abs(expected)

    sweep_args = ("--mode", "sweep", "--theta-range", "0:1.5:7",
                  "--temperature", "300")
    first = cli(*sweep_args)
    second = cli(*sweep_args)
    ok = (certify.returncode == 0 and point.returncode == 0 and rel <= 1e-4
          and first.returncode == 0 and first.stdout == second.stdout)
    report(capsys, 10, ok,
           f"certify exit {certify.returncode}; point pressure {value:.6e} Pa "
           f"vs -pi^2 hbar c/(240 l^4) = {expected:.6e} (rel {rel:.1e}, "
           f"budget 1e-4); sweep reruns byte-identical: "
           f"{first.stdout == second.stdout}")
