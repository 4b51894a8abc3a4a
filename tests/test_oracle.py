"""Quadrature cross-check module: self-consistency and engine agreement."""

import inspect
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import chiral_casimir.oracle as oracle_module
from chiral_casimir.engine import (
    ReducedPoint,
    SeriesControl,
    matsubara_term,
    reduced_free_energy,
    reduced_free_energy_T0,
    reduced_pressure,
)
from chiral_casimir.oracle import (
    CERTIFY_TAUS,
    CERTIFY_THETAS,
    CompareReport,
    QuadControl,
    compare,
    oracle_free_energy,
    oracle_free_energy_T0,
    oracle_matsubara_term,
    oracle_pressure,
)


def test_grid_constants():
    assert CERTIFY_THETAS == (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8,
                              math.pi / 2)
    assert CERTIFY_TAUS == (0.3, 0.7, 1.0, 2.0, 5.0)


def test_independence_from_series_code():
    # the whole point of the oracle is an independent derivation path: it may
    # share the kernel logarithm but must not import the series machinery
    src = inspect.getsource(oracle_module)
    imports = re.findall(r"^\s*(?:from|import)\s+[.\w]+.*$", src, re.MULTILINE)
    joined = "\n".join(imports)
    assert "engine" not in joined
    assert "special_functions" not in joined
    assert "kernel" in joined


def test_package_resolves_oracle_names_lazily(package_env):
    # in a fresh interpreter: only the oracle's own names load the oracle,
    # and its import builds the T = 0 pieces without loading numpy.ma
    code = ("import sys\n"
            "import chiral_casimir\n"
            "import chiral_casimir.special_functions\n"
            "assert not hasattr(chiral_casimir, 'Matrix2')\n"
            "assert 'chiral_casimir.oracle' not in sys.modules\n"
            "from chiral_casimir import QuadControl, oracle_free_energy\n"
            "import chiral_casimir.oracle as oracle\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "assert oracle_free_energy is oracle.oracle_free_energy\n"
            "assert QuadControl is oracle.QuadControl\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------- zero temperature

def test_T0_pieces_are_built_once():
    # the T = 0 pieces are a constant of the module, with the breakpoints
    # _breaks gives the T = 0 integral, shared by every call; tuples, so
    # that no call can change them
    cutoff = oracle_module._CUTOFF
    edges = oracle_module._breaks(0.0, 2.0 * cutoff, (cutoff,))
    assert oracle_module._T0_EDGES == edges == [0.0, *oracle_module._GRADING, cutoff, 2.0 * cutoff]
    assert all(type(column) is tuple for column in oracle_module._T0_PIECES)
    assert _bits(oracle_module._T0_PIECES) == _numpy_pieces(np.array(edges), "T0").tobytes()


def test_breaks_are_the_sorted_distinct_points():
    # _breaks sorts and drops repeats in plain Python; np.unique gives the
    # same points, in the same order, with the same bits
    grading = oracle_module._GRADING
    cases = [(0.0, 2.0 * oracle_module._CUTOFF, (oracle_module._CUTOFF,)), (5.0, 45.0, ()),
             (0.0, 40.0, grading + (0.0, 40.0, 1.0)), (1.0, 1.0, (1.0,)), (2.0, 1.0, (1.5,))]
    for tau in (*oracle_module.CERTIFY_TAUS, 0.01, 3e-4):
        starts = (2.0 * tau * np.arange(1, oracle_module._matsubara_count(tau, 1e-10) + 1)).tolist()
        cases.append((0.0, starts[-1] + oracle_module._CUTOFF, starts))
    for lo, hi, inner in cases:
        pts = np.concatenate(((lo, hi), grading, inner))
        expected = np.unique(pts[(pts >= lo) & (pts <= hi)])
        got = oracle_module._breaks(lo, hi, inner)
        assert all(type(u) is float for u in got)
        assert np.array(got, dtype=float).tobytes() == expected.tobytes()


def _numpy_pieces(edges, weight, starts=None):
    """The pieces as the oracle built them in numpy, one row (a, b, w0, w1)
    per piece: the reference for the plain-Python builders."""
    cutoff = oracle_module._CUTOFF
    if weight == "T0":
        w0 = np.where(edges[:-1] >= cutoff, 2.0 * cutoff, 0.0)
        w1 = np.where(edges[:-1] >= cutoff, -1.0, 1.0)
    elif weight == "term":
        w0 = np.ones(edges.size - 1)
        w1 = np.zeros_like(w0)
    else:
        w0 = 0.5 + np.searchsorted(starts, edges[:-1], side="right")
        w1 = np.zeros_like(w0)
    t_edges = np.sqrt(edges)
    return np.column_stack((t_edges[:-1], t_edges[1:], w0, w1))


def _numpy_thermal_pieces(tau, abs_tol):
    starts = 2.0 * tau * np.arange(1, oracle_module._matsubara_count(tau, abs_tol) + 1)
    lo, hi = 0.0, (starts[-1] if starts.size else 0.0) + oracle_module._CUTOFF
    pts = np.concatenate(((lo, hi), oracle_module._GRADING, starts))
    pts = pts[(pts >= lo) & (pts <= hi)]
    pts.sort()
    edges = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    return _numpy_pieces(edges, "thermal", starts)


def _bits(pieces):
    # the bytes of the pieces as rows (a, b, w0, w1), as _integrate stacks them
    assert len({len(column) for column in pieces}) == 1
    return np.ascontiguousarray(np.array(pieces, dtype=float).reshape(4, -1).T).tobytes()


class _Captured(Exception):
    pass


def _capture_jobs(monkeypatch):
    # the jobs of the next _integrate call, which then raises instead of
    # integrating
    def capturing(jobs, epsabs, epsrel):
        raise _Captured(jobs)

    monkeypatch.setattr(oracle_module, "_integrate", capturing)


def test_pieces_have_the_bits_of_the_numpy_construction(monkeypatch):
    # every pieces object the oracle passes to _integrate equals, byte for
    # byte, the array the numpy construction made: taus whose windows start
    # on a grading point (0.5, 2.0, 5.0), taus and tolerances that keep no
    # window, and tau = 3e-4, with more than _SLICE pieces; and the single
    # Matsubara term's pieces, which may start past every grading point
    _capture_jobs(monkeypatch)
    taus = (*CERTIFY_TAUS, 0.01, 3e-4, 0.5, 1.5, 0.05, 4.0, 20.0, 300.0, 0.0123456789)
    for abs_tol in (1e-10, 1e-12, 1e-6, 2.0):
        for tau in taus:
            with pytest.raises(_Captured) as caught:
                oracle_free_energy(ReducedPoint(0.3, tau), QuadControl(abs_tol))
            [(theta, pieces)] = caught.value.args[0]
            assert theta == 0.3
            assert _bits(pieces) == _numpy_thermal_pieces(tau, abs_tol).tobytes(), (tau, abs_tol)
    assert oracle_module._matsubara_count(300.0, 1e-10) == oracle_module._matsubara_count(1.0, 2.0) == 0
    assert oracle_module._matsubara_count(3e-4, 1e-10) > oracle_module._SLICE
    for n in (0, 1, 3, 10, 1000):
        for tau in (0.5, 0.3, 2.0):
            lo = 2.0 * n * tau
            if lo >= 746.0:  # e^{-u} is 0 over the whole window: no quadrature
                assert oracle_matsubara_term(n, ReducedPoint(0.3, tau)) == 0.0, (n, tau)
                continue
            with pytest.raises(_Captured) as caught:
                oracle_matsubara_term(n, ReducedPoint(0.3, tau))
            [(_, pieces)] = caught.value.args[0]
            pts = np.concatenate(((lo, lo + oracle_module._CUTOFF), oracle_module._GRADING))
            edges = np.unique(pts[(pts >= lo) & (pts <= lo + oracle_module._CUTOFF)])
            assert _bits(pieces) == _numpy_pieces(edges, "term").tobytes(), (n, tau)


def test_T0_parallel_plates():
    val = oracle_free_energy_T0(0.0)
    assert val == pytest.approx(-math.pi**2 / 720.0, rel=0, abs=1e-8)


def test_T0_error_report_covers_truth():
    # against the 40-digit -Cl4(2 theta)/(8 pi^2) at 201 angles: QUADPACK's
    # estimate alone fell below the true error (up to 3.5e-15) at about half
    # of these points; the reported bound covers it everywhere and stays small
    import mpmath

    with mpmath.workdps(40):
        for abs_tol in (1e-10, 1e-12):
            for i in range(201):
                theta = math.pi / 2 * i / 200
                val, err = oracle_free_energy_T0(theta, QuadControl(abs_tol), return_error=True)
                exact = -mpmath.clcos(4, 2 * mpmath.mpf(theta)) / (8 * mpmath.pi**2)
                assert 0.0 < err <= 1e-12
                assert abs(val - exact) <= err, (abs_tol, theta)


def _count_nodes(monkeypatch):
    # the oracle calls the kernel once per round on an array of nodes, up to
    # _SLICE pieces at a time
    seen = {"nodes": 0, "calls": 0}
    kernel = oracle_module.log_det_kernel

    def counting(x, theta):
        seen["nodes"] += np.size(x)
        seen["calls"] += 1
        return kernel(x, theta)

    monkeypatch.setattr(oracle_module, "log_det_kernel", counting)
    return seen


def test_T0_quadrature_call_budget(monkeypatch):
    # one 1-d quadrature: 189 nodes in one round, against about 23k nested
    # scalar calls
    seen = _count_nodes(monkeypatch)
    for theta in (0.0, 0.6, math.pi / 4, math.pi / 2):
        seen.update(nodes=0, calls=0)
        oracle_free_energy_T0(theta)
        assert 0 < seen["nodes"] <= 400
        assert seen["calls"] <= 3


def test_T0_matches_closed_form_across_angles():
    for theta in (0.0, 0.6, math.pi / 4, math.pi / 2):
        assert oracle_free_energy_T0(theta) == pytest.approx(
            reduced_free_energy_T0(theta), rel=0, abs=1e-12)


# ------------------------------------------------------------ finite temperature

def test_engine_agreement_spotcheck():
    for theta, tau in [(0.0, 1.0), (0.3, 0.5), (math.pi / 2, 1.0), (1.2, 0.3)]:
        o = oracle_free_energy(ReducedPoint(theta, tau))
        e = reduced_free_energy(ReducedPoint(theta, tau)).value
        assert e == pytest.approx(o, rel=1e-6)


def test_engine_energy_within_both_bounds_of_the_oracle_across_the_domain():
    # |engine - oracle| <= engine estimate + oracle bound on 300 seeded
    # draws, theta in [0, pi/2] and log-uniform tau in [0.01, 31.6], in one
    # batched quadrature, so that the cost follows the draw count; with the
    # energy zero, k pi/2, either side of the image sum's tau = 1.5 and
    # tau = 0.01.  The worst ratio reads 0.61
    rng = np.random.default_rng(1300)
    points = list(zip(rng.uniform(0.0, math.pi / 2, 300).tolist(),
                      (10.0 ** rng.uniform(-2.0, 1.5, 300)).tolist()))
    for theta in (0.7550352635972403, 0.0, math.pi / 2, math.pi, -math.pi / 2):
        for tau in (0.01, math.nextafter(1.5, 0.0), 1.5, math.nextafter(1.5, 2.0)):
            points.append((theta, tau))
    ctrl = SeriesControl(rel_tol=1e-13)
    worst = 0.0
    for (theta, tau), (value, bound) in zip(points, oracle_module._free_energy(points, QuadControl())):
        res = reduced_free_energy(ReducedPoint(theta, tau), ctrl)
        assert 0.0 < bound < 1e-9
        gap = abs(res.value - value)
        assert gap <= res.error_estimate + bound, (theta, tau)
        worst = max(worst, gap / (res.error_estimate + bound))
    assert worst > 0.1  # the bounds are not vacuous


def test_thermal_quadrature_call_budget(monkeypatch):
    # one quadrature per point over the whole Matsubara sum: 12,495 nodes
    # in 25 rounds on the certify grid, against 42,147 scalar calls with
    # one quadrature per window; the grid as one batch takes the same
    # nodes in one round
    seen = _count_nodes(monkeypatch)
    grid = [ReducedPoint(theta, tau) for theta in CERTIFY_THETAS for tau in CERTIFY_TAUS]
    for p in grid:
        oracle_free_energy(p)
    assert 0 < seen["nodes"] <= 15_000
    assert seen["calls"] <= 50
    seen.update(nodes=0, calls=0)
    oracle_free_energy(grid)
    assert 0 < seen["nodes"] <= 15_000
    assert seen["calls"] <= 2


def test_batched_values_have_the_bits_of_single_calls():
    # each value alone and in a batch, in either order.  The first round
    # makes the angle-free part of the rule once per row of each distinct
    # piece array (one per tau, one for every T = 0 angle) and takes it per
    # integral.  Batches: the certify grid with its five angles at
    # tau = 0.01 too, whose shared first round runs several _SLICE-sized
    # kernel calls; duplicate angles and tau, as equal points and as one
    # object; and at abs_tol 1e-12, where (0.3, 1.0) and the T = 0 angle 0.6
    # bisect in a second round, mixed points and the four energies of a
    # Richardson stencil of step 1e-5, as criterion 08's Faraday check takes them
    q, tight = QuadControl(), QuadControl(1e-12)
    grid = [ReducedPoint(theta, tau) for theta in CERTIFY_THETAS for tau in CERTIFY_TAUS + (0.01,)]
    mixed = [ReducedPoint(theta, tau) for theta, tau in (
        (0.0, 0.01), (0.6, 0.01), (-1.1, 0.5), (0.3, 1.0), (2.4, 2.0), (7.0, 0.7))]
    for abs_tol, points in ((q.abs_tol, grid), (tight.abs_tol, mixed)):
        windows = sum(oracle_module._matsubara_count(point.tau, abs_tol) for point in points)
        assert windows > oracle_module._SLICE
    assert 5 * oracle_module._matsubara_count(0.01, q.abs_tol) > 2 * oracle_module._SLICE
    p = ReducedPoint(0.3, 1.0)
    h = 1e-5
    for q, points in (
            (q, grid),
            (q, [p, ReducedPoint(0.3, 1.0), ReducedPoint(0.6, 1.0), ReducedPoint(0.3, 0.01), p,
                 ReducedPoint(0.3, 0.7), ReducedPoint(0.6, 1.0)]),
            (tight, mixed),
            (tight, [ReducedPoint(theta, tau * lam) for theta, tau in ((0.3, 1.0), (0.7, 0.05), (1.1, 2.0))
                     for lam in (1.0 + h, 1.0 - h, 1.0 + 0.5 * h, 1.0 - 0.5 * h)])):
        alone = [oracle_free_energy(point, q) for point in points]
        assert oracle_free_energy(points, q) == alone
        assert oracle_free_energy(points[::-1], q) == alone[::-1]
    thetas = list(CERTIFY_THETAS) + [0.6, 0.7550352635972403, -2.0, 0.3, 0.0, 0.6]
    for q in (QuadControl(), tight):
        alone = [oracle_free_energy_T0(theta, q, return_error=True) for theta in thetas]
        assert oracle_free_energy_T0(thetas, q, return_error=True) == alone
        assert oracle_free_energy_T0(thetas[::-1], q) == [val for val, _ in alone[::-1]]
    assert oracle_free_energy([]) == [] and oracle_free_energy_T0([]) == []


@pytest.mark.parametrize("theta", [0.0, 0.6, math.pi / 2])
@pytest.mark.parametrize("tau", [0.3, 2.0])
def test_one_quadrature_is_the_sum_of_matsubara_terms(theta, tau):
    # (1/2) [J_0/2 + sum_{n=1..N} J_n] term by term, each window [2 n tau,
    # 2 n tau + C]; the one quadrature runs every window to 2 N tau + C,
    # at most 2 (C + 1) e^{-C} more in each J_n
    p = ReducedPoint(theta, tau)
    n_kept = oracle_module._matsubara_count(tau, QuadControl().abs_tol)
    assert n_kept > 0
    terms = [0.5 * oracle_matsubara_term(0, p)]
    terms += [oracle_matsubara_term(n, p) for n in range(1, n_kept + 1)]
    c = oracle_module._CUTOFF
    cut = (n_kept + 1) * 2.0 * (c + 1.0) * math.exp(-c)
    assert oracle_free_energy(p) == pytest.approx(math.fsum(terms), rel=0, abs=1e-12 + cut)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
@pytest.mark.parametrize("tau", [0.01, 0.03, 0.1, 0.3])
def test_truncation_stays_within_abs_tol(theta, tau):
    # stopping at the first term bound below abs_tol left 1.2e-10 (tau 0.3)
    # to 3.2e-9 (tau 0.01) out; the engine's estimate here is below 1e-12
    q = QuadControl()
    p = ReducedPoint(theta, tau)
    exact = reduced_free_energy(p)
    assert exact.converged and exact.error_estimate < 1e-12
    assert abs(oracle_free_energy(p, q) - exact.value) <= q.abs_tol


def test_many_breakpoints_converge():
    # tau = 0.01 keeps about 1,400 windows, each a piece of the first round
    tau = 0.01
    assert oracle_module._matsubara_count(tau, QuadControl().abs_tol) > 1000
    p = ReducedPoint(0.6, tau)
    assert oracle_free_energy(p) == pytest.approx(reduced_free_energy(p).value, rel=0, abs=1e-10)


def _looped_count(tau: float, abs_tol: float) -> int:
    """The Matsubara count by the per-term loop that _matsubara_count replaced.

    Its test runs in Python, as it did, at every n from the first one at
    which the same test in numpy does not fail by a relative margin of
    1e-9.  np.exp and math.exp differ by an ulp or two where the bound is a
    normal float, far less than the margin, and a subnormal bound passes
    the test either way, so the n skipped fail the loop's test too; numpy
    runs them in chunks that double, so that the reference stays affordable
    down to tau = 1e-4, where the loop ran to _MAX_N.
    """
    decay = math.exp(-2.0 * tau)
    start, size = 0, 256
    while start <= oracle_module._MAX_N:
        n = np.arange(start, min(start + size, oracle_module._MAX_N + 1))
        a = 2.0 * (n + 1) * tau
        r = decay * (1.0 + 2.0 * tau / (1.0 + a))
        fails = np.exp(-a) * (1.0 + a) * (math.pi**2 / 6.0) >= abs_tol * (1.0 - r) * (1.0 + 1e-9)
        if not fails.all():
            start += int(np.argmin(fails))
            break
        start, size = start + size, 2 * size
    for n in range(start, oracle_module._MAX_N + 1):
        a = 2.0 * (n + 1) * tau
        r = decay * (1.0 + 2.0 * tau / (1.0 + a))
        if math.exp(-a) * (1.0 + a) * (math.pi**2 / 6.0) < abs_tol * (1.0 - r):
            return n
    raise RuntimeError(f"Matsubara truncation bound not reached within {oracle_module._MAX_N} terms")


class _CountingMath:
    # math for the oracle module, counting exp: the count takes one exp for
    # its decay and one per test of the bound
    def __init__(self):
        self.exps = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.exps += 1
        return math.exp(x)


def test_matsubara_count_bisects_to_the_loop_count(monkeypatch):
    # the bound falls with n, so bisection finds the loop's first passing n,
    # in at most 2 + log2(_MAX_N) tests; where no n <= _MAX_N passes, the
    # same error
    counting = _CountingMath()
    monkeypatch.setattr(oracle_module, "math", counting)
    rng = np.random.default_rng(20261020)
    taus = np.exp(rng.uniform(math.log(1e-4), math.log(300.0), 20_000))
    tols = np.exp(rng.uniform(math.log(1e-15), math.log(1e-5), 20_000))
    budget = 2 + math.log2(oracle_module._MAX_N)
    raised = 0
    for tau, abs_tol in zip(taus.tolist(), tols.tolist()):
        counting.exps = 0
        try:
            want = _looped_count(tau, abs_tol)
        except RuntimeError as exc:
            raised += 1
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                oracle_module._matsubara_count(tau, abs_tol)
        else:
            assert oracle_module._matsubara_count(tau, abs_tol) == want, (tau, abs_tol)
        assert counting.exps - 1 <= budget, (tau, abs_tol)
    assert 0 < raised < 2_000
    for tau in (1e-6, 1e-5):
        with pytest.raises(RuntimeError, match="not reached within 100000 terms"):
            oracle_module._matsubara_count(tau, 1e-10)


def _recording_bounds(monkeypatch):
    # (bound, requested tolerance) of every integral the oracle runs, one
    # entry per integral of a batch
    seen = []
    integrate = oracle_module._integrate

    def recording(jobs, epsabs, epsrel):
        out = integrate(jobs, epsabs, epsrel)
        seen.extend((bound, max(epsabs, epsrel * abs(val))) for val, bound in out)
        return out

    monkeypatch.setattr(oracle_module, "_integrate", recording)
    return seen


def test_every_bound_meets_its_request_at_tight_tolerance(monkeypatch):
    # at abs_tol 1e-12, as criterion 08 asks, and the one energy quadrature
    # of a pressure at the default abs_tol; QUADPACK's estimate was 3.9e-12
    # at (-1.1, 0.5) and 1.1e-12 at (0.3, 1.0) here
    seen = _recording_bounds(monkeypatch)
    tight = QuadControl(1e-12)
    for theta, tau in ((-1.1, 0.5), (0.3, 1.0), (2.4, 2.0), (7.0, 0.7), (0.7, 0.3)):
        oracle_free_energy(ReducedPoint(theta, tau), tight)
    for theta in (0.0, 0.6, math.pi / 2):
        oracle_free_energy_T0(theta, tight)
        oracle_matsubara_term(1, ReducedPoint(theta, 0.5), tight)
    oracle_pressure(-1.1, 0.5)
    assert len(seen) == 5 + 6 + 1
    for bound, tol in seen:
        assert 0.0 < bound <= tol


def test_pressure_oracle_reaches_the_energy_zero_at_low_tau():
    # the pressure takes one energy at the caller's abs_tol, whose request
    # stays above the quadrature's rounding floor at the energy zero, and
    # its bound covers the gap to the engine there
    theta = 0.7550352635972403
    points = [(theta, 0.01), (theta, 0.05)]
    for (theta, tau), (value, bound) in zip(points, oracle_module._pressure(points, QuadControl())):
        assert value == oracle_pressure(theta, tau)
        res = reduced_pressure(ReducedPoint(theta, tau), SeriesControl(rel_tol=1e-13))
        assert 0.0 < bound < 1e-9
        assert abs(value - res.value) <= res.error_estimate + bound, tau


def test_unreachable_tolerance_raises_quickly():
    # no bound can meet 1e-300: the rounding floor alone is above it, and
    # the oracle says so instead of returning.  The T = 0 oracle's epsrel
    # follows its epsabs: a fixed 1e-11 returned a bound near 2e-15 here
    p = ReducedPoint(0.3, 1.0)
    for call in (lambda: oracle_free_energy(p, QuadControl(1e-300)),
                 lambda: oracle_matsubara_term(1, p, QuadControl(1e-300)),
                 lambda: oracle_free_energy_T0(0.3, QuadControl(1e-300))):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"theta=0\.3: error bound .* above the tolerance"):
            call()
        assert time.perf_counter() - start < 1.0


def test_unreachable_member_of_a_batch_is_named():
    # at abs_tol 1e-13 the T = 0 rounding floor, 1.2e-14 unscaled at every
    # angle, is above the 1e-14 tolerance only at the energy zero, where
    # the integral vanishes; alone the other members converge
    q = QuadControl(1e-13)
    zero = 0.7550352635972403
    for theta in (0.0, math.pi / 2):
        oracle_free_energy_T0(theta, q)
    with pytest.raises(RuntimeError, match=r"theta=0\.7550352635972403: error bound"):
        oracle_free_energy_T0([0.0, zero, math.pi / 2], q)


def test_many_windows_keep_the_peak_memory_bounded(package_env):
    # at tau = 3e-4 the first round has 57,569 windows; the rule runs on
    # _SLICE pieces at a time, where one call on them all raised a fresh
    # interpreter's peak RSS by 80 MB
    code = ("import resource\n"
            "from chiral_casimir.engine import ReducedPoint\n"
            "from chiral_casimir.oracle import oracle_free_energy\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "oracle_free_energy(ReducedPoint(0.6, 3e-4))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 20 * 1024  # ru_maxrss is in KiB


def test_gauss_kronrod_constants():
    # the embedded G10 is numpy's 10-point Gauss-Legendre rule, and K21
    # integrates x^d over [-1, 1] exactly for d <= 31
    nodes, weights = np.polynomial.legendre.leggauss(10)
    g10 = oracle_module._G10 > 0.0
    assert np.allclose(oracle_module._NODES[g10], nodes, rtol=0, atol=1e-15)
    assert np.allclose(oracle_module._G10[g10], weights, rtol=0, atol=1e-15)
    x, k21 = oracle_module._NODES, oracle_module._K21
    for d in range(32):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert math.fsum(k21 * x**d) == pytest.approx(exact, rel=0, abs=1e-15), d


def test_tightening_the_tolerance_converges():
    p = ReducedPoint(0.4, 0.8)
    loose = oracle_free_energy(p, QuadControl(abs_tol=1e-6))
    tight = oracle_free_energy(p, QuadControl(abs_tol=1e-10))
    assert abs(loose - tight) < 1e-5
    assert abs(tight - reduced_free_energy(p).value) < abs(loose - tight) + 1e-9


def test_single_matsubara_term():
    p = ReducedPoint(0.5, 0.7)
    assert oracle_matsubara_term(2, p) == pytest.approx(
        matsubara_term(2, p), rel=0, abs=1e-8)
    with pytest.raises(ValueError):
        oracle_matsubara_term(-1, p)
    # n is an integer, as matsubara_term's: numpy integers pass, 1.5 does not,
    # and past the float range (an OverflowError before) the term is 0.0
    assert oracle_matsubara_term(np.int64(2), p) == oracle_matsubara_term(2, p)
    with pytest.raises(ValueError, match="n must be an integer"):
        oracle_matsubara_term(1.5, p)
    assert oracle_matsubara_term(10**400, p) == 0.0


def test_a_matsubara_window_past_the_underflow_is_zero():
    # from u = 746 on e^{-u} is 0.  At tau = 1e17 the quadrature gave 0.0; at
    # tau = 3e17 the window's end 2 tau + 40 rounded to its start, and it
    # raised IndexError on no pieces
    for tau in (373.0, 1e17, 3e17):
        assert oracle_matsubara_term(1, ReducedPoint(0.3, tau)) == 0.0, tau
    # a window that starts below 746 is still integrated: a subnormal term
    assert -1e-320 < oracle_matsubara_term(1, ReducedPoint(0.3, 372.5)) < 0.0


def test_tau_zero_rejected():
    with pytest.raises(ValueError):
        oracle_free_energy(ReducedPoint(0.3, 0.0))


def test_periodic_in_theta():
    a = oracle_free_energy(ReducedPoint(0.3, 1.0))
    b = oracle_free_energy(ReducedPoint(0.3 + math.pi, 1.0))
    assert a == pytest.approx(b, rel=0, abs=1e-9)


# -------------------------------------------------------------------- pressure

def test_pressure_T0_ideal_metal():
    assert oracle_pressure(0.0, 0.0) == pytest.approx(
        -math.pi**2 / 240.0, rel=0, abs=1e-8)


def test_pressure_T0_evaluates_the_quadrature_once(monkeypatch):
    # E0 l^3 does not depend on l at a fixed angle, so P0 = 3 E0 exactly,
    # from one quadrature at the caller's control
    seen = []
    t0 = oracle_module.oracle_free_energy_T0

    def counting(theta, q=None, return_error=False):
        seen.append(theta)
        return t0(theta, q, return_error)

    monkeypatch.setattr(oracle_module, "oracle_free_energy_T0", counting)
    assert oracle_pressure(0.6, 0.0) == pytest.approx(
        3.0 * reduced_free_energy_T0(0.6), rel=0, abs=1e-8)
    assert seen == [0.6]
    for q in (QuadControl(), QuadControl(1e-12)):
        for theta in (0.0, 0.6, 0.7550352635972403, math.pi / 2, -2.0):
            assert oracle_pressure(theta, 0.0, q) == 3.0 * t0(theta, q)


def test_pressure_bound_covers_a_40_digit_reference():
    # P = 2 E + (1/2) sum a_n^2 L(e^{-a_n}) against the 40-digit m-series:
    # 60 seeded draws, theta in [-pi, pi] and log-uniform tau in [0.01, 5],
    # and the energy zero, in one batched call
    from test_engine import mp_series

    rng = np.random.default_rng(2611)
    points = list(zip(rng.uniform(-math.pi, math.pi, 60).tolist(),
                      (10.0 ** rng.uniform(-2.0, math.log10(5.0), 60)).tolist()))
    points += [(0.7550352635972403, 0.05), (0.0, 0.01), (math.pi / 2, 5.0)]
    worst = 0.0
    for (theta, tau), (value, bound) in zip(points, oracle_module._pressure(points, QuadControl())):
        ref, ref_bound = mp_series(theta, tau, pressure=True, rel=1e-13)
        assert 0.0 < bound < 1e-9
        assert abs(value - ref) <= bound + ref_bound, (theta, tau)
        worst = max(worst, abs(value - ref) / (bound + ref_bound))
    assert worst > 0.1  # the bound is not vacuous


def test_pressure_finite_T_matches_engine():
    # within the engine's estimate plus the oracle's bound
    for theta, tau in [(0.0, 1.0), (0.3, 0.8)]:
        [(o, bound)] = oracle_module._pressure([(theta, tau)], QuadControl())
        assert o == oracle_pressure(theta, tau)
        e = reduced_pressure(ReducedPoint(theta, tau))
        assert abs(e.value - o) <= e.error_estimate + bound


def test_pressure_negative_tau_rejected():
    with pytest.raises(ValueError):
        oracle_pressure(0.3, -1.0)


def test_an_angle_or_temperature_that_is_not_finite_is_a_value_error():
    # each raised RuntimeError from the quadrature or the Matsubara count
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            oracle_pressure(0.3, tau)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"theta must be finite, got {theta!r}"):
            oracle_pressure(theta, 1.0)
        with pytest.raises(ValueError, match=f"theta must be finite, got {theta!r}"):
            oracle_free_energy_T0(theta)
    with pytest.raises(ValueError, match="theta must be finite, got nan"):
        oracle_free_energy_T0([0.3, math.nan])


# -------------------------------------------------------------------- compare

def test_compare_strict_boundary():
    rep = compare(1.0, 2.0, 0.5)
    assert isinstance(rep, CompareReport)
    assert not rep.passed  # rel gap exactly at tolerance does not pass
    assert rep.rel_gap == 0.5


def test_compare_pass_and_zero():
    assert compare(1.0, 1.0 + 1e-12, 1e-6).passed
    zero = compare(0.0, 0.0, 1e-12)
    assert zero.passed
    assert zero.rel_gap == 0.0


def test_compare_rejects_non_finite():
    with pytest.raises(ValueError):
        compare(math.nan, 1.0, 1e-6)
    with pytest.raises(ValueError):
        compare(1.0, math.inf, 1e-6)


def test_quad_control_validation():
    with pytest.raises(ValueError):
        QuadControl(abs_tol=0.0)
    # the integration window, the term cap and the difference step are fixed
    for field in ("kappa_cutoff_factor", "max_n", "fd_step_rel"):
        with pytest.raises(TypeError):
            QuadControl(**{field: 1})
