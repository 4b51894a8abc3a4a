"""Drift-normalised timing.

The host this benchmark runs on changes speed from second to second, so a raw
wall-clock time says as much about the host as about the program.  Every timed
operation is therefore bracketed by runs of a fixed reference loop that shares
no code or data with the program, and is reported as

    wall time * nominal / (mean of the reference times around it),

which keeps the unit (seconds on a host running at nominal speed).

The reference should do the same kind of work as the operation.  Operations
in the package's sweep thread pool are bracketed by the loop run in a pool;
certify passes, which are QUADPACK calling back into Python, by a fixed
scipy quadrature of an integrand written here.

Set-up time (a fresh interpreter importing the package) does not track the
interpreter loop: it is file reads, unmarshalling and extension loading.  It
is normalised the same way by a different reference, a fresh interpreter
importing a fixed set of standard-library modules.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

# Iterations of the reference loop and its wall time on a calm host
# (2 vCPU, Python 3.11).  Only the ratio to the measured time matters; the
# nominal value just keeps normalised times close to calm-host seconds.
REF_ITERATIONS = 10000
REF_NOMINAL_S = 0.0025
# The same loop once in each thread of a fresh pool, for operations that run
# in the package's sweep thread pool: it pays the same pool start-up and
# interpreter-lock hand-offs, which a single-threaded loop does not see.
REF_POOL_NOMINAL_S = 0.0060

# Fixed quadratures of quad_integrand, about 10,500 callbacks in all.  It
# runs twice as long as the reference loop on a 2-vCPU Xeon (Python 3.11),
# so its nominal time is twice REF_NOMINAL_S and both references give the
# same scale.
REF_QUAD_PARAMS = tuple((0.05 + 0.02 * k, 3.0 + k) for k in range(8))
REF_QUAD_NOMINAL_S = 0.0050

REF_IMPORT_CODE = ("import asyncio, email.mime.multipart, http.server, json, decimal, "
                   "xml.dom.minidom, unittest, logging, argparse, sqlite3, csv, fractions, "
                   "statistics, tarfile, zipfile")
REF_IMPORT_NOMINAL_S = 0.20


def _ref_step(x: float, i: int) -> float:
    return x * 0.999 + math.sqrt(i) * 1e-3


def reference_loop() -> float:
    """Fixed interpreter-bound work: a call, a libm call and float arithmetic per step."""
    x = 0.5
    acc = 0.0
    for i in range(1, REF_ITERATIONS):
        x = _ref_step(x, i)
        acc += x if i & 1 else -x
    return acc


def quad_integrand(u: float, a: float, c: float) -> float:
    return math.exp(-a * u) * math.cos(c * u) / (1.0 + u * u)


def quad_reference() -> float:
    """Fixed compiled-plus-callback work: adaptive quadrature of a damped oscillation."""
    from scipy.integrate import quad

    acc = 0.0
    for a, c in REF_QUAD_PARAMS:
        value, _ = quad(quad_integrand, 0.0, 40.0, args=(a, c), epsabs=1e-13, epsrel=1e-12, limit=200)
        acc += value
    return acc


def pooled_reference_loop(threads: int) -> None:
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(reference_loop) for _ in range(threads)]:
            future.result()


def time_reference(reference=reference_loop) -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def time_reference_import() -> float:
    """Wall time of a fresh interpreter running REF_IMPORT_CODE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_IMPORT_CODE], check=True, timeout=60)
    return time.perf_counter() - t0


class NormalisedTimer:
    """Times operations between reference runs; keeps raw and normalised times.

    `reference` is a callable doing fixed work whose calm-host wall time is
    `nominal_s`: reference_loop, pooled_reference_loop for pooled work, or
    quad_reference for quadrature.
    """

    def __init__(self, reference=reference_loop, nominal_s: float = REF_NOMINAL_S):
        self._reference = reference
        self.nominal_s = nominal_s
        time_reference(reference)  # first call pays for code warm-up
        self._last_ref = time_reference(reference)
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.refs: list[float] = []

    def measure(self, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        ref = time_reference(self._reference)
        factor = self.nominal_s / (0.5 * (self._last_ref + ref))
        self._last_ref = ref
        self.refs.append(ref)
        self.raw.append(wall)
        self.norm.append(wall * factor)
        return out


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]
