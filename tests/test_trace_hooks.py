"""The benchmark's trace hooks still see the calls its per-layer metrics average.

bench/tracing.py wraps module attributes by name.  If a sweep stopped
calling the engine through the module, or n_first stopped calling
re_polylog_damped by name, a per-layer mean would average nothing; if a
certify pass stopped calling the oracle or the kernel by name, the traced
run's per-layer means would be NaN, and bench/run.py --trace 1 raises on one.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from chiral_casimir import cli, engine, oracle
from chiral_casimir.cli import AxisSpec, SweepSpec
from chiral_casimir.engine import ReducedPoint, SeriesControl
from chiral_casimir.kernel import MediumKind

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_see_the_engine_calls():
    tracer = _load_tracing().Tracer()
    tracer.install({"cli": cli, "engine": engine, "oracle": oracle})
    try:
        cli.run_sweep(SweepSpec(theta=AxisSpec(0.2, 0.9, 2), temperature=AxisSpec(300.0, 300.0, 1)))
        cli.run_sweep(SweepSpec(bfield=AxisSpec(0.1, 0.5, 2), temperature=AxisSpec(300.0, 300.0, 1),
                                verdet=1e6, medium=MediumKind.FARADAY))
        engine.reduced_free_energy(ReducedPoint(0.3, 1.0), SeriesControl(order="n_first"))
    finally:
        tracer.uninstall()
    by_id = {s.sid: s for s in tracer.spans}

    def under(parent):
        return {(s.name, s.tag) for s in tracer.spans
                if s.parent in by_id and by_id[s.parent].name == parent}

    from_sweep = under("cli.run_sweep")
    assert ("engine.physical_free_energy", "") in from_sweep
    assert ("engine.physical_pressure", "fixed") in from_sweep
    assert ("engine.physical_pressure", "faraday") in from_sweep
    assert ("special_functions.re_polylog_damped", "") in under("engine.reduced_free_energy")


def _traced_run(workload: str) -> dict:
    # a short traced run of the benchmark itself: it exits 0, its outputs
    # check, and every per-layer metric is a finite number
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                           "--seconds", "0.2", "--trace", "1"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    return result["metrics"]


def test_traced_certify_run_reports_every_metric():
    pytest.importorskip("scipy")  # the benchmark's quadrature normaliser
    _traced_run("certify")


def test_traced_domain_points_run_reports_every_metric():
    # n_first's spans feed the n-first energy and the damped-polylog metrics
    pytest.importorskip("mpmath")  # the benchmark's reference values
    metrics = _traced_run("domain_points")
    for name in ("engine.energy_us.n_first", "special_functions.re_polylog_damped_us",
                 "special_functions.re_polylog_damped_calls"):
        assert metrics[name]["value"] > 0.0, name
