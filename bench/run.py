"""Benchmark of the chiral-casimir package: one workload per run.

    python3 bench/run.py --workload {sweep,domain_points,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src.  With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run instead, and
the spans are written to bench/out/.  The line before it (starting '# raw')
holds the same end-to-end figures without drift normalisation.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("sweep", "domain_points", "certify")
SETUP_SAMPLES = 7
MIN_OPS = 100  # so that ten operations lie beyond op_p90_s
IMPORT_TRACE_SAMPLES = 3
SPAN_CAP = 300_000  # traced pairs stop here; a span in memory takes about 250 bytes
DECADES = tuple(range(-9, 3))
PROBE_THETAS = (0.1, 0.3, 0.5, 1.0, 1.3, 1.5)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_child(extra_flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *extra_flags, str(BENCH_DIR / "import_probe.py")],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=60, check=True)


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of the import time, normalised and raw.

    Each import is normalised by the mean of the reference imports run just
    before and just after it.
    """
    import timing

    _import_child()  # first import in a checkout compiles the bytecode
    norm, raw = [], []
    ref_before = timing.time_reference_import()
    for _ in range(SETUP_SAMPLES):
        import_s = json.loads(_import_child().stdout.strip().splitlines()[-1])["import_s"]
        ref_after = timing.time_reference_import()
        raw.append(import_s)
        norm.append(import_s * timing.REF_IMPORT_NOMINAL_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return statistics.median(norm), statistics.median(raw)


# Imports chiral_casimir.<module> without running the package's __init__,
# which imports every module: the figure is then the module and what it
# imports, not the whole package.
STUB_IMPORT = ("import sys, types; p = types.ModuleType('chiral_casimir'); p.__path__ = [{path!r}]; "
               "sys.modules['chiral_casimir'] = p; import chiral_casimir.{module}")


def _importtime(code: str) -> float:
    """Cumulative -X importtime seconds of the package's top-level entries in a fresh interpreter."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=_child_env(),
                         capture_output=True, text=True, timeout=60, check=True).stderr
    total, seen = 0.0, False
    for line in err.splitlines():
        parts = line.split("|")
        # a top-level entry is indented by one space; nested ones by more
        if len(parts) == 3 and parts[2].startswith(" chiral_casimir"):
            total += int(parts[1]) * 1e-6
            seen = True
    if not seen:
        raise RuntimeError(f"-X importtime reported no package module for: {code}")
    return total


def measure_module_imports() -> dict[str, float]:
    """Import time of each layer, each in its own fresh interpreter, median of a few.

    cli: `import chiral_casimir.cli` as a user runs it, package included.
    engine, special_functions, oracle: the module alone (see STUB_IMPORT).
    """
    _import_child()  # first import in a checkout compiles the bytecode
    pkg_dir = str(SRC / "chiral_casimir")
    codes = {"cli": "import chiral_casimir.cli"}
    for module in ("engine", "special_functions", "oracle"):
        codes[module] = STUB_IMPORT.format(path=pkg_dir, module=module)
    samples: dict[str, list[float]] = {m: [] for m in codes}
    for _ in range(IMPORT_TRACE_SAMPLES):
        for module, code in codes.items():
            samples[module].append(_importtime(code))
    return {m: statistics.median(v) for m, v in samples.items()}


def make_timer(workload: str):
    """A timer whose reference has the thread structure of the workload's operations."""
    import timing

    if workload == "sweep":
        threads = min(4, os.cpu_count() or 1)  # the CLI's default worker cap
        return timing.NormalisedTimer(functools.partial(timing.pooled_reference_loop, threads),
                                      timing.REF_POOL_NOMINAL_S)
    if workload == "certify":
        return timing.NormalisedTimer(timing.quad_reference, timing.REF_QUAD_NOMINAL_S)
    return timing.NormalisedTimer()


def run_round(blocks, expected, timer) -> tuple[int, int, int, bool]:
    """One timed pass over the blocks: (operations, items, failed, all reproduced)."""
    failed = items = 0
    same = True
    for block, (checked, block_failed) in zip(blocks, expected):
        same = timer.measure(block.run) == checked and same
        failed += block_failed
        items += block.items
    return len(blocks), items, failed, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chiral_casimir" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import timing
    import workloads

    if args.trace:
        module_imports = measure_module_imports()
    else:
        setup_norm, setup_raw = measure_setup()

    from chiral_casimir import cli, engine, oracle

    modules = {"cli": cli, "engine": engine, "oracle": oracle}
    blocks = workloads.build(args.workload, (cli, engine), args.seed)

    # untimed first round: check every result against the reference
    correct = True
    expected = []
    for block in blocks:
        outcome = block.run()
        try:
            block.check(outcome)
        except workloads.CheckFailed as exc:
            print(f"check failed in {block.name}: {exc}", file=sys.stderr)
            correct = False
        expected.append((outcome, int(block.failed(outcome))))

    gc.collect()
    if args.trace:
        result = traced_run(args, blocks, expected, modules, module_imports)
        result["correct"] = result["correct"] and correct
    else:
        timer = make_timer(args.workload)
        ops = items = failed = 0
        t_end = time.perf_counter() + args.seconds
        while True:
            o, n, f, same = run_round(blocks, expected, timer)
            ops, items, failed = ops + o, items + n, failed + f
            if not same:
                print("a timed block did not reproduce its checked result", file=sys.stderr)
                correct = False
            if time.perf_counter() >= t_end and ops >= MIN_OPS:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        norm_total = sum(timer.norm)
        raw = {"setup_s": setup_raw, "items_per_s": items / sum(timer.raw),
               "op_p50_s": statistics.median(timer.raw), "op_p90_s": timing.p90(timer.raw)}
        print("# raw " + json.dumps(raw))
        result = {"correct": correct, "attempted": ops, "failed": failed, "metrics": {
            "setup_s": {"value": setup_norm, "unit": "s"},
            "items_per_s": {"value": items / norm_total, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(timer.norm), "unit": "s"},
            "op_p90_s": {"value": timing.p90(timer.norm), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }}
    print(json.dumps(result, allow_nan=False))
    return 0


# ---------------------------------------------------------------- traced run

def _probe_blocks(workload: str, cli, engine):
    """Fixed inputs that give every layer metric a value on every workload."""
    import workloads

    probes = []

    def thermal_probe(label, points, order=None, pressure=True):
        def run():
            ctrl = engine.SeriesControl(order=order) if order else None
            out = []
            for theta, tau in points:
                p = engine.ReducedPoint(theta, tau)
                out.append(engine.reduced_free_energy(p, ctrl))
                if pressure:
                    out.append(engine.reduced_pressure(p, ctrl))
            return out
        return workloads.Block(label, len(points), run, None, None, label=label)

    for k in DECADES:
        pts = [(th, m * 10.0**k) for th in PROBE_THETAS for m in (1.0, 3.0)]
        probes.append(thermal_probe(f"probe.tau1e{k}", pts))
    probes.append(thermal_probe("probe.theta_star",
                                [(workloads.THETA_STAR, t) for t in workloads.HARD_THETA_STAR_TAUS],
                                pressure=False))
    probes.append(thermal_probe("probe.n_first", [(th, t) for th in PROBE_THETAS
                                                  for t in (0.3, 1.0, 3.0, 10.0, 100.0)], "n_first"))
    if workload != "sweep":
        sweep = workloads.sweep_blocks(cli, 0)
        probes += [next(b for b in sweep if b.name == kind) for kind in ("fixed", "faraday")]
    if workload != "certify":
        probes += workloads.certify_blocks(cli, 0)
    return probes


def traced_run(args, blocks, expected, modules, module_imports) -> dict:
    import warnings

    import timing
    import tracing

    tracer = tracing.Tracer()
    timer = make_timer(args.workload)
    untraced, traced = [], []
    same = True
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end and len(tracer.spans) < SPAN_CAP:
        for i, block in enumerate(blocks):
            out_plain = timer.measure(block.run)
            untraced.append(timer.norm[-1])
            tracer.label = block.label
            tracer.install(modules)
            try:
                out_traced = timer.measure(block.run)
            finally:
                tracer.uninstall()
            traced.append(timer.norm[-1])
            same = same and out_plain == expected[i][0] and out_traced == expected[i][0]
    overhead_pct = 100.0 * (sum(traced) / sum(untraced) - 1.0)

    cli, engine = modules["cli"], modules["engine"]
    tracer.install(modules)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for probe in _probe_blocks(args.workload, cli, engine):
                tracer.label = probe.label
                timer.measure(probe.run)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write(spans, OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    factor = timer.nominal_s / statistics.median(timer.refs)
    metrics = layer_metrics(spans, factor, module_imports)
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    metrics["trace.spans"] = {"value": len(spans), "unit": "count"}
    ops = len(untraced)
    failed = sum(f for _, f in expected) * (ops // len(blocks))
    return {"correct": same, "attempted": ops, "failed": failed, "metrics": metrics}


def layer_metrics(spans, factor: float, module_imports: dict) -> dict:
    import tracing
    import workloads

    selfs = tracing.self_times(spans)
    by_id = {s.sid: s for s in spans}
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else math.nan

    def dur(s):
        return (s.end - s.start) * factor

    def named(name, label_prefix=""):
        return [s for s in spans if s.name == name and s.label.startswith(label_prefix)]

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p else ""

    sweeps = named("cli.run_sweep", "sweep")
    rows = len(sweeps) * workloads.T_RANGE[2]
    put("cli.import_s", module_imports["cli"], "s")
    put("cli.engine_calls_per_row",
        sum(1 for s in spans if s.name.startswith("engine.") and parent_name(s) == "cli.run_sweep") / rows,
        "count")
    put("cli.run_sweep_self_us_per_row", 1e6 * factor * sum(selfs[s.sid] for s in sweeps) / rows, "us")
    put("cli.emit_csv_us_per_row", 1e6 * sum(dur(s) for s in named("cli.emit_csv", "sweep")) / rows, "us")
    put("cli.certify_self_ms", 1e3 * factor * mean(selfs[s.sid] for s in named("cli.run", "certify")), "ms")

    put("engine.import_s", module_imports["engine"], "s")
    for what, fn in (("energy", "engine.reduced_free_energy"), ("pressure", "engine.reduced_pressure")):
        for k in DECADES:
            sel = named(fn, f"probe.tau1e{k}")
            put(f"engine.{what}_us.tau1e{k}", 1e6 * mean(dur(s) for s in sel), "us")
            put(f"engine.{what}_terms.tau1e{k}", mean(s.terms for s in sel), "count")
    for label in ("theta_star", "n_first"):
        sel = named("engine.reduced_free_energy", f"probe.{label}")
        put(f"engine.energy_us.{label}", 1e6 * mean(dur(s) for s in sel), "us")
        put(f"engine.energy_terms.{label}", mean(s.terms for s in sel), "count")
    from_cli = [s for s in spans if parent_name(s) == "cli.run_sweep"]
    put("engine.physical_free_energy_us",
        1e6 * mean(dur(s) for s in from_cli if s.name == "engine.physical_free_energy"), "us")
    for kind in ("fixed", "faraday"):
        put(f"engine.physical_pressure_us.{kind}", 1e6 * mean(
            dur(s) for s in from_cli if s.name == "engine.physical_pressure" and s.tag == kind), "us")
    evals = [s for s in spans if s.terms >= 0 and not s.label.startswith("probe")
             and not parent_name(s).startswith("engine.")]
    put("engine.certified_ratio", mean(1.0 if s.ok else 0.0 for s in evals), "ratio")

    put("special_functions.import_s", module_imports["special_functions"], "s")
    put("special_functions.clausen_cos_us",
        1e6 * mean(dur(s) for s in named("special_functions.clausen_cos")), "us")
    polylog = named("special_functions.re_polylog_damped", "probe.n_first")
    n_first_energy = named("engine.reduced_free_energy", "probe.n_first")
    put("special_functions.re_polylog_damped_us", 1e6 * mean(dur(s) for s in polylog), "us")
    put("special_functions.re_polylog_damped_calls",
        sum(1 for s in polylog if parent_name(s) == "engine.reduced_free_energy") / len(n_first_energy),
        "count")

    kernel_certify = named("kernel.log_det_kernel", "certify")
    put("kernel.log_det_kernel_us", 1e6 * mean(dur(s) for s in named("kernel.log_det_kernel")), "us")
    put("kernel.log_det_kernel_calls",
        len(kernel_certify) / (len(named("cli.run", "certify")) * workloads.CERTIFY_COMPARISONS), "count")
    put("oracle.import_s", module_imports["oracle"], "s")
    put("oracle.free_energy_ms", 1e3 * mean(dur(s) for s in named("oracle.oracle_free_energy")), "ms")
    put("oracle.free_energy_T0_ms",
        1e3 * mean(dur(s) for s in named("oracle.oracle_free_energy_T0")), "ms")
    return out


if __name__ == "__main__":
    sys.exit(main())
