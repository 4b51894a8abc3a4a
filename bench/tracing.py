"""Spans at the package's module boundaries, recorded from the benchmark's side.

`Tracer.install` replaces public functions in the calling module's namespace
with wrappers (cli->engine, cli->oracle, engine->special_functions,
engine->kernel, oracle->kernel, and benchmark->cli), so the package's code
is unchanged.  Each span records its name, start, end, parent span, the
benchmark label of the operation that caused it, and for functions returning
an EvalResult its terms and convergence.  Spans live in memory and are
written out when the run ends.  Work done in sweep worker threads takes the
main thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module whose attribute is replaced, attribute, span name).  Replacing
# engine.X catches cli->engine and benchmark->engine calls; a function the
# caller imported by name is replaced in the caller's namespace, so
# engine->special_functions, engine->kernel and oracle->kernel calls count
# and calls inside their own module do not.
BOUNDARIES = (
    [("cli", n, f"cli.{n}") for n in ("run_sweep", "emit_csv", "run")]
    + [("engine", n, f"engine.{n}") for n in (
        "physical_free_energy", "physical_pressure", "reduced_free_energy", "reduced_pressure",
        "reduced_free_energy_T0", "reduced_pressure_T0", "effective_theta", "reduced_temperature")]
    + [("oracle", n, f"oracle.{n}") for n in ("oracle_free_energy", "oracle_free_energy_T0", "compare")]
    + [("engine", "clausen_cos", "special_functions.clausen_cos"),
       ("engine", "re_polylog_damped", "special_functions.re_polylog_damped"),
       ("engine", "log_det_kernel", "kernel.log_det_kernel"),
       ("oracle", "log_det_kernel", "kernel.log_det_kernel")]
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    label: str
    tag: str
    terms: int
    ok: bool


def _tag(name: str, args) -> str:
    if name == "engine.physical_pressure" and args:
        return "faraday" if args[0].kind.value == "faraday" else "fixed"
    if name in ("engine.reduced_free_energy", "engine.reduced_pressure"):
        ctrl = args[1] if len(args) > 1 else None
        return ctrl.order if ctrl is not None else "m_first"
    return ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.label = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            terms = getattr(out, "terms_used", -1)
            ok = bool(getattr(out, "converged", True))
            tracer.spans.append(Span(sid, name, t0, t1, parent, tracer.label, _tag(name, args), terms, ok))
            return out

        return traced

    def install(self, modules: dict) -> None:
        """modules maps 'cli', 'engine' and 'oracle' to the imported package modules."""
        for key, attr, name in BOUNDARIES:
            target = modules[key]
            fn = getattr(target, attr)
            self._patched.append((target, attr, fn))
            setattr(target, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of the interval covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def write(spans: list[Span], path) -> None:
    """Spans as gzip-compressed tab-separated text, one per line, with a header."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("sid\tname\tstart\tend\tparent\tlabel\ttag\tterms\tok\n")
        for s in spans:
            f.write(f"{s.sid}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t"
                    f"{s.label}\t{s.tag}\t{s.terms}\t{int(s.ok)}\n")
