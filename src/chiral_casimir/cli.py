"""Command-line front end: point evaluations, sweeps, certification, CSV.

Modes:
  point    evaluate one configuration, emit a one-row CSV
  sweep    evaluate a grid over up to two of {theta, separation, temperature,
           bfield}, emit CSV (outer axis slowest, in that listing order)
  certify  compare the series engine against the quadrature oracle on the
           reference grid; exit 0 only if every comparison passes at 1e-6.
           Only this mode loads the oracle and numpy: no point or sweep does.

Exit codes: 0 success, 1 argument errors, 2 convergence or output failure,
3 certification failure.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from functools import cache

from . import engine
from ._record import _Record, _setattr
from .engine import CavityConfig, ReducedPoint, SeriesControl, ZeroModePolicy
from .kernel import MediumKind

__all__ = ["AxisSpec", "SweepSpec", "SweepRow", "SweepTable", "run", "run_sweep", "emit_csv", "main"]


class SweepRow(namedtuple("SweepRow", (
        "theta_rad", "theta_eff_rad", "separation_m", "temperature_K", "tau",
        "reduced_free_energy", "reduced_pressure", "free_energy_J_per_m2", "pressure_Pa",
        "terms_used", "error_estimate", "converged"))):
    """One CSV row: a named tuple, in column order (COLUMNS)."""

    __slots__ = ()


COLUMNS = SweepRow._fields
# --units reduced drops the dimensional columns
REDUCED_COLUMNS = (
    "theta_rad",
    "theta_eff_rad",
    "tau",
    "reduced_free_energy",
    "reduced_pressure",
    "terms_used",
    "error_estimate",
    "converged",
)
_UNIT_COLUMNS = {"si": COLUMNS, "reduced": REDUCED_COLUMNS}

_MEDIA = {
    "fixed": MediumKind.FIXED_ANGLE,
    "faraday": MediumKind.FARADAY,
    "optical": MediumKind.OPTICALLY_ACTIVE,
}
_POLICIES = {"full": ZeroModePolicy.FULL, "tm-only": ZeroModePolicy.TM_ONLY}

_CERTIFY_T0_THETAS = (0.0, math.pi / 4, math.pi / 2)
_CERTIFY_TOL = 1e-6


class AxisSpec(_Record):
    """One sweep axis; count == 1 pins the axis at `start`."""

    _fields = ("start", "stop", "count", "log")
    log = False

    def __init__(self, start: float, stop: float, count: int, log: bool = log):
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("axis endpoints must be finite")
        if count < 1:
            raise ValueError(f"axis count must be >= 1, got {count!r}")
        if start > stop:
            raise ValueError(f"axis start {start!r} exceeds stop {stop!r}")
        if log and start <= 0.0:
            raise ValueError("log spacing requires start > 0")
        _setattr(self, "start", start)
        _setattr(self, "stop", stop)
        _setattr(self, "count", count)
        _setattr(self, "log", log)

    def values(self) -> tuple[float, ...]:
        """np.linspace's values, bit for bit; a log axis is spaced so in log10 and
        raised to 10**v, endpoints exact: np.geomspace's to an ulp where libm's
        log10 and pow round as numpy's do.  Every value lies in [start, stop]."""
        start, stop, div = float(self.start), float(self.stop), self.count - 1
        if not div:
            return (start,)
        lo, hi = (math.log10(start), math.log10(stop)) if self.log else (start, stop)
        span = hi - lo
        step = span / div  # where it underflows, np.linspace takes i/div times the span
        spaced = [i * step + lo if step else i / div * span + lo for i in range(div)]
        if self.log:
            # an ulp of log10 (1.3e-13 of the value near 1e300) can exceed a
            # tiny relative span, and 10**v then leaves the axis: clamp it
            inner = [10.0**v for v in spaced[1:]]
            return (start, *[start if x < start else stop if x > stop else x for x in inner], stop)
        return (*spaced, stop)


def _fixed_axis(value: float) -> AxisSpec:
    return AxisSpec(value, value, 1)


class SweepSpec(_Record):
    """Resolved sweep request: four axes plus the fixed scenario fields."""

    _fields = ("theta", "separation", "temperature", "bfield", "verdet", "medium",
               "zero_mode", "rel_tol")
    theta = _fixed_axis(0.0)
    separation = _fixed_axis(1e-6)
    temperature = _fixed_axis(0.0)
    bfield = _fixed_axis(0.0)
    verdet = 0.0
    medium = MediumKind.FIXED_ANGLE
    zero_mode = ZeroModePolicy.FULL
    rel_tol = SeriesControl.rel_tol

    def __init__(self, theta: AxisSpec = theta, separation: AxisSpec = separation,
                 temperature: AxisSpec = temperature, bfield: AxisSpec = bfield,
                 verdet: float = verdet, medium: MediumKind = medium,
                 zero_mode: ZeroModePolicy = zero_mode, rel_tol: float = rel_tol):
        swept = sum(ax.count > 1 for ax in (theta, separation, temperature, bfield))
        if swept > 2:
            raise ValueError(f"at most 2 swept axes per run, got {swept}")
        _setattr(self, "theta", theta)
        _setattr(self, "separation", separation)
        _setattr(self, "temperature", temperature)
        _setattr(self, "bfield", bfield)
        _setattr(self, "verdet", verdet)
        _setattr(self, "medium", medium)
        _setattr(self, "zero_mode", zero_mode)
        _setattr(self, "rel_tol", rel_tol)


class SweepTable(_Record):
    """The rows of a sweep, a tuple of SweepRow."""

    _fields = ("rows",)

    def __init__(self, rows: tuple):
        _setattr(self, "rows", rows)


def _evaluate_point(theta: float, separation: float, temperature: float,
                    bfield: float, spec: SweepSpec, ctrl: SeriesControl) -> SweepRow:
    # positional, in field order: separation, temperature, kind, theta,
    # verdet, bfield, zero_mode
    cfg = CavityConfig(separation, temperature, spec.medium, theta, spec.verdet,
                       bfield, spec.zero_mode)

    # one evaluation per quantity.  Each call keeps its units on cfg
    # (engine._units: the effective angle, tau, the fold and the factor to
    # physical units), and the row reads them back once, with no call: the
    # reduced columns (E l^3/(hbar c) and P l^4/(hbar c) at T=0) and the
    # error column are the same results divided back to reduced units
    e_res = engine.physical_free_energy(cfg, ctrl)
    p_res = engine.physical_pressure(cfg, ctrl)
    theta_eff, tau, _, _, _, e_scale, lift = cfg._energy_units
    converged = e_res.converged and p_res.converged
    if spec.medium is engine._FARADAY:
        # the column holds the fixed-angle pressure; physical_pressure adds
        # the angle's dependence on the separation
        if temperature == 0.0:
            red_p = engine.reduced_pressure_T0(theta_eff)
        else:
            fixed = engine.reduced_pressure(ReducedPoint(theta_eff, tau), ctrl,
                                            zero_mode=spec.zero_mode)
            red_p, converged = fixed.value, converged and fixed.converged
    else:
        red_p = p_res.value / cfg._pressure_units[5] * lift

    return SweepRow(theta, theta_eff, separation, temperature, tau, e_res.value / e_scale * lift,
                    red_p, e_res.value, p_res.value, e_res.terms_used,
                    e_res.error_estimate / e_scale * lift, converged)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid; row order follows the axis listing, outer first."""
    ctrl = SeriesControl(rel_tol=spec.rel_tol)  # a bad rel_tol raises before any row
    # each axis's values once, not once per value of the axes outside it
    thetas, separations, temperatures, bfields = (
        ax.values() for ax in (spec.theta, spec.separation, spec.temperature, spec.bfield))
    rows = [
        _evaluate_point(th, l, T, B, spec, ctrl)
        for th in thetas
        for l in separations
        for T in temperatures
        for B in bfields
    ]
    return SweepTable(tuple(rows))


def emit_csv(table: SweepTable, stream, units: str = "si") -> None:
    """Write the table to a text stream as RFC-4180 CSV (CRLF, 17 significant digits).

    units is "si" (every column) or "reduced" (no dimensional columns).  A
    file should be opened with newline="", so that the CRLF stays as written.
    """
    cols = _UNIT_COLUMNS.get(units)
    if cols is None:
        raise ValueError(f"units must be one of {tuple(_UNIT_COLUMNS)}, got {units!r}")
    rows = table.rows
    # one %-format per row: every column is a float but terms_used and the
    # last, converged, which is written true or false; no cell needs quoting.
    # A column that holds the same object in every row (a pinned axis) is
    # formatted once, into the format: identity, not equality, so 0.0 and
    # -0.0 never share a text, and each cell reads as it would on its own
    *numeric, _ = cols
    cells, free = [], []
    for c in numeric:
        i, form = COLUMNS.index(c), "%d" if c == "terms_used" else "%.17g"
        v = rows[0][i] if rows else None
        if rows and all(row[i] is v for row in rows):
            cells.append(form % v)
        else:
            cells.append(form)
            free.append(i)
    fmt = ",".join(cells) + ","
    # rows are tuples; an itemgetter of one index returns the bare cell
    numbers = operator.itemgetter(*free) if free else lambda row: ()
    stream.write(",".join(cols) + "\r\n")
    stream.writelines(fmt % numbers(row) + ("true\r\n" if row[-1] else "false\r\n")
                      for row in rows)


def _certify(rel_tol: float, out) -> int:
    from . import oracle  # numpy quadrature: load it for this mode alone

    ctrl = SeriesControl(rel_tol=rel_tol)
    qc = oracle.QuadControl()
    points = [ReducedPoint(theta, tau) for theta in oracle.CERTIFY_THETAS for tau in oracle.CERTIFY_TAUS]
    tau_text = {tau: f"{tau:.3f}" for tau in oracle.CERTIFY_TAUS}
    # (theta, tau as printed, engine value, oracle value); the oracle takes
    # the thermal grid and the T = 0 angles in one batched call each
    pairs = [(p.theta, tau_text[p.tau], engine.reduced_free_energy(p, ctrl).value, o)
             for p, o in zip(points, oracle.oracle_free_energy(points, qc))]
    pairs += [(theta, "0    ", engine.reduced_free_energy_T0(theta), o)
              for theta, o in zip(_CERTIFY_T0_THETAS, oracle.oracle_free_energy_T0(_CERTIFY_T0_THETAS, qc))]
    # one line per comparison and the summary, written at once
    lines, failures = [], 0
    for theta, tau_text, e, o in pairs:
        rep = oracle.compare(e, o, _CERTIFY_TOL)
        failures += not rep.passed
        lines.append("theta=%.10f tau=%s engine=%+.12e oracle=%+.12e rel_gap=%.3e %s\n"
                     % (theta, tau_text, e, o, rep.rel_gap, "PASS" if rep.passed else "FAIL"))
    lines.append(f"certify: {len(pairs) - failures}/{len(pairs)} comparisons passed\n")
    out.write("".join(lines))
    return 3 if failures else 0


class _UsageError(Exception):
    pass


def _parse_axis(text: str, flag: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise _UsageError(f"{flag} expects start:stop:count[:log], got {text!r}")
    if len(parts) == 4 and parts[3] != "log":
        raise _UsageError(f"{flag} spacing tag must be 'log', got {parts[3]!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return AxisSpec(start, stop, count, log=len(parts) == 4)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


@cache
def _parser():
    """The flag parser, built on the first run() and kept: parse_args keeps
    no state between calls.  Importing argparse here keeps it (and gettext)
    out of library use of this module."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # exit code 1 is reserved for argument errors here; argparse
        # defaults to 2, so route errors through an exception instead
        def error(self, message):
            raise _UsageError(message)

    p = _Parser(prog="chiral-casimir",
                description="Casimir free energy and pressure across a "
                            "polarization-rotating gap")
    p.add_argument("--mode", choices=("point", "sweep", "certify"), default="point")
    p.add_argument("--theta", type=float, default=None, help="rotation angle per traversal [rad]")
    p.add_argument("--theta-range", default=None, metavar="START:STOP:COUNT[:log]")
    p.add_argument("--separation", type=float, default=None, help="plate separation [m]")
    p.add_argument("--separation-range", default=None, metavar="START:STOP:COUNT[:log]")
    p.add_argument("--temperature", type=float, default=None, help="temperature [K]")
    p.add_argument("--temperature-range", default=None, metavar="START:STOP:COUNT[:log]")
    p.add_argument("--bfield", type=float, default=None, help="static field [T]")
    p.add_argument("--bfield-range", default=None, metavar="START:STOP:COUNT[:log]")
    p.add_argument("--verdet", type=float, default=0.0, help="Verdet constant [rad/(T m)]")
    p.add_argument("--medium", choices=tuple(_MEDIA), default="fixed")
    p.add_argument("--zero-mode", choices=tuple(_POLICIES), default="full")
    p.add_argument("--rel-tol", type=float, default=SeriesControl.rel_tol)
    p.add_argument("--units", choices=tuple(_UNIT_COLUMNS), default="si")
    p.add_argument("--output", default=None, metavar="PATH")
    return p


_AXES = ("theta", "separation", "temperature", "bfield")
_RANGE_FLAGS = tuple(f"--{name}-range" for name in _AXES)
_DEFAULTS = SweepSpec()


def _attach_ranges(argv: list[str]) -> list[str]:
    """Join each range flag to a value that starts with '-'.

    argparse would take "--theta-range -1:1:5" for two options and report
    the flag as missing its argument; "--theta-range=-1:1:5" it reads.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RANGE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _axis_from_flags(ns, name: str, allow_range: bool) -> AxisSpec:
    scalar = getattr(ns, name)
    rng = getattr(ns, f"{name}_range")
    if rng is not None:
        if not allow_range:
            raise _UsageError(f"--{name}-range is only valid in sweep mode")
        if scalar is not None:
            raise _UsageError(f"give either --{name} or --{name}-range, not both")
        return _parse_axis(rng, f"--{name}-range")
    return getattr(_DEFAULTS, name) if scalar is None else _fixed_axis(scalar)


def _spec_from_flags(ns) -> SweepSpec:
    allow_range = ns.mode == "sweep"
    axes = {name: _axis_from_flags(ns, name, allow_range) for name in _AXES}
    try:
        return SweepSpec(verdet=ns.verdet, medium=_MEDIA[ns.medium],
                         zero_mode=_POLICIES[ns.zero_mode], rel_tol=ns.rel_tol,
                         **axes)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def run(argv) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _parser()
    try:
        ns = parser.parse_args(_attach_ranges(list(argv)))
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        if ns.mode == "certify":
            SeriesControl(rel_tol=ns.rel_tol)  # validate before the long run
            if ns.output is None:
                return _certify(ns.rel_tol, sys.stdout)
            with open(ns.output, "w") as f:
                return _certify(ns.rel_tol, f)

        spec = _spec_from_flags(ns)
        table = run_sweep(spec)
        if ns.output is None:
            emit_csv(table, sys.stdout, units=ns.units)
        else:
            with open(ns.output, "w", newline="") as f:
                emit_csv(table, f, units=ns.units)
        if not all(row.converged for row in table.rows):
            print("warning: some rows did not converge at the requested "
                  "tolerance", file=sys.stderr)
            return 2
        return 0
    except (_UsageError, ValueError) as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
