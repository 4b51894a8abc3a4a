"""Command-line surface: parsing, CSV output, exit codes, determinism."""

import contextlib
import copy
import csv
import gc
import io
import json
import math
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

import chiral_casimir.cli as cli_module
import chiral_casimir.oracle
from chiral_casimir import engine
from chiral_casimir.cli import (
    AxisSpec,
    COLUMNS,
    REDUCED_COLUMNS,
    SweepRow,
    SweepSpec,
    SweepTable,
    emit_csv,
    run,
    run_sweep,
)
from chiral_casimir.engine import (CavityConfig, EvalResult, ReducedPoint, SeriesControl,
                                   ZeroModePolicy)
from chiral_casimir.kernel import MediumKind
from chiral_casimir.oracle import CompareReport, QuadControl

# temperature giving tau = 40 at l = 1e-6 m, where the requested tolerance
# sits below the error floor of the near-zero classical prefactor
ROOT_THETA = "0.7251727334628189"
HOT = "14578.6"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ----------------------------------------------------------------- point mode

def test_point_mode_emits_one_row(capsys):
    code, out, _ = run_cli(capsys, "--mode", "point", "--theta", "0.3",
                           "--temperature", "300")
    assert code == 0
    header, rows = parse_csv(out)
    assert tuple(header) == COLUMNS
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["theta_rad"]) == 0.3
    assert float(row["tau"]) > 0.0
    assert row["converged"] == "true"
    assert float(row["free_energy_J_per_m2"]) < 0.0


def test_point_mode_defaults_to_T0_parallel_plates(capsys):
    code, out, _ = run_cli(capsys, "--mode", "point")
    assert code == 0
    _, rows = parse_csv(out)
    row = dict(zip(COLUMNS, rows[0]))
    assert float(row["temperature_K"]) == 0.0
    assert float(row["tau"]) == 0.0
    assert float(row["reduced_free_energy"]) == pytest.approx(
        -math.pi**2 / 720.0, rel=1e-12)
    assert int(row["terms_used"]) == 0


def test_reduced_units_drop_dimensional_columns(capsys):
    code, out, _ = run_cli(capsys, "--mode", "point", "--units", "reduced",
                           "--temperature", "100")
    assert code == 0
    header, rows = parse_csv(out)
    assert tuple(header) == REDUCED_COLUMNS
    assert "pressure_Pa" not in header
    assert len(rows) == 1


def test_pressure_scales_like_inverse_fourth_power(capsys):
    def pressure_at(l):
        code, out, _ = run_cli(capsys, "--mode", "point", "--separation", l)
        assert code == 0
        _, rows = parse_csv(out)
        return float(dict(zip(COLUMNS, rows[0]))["pressure_Pa"])

    ratio = pressure_at("1e-6") / pressure_at("2e-6")
    assert ratio == pytest.approx(16.0, rel=1e-9)


def test_energy_scales_like_inverse_cube(capsys):
    def energy_at(l):
        code, out, _ = run_cli(capsys, "--mode", "point", "--separation", l)
        assert code == 0
        _, rows = parse_csv(out)
        return float(dict(zip(COLUMNS, rows[0]))["free_energy_J_per_m2"])

    assert energy_at("1e-6") / energy_at("2e-6") == pytest.approx(8.0, rel=1e-9)


# ----------------------------------------------------------------- sweep mode

def test_sweep_orders_rows_along_the_axis(capsys):
    code, out, _ = run_cli(capsys, "--mode", "sweep",
                           "--theta-range", "0:1.5:4", "--temperature", "300")
    assert code == 0
    _, rows = parse_csv(out)
    thetas = [float(r[0]) for r in rows]
    assert thetas == sorted(thetas)
    assert len(thetas) == 4


def test_two_axis_sweep_is_outer_slowest(capsys):
    code, out, _ = run_cli(capsys, "--mode", "sweep",
                           "--theta-range", "0:1:2",
                           "--temperature-range", "100:300:3")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 6
    thetas = [float(r[0]) for r in rows]
    temps = [float(r[3]) for r in rows]
    assert thetas == [0.0] * 3 + [1.0] * 3
    assert temps == [100.0, 200.0, 300.0] * 2


def test_log_spacing(capsys):
    code, out, _ = run_cli(capsys, "--mode", "sweep",
                           "--separation-range", "1e-7:1e-5:3:log",
                           "--temperature", "300")
    assert code == 0
    _, rows = parse_csv(out)
    seps = [float(r[2]) for r in rows]
    assert seps == pytest.approx([1e-7, 1e-6, 1e-5], rel=1e-12)


def test_single_point_sweep_equals_point_mode(capsys):
    code_a, out_a, _ = run_cli(capsys, "--mode", "point", "--theta", "0.4",
                               "--temperature", "250")
    code_b, out_b, _ = run_cli(capsys, "--mode", "sweep",
                               "--theta-range", "0.4:0.4:1",
                               "--temperature", "250")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sweep_determinism(capsys):
    argv = ("--mode", "sweep", "--theta-range", "0:1.5:5",
            "--temperature-range", "50:400:4")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("flag, value, extra", [
    ("--theta-range", "-1:1:5", ("--temperature", "300")),
    ("--bfield-range", "-0.2:0.2:3", ("--medium", "faraday", "--verdet", "1e6",
                                       "--temperature", "300")),
])
def test_negative_range_start_may_follow_a_space(capsys, flag, value, extra):
    # argparse alone reads "-1:1:5" as an option and exits 1
    code_joined, joined, _ = run_cli(capsys, "--mode", "sweep", f"{flag}={value}", *extra)
    code, spaced, _ = run_cli(capsys, "--mode", "sweep", flag, value, *extra)
    assert code == code_joined == 0
    assert spaced == joined
    assert len(parse_csv(spaced)[1]) == int(value.rsplit(":", 1)[1])


def test_zero_mode_flag_changes_the_result(capsys):
    base = ("--mode", "point", "--theta", "0.5", "--temperature", "300",
            "--units", "reduced")
    _, full_out, _ = run_cli(capsys, *base)
    _, tm_out, _ = run_cli(capsys, *base, "--zero-mode", "tm-only")
    full = dict(zip(REDUCED_COLUMNS, parse_csv(full_out)[1][0]))
    tm = dict(zip(REDUCED_COLUMNS, parse_csv(tm_out)[1][0]))
    assert float(full["reduced_free_energy"]) != float(tm["reduced_free_energy"])


def test_faraday_medium_uses_verdet_times_bfield(capsys):
    code, out, _ = run_cli(capsys, "--mode", "point", "--medium", "faraday",
                           "--verdet", "1000", "--bfield", "10",
                           "--separation", "1e-5", "--temperature", "300")
    assert code == 0
    _, rows = parse_csv(out)
    row = dict(zip(COLUMNS, rows[0]))
    assert float(row["theta_eff_rad"]) == pytest.approx(0.1, rel=1e-12)


def test_optical_medium_zeroes_the_effective_angle(capsys):
    code, out, _ = run_cli(capsys, "--mode", "point", "--medium", "optical",
                           "--theta", "1.2", "--temperature", "300")
    assert code == 0
    _, rows = parse_csv(out)
    row = dict(zip(COLUMNS, rows[0]))
    assert float(row["theta_eff_rad"]) == 0.0
    assert float(row["theta_rad"]) == 1.2


# ---------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv", [
    ("--mode", "point", "--theta-range", "0:1:5"),      # range outside sweep
    ("--mode", "sweep", "--theta", "1", "--theta-range", "0:1:5"),
    ("--mode", "sweep", "--theta-range", "0:1"),        # malformed
    ("--mode", "sweep", "--theta-range", "1:0:5"),      # start > stop
    ("--mode", "sweep", "--theta-range", "0:1:0"),      # zero count
    ("--mode", "sweep", "--theta-range", "0:1:4:log"),  # log needs start > 0
    ("--mode", "sweep", "--theta-range", "0:1:4:cubic"),
    ("--mode", "sweep", "--theta-range", "0:1:2", "--separation-range",
     "1e-7:1e-6:2", "--temperature-range", "1:300:2"),  # three swept axes
    ("--bogus",),
    ("--mode", "orbit"),
    ("--mode", "point", "--separation", "-1e-6"),
    ("--mode", "point", "--rel-tol", "0"),
    ("--mode", "certify", "--grid", "unknown"),
    ("--mode", "point", "--grid", "default"),           # the flag is gone
    ("--mode", "point", "--temperature", "1e-300"),     # tau below 1e-300
    ("--mode", "point", "--separation", "1e-200", "--temperature", "300"),  # l^3 underflows
    ("--mode", "sweep", "--theta-range", "0:1:4:lin"),   # log is the only tag
])
def test_argument_errors_exit_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "--mode" in out and "--zero-mode" in out


def test_unconverged_point_exits_2(capsys):
    code, out, err = run_cli(capsys, "--mode", "point", "--theta", ROOT_THETA,
                             "--temperature", HOT)
    assert code == 2
    assert "converge" in err
    _, rows = parse_csv(out)  # the row is still written, flagged false
    assert dict(zip(COLUMNS, rows[0]))["converged"] == "false"


def test_faraday_row_counts_its_fixed_angle_pressure(capsys):
    # theta_eff = 0.7554 at tau = 0.82 sits at a zero of the fixed-angle
    # pressure: that column's result is unconverged, though the energy and
    # the Faraday pressure converge
    code, out, err = run_cli(capsys, "--mode", "point", "--medium", "faraday",
                             "--verdet", "1e6", "--bfield", "0.7554016429194934",
                             "--temperature", "300", "--units", "reduced")
    assert code == 2
    assert "converge" in err
    _, rows = parse_csv(out)
    assert dict(zip(REDUCED_COLUMNS, rows[0]))["converged"] == "false"


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "out.csv"
    code, _, err = run_cli(capsys, "--mode", "point", "--output", str(target))
    assert code == 2
    assert err


def test_output_file_roundtrip(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "--mode", "sweep",
                           "--theta-range", "0:1:3", "--temperature", "200",
                           "--output", str(target))
    assert code == 0
    assert out == ""  # everything went to the file
    header, rows = parse_csv(target.read_text())
    assert tuple(header) == COLUMNS
    assert len(rows) == 3


def test_certify_passes(capsys):
    code, out, _ = run_cli(capsys, "--mode", "certify")
    assert code == 0
    assert "28/28 comparisons passed" in out
    assert out.count("PASS") == 28
    assert "FAIL" not in out


def test_certify_detects_a_broken_engine(capsys, monkeypatch):
    # sabotage the oracle so every finite-T comparison disagrees: certify
    # asks for the whole grid in one call, and gets one wrong value a point
    monkeypatch.setattr(chiral_casimir.oracle, "oracle_free_energy",
                        lambda points, q=None: [123.456] * len(points))
    code, out, _ = run_cli(capsys, "--mode", "certify")
    assert code == 3
    assert out.count("FAIL") == 25
    assert "certify: 3/28 comparisons passed" in out


def test_certify_fails_exactly_the_sabotaged_point(capsys, monkeypatch):
    # one wrong value in the batch fails its own line and no other, so the
    # batch keeps the order of its points
    oracle_free_energy = chiral_casimir.oracle.oracle_free_energy

    def one_wrong(points, q=None):
        return [2.0 * v if (p.theta, p.tau) == (math.pi / 4, 2.0) else v
                for p, v in zip(points, oracle_free_energy(points, q))]

    monkeypatch.setattr(chiral_casimir.oracle, "oracle_free_energy", one_wrong)
    code, out, _ = run_cli(capsys, "--mode", "certify")
    assert code == 3
    failed = [line for line in out.splitlines() if line.endswith(" FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("theta=0.7853981634 tau=2.000 ")
    assert "certify: 27/28 comparisons passed" in out


# ------------------------------------------------------------------ emit_csv

def test_emit_csv_stringio_matches_file(capsys, tmp_path):
    table = run_sweep(SweepSpec(theta=AxisSpec(0.0, 1.0, 3),
                                temperature=AxisSpec(250.0, 250.0, 1)))
    buf = io.StringIO()
    emit_csv(table, buf)
    target = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "--mode", "sweep", "--theta-range", "0:1:3",
                         "--temperature", "250", "--output", str(target))
    assert code == 0
    with open(target, newline="") as f:
        assert f.read() == buf.getvalue()


def test_emit_csv_floats_roundtrip():
    table = run_sweep(SweepSpec(theta=AxisSpec(0.3, 0.3, 1),
                                temperature=AxisSpec(300.0, 300.0, 1)))
    buf = io.StringIO()
    emit_csv(table, buf)
    header, rows = parse_csv(buf.getvalue())
    row = dict(zip(header, rows[0]))
    assert float(row["reduced_free_energy"]) == table.rows[0].reduced_free_energy
    assert float(row["pressure_Pa"]) == table.rows[0].pressure_Pa
    assert int(row["terms_used"]) == table.rows[0].terms_used


def _csv_module_rendering(table, units):
    """The table as csv.writer writes it, each cell formatted on its own."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return format(v, ".17g")

    cols = COLUMNS if units == "si" else REDUCED_COLUMNS
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    for row in table.rows:
        writer.writerow([cell(getattr(row, c)) for c in cols])
    return buf.getvalue()


def test_emit_csv_bytes_match_the_csv_module():
    fixed = run_sweep(SweepSpec(theta=AxisSpec(-0.0, -0.0, 1),
                                temperature=AxisSpec(0.0, 1000.0, 3)))  # T = 0 first
    faraday = run_sweep(SweepSpec(medium=MediumKind.FARADAY, verdet=1e5,
                                  bfield=AxisSpec(2.0, 2.0, 1),
                                  temperature=AxisSpec(0.0, 300.0, 2)))
    unconverged = run_sweep(SweepSpec(theta=AxisSpec(0.3, 0.3, 1),
                                      temperature=AxisSpec(300.0, 300.0, 1), rel_tol=1e-17))
    odd = SweepRow(-0.0, math.inf, -math.inf, math.nan, 1e-300, -1.5, 5e-324, 1e308, -2.0,
                   10**6, 0.0, True)
    table = SweepTable(fixed.rows + faraday.rows + unconverged.rows + (odd,))
    assert fixed.rows[0].temperature_K == 0.0 and str(fixed.rows[0].theta_rad) == "-0.0"
    assert not unconverged.rows[0].converged
    # emit_csv formats a column once where every row holds the same object:
    # a pinned -0.0 (one object in all rows of the fixed sweep), equal
    # values in distinct objects, 0.0 and -0.0 (equal, but not one text),
    # a one-row table, whose every cell is pinned (nan and inf included),
    # and an empty table, which writes the header alone
    assert fixed.rows[0].theta_rad is fixed.rows[-1].theta_eff_rad
    halves = (float.fromhex("0x1p-1"), float.fromhex("0x1p-1"))
    assert halves[0] is not halves[1]
    equal = SweepTable((odd._replace(theta_rad=halves[0]), odd._replace(theta_rad=halves[1])))
    signed = SweepTable((odd._replace(separation_m=0.0), odd._replace(separation_m=-0.0)))
    assert signed.rows[0].separation_m == signed.rows[1].separation_m
    tables = (table, fixed, faraday, equal, signed, SweepTable((odd,)), SweepTable(()))
    for tab in tables:
        for units in ("si", "reduced"):
            buf = io.StringIO()
            emit_csv(tab, buf, units=units)
            assert buf.getvalue() == _csv_module_rendering(tab, units)
    header = io.StringIO()
    emit_csv(SweepTable(()), header)
    assert header.getvalue() == ",".join(COLUMNS) + "\r\n"


# ------------------------------------------------------------------ records

# every frozen record: its class, field values and the repr of the frozen
# dataclass it was
_RECORDS = (
    (CavityConfig, (2e-6, 0.0, MediumKind.FARADAY, 0.1, 1e5, 2.0, ZeroModePolicy.TM_ONLY),
     "CavityConfig(separation=2e-06, temperature=0.0, kind=<MediumKind.FARADAY: 'faraday'>, "
     "theta=0.1, verdet=100000.0, bfield=2.0, zero_mode=<ZeroModePolicy.TM_ONLY: 'tm_only'>)"),
    (ReducedPoint, (0.3, 1.5), "ReducedPoint(theta=0.3, tau=1.5)"),
    (SeriesControl, (1e-12, "n_first"), "SeriesControl(rel_tol=1e-12, order='n_first')"),
    (AxisSpec, (10.0, 1000.0, 5, True), "AxisSpec(start=10.0, stop=1000.0, count=5, log=True)"),
    (SweepSpec, (AxisSpec(0.0, 1.0, 3), AxisSpec(1e-6, 1e-6, 1), AxisSpec(300.0, 300.0, 1),
                 AxisSpec(2.0, 2.0, 1), 1e5, MediumKind.FARADAY, ZeroModePolicy.FULL, 1e-9),
     "SweepSpec(theta=AxisSpec(start=0.0, stop=1.0, count=3, log=False), "
     "separation=AxisSpec(start=1e-06, stop=1e-06, count=1, log=False), "
     "temperature=AxisSpec(start=300.0, stop=300.0, count=1, log=False), "
     "bfield=AxisSpec(start=2.0, stop=2.0, count=1, log=False), verdet=100000.0, "
     "medium=<MediumKind.FARADAY: 'faraday'>, zero_mode=<ZeroModePolicy.FULL: 'full'>, "
     "rel_tol=1e-09)"),
    (SweepTable, ((),), "SweepTable(rows=())"),
    (QuadControl, (1e-12,), "QuadControl(abs_tol=1e-12)"),
    (CompareReport, (1.0, 2.0, 1.0, 0.5, 0.5, False),
     "CompareReport(engine_value=1.0, oracle_value=2.0, abs_gap=1.0, rel_gap=0.5, "
     "rel_tol=0.5, passed=False)"),
)


@pytest.mark.parametrize("cls, values, text", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_frozen_records_keep_the_dataclass_contract(cls, values, text):
    # frozen dataclasses with these fields pass this test as well
    fields = cls.__match_args__
    rec = cls(*values)
    assert repr(rec) == text
    assert tuple(getattr(rec, name) for name in fields) == values
    # equality and hash are those of the field tuple, within one class
    assert rec == cls(**dict(zip(fields, values)))
    assert hash(rec) == hash(values)
    assert rec != values and values != rec
    for name in fields + ("extra",):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(rec, name, 0.0)
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(rec, name)
    for copied in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(copied) is cls
        assert copied == rec and hash(copied) == hash(rec) and repr(copied) == text


def test_records_keep_their_contract():
    # EvalResult and SweepRow are named tuples: the field order, the repr
    # text and immutability of the frozen dataclasses they replaced
    assert EvalResult._fields == ("value", "error_estimate", "terms_used", "converged")
    assert COLUMNS == SweepRow._fields == (
        "theta_rad", "theta_eff_rad", "separation_m", "temperature_K", "tau",
        "reduced_free_energy", "reduced_pressure", "free_energy_J_per_m2", "pressure_Pa",
        "terms_used", "error_estimate", "converged")
    res = EvalResult(-1.5, 2e-16, 3, True)
    assert repr(res) == "EvalResult(value=-1.5, error_estimate=2e-16, terms_used=3, converged=True)"
    row = SweepRow(0.3, 0.3, 1e-06, 300.0, 0.25, -1.0, -3.0, -2e-10, -6e-4, 2, 1e-15, False)
    assert repr(row) == (
        "SweepRow(theta_rad=0.3, theta_eff_rad=0.3, separation_m=1e-06, temperature_K=300.0, "
        "tau=0.25, reduced_free_energy=-1.0, reduced_pressure=-3.0, "
        "free_energy_J_per_m2=-2e-10, pressure_Pa=-0.0006, terms_used=2, "
        "error_estimate=1e-15, converged=False)")
    for record, name in ((res, "value"), (res, "converged"), (row, "tau"), (row, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    # tuples: they unpack, equal plain tuples, and change by ._replace
    value, error_estimate, terms_used, converged = res
    assert (value, terms_used, converged) == (-1.5, 3, True)
    assert res == (-1.5, 2e-16, 3, True)
    assert res._replace(converged=False) == (-1.5, 2e-16, 3, False)
    assert type(res._replace(converged=False)) is EvalResult
    for record in (res, row):
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
    # the class defaults, which the cli reads, and the constructors' checks
    assert (SeriesControl.rel_tol, SeriesControl.order, QuadControl.abs_tol) == (
        1e-10, "m_first", 1e-10)
    assert CavityConfig(1e-6, 300.0) == CavityConfig(
        1e-6, 300.0, MediumKind.FIXED_ANGLE, 0.0, 0.0, 0.0, ZeroModePolicy.FULL)
    assert SeriesControl() == SeriesControl(1e-10, "m_first")
    assert QuadControl() == QuadControl(1e-10)
    assert AxisSpec(0.0, 1.0, 3) == AxisSpec(0.0, 1.0, 3, False)
    assert SweepSpec() == SweepSpec(AxisSpec(0.0, 0.0, 1), AxisSpec(1e-6, 1e-6, 1),
                                    AxisSpec(0.0, 0.0, 1), AxisSpec(0.0, 0.0, 1), 0.0,
                                    MediumKind.FIXED_ANGLE, ZeroModePolicy.FULL, 1e-10)
    assert ReducedPoint(0.3, 1.5) != ReducedPoint(0.3, 1.6)
    match ReducedPoint(0.3, 1.5):
        case ReducedPoint(theta, tau):
            assert (theta, tau) == (0.3, 1.5)
    ranged = AxisSpec(0.0, 1.0, 2)
    for make, message in (
            (lambda: CavityConfig(0.0, 300.0), "separation must be positive, got 0.0"),
            (lambda: CavityConfig(1e-6, -1.0), "temperature must be >= 0, got -1.0"),
            (lambda: CavityConfig(1e-6, 1.0, bfield=math.inf), "config fields must be finite, got inf"),
            (lambda: ReducedPoint(math.nan, 1.0), "theta must be finite, got nan"),
            (lambda: ReducedPoint(0.3, -1.0), "tau must be >= 0, got -1.0"),
            (lambda: SeriesControl(1.0), "rel_tol must lie in (0, 1), got 1.0"),
            (lambda: SeriesControl(order="k_first"),
             "order must be 'm_first' or 'n_first', got 'k_first'"),
            (lambda: AxisSpec(0.0, math.inf, 2), "axis endpoints must be finite"),
            (lambda: AxisSpec(0.0, 1.0, 0), "axis count must be >= 1, got 0"),
            (lambda: AxisSpec(2.0, 1.0, 2), "axis start 2.0 exceeds stop 1.0"),
            (lambda: AxisSpec(0.0, 1.0, 2, log=True), "log spacing requires start > 0"),
            (lambda: SweepSpec(theta=ranged, separation=AxisSpec(1e-7, 1e-6, 2),
                               temperature=AxisSpec(1.0, 300.0, 2)),
             "at most 2 swept axes per run, got 3"),
            (lambda: QuadControl(0.0), "abs_tol must be positive, got 0.0")):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    # engine._units keeps what it derives on the config, outside the
    # fields: equality, hash and repr do not see it
    cfg = CavityConfig(1e-6, 300.0, theta=0.3)
    seen = (repr(cfg), hash(cfg))
    engine.physical_free_energy(cfg)
    engine.physical_pressure(cfg)
    assert {"_theta_tau", "_energy_units", "_pressure_units"} <= set(vars(cfg))
    assert (repr(cfg), hash(cfg)) == seen
    assert cfg == CavityConfig(1e-6, 300.0, theta=0.3) == pickle.loads(pickle.dumps(cfg))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="inline instance values are CPython 3.11's")
def test_what_the_engine_keeps_on_a_config_builds_no_instance_dict(monkeypatch):
    # engine._units keeps the angle, tau and unit factors on the config as
    # attributes.  Reading or writing cfg.__dict__ for them built the dict,
    # after which CPython 3.11 read every field of the config about twice
    # as slowly.  A config whose dict was never built holds its attributes
    # inline, so the garbage collector sees their values but no dict
    def no_dict(cfg):
        return not [ref for ref in gc.get_referents(cfg) if type(ref) is dict]

    cfg = CavityConfig(1e-6, 300.0, theta=0.3)
    engine.physical_free_energy(cfg)
    engine.physical_pressure(cfg)
    assert cfg._theta_tau is not None and cfg._pressure_units is not None
    assert no_dict(cfg)
    # a sweep row, fixed angle and Faraday, on the config it makes
    made, free_energy = [], engine.physical_free_energy

    def keep(cfg, ctrl=None):
        made.append(cfg)
        return free_energy(cfg, ctrl)

    monkeypatch.setattr(engine, "physical_free_energy", keep)
    run_sweep(SweepSpec(theta=AxisSpec(0.3, 0.3, 1), temperature=AxisSpec(300.0, 300.0, 1)))
    run_sweep(SweepSpec(medium=MediumKind.FARADAY, verdet=1e5, bfield=AxisSpec(2.0, 2.0, 1),
                        temperature=AxisSpec(1000.0, 1000.0, 1)))
    assert len(made) == 2
    for cfg in made:
        assert cfg._energy_units is not None and no_dict(cfg)


def test_records_hold_python_scalars_for_numpy_inputs():
    f64 = np.float64
    for spec in (SweepSpec(theta=AxisSpec(f64(0.3), f64(0.3), 1),
                           separation=AxisSpec(f64(1e-6), f64(1e-6), 1),
                           temperature=AxisSpec(f64(0.0), f64(3000.0), 3), rel_tol=f64(1e-10)),
                 SweepSpec(medium=MediumKind.FARADAY, verdet=f64(1e5),
                           bfield=AxisSpec(f64(2.0), f64(2.0), 1),
                           temperature=AxisSpec(f64(300.0), f64(300.0), 1))):
        for row in run_sweep(spec).rows:
            assert [type(v) for v in row] == [float] * 9 + [int, float, bool], row
            res = engine.physical_pressure(engine.CavityConfig(
                f64(row.separation_m), f64(row.temperature_K), kind=spec.medium,
                theta=f64(0.3), verdet=spec.verdet, bfield=f64(2.0)))
            assert [type(v) for v in res] == [float, float, int, bool]


def test_each_axis_is_spaced_once_per_sweep(monkeypatch):
    calls = []
    spaced = AxisSpec.values

    def counted(self):
        calls.append(self)
        return spaced(self)

    spec = SweepSpec(theta=AxisSpec(0.0, 1.0, 3), temperature=AxisSpec(10.0, 1000.0, 4, log=True))
    monkeypatch.setattr(AxisSpec, "values", counted)
    rows = run_sweep(spec).rows
    assert len(calls) == 4
    # outer axis slowest, in the listing order theta, separation, temperature, bfield
    assert [(r.theta_rad, r.temperature_K) for r in rows] == [
        (th, T) for th in spaced(spec.theta) for T in spaced(spec.temperature)]


def test_a_sweep_row_folds_its_angle_once(monkeypatch):
    # engine._units folds the row's angle once, and both quantities sum at
    # that fold; the Faraday row's fixed-angle reduced_pressure folds its own
    calls = []
    fold = engine._canonical_theta

    def counted(theta):
        calls.append(theta)
        return fold(theta)

    monkeypatch.setattr(engine, "_canonical_theta", counted)
    t_axis = AxisSpec(10.0, 1000.0, 50, log=True)
    run_sweep(SweepSpec(theta=AxisSpec(0.6, 0.6, 1), temperature=t_axis))
    assert len(calls) == 50
    calls.clear()
    run_sweep(SweepSpec(medium=MediumKind.FARADAY, verdet=1e6, bfield=AxisSpec(0.3, 0.3, 1),
                        temperature=t_axis))
    assert len(calls) == 100


def test_emit_csv_rejects_unknown_units():
    table = run_sweep(SweepSpec())
    for units in ("SI", "Reduced", ""):
        with pytest.raises(ValueError, match="units"):
            emit_csv(table, io.StringIO(), units=units)


def test_point_mode_loads_no_scipy(package_env):
    # the package needs no scipy: the oracle's quadrature, which only
    # certify uses, is numpy
    code = ("import contextlib, io, sys\n"
            "import chiral_casimir.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['--mode', 'point']) == 0\n"
            "    assert cli.run(['--mode', 'certify']) == 0\n"
            "assert 'chiral_casimir.oracle' in sys.modules\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_point_mode_and_the_m_series_load_no_numpy(package_env):
    # numpy serves the oracle only: the m-series, the images, n_first,
    # matsubara_term, the damped polylogarithms and the spacing of a linear
    # or log sweep axis are scalar Python.  No path introspects anything, so
    # dataclasses and inspect stay out too, and under -S, where site
    # preloads nothing, so does typing
    code = ("import contextlib, io, json, sys\n"
            "import chiral_casimir as cc\n"
            "import chiral_casimir.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['--mode', 'point', '--temperature', '300']) == 0\n"
            "    assert cli.run(['--mode', 'sweep', '--theta-range', '-1:1:5']) == 0\n"
            "    assert cli.run(['--mode', 'sweep', '--temperature-range', '10:1000:5:log',\n"
            "                    '--medium', 'faraday', '--verdet', '1e5', '--bfield', '2']) == 0\n"
            "spec = cli.SweepSpec(theta=cli.AxisSpec(0.0, 1.5, 4),\n"
            "                     temperature=cli.AxisSpec(1.0, 1e3, 4, log=True))\n"
            "assert len(cli.run_sweep(spec).rows) == 16\n"
            "assert cc.physical_free_energy(cc.CavityConfig(1e-6, 0.0, theta=0.3)).converged\n"
            "assert cc.reduced_free_energy(cc.ReducedPoint(0.3, 3.0)).converged\n"
            "assert cc.reduced_pressure(cc.ReducedPoint(0.3, 0.01)).converged\n"
            "cfg = cc.CavityConfig(1e-6, 1000.0, kind=cc.MediumKind.FARADAY, verdet=1e5,\n"
            "                      bfield=2.0)\n"
            "assert cc.reduced_temperature(cfg.separation, cfg.temperature) > 1.5\n"
            "assert cc.physical_pressure(cfg).converged\n"
            "n_first = cc.SeriesControl(order='n_first')\n"
            "assert cc.reduced_free_energy(cc.ReducedPoint(0.3, 0.5), n_first).converged\n"
            "assert cc.reduced_pressure(cc.ReducedPoint(0.3, 0.5), n_first).converged\n"
            "assert cc.matsubara_term(2, cc.ReducedPoint(0.3, 0.5)) < 0.0\n"
            "assert cc.re_polylog_damped(4, 0.9, 1.0) > 0.0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "                        ('numpy', 'dataclasses', 'inspect', 'typing'))))\n")
    for flags, banned in (((), {"numpy", "dataclasses", "inspect"}),
                          (("-S",), {"numpy", "dataclasses", "inspect", "typing"})):
        proc = subprocess.run([sys.executable, *flags, "-c", code], env=package_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert not {m.split(".")[0] for m in loaded} & banned, (flags, loaded)


def _random_axis(rng):
    # wide and tiny spans, subnormal ones and spans the step underflows in
    kind = rng.randrange(4)
    if kind == 0:
        start = rng.uniform(-1e3, 1e3)
        return start, start + rng.uniform(0.0, 1e3)
    if kind == 1:
        start = 10.0 ** rng.uniform(-300, 300) * rng.choice((-1.0, 1.0))
        return start, start + abs(start) * rng.uniform(0.0, 1e-14) + 10.0 ** rng.uniform(-323, -300)
    if kind == 2:
        return 0.0, 5e-324 * rng.randrange(7)
    start = math.ldexp(rng.random(), rng.randint(-60, 60))
    return start, start * 10.0 ** rng.uniform(0.0, 12.0)


def test_axis_values_space_as_numpy_does():
    # a linear axis has np.linspace's bits; a log axis is np.linspace in
    # log10, raised to 10**v, with both endpoints exact.  Against
    # np.geomspace it is within one ulp wherever math.log10 rounds the
    # endpoints as np.log10 does: libm's pow and log10 may differ from
    # numpy's by an ulp, and an ulp of log10 moves 10**v by ln(10) |log10|
    # ulps of the value.  Both are clamped into [start, stop], which an ulp
    # of log10 can leave on a tiny relative span
    rng = random.Random(24)
    logs_taken = agreed = 0
    for _ in range(5000):
        start, stop = _random_axis(rng)
        n = rng.randint(2, 70)
        assert AxisSpec(start, stop, n).values() == tuple(np.linspace(start, stop, n).tolist())
        if start <= 0.0:
            continue
        logs_taken += 1
        values = AxisSpec(start, stop, n, log=True).values()
        logs = np.linspace(math.log10(start), math.log10(stop), n).tolist()
        assert values == (start, *(min(max(10.0**v, start), stop) for v in logs[1:-1]), stop)
        if np.log10(start) == math.log10(start) and np.log10(stop) == math.log10(stop):
            agreed += 1
            for v, g in zip(values, np.geomspace(start, stop, n).tolist()):
                g = min(max(g, start), stop)  # np.geomspace too may leave a tiny span
                assert abs(v - g) <= math.ulp(g), (start, stop, n)
    assert agreed > 0.8 * logs_taken
    # the benchmark's temperature axis (three of its 50 values moved by an ulp)
    values = AxisSpec(10.0, 1000.0, 50, log=True).values()
    for v, g in zip(values, np.geomspace(10.0, 1000.0, 50).tolist()):
        assert abs(v - g) <= math.ulp(g)


def test_log_axes_stay_sorted_and_in_range():
    # one ulp of log10 near 300 is 1.3e-13 of the value, more than these
    # spans, and 10**v fell below start; clamped, every value is inside
    # its axis, the axis is sorted with exact endpoints, and a value the
    # unclamped spacing put inside keeps its bits
    rng = random.Random(58)
    axes = [(1e-300, 1.0000000000001e-300, 9), (2.3073182906465436e-300, 2.307318290646554e-300, 58)]
    for _ in range(4000):
        start = 10.0 ** rng.uniform(-307, 307)
        stop = start * (1.0 + rng.choice((0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12)) * rng.random())
        axes.append((start, stop, rng.randint(2, 70)))
    moved = 0
    for start, stop, n in axes:
        values = AxisSpec(start, stop, n, log=True).values()
        logs = np.linspace(math.log10(start), math.log10(stop), n).tolist()
        unclamped = (start, *(10.0**v for v in logs[1:-1]), stop)
        assert len(values) == n and values[0] == start and values[-1] == stop
        assert all(a <= b for a, b in zip(values, values[1:])), (start, stop, n)
        for v, u in zip(values, unclamped):
            assert start <= v <= stop
            assert v == u or not start <= u <= stop, (start, stop, n)
            moved += v != u
    assert moved > 0
    for start, stop, n in axes[:2]:
        assert not all(start <= 10.0**v <= stop
                       for v in np.linspace(math.log10(start), math.log10(stop), n).tolist()[1:-1])


def test_library_use_of_the_cli_loads_no_argparse(package_env):
    # run_sweep and emit_csv need no flag parser: argparse (and with it
    # gettext) loads on the first run() alone, with and without -S
    code = ("import io, json, sys\n"
            "import chiral_casimir.cli as cli\n"
            "spec = cli.SweepSpec(temperature=cli.AxisSpec(300.0, 300.0, 1))\n"
            "cli.emit_csv(cli.run_sweep(spec), io.StringIO())\n"
            "before = sorted(m for m in sys.modules if m in ('argparse', 'gettext'))\n"
            "assert cli.run(['--mode', 'point', '--output', '/dev/null']) == 0\n"
            "print(json.dumps([before, 'argparse' in sys.modules]))\n")
    for flags in ((), ("-S",)):
        proc = subprocess.run([sys.executable, *flags, "-c", code], env=package_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], True], flags


def test_one_parser_serves_every_run(package_env, monkeypatch):
    # run() builds its parser once per process and keeps it; no call may
    # see what an earlier one parsed.  Each call in this process prints
    # the bytes, and exits with the code, of a fresh process given the same
    # arguments (help and usage text at a fixed terminal width)
    monkeypatch.setenv("COLUMNS", "80")
    env = {**package_env, "COLUMNS": "80"}
    calls = (
        (1, ("--mode", "orbit")),
        (0, ("--help",)),
        (0, ("--mode", "point", "--theta", "0.3")),
        (0, ("--mode", "point")),
        (0, ("--mode", "sweep", "--theta-range", "-1:1:3")),
        (0, ("--mode", "certify")),
    )
    for want, argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
        assert code == want, argv
        fresh = subprocess.run([sys.executable, "-m", "chiral_casimir.cli", *argv], env=env,
                               capture_output=True, timeout=120)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()), argv
        if argv == ("--mode", "point"):
            _, rows = parse_csv(out.getvalue())
            assert float(dict(zip(COLUMNS, rows[0]))["theta_rad"]) == 0.0
    assert cli_module._parser() is cli_module._parser()


def test_empty_axis_rejected():
    with pytest.raises(ValueError):
        AxisSpec(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        AxisSpec(0.0, 1.0, 3, log=True)
    with pytest.raises(ValueError):
        SweepSpec(theta=AxisSpec(0.0, 1.0, 2), separation=AxisSpec(1e-7, 1e-6, 2),
                  temperature=AxisSpec(1.0, 300.0, 2))


def test_huge_angle_is_an_argument_error(capsys):
    code, out, err = run_cli(capsys, "--mode", "point", "--theta", "1e300")
    assert code == 1
    assert "theta" in err
    assert out == ""


@pytest.mark.parametrize("medium, extra", [
    ("fixed", ("--theta-range", "0:1.5:4")),
    ("faraday", ("--verdet", "1e6", "--bfield-range", "0.1:0.6:4")),
])
def test_si_columns_are_the_reduced_columns_scaled(capsys, medium, extra):
    k_b = 1.380649e-23
    code, out, _ = run_cli(capsys, "--mode", "sweep", "--medium", medium, *extra,
                           "--temperature-range", "10:1000:5:log")
    assert code == 0
    header, rows = parse_csv(out)
    for cells in rows:
        row = {k: float(v) for k, v in zip(header, cells) if k != "converged"}
        l, T = row["separation_m"], row["temperature_K"]
        e_scale = k_b * T / (4.0 * math.pi * l**2)
        assert row["free_energy_J_per_m2"] == pytest.approx(
            row["reduced_free_energy"] * e_scale, rel=1e-15)
        if medium == "fixed":  # a Faraday row's reduced column is the fixed-angle pressure
            assert row["pressure_Pa"] == pytest.approx(
                row["reduced_pressure"] * e_scale / l, rel=1e-15)
