"""Command-line surface: parsing, CSV output, exit codes, determinism."""

import copy
import csv
import io
import json
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest

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
    # sabotage the oracle so every finite-T comparison disagrees
    monkeypatch.setattr(chiral_casimir.oracle, "oracle_free_energy",
                        lambda p, q=None: 123.456)
    code, out, _ = run_cli(capsys, "--mode", "certify")
    assert code == 3
    assert "FAIL" in out


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
    for units in ("si", "reduced"):
        buf = io.StringIO()
        emit_csv(table, buf, units=units)
        assert buf.getvalue() == _csv_module_rendering(table, units)


# ------------------------------------------------------------------ records

# every frozen record: its class, field values and the repr of the frozen
# dataclass it was
_RECORDS = (
    (CavityConfig, (2e-6, 0.0, MediumKind.FARADAY, 0.1, 1e5, 2.0, ZeroModePolicy.TM_ONLY),
     "CavityConfig(separation=2e-06, temperature=0.0, kind=<MediumKind.FARADAY: 'faraday'>, "
     "theta=0.1, verdet=100000.0, bfield=2.0, zero_mode=<ZeroModePolicy.TM_ONLY: 'tm_only'>)"),
    (ReducedPoint, (0.3, 1.5), "ReducedPoint(theta=0.3, tau=1.5)"),
    (SeriesControl, (1e-12, "n_first"), "SeriesControl(rel_tol=1e-12, order='n_first')"),
    (engine._MSeries, (True, 6.0), "_MSeries(pressure=True, k=6.0)"),
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
    # engine._units keeps what it derives in the config's instance dict,
    # outside the fields: equality, hash and repr do not see it
    cfg = CavityConfig(1e-6, 300.0, theta=0.3)
    seen = (repr(cfg), hash(cfg))
    engine.physical_free_energy(cfg)
    engine.physical_pressure(cfg)
    assert {"_theta_tau", "_energy_units", "_pressure_units"} <= set(vars(cfg))
    assert (repr(cfg), hash(cfg)) == seen
    assert cfg == CavityConfig(1e-6, 300.0, theta=0.3) == pickle.loads(pickle.dumps(cfg))


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
    # numpy serves ranged sweep axes only: the m-series, the images, n_first,
    # matsubara_term and the damped polylogarithms are scalar Python.  No
    # path introspects anything, so dataclasses and inspect stay out too, and
    # under -S, where site preloads nothing, so does typing
    code = ("import contextlib, io, json, sys\n"
            "import chiral_casimir as cc\n"
            "import chiral_casimir.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['--mode', 'point', '--temperature', '300']) == 0\n"
            "assert cc.reduced_free_energy(cc.ReducedPoint(0.3, 3.0)).converged\n"
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
