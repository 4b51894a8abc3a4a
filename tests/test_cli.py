"""Command-line surface: parsing, CSV output, exit codes, determinism."""

import csv
import io
import math
import subprocess
import sys

import pytest

import chiral_casimir.oracle
from chiral_casimir.cli import (
    AxisSpec,
    COLUMNS,
    REDUCED_COLUMNS,
    SweepSpec,
    emit_csv,
    run,
    run_sweep,
)

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


def test_emit_csv_rejects_unknown_units():
    table = run_sweep(SweepSpec())
    for units in ("SI", "Reduced", ""):
        with pytest.raises(ValueError, match="units"):
            emit_csv(table, io.StringIO(), units=units)


def test_point_mode_loads_no_scipy(package_env):
    # scipy serves only the oracle, which only certify uses
    code = ("import contextlib, io, sys\n"
            "import chiral_casimir.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['--mode', 'point']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
