"""Sweep CSVs byte for byte against committed expected files.

Each case is a CLI run whose output, in SI and in reduced units, was written
once to tests/golden/<case>.<units>.csv.  Any change to a bit of any cell,
to the column order or to the line endings shows up here as a diff.  The
cases cover a fixed angle, a Faraday gap, the TM-only zero mode, an
optically active gap and a separation axis, with rows at T = 0, at
tau <= 1.5 (the image sum) and at tau > 1.5 (the m-series), and two hot
sweeps (a fixed angle and a Faraday gap) at tau from 2.74 to 2,744 that
take the m-series on every row.

To rewrite the files after a deliberate change of the numbers:

    PYTHONPATH=src python tests/test_golden_csv.py
"""

from pathlib import Path

import pytest

from chiral_casimir.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

# name: CLI arguments; at 1 um, T = 1000 K is tau = 2.74
CASES = {
    "fixed": ("--theta-range", "0:1.5:5", "--temperature-range", "0:1000:5"),
    "faraday": ("--medium", "faraday", "--verdet", "1e5", "--bfield-range", "0.5:6:4",
                "--temperature-range", "0:1200:4"),
    "tm_only": ("--zero-mode", "tm-only", "--theta-range", "0:1.5:4",
                "--temperature-range", "0:1500:4"),
    "optical": ("--medium", "optical", "--theta", "0.7", "--temperature-range", "0:2000:3"),
    "separation": ("--theta", "0.4", "--separation-range", "1e-7:1e-5:4:log",
                   "--temperature", "300"),
    # the m-series alone: tau from 2.74 to 2,744, across its tau = 1e3 cap
    "hot": ("--theta-range", "0:1.5:4", "--temperature-range", "1000:1e6:6:log"),
    "hot_faraday": ("--medium", "faraday", "--verdet", "1e5", "--bfield-range", "0.5:6:3",
                    "--temperature-range", "1000:1e6:4:log"),
}
UNITS = ("si", "reduced")


def _sweep_csv(case: str, units: str, path: Path) -> bytes:
    code = run(["--mode", "sweep", *CASES[case], "--units", units, "--output", str(path)])
    assert code == 0
    return path.read_bytes()


@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_csv_matches_its_golden_file(case, units, tmp_path):
    expected = (GOLDEN / f"{case}.{units}.csv").read_bytes()
    assert _sweep_csv(case, units, tmp_path / "out.csv") == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            for unit in UNITS:
                data = _sweep_csv(name, unit, Path(tmp) / "out.csv")
                (GOLDEN / f"{name}.{unit}.csv").write_bytes(data)
