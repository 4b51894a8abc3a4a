"""Steadiness check: run every workload in two separate sets and compare.

    python3 bench/steadiness.py

Run from the repository root.  Each of the two sets runs bench/run.py with
ten seeds on every workload in BENCHMARK.json, with its run length.  For each
set it prints, per end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median beside the metric's bound, then the raw (not
drift-normalised) medians; at the end it compares the two sets' medians and
failed shares.  The sets use different seeds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    raw = json.loads(lines[-2].removeprefix("# raw "))
    return json.loads(lines[-1]), raw


def summarise(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    medians: dict = {}
    shares: dict = {}
    record = []
    for set_no in range(1, SETS + 1):
        print(f"== set {set_no} ({time.strftime('%H:%M:%S')})")
        for w in workloads:
            runs = [run_once(w, 1000 * set_no + i, bench["run_seconds"]) for i in range(RUNS)]
            results = [r for r, _ in runs]
            record.append({"set": set_no, "workload": w, "runs": runs})
            if not all(r["correct"] for r in results):
                print(f"{w}: a run reported correct=false")
            shares[set_no, w] = {Fraction(r["failed"], r["attempted"]) for r in results}
            ops = [r["attempted"] for r in results]
            print(f"{w}: attempted {min(ops)}-{max(ops)}, failed share {sorted(str(f) for f in shares[set_no, w])}")
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3 = summarise(vals)
                spread = (q3 - q1) / med
                medians[set_no, w, m["name"]] = med
                raw = [rw[m["name"]] for _, rw in runs if m["name"] in rw]
                raw_txt = ""
                if raw:
                    rmed, rq1, rq3 = summarise(raw)
                    raw_txt = f"  raw median {rmed:.5g} (spread {(rq3 - rq1) / rmed:.3f})"
                flag = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER")
                print(f"  {m['name']:<12} median {med:.5g} {m['unit']:<4} q1 {q1:.5g} q3 {q3:.5g} "
                      f"spread {spread:.3f} bound {m['bound']} [{flag}]{raw_txt}")
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(record))
    print("== set 2 against set 1 (worsening as a share of the set-1 median)")
    for w in workloads:
        same = shares[1, w] == shares[2, w] and len(shares[1, w]) == 1
        print(f"{w}: failed share {'identical' if same else 'DIFFERS'}")
        for m in metrics:
            a, b = medians[1, w, m["name"]], medians[2, w, m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print(f"  {m['name']:<12} {a:.5g} -> {b:.5g}  worse by {worse:+.3f} (bound {m['bound']})"
                  f"{'' if worse <= m['bound'] else '  OVER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
