#!/usr/bin/env python3
"""Cross-validate the series engine against brute-force quadrature.

The series engine earns its speed through analytic regrouping; this script
re-derives a grid of values by direct adaptive integration (no shared series
code) and prints the relative gaps.  Everything should sit far below the
1e-6 certification budget.
"""

import time

from chiral_casimir import ReducedPoint, reduced_free_energy, reduced_free_energy_T0
from chiral_casimir.oracle import (
    CERTIFY_TAUS,
    CERTIFY_THETAS,
    compare,
    oracle_free_energy,
    oracle_free_energy_T0,
)


def main() -> None:
    t0 = time.perf_counter()
    # the oracle takes the whole grid, and the T = 0 angles, in one batched call each
    points = [ReducedPoint(theta, tau) for theta in CERTIFY_THETAS for tau in CERTIFY_TAUS]
    thermal = [compare(reduced_free_energy(p).value, o, 1e-6)
               for p, o in zip(points, oracle_free_energy(points))]
    zero_t = [compare(reduced_free_energy_T0(theta), o, 1e-6)
              for theta, o in zip(CERTIFY_THETAS, oracle_free_energy_T0(CERTIFY_THETAS))]
    print("theta       tau    engine              quadrature          rel gap")
    print("-" * 72)
    rows = [(p.theta, f"{p.tau:5.2f}", rep) for p, rep in zip(points, thermal)]
    rows += [(theta, " T=0 ", rep) for theta, rep in zip(CERTIFY_THETAS, zero_t)]
    for theta, tau_text, rep in rows:
        print(f"{theta:9.6f}  {tau_text}  {rep.engine_value:+.12e}  "
              f"{rep.oracle_value:+.12e}  {rep.rel_gap:.2e}"
              f"{'' if rep.passed else '  <-- FAIL'}")
    worst = max(thermal + zero_t, key=lambda rep: rep.rel_gap)
    elapsed = time.perf_counter() - t0
    print(f"\nworst relative gap {worst.rel_gap:.2e} "
          f"(engine {worst.engine_value:+.6e}, quadrature "
          f"{worst.oracle_value:+.6e}); total {elapsed:.2f}s")


if __name__ == "__main__":
    main()
