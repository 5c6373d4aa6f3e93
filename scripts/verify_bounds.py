"""Cross-check the closed-form fidelity bound against the numerical search.

Runs the multi-start measurement optimizer on a grid of ensembles and prints
one line per grid point with the analytic bound, the best value the search
reached, the signed gap, the first outer step at which the best restart came
within 1e-12 of its final value, and the search's outer-step count, marked
"cap" when the search stopped at qrelay.optimizer.MAX_ITERATIONS rather than
converging. A search that settles long before it stops spends its steps
crawling. Every gap should sit within the optimizer tolerance below zero; a
positive gap would falsify the bound. Exits 1 when a gap exceeds that
tolerance or any search hit the cap.

    python3 scripts/verify_bounds.py
    python3 scripts/verify_bounds.py --m 2 3 --steps 9 --restarts 32 --seed 7
"""

import argparse
import math
import sys
import time

import qrelay.optimizer
from qrelay import OptimizerConfig, max_fidelity_analytic, optimize_fidelity, symmetric_ensemble


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = OptimizerConfig()
    ap.add_argument("--m", type=int, nargs="+", default=[2, 3, 4, 5, 8])
    ap.add_argument("--steps", type=int, default=5,
                    help="colatitude grid points from 0 to pi/2 inclusive")
    ap.add_argument("--elements", type=int, default=defaults.n_elements)
    ap.add_argument("--restarts", type=int, default=defaults.restarts)
    ap.add_argument("--seed", type=int, default=defaults.seed)
    args = ap.parse_args(argv)
    if args.steps < 2 or any(m < 2 for m in args.m):
        ap.error("need steps >= 2 and every m >= 2")

    cfg = OptimizerConfig(n_elements=args.elements, restarts=args.restarts,
                          seed=args.seed)
    print(f"{'m':>3} {'theta':>12} {'bound':>20} {'achieved':>20} "
          f"{'gap':>12} {'settled':>7} {'steps':>6} {'time_s':>7}")
    worst = -math.inf
    capped = 0
    for m in args.m:
        for i in range(args.steps):
            theta = (math.pi / 2) * i / (args.steps - 1)
            bound = max_fidelity_analytic(m, theta)
            start = time.perf_counter()
            _, value, trace = optimize_fidelity(symmetric_ensemble(m, theta), cfg)
            elapsed = time.perf_counter() - start
            gap = value - bound
            worst = max(worst, gap)
            steps = trace.records[0].iterations
            curve = trace.records[trace.best_restart].values
            settled = next(i for i, v in enumerate(curve) if abs(curve[-1] - v) <= 1e-12)
            cap = " cap" if steps >= qrelay.optimizer.MAX_ITERATIONS else ""
            capped += bool(cap)
            print(f"{m:>3} {theta:>12.8f} {bound:>20.15f} {value:>20.15f} "
                  f"{gap:>12.2e} {settled:>7} {steps:>6} {elapsed:>7.2f}{cap}")
    print(f"\nworst gap (achieved - bound): {worst:.3e}")
    print(f"searches stopped at max_iterations: {capped}")
    return 0 if worst <= 1e-6 and capped == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
