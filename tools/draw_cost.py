"""Cost of the replicate draws beneath one finite Monte Carlo chunk.

Times ``calibration._null_walks``, which draws the null random walks of
replicates [0, rows) as one array: i.i.d. Gaussian innovations at the
``finite_long`` size (256 rows of N = 4000) and GARCH(1,1) innovations
(alpha0 = 0.1, alpha1 = 0.1, beta1 = 0.8, 500 burn-in steps) at the
``finite_garch`` size (250 rows of N = 500).  Prints the best wall time of
each case over ``--repeats`` calls.  BLAS runs on one thread.

    python tools/draw_cost.py [--repeats 5] [--seed 1]

driftwatch is imported from the ``src/`` next to this script.
"""

import argparse
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import driftwatch as dw  # noqa: E402
from driftwatch.calibration import _null_walks  # noqa: E402

GARCH = dw.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1, garch_beta1=0.8)
# name -> (innovations, rows, N)
CASES = {
    "iid": (dw.InnovationSpec(), 256, 4000),
    "garch11": (GARCH, 250, 500),
}


def draw_cost(cases, repeats, seed):
    """Best milliseconds per ``_null_walks`` call, by case name."""
    best = {}
    for name, (innovations, rows, N) in cases.items():
        best[name] = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _null_walks(innovations, N, seed, 0, rows)
            best[name] = min(best[name], time.perf_counter() - t0)
        best[name] *= 1e3
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per case")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    cost = draw_cost(CASES, args.repeats, args.seed)
    for name, ms in cost.items():
        _, rows, N = CASES[name]
        print(f"{name:<8} {ms:9.2f} ms/call  ({rows} rows x N = {N})")


if __name__ == "__main__":
    main()
