"""Cost of the scalar quadrature behind the limit objects.

Times three quadrature-bound calls and counts the integrand evaluations
one call makes (every point scipy's ``quad`` asks for, nested rules
included):

* ``drift_term`` at s* on the completed optimal kernel for the ramp shape
  (zeta = 1, c = 0.03), a tabulated kernel with 1001 knots;
* the Table-1 grid: ``sigma_k_sq`` at s = 1 for the Gaussian, Laplace and
  Epanechnikov kernels at seven zeta values, 21 cells;
* ``verify_optimality`` for the ramp shape at zeta = 1, c = 0.03 against
  the three built-in kernels.

It prints the best wall time per call over ``--repeats`` calls.  BLAS
runs on one thread.

    python tools/quad_cost.py [--repeats 3] [--grid-m 2048]

driftwatch is imported from the ``src/`` next to this script.
"""

import argparse
import os
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

import driftwatch as dw  # noqa: E402
from driftwatch import kernels  # noqa: E402

TABLE1_ZETAS = (10.0, 5.0, 4.0, 2.0, 1.5, 1.2, 1.0)
TABLE1_KERNELS = ("gaussian", "laplace", "epanechnikov")


def quad_cost(fn, repeats):
    """Best milliseconds per call of ``fn()`` and integrand evaluations in one call."""
    evaluations = 0

    def counting_quad(f, *args, **kwargs):
        def counted(x):
            nonlocal evaluations
            evaluations += 1
            return f(x)

        return integrate.quad(counted, *args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # every _quad binding calls scipy through the ``integrate`` name in kernels
        kernels.integrate = SimpleNamespace(quad=counting_quad)
        try:
            fn()
        finally:
            kernels.integrate = integrate
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    return best * 1e3, evaluations


def cases(zetas=TABLE1_ZETAS, table_kernels=TABLE1_KERNELS, grid_M=2048):
    """The measured calls by label, each a function of no arguments."""
    ramp = dw.alternative_by_name("ramp")
    sol = dw.optimal_kernel(ramp, 1.0, 0.03)
    drift = dw.LimitConfig(zeta=1.0, kernel=dw.completed_kernel(sol),
                           drift=dw.LimitDrift(ramp, "cp1"))
    grid = [dw.LimitConfig(zeta=z, kernel=dw.kernel_by_name(k))
            for k in table_kernels for z in zetas]
    candidates = [dw.kernel_by_name(k) for k in TABLE1_KERNELS]
    return {
        "drift_term, completed ramp kernel": lambda: dw.drift_term(drift, sol.s_star),
        f"sigma_k_sq grid, {len(grid)} cells": lambda: [dw.sigma_k_sq(c, 1.0) for c in grid],
        "verify_optimality(ramp, 1, 0.03)": lambda: dw.verify_optimality(
            ramp, 1.0, 0.03, candidates, grid_M=grid_M),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per case")
    parser.add_argument("--grid-m", type=int, default=2048,
                        help="grid_M of verify_optimality's limit configurations")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    for label, fn in cases(grid_M=args.grid_m).items():
        ms, evaluations = quad_cost(fn, args.repeats)
        print(f"{label:<36} {ms:10.1f} ms/call  {evaluations:>8} integrand evaluations/call")


if __name__ == "__main__":
    main()
