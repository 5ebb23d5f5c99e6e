"""Cost of the batch smoother as the horizon grows.

Runs ``estimator._process_parts`` on (rows, N) null random walks (Gaussian
kernel, h = N/10) in four layouts: unit times, unit times with whole rows
(``whole_rows=True``: the numerator by FFT, as calibration's null charts
take it), a fixed design and a rolling design (both F^{-1}(u) = u**(1/2)).
Prints, per N in ``--sizes`` and layout, the best wall time over
``--repeats`` calls and the kernel points one call evaluates.  On unit times
a smoother that evaluates the kernel once per lag of its support window
shows about 8h + 1 points, not N²; a rolling design weights every past
record at every anchor, so it shows about N²/2.  BLAS runs on one thread.

    python tools/batch_cost.py [--sizes 1000,4000,16000] [--rows 256] [--repeats 3] [--seed 1]

driftwatch is imported from the ``src/`` next to this script.
"""

import argparse
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import driftwatch as dw  # noqa: E402
from driftwatch.estimator import _process_parts  # noqa: E402


# layout -> keyword arguments of batch_cost
LAYOUTS = {
    "unit times": {},
    "unit times, whole rows": {"whole_rows": True},
    "fixed design": {"design": dw.TimeDesign(gamma=2.0, mode="fixed")},
    "rolling design": {"design": dw.TimeDesign(gamma=2.0, mode="rolling")},
}


def batch_cost(N, rows, repeats, seed, design=None, whole_rows=False):
    """Best milliseconds per call and kernel points per call at horizon N."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal((rows, N)), axis=1)
    times = np.arange(1.0, N + 1.0)
    cfg = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=N / 10, design=design)
    points = 0
    evaluate = dw.KernelSpec.evaluate

    def counting_evaluate(self, z):
        nonlocal points
        points += np.size(z)
        return evaluate(self, z)

    dw.KernelSpec.evaluate = counting_evaluate
    try:
        _process_parts(times, values, cfg, whole_rows=whole_rows)
    finally:
        dw.KernelSpec.evaluate = evaluate
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _process_parts(times, values, cfg, whole_rows=whole_rows)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, points


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1000,4000,16000", help="comma-separated horizons N")
    parser.add_argument("--rows", type=int, default=256, help="series per call")
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per size")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.rows < 1 or args.repeats < 1:
        parser.error("--rows and --repeats must be >= 1")
    for N in sorted(int(s) for s in args.sizes.split(",")):
        for layout, kwargs in LAYOUTS.items():
            ms, points = batch_cost(N, args.rows, args.repeats, args.seed, **kwargs)
            print(f"N={N:>6}  {layout:<22}  {ms:10.1f} ms/call  {points:>11} kernel points"
                  f"  ({points / N**2:.2e} N^2)")


if __name__ == "__main__":
    main()
