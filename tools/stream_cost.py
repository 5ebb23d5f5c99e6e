"""Per-update cost of the streaming monitor as the stream grows.

Feeds one null random walk record by record to ``StreamMonitor.update``
(Gaussian kernel, null scaling, ``naive`` variance, a threshold of +inf so
the stream never stops) and prints the mean wall time per update over the
last ``--window`` updates before each size in ``--sizes``.  Two layouts:
the observation times with h = 50, and a fixed design F^{-1}(u) = u**(1/2)
placed by the largest size with h = 5 (its design times lie 1/2 apart
at the horizon and further apart before it, so the Gaussian's 8h support
window holds at most about 80 records).  A
streaming monitor whose work per record is bounded shows about the same
cost at every size.  BLAS runs on one thread.

    python tools/stream_cost.py [--sizes 1000,10000,100000] [--window 100] [--seed 1]

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

# layout -> (bandwidth, time design)
LAYOUTS = {
    "no design, h = 50": (50.0, None),
    "fixed design, h = 5": (5.0, dw.TimeDesign(gamma=2.0, mode="fixed")),
}


def per_update_us(sizes, window, seed, h=50.0, design=None):
    """Mean microseconds per update over the ``window`` updates ending at each size."""
    N = max(sizes)
    series = dw.generate(dw.SeriesSpec(N=N), seed)
    smoother = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=h, scaling="null_scale",
                                 design=design)
    mon = dw.StreamMonitor(dw.MonitorConfig(smoother, np.inf, N, variance_method="naive"))
    elapsed = np.empty(N)
    clock = time.perf_counter
    for i, (t, y) in enumerate(zip(series.times.tolist(), series.values.tolist())):
        t0 = clock()
        mon.update(t, y)
        elapsed[i] = clock() - t0
    return {n: float(elapsed[n - window : n].mean()) * 1e6 for n in sizes}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1000,10000,100000",
                        help="comma-separated stream lengths to report at")
    parser.add_argument("--window", type=int, default=100, help="updates averaged per size")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sizes = sorted(int(s) for s in args.sizes.split(","))
    if not 1 <= args.window <= sizes[0]:
        parser.error(f"--window must lie in [1, {sizes[0]}]")
    for layout, (h, design) in LAYOUTS.items():
        cost = per_update_us(sizes, args.window, args.seed, h, design)
        for n in sizes:
            print(f"{layout:<20}  n={n:>7}  {cost[n]:9.1f} us/update"
                  f"  ({cost[n] / cost[sizes[0]]:.2f}x n={sizes[0]})")


if __name__ == "__main__":
    main()
