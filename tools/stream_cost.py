"""Per-update cost of the streaming monitor as the stream grows.

Feeds one null random walk record by record to ``StreamMonitor.update``
(Gaussian kernel, h = 50, null scaling, ``naive`` variance, a threshold of
+inf so the stream never stops) and prints the mean wall time per update
over the last ``--window`` updates before each size in ``--sizes``.  A
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

H = 50.0


def per_update_us(sizes, window, seed):
    """Mean microseconds per update over the ``window`` updates ending at each size."""
    N = max(sizes)
    series = dw.generate(dw.SeriesSpec(N=N), seed)
    smoother = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=H, scaling="null_scale")
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
    cost = per_update_us(sizes, args.window, args.seed)
    for n in sizes:
        print(f"n={n:>7}  {cost[n]:9.1f} us/update  ({cost[n] / cost[sizes[0]]:.2f}x n={sizes[0]})")


if __name__ == "__main__":
    main()
