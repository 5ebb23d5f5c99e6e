"""Per-update cost of the streaming monitor as the stream grows.

Feeds one null random walk record by record to ``StreamMonitor.update``
(Gaussian kernel, null scaling, ``naive`` variance, a threshold of +inf so
the stream never stops) and prints the median wall time per update over
the last ``--window`` updates before each size in ``--sizes``, and the
kernel points evaluated per update over the whole stream.  The median, not
the mean: one pause of the host can double a window's mean, while an
update cost that grows with n still moves the median.  Three layouts:

* unit times 1, 2, ... with h = 50, where each update's weights are a slice
  of the lag template the monitor evaluates once;
* irregular times, gaps drawn from U(0.5, 1.5), with h = 50, where each
  update evaluates the kernel on its support window (at most about 800
  records) and bisects for the window start from the previous update's;
* a fixed design F^{-1}(u) = u**(1/2) placed by the largest size with
  h = 5 (its design times lie 1/2 apart at the horizon and further apart
  before it, so the Gaussian's 8h support window holds at most about 80
  records).

A streaming monitor whose work per record is bounded shows about the same
cost at every size.  BLAS runs on one thread.  Counting the kernel points
wraps ``KernelSpec.evaluate`` in one Python call, which adds well under a
microsecond to the updates that evaluate the kernel.

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

# layout -> (bandwidth, time design, irregular times)
LAYOUTS = {
    "unit times, h = 50": (50.0, None, False),
    "irregular times, h = 50": (50.0, None, True),
    "fixed design, h = 5": (5.0, dw.TimeDesign(gamma=2.0, mode="fixed"), False),
}


def per_update_us(sizes, window, seed, h=50.0, design=None, irregular=False):
    """Median microseconds per update over the ``window`` updates ending at
    each size, and the kernel points evaluated per update."""
    N = max(sizes)
    series = dw.generate(dw.SeriesSpec(N=N), seed)
    times = series.times
    if irregular:
        times = np.cumsum(np.random.default_rng(seed).uniform(0.5, 1.5, N))
    smoother = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=h, scaling="null_scale",
                                 design=design)
    points = 0
    evaluate = dw.KernelSpec.evaluate

    def counting_evaluate(self, z):
        nonlocal points
        points += np.size(z)
        return evaluate(self, z)

    dw.KernelSpec.evaluate = counting_evaluate
    try:
        mon = dw.StreamMonitor(dw.MonitorConfig(smoother, np.inf, N, variance_method="naive"))
        elapsed = np.empty(N)
        clock = time.perf_counter
        for i, (t, y) in enumerate(zip(times.tolist(), series.values.tolist())):
            t0 = clock()
            mon.update(t, y)
            elapsed[i] = clock() - t0
    finally:
        dw.KernelSpec.evaluate = evaluate
    median = {n: float(np.median(elapsed[n - window : n])) * 1e6 for n in sizes}
    return median, points / N


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1000,10000,100000",
                        help="comma-separated stream lengths to report at")
    parser.add_argument("--window", type=int, default=100,
                        help="updates per size whose median is reported")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sizes = sorted(int(s) for s in args.sizes.split(","))
    if not 1 <= args.window <= sizes[0]:
        parser.error(f"--window must lie in [1, {sizes[0]}]")
    for layout, (h, design, irregular) in LAYOUTS.items():
        cost, points = per_update_us(sizes, args.window, args.seed, h, design, irregular)
        for n in sizes:
            print(f"{layout:<24}  n={n:>7}  {cost[n]:9.1f} us/update"
                  f"  ({cost[n] / cost[sizes[0]]:.2f}x n={sizes[0]})")
        print(f"{layout:<24}  {points:.3g} kernel points/update")


if __name__ == "__main__":
    main()
