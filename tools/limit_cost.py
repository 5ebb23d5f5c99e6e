"""Cost of the layers beneath one limit Monte Carlo chunk.

Times the stages ``calibration._limit_chunk`` runs on one chunk of null
replicates (Gaussian kernel, zeta = 10, 20 thresholds on [0, 0.3]):
Brownian path sampling (``limitsim._bm_paths``), the FFT numerator and
denominator of the limit ratio (``limitsim._num_den``) and stop
extraction (``calibration._stops_from_values``).  Prints the best wall
time of each stage over ``--repeats`` calls.  BLAS runs on one thread.

    python tools/limit_cost.py [--paths 512] [--grid-m 2048] [--repeats 5] [--seed 1]

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
from driftwatch.calibration import _stops_from_values  # noqa: E402
from driftwatch.limitsim import _bm_paths, _null_values, _num_den  # noqa: E402

C_GRID = np.linspace(0.0, 0.3, 20)


def limit_cost(paths, grid_M, repeats, seed):
    """Best milliseconds per call of each stage, by stage name."""
    cfg = dw.LimitConfig(zeta=10.0, kernel=dw.gaussian_kernel(), grid_M=grid_M)
    seeds = [dw.substream(seed, i) for i in range(paths)]
    B = _bm_paths(grid_M, seeds)
    # the stop stage's input as _limit_chunk hands it over: NaN cells ineligible
    vals = _null_values(cfg, B)
    np.copyto(vals, -np.inf, where=np.isnan(vals))
    stages = {
        "path sampling": lambda: _bm_paths(grid_M, seeds),
        "FFT num/den": lambda: _num_den(cfg, B),
        "stop extraction": lambda: _stops_from_values(vals, C_GRID, cfg.s_grid),
    }
    best = {}
    for name, fn in stages.items():
        best[name] = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
        best[name] *= 1e3
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paths", type=int, default=512, help="replicate paths in the chunk")
    parser.add_argument("--grid-m", type=int, default=2048, help="grid_M of the limit paths")
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per stage")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.paths < 1 or args.repeats < 1:
        parser.error("--paths and --repeats must be >= 1")
    if args.grid_m < 64:
        parser.error("--grid-m must be >= 64")
    cost = limit_cost(args.paths, args.grid_m, args.repeats, args.seed)
    for name, ms in cost.items():
        print(f"{name:<16} {ms:9.2f} ms/call  ({args.paths} paths, grid_M {args.grid_m})")


if __name__ == "__main__":
    main()
