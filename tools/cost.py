"""Cost of the layers beneath the workloads, one subcommand per layer.

    python tools/cost.py batch  [--sizes 1000,4000,16000] [--rows 256] [--repeats 3] [--seed 1]
    python tools/cost.py stream [--sizes 1000,10000,100000] [--window 100] [--seed 1]
    python tools/cost.py limit  [--paths 512] [--grid-m 2048] [--repeats 5] [--seed 1]
    python tools/cost.py quad   [--repeats 3] [--grid-m 2048]
    python tools/cost.py draw   [--repeats 5] [--seed 1]
    python tools/cost.py chart  [--rows 256] [--n 4000] [--repeats 5] [--seed 1]

Each subcommand prints the best wall time of a call over ``--repeats`` calls
(``stream``: window medians).  BLAS runs on one thread, and driftwatch is
imported from the ``src/`` next to this script.

batch: ``estimator._process_parts`` on (rows, N) null random walks (Gaussian
kernel, h = N/10) in four layouts: unit times, unit times with whole rows
(``whole_rows=True``: the numerator by FFT, as calibration's null charts take
it), a fixed design and a rolling design (both F^{-1}(u) = u**(1/2)), with
the kernel points one call evaluates.  On unit times a smoother that
evaluates the kernel once per lag of its support window shows about 8h + 1
points, not N²; a rolling design weights every past record at every anchor,
so it shows about N²/2.

stream: one null random walk fed record by record to ``StreamMonitor.update``
(Gaussian kernel, null scaling, ``naive`` variance, a threshold of +inf so the
stream never stops): the median wall time per update over the last
``--window`` updates before each size, and the kernel points per update over
the whole stream.  The median, not the mean: one pause of the host can double
a window's mean, while an update cost that grows with n still moves the
median.  Three layouts: unit times with h = 50, where each update's weights
are a slice of the lag template the monitor evaluates once; irregular times,
gaps drawn from U(0.5, 1.5), with h = 50, where each update evaluates the
kernel on its support window (at most about 800 records) and bisects for the
window start from the previous update's; a fixed design F^{-1}(u) = u**(1/2)
placed by the largest size with h = 5 (its design times lie 1/2 apart at the
horizon and further apart before it, so the Gaussian's 8h window holds at
most about 80 records).  A monitor whose work per record is bounded shows
about the same cost at every size.  Counting the kernel points adds one
Python call, well under a microsecond, to the updates that evaluate the
kernel.

limit: the stages ``calibration._limit_chunk`` runs on one chunk of null
replicates (Gaussian kernel, zeta = 10, 20 thresholds on [0, 0.3]): Brownian
path sampling (``limitsim._bm_paths``), the FFT numerator and denominator of
the limit ratio (``limitsim._num_den``) and stop extraction
(``calibration._stops_from_values``, which takes the rows with their NaN
cells below s_min as ``_limit_chunk`` hands them over).  The stop scan
overwrites its rows with their running maximum, so repeats after the first
scan rows that are already their own maximum, with no NaN left; the work per
call is the same.

quad: five quadrature-bound calls, with the scipy ``quad`` calls and
integrand evaluations one call makes (every point ``quad`` asks for, nested
rules included; counted at the ``integrate`` name in ``kernels``, through
which every ``_quad`` binding calls scipy): ``drift_term`` at s* on the
completed optimal kernel for the ramp shape (zeta = 1, c = 0.03), a tabulated
kernel with 1001 knots; the Table-1 grid, ``sigma_k_sq`` at s = 1 for the
Gaussian, Laplace and Epanechnikov kernels at seven zeta values, 21 cells;
``optimal_kernel`` for the ramp shape at zeta = 1, c = 0.03, which bisects
for s*; ``check_km_condition`` for the Gaussian kernel and the ramp shape at
c = 0.1, one detectability integral; ``verify_optimality`` for the ramp shape
at zeta = 1, c = 0.03 against the three built-in kernels.  The last column,
the best time per call over its integrand evaluations, is the cost of one
evaluation with ``quad``'s own work included.

draw: ``calibration._null_walks``, which draws the null random walks of
replicates [0, rows) as one array: i.i.d. Gaussian innovations at the
``finite_long`` size (256 rows of N = 4000) and GARCH(1,1) innovations
(alpha0 = 0.1, alpha1 = 0.1, beta1 = 0.8, 500 burn-in steps) at the
``finite_garch`` size (250 rows of N = 500).

chart: the replicate chart of ``calibration._null_charts`` on (rows, N) null
random walks (Gaussian kernel, h = N/10, null scaling, a prerun of h
increments, threshold +inf), per variance method: ``variance.running_estimates``
and ``monitor.chart`` on the FFT numerator, each with the ``tracemalloc``
peak of one call in MB and in float blocks of (rows, N).  ``chart``
overwrites its numerator, so each call gets a fresh copy, made outside the
timing and the trace.  The naive method builds the chart in one block: the
running variance, whose root divides the numerator in place, plus the
boolean masks; rice and gasser also allocate their terms.
"""

import argparse
import os
import sys
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

import driftwatch as dw  # noqa: E402
from driftwatch import kernels  # noqa: E402
from driftwatch.calibration import _null_walks, _stops_from_values  # noqa: E402
from driftwatch.estimator import _process_parts  # noqa: E402
from driftwatch.limitsim import _bm_paths, _null_values, _num_den  # noqa: E402
from driftwatch.monitor import chart  # noqa: E402
from driftwatch.variance import running_estimates  # noqa: E402


def best_ms(fn, repeats):
    """Best wall time of ``fn()`` over ``repeats`` calls, in milliseconds."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


@contextmanager
def kernel_points():
    """Count the points ``KernelSpec.evaluate`` is called on, in ``.points``;
    ``evaluate`` is restored on exit."""
    seen = SimpleNamespace(points=0)
    evaluate = dw.KernelSpec.evaluate

    def counting_evaluate(self, z):
        seen.points += np.size(z)
        return evaluate(self, z)

    dw.KernelSpec.evaluate = counting_evaluate
    try:
        yield seen
    finally:
        dw.KernelSpec.evaluate = evaluate


@contextmanager
def quad_calls():
    """Count scipy ``quad`` calls and integrand evaluations, in ``.calls`` and
    ``.evaluations``; ``kernels.integrate`` is restored on exit."""
    seen = SimpleNamespace(calls=0, evaluations=0)

    def counting_quad(f, *args, **kwargs):
        seen.calls += 1

        def counted(x):
            seen.evaluations += 1
            return f(x)

        return integrate.quad(counted, *args, **kwargs)

    kernels.integrate = SimpleNamespace(quad=counting_quad)
    try:
        yield seen
    finally:
        kernels.integrate = integrate


# layout -> keyword arguments of batch_cost
BATCH_LAYOUTS = {
    "unit times": {},
    "unit times, whole rows": {"whole_rows": True},
    "fixed design": {"design": dw.TimeDesign(gamma=2.0, mode="fixed")},
    "rolling design": {"design": dw.TimeDesign(gamma=2.0, mode="rolling")},
}


def batch_cost(N, rows, repeats, seed, design=None, whole_rows=False):
    """Best milliseconds per call and kernel points per call at horizon N."""
    values = np.cumsum(np.random.default_rng(seed).standard_normal((rows, N)), axis=1)
    times = np.arange(1.0, N + 1.0)
    cfg = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=N / 10, design=design)

    def call():
        _process_parts(times, values, cfg, whole_rows=whole_rows)

    with kernel_points() as seen:
        call()
    return best_ms(call, repeats), seen.points


# layout -> (bandwidth, time design, irregular times)
STREAM_LAYOUTS = {
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
    elapsed = np.empty(N)
    clock = time.perf_counter
    with kernel_points() as seen:
        mon = dw.StreamMonitor(dw.MonitorConfig(smoother, np.inf, N, variance_method="naive"))
        for i, (t, y) in enumerate(zip(times.tolist(), series.values.tolist())):
            t0 = clock()
            mon.update(t, y)
            elapsed[i] = clock() - t0
    median = {n: float(np.median(elapsed[n - window : n])) * 1e6 for n in sizes}
    return median, seen.points / N


C_GRID = np.linspace(0.0, 0.3, 20)


def limit_cost(paths, grid_M, repeats, seed):
    """Best milliseconds per call of each stage, by stage name."""
    cfg = dw.LimitConfig(zeta=10.0, kernel=dw.gaussian_kernel(), grid_M=grid_M)
    seeds = [dw.substream(seed, i) for i in range(paths)]
    B = _bm_paths(grid_M, seeds)
    # the stop stage's input as _limit_chunk hands it over, NaN cells below s_min included
    vals = _null_values(cfg, B)
    stages = {
        "path sampling": lambda: _bm_paths(grid_M, seeds),
        "FFT num/den": lambda: _num_den(cfg, B),
        "stop extraction": lambda: _stops_from_values(vals, C_GRID),
    }
    return {name: best_ms(fn, repeats) for name, fn in stages.items()}


TABLE1_ZETAS = (10.0, 5.0, 4.0, 2.0, 1.5, 1.2, 1.0)
TABLE1_KERNELS = ("gaussian", "laplace", "epanechnikov")


def quad_cases(zetas=TABLE1_ZETAS, table_kernels=TABLE1_KERNELS, grid_M=2048):
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
        "optimal_kernel(ramp, 1, 0.03)": lambda: dw.optimal_kernel(ramp, 1.0, 0.03),
        "check_km_condition(gaussian, ramp, 0.1)": lambda: dw.check_km_condition(
            dw.gaussian_kernel(), ramp, 0.1),
        "verify_optimality(ramp, 1, 0.03)": lambda: dw.verify_optimality(
            ramp, 1.0, 0.03, candidates, grid_M=grid_M),
    }


def quad_cost(fn, repeats):
    """Best milliseconds per call of ``fn()``, and ``quad`` calls and integrand
    evaluations in one call."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        with quad_calls() as seen:
            fn()
        return best_ms(fn, repeats), seen.calls, seen.evaluations


GARCH = dw.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1, garch_beta1=0.8)
# name -> (innovations, rows, N)
DRAW_CASES = {
    "iid": (dw.InnovationSpec(), 256, 4000),
    "garch11": (GARCH, 250, 500),
}


def draw_cost(cases, repeats, seed):
    """Best milliseconds per ``_null_walks`` call, by case name."""
    return {name: best_ms(lambda: _null_walks(innovations, N, seed, 0, rows), repeats)
            for name, (innovations, rows, N) in cases.items()}


CHART_METHODS = ("naive", "rice", "gasser")


def chart_cost(rows, N, repeats, seed, method):
    """Best milliseconds per call and the traced peak bytes of one call, for
    ``running_estimates`` and ``chart`` by name."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal((rows, N)), axis=1)
    h = N / 10
    pre = rng.standard_normal((rows, max(int(round(h)), 1)))
    smoother = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=h, scaling="null_scale")
    cfg = dw.MonitorConfig(smoother, np.inf, N, variance_method=method)
    num, den = _process_parts(np.arange(1.0, N + 1.0), values, smoother, whole_rows=True)
    layers = {
        "running_estimates": lambda block: running_estimates(values, method, pre),
        "chart": lambda block: chart(block, den, values, cfg, pre),
    }
    cost = {}
    for name, fn in layers.items():
        best = np.inf
        for _ in range(repeats):
            block = num.copy()
            t0 = time.perf_counter()
            fn(block)
            best = min(best, time.perf_counter() - t0)
        block = num.copy()
        tracemalloc.start()
        try:
            fn(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cost[name] = (best * 1e3, peak)
    return cost


def run_batch(args):
    for N in args.sizes:
        for layout, kwargs in BATCH_LAYOUTS.items():
            ms, points = batch_cost(N, args.rows, args.repeats, args.seed, **kwargs)
            print(f"N={N:>6}  {layout:<22}  {ms:10.1f} ms/call  {points:>11} kernel points"
                  f"  ({points / N**2:.2e} N^2)")


def run_stream(args):
    sizes = args.sizes
    for layout, (h, design, irregular) in STREAM_LAYOUTS.items():
        cost, points = per_update_us(sizes, args.window, args.seed, h, design, irregular)
        for n in sizes:
            print(f"{layout:<24}  n={n:>7}  {cost[n]:9.1f} us/update"
                  f"  ({cost[n] / cost[sizes[0]]:.2f}x n={sizes[0]})")
        print(f"{layout:<24}  {points:.3g} kernel points/update")


def run_limit(args):
    for name, ms in limit_cost(args.paths, args.grid_m, args.repeats, args.seed).items():
        print(f"{name:<16} {ms:9.2f} ms/call  ({args.paths} paths, grid_M {args.grid_m})")


def run_quad(args):
    for label, fn in quad_cases(grid_M=args.grid_m).items():
        ms, calls, evaluations = quad_cost(fn, args.repeats)
        print(f"{label:<39} {ms:10.1f} ms/call  {calls:>6} quad calls/call"
              f"  {evaluations:>8} integrand evaluations/call"
              f"  {1e3 * ms / evaluations:6.2f} us/evaluation")


def run_draw(args):
    for name, ms in draw_cost(DRAW_CASES, args.repeats, args.seed).items():
        _, rows, N = DRAW_CASES[name]
        print(f"{name:<8} {ms:9.2f} ms/call  ({rows} rows x N = {N})")


def run_chart(args):
    block = args.rows * args.n * 8
    for method in CHART_METHODS:
        for name, (ms, peak) in chart_cost(args.rows, args.n, args.repeats, args.seed,
                                           method).items():
            print(f"{method:<7} {name:<18} {ms:8.2f} ms/call  {peak / 1e6:6.1f} MB peak"
                  f"  ({peak / block:.2f} blocks of {args.rows} x N = {args.n})")


# subcommand -> (printer, option defaults)
LAYERS = {
    "batch": (run_batch, {"sizes": "1000,4000,16000", "rows": 256, "repeats": 3, "seed": 1}),
    "stream": (run_stream, {"sizes": "1000,10000,100000", "window": 100, "seed": 1}),
    "limit": (run_limit, {"paths": 512, "grid_m": 2048, "repeats": 5, "seed": 1}),
    "quad": (run_quad, {"repeats": 3, "grid_m": 2048}),
    "draw": (run_draw, {"repeats": 5, "seed": 1}),
    "chart": (run_chart, {"rows": 256, "n": 4000, "repeats": 5, "seed": 1}),
}


def sizes(text):
    """``--sizes``: comma-separated sizes, in increasing order."""
    return sorted(int(s) for s in text.split(","))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    layers = parser.add_subparsers(dest="layer", required=True)
    for layer, (run, defaults) in LAYERS.items():
        sub = layers.add_parser(layer)
        for name, default in defaults.items():
            sub.add_argument("--" + name.replace("_", "-"), default=default,
                             type=sizes if name == "sizes" else type(default))
        sub.set_defaults(run=run)
    args = parser.parse_args(argv)
    for name in ("rows", "n", "paths", "repeats"):
        if getattr(args, name, 1) < 1:
            parser.error(f"--{name} must be >= 1")
    if getattr(args, "grid_m", 64) < 64:
        parser.error("--grid-m must be >= 64")
    if args.layer == "stream" and not 1 <= args.window <= args.sizes[0]:
        parser.error(f"--window must lie in [1, {args.sizes[0]}]")
    args.run(args)


if __name__ == "__main__":
    main()
