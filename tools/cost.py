"""Cost of the layers beneath the workloads, one subcommand per layer.

    python tools/cost.py batch  [--sizes 1000,4000,16000] [--rows 256] [--repeats 3] [--seed 1]
    python tools/cost.py stream [--sizes 1000,10000,100000] [--window 100] [--repeats 3] [--seed 1]
    python tools/cost.py limit  [--paths 512] [--grid-m 2048] [--repeats 5] [--seed 1]
    python tools/cost.py quad   [--repeats 3] [--grid-m 2048]
    python tools/cost.py draw   [--repeats 5] [--seed 1]
    python tools/cost.py chart  [--rows 256] [--n 4000] [--repeats 5] [--seed 1]

Each subcommand prints the best wall time of a call over ``--repeats`` calls
(``stream``: the least of the window medians of ``--repeats`` streams).  BLAS
runs on one thread, and driftwatch is imported from the ``src/`` next to this
script.

batch: ``estimator._process_parts`` on (rows, N) null random walks (Gaussian
kernel, h = N/10) in four layouts: unit times, unit times with whole rows
(``terms=whole_row_terms(cfg, N)``, built in the call: the numerator by FFT,
as calibration's null charts take it), a fixed design and a rolling design
(both F^{-1}(u) = u**(1/2)), with the kernel points one call evaluates.  On
unit times a smoother that evaluates the kernel once per lag of its support
window shows about 8h + 1 points, not N²; a rolling design weights every past
record at every anchor, so it shows about N²/2.

stream: one null random walk fed record by record to ``StreamMonitor.update``
(Gaussian kernel, null scaling, ``naive`` variance unless a layout names
another, a threshold of +inf so the stream never stops): the median wall time
per update over the last ``--window`` updates before each size, and over the
whole stream the kernel points and the weight sums (``monitor.window_mean``
calls, each of which sums its window's weights) per update.  The median, not
the mean: one pause of the host can double a window's mean, while an update
cost that grows with n still moves the median.  A window of 100 updates lasts
well under a millisecond and so falls inside one phase of the host, so the
stream runs ``--repeats`` times and each size reports the least of its window
medians.  Five layouts.  Unit times
with h = 50, where the weights until the window of 8h + 1 = 401 records
fills are a slice of the lag template the monitor evaluates once, and from
there on the full window's weights and their sum, taken once (about 401/N
weight sums per update); the same with no variance method and with
``gasser``, whose terms span the most differences (3), so the three show
each method's share of an update.  Irregular times, gaps drawn from
U(0.5, 1.5), with h = 50, where each update evaluates the kernel on its
support window (at most about 800 records) and bisects for the window start
from the previous update's.  A fixed design F^{-1}(u) = u**(1/2) placed by
the largest size with h = 5 (its design times lie 1/2 apart at the horizon
and further apart before it, so the Gaussian's 8h window holds at most about
80 records).  The last two sum their weights at every update from index 2
on, where the variance is first defined.  A monitor whose work per record is
bounded shows about the same cost at every size.  Each counter adds one
Python call, well under a microsecond, to the updates it counts.

limit: one chunk of null replicates (Gaussian kernel, zeta = 10, 20
thresholds on [0, 0.3]), each row with the ``tracemalloc`` peak of one call
in MB and in float blocks of (paths, grid_M), and the minor page faults per
call (``ru_minflt``, the mean over ``--repeats`` calls after the timed ones:
pages the process touches afresh, as when glibc trims its heap after a
batch and the next batch takes the pages back).  First the stages that
``calibration._limit_chunk`` runs, each on all ``--paths`` rows at once:
Brownian path sampling (``limitsim._bm_paths``, seeded from one ``substreams``
block as the chunk is), the FFT numerator and
denominator of the limit ratio (``limitsim.RatioTerms``) and stop extraction
(``calibration._stops_from_values``, which takes the rows with their NaN
cells below s_min as ``_limit_chunk`` hands them over).  The stop scan
overwrites its rows with their running maximum, so repeats after the first
scan rows that are already their own maximum, with no NaN left; the work per
call is the same.  Then the whole chunk, ``_limit_chunk`` itself, which runs
the stages in batches of ``estimator.FFT_ROWS`` rows, so its peak is that
of one batch's paths and transforms.  Last, one finite-sample chunk,
``calibration._finite_chunk``, of ``--rows`` null random walks of length
``--n`` (defaults: the ``finite_long`` benchmark size, 256 x 4000, h = N/10,
naive variance), with its peak in float blocks of (rows, N).

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
``finite_garch`` size (250 rows of N = 500).  Then the GARCH(1,1) recursion
alone over 1000 steps of 1, 16, 32, 64 and 250 rows of normals, both ways
``seriesgen.innovation_rows`` can run it: the ``_garch_row`` loop, one row at
a time on Python floats, and ``_garch_columns``, one step over all rows at
once.  Below ``seriesgen._VECTOR_ROWS`` rows it takes the loop, so the row
count where the two cross is the constant to set.  Last, the set-up of 2000
replicate streams, in microseconds per stream, each drawing one normal so
that the seeding is what is timed: through one ``seriesgen.substreams``
block and ``normal_rows``, as a chunk seeds its rows, and through
``substream`` and ``default_rng`` per stream, the reference both rows must
equal bit for bit.

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
import resource
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
from driftwatch import kernels, monitor  # noqa: E402
from driftwatch.calibration import (  # noqa: E402
    _finite_chunk, _limit_chunk, _null_walks, _stops_from_values,
)
from driftwatch.estimator import _process_parts, whole_row_terms  # noqa: E402
from driftwatch.limitsim import RatioTerms, _bm_paths, _null_values  # noqa: E402
from driftwatch.monitor import chart  # noqa: E402
from driftwatch.seriesgen import _garch_columns, _garch_row, normal_rows  # noqa: E402
from driftwatch.variance import running_estimates  # noqa: E402


def best_ms(fn, repeats):
    """Best wall time of ``fn()`` over ``repeats`` calls, in milliseconds."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def minor_faults(fn, repeats):
    """Minor page faults per ``fn()`` call, the mean over ``repeats`` calls."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / repeats


def traced_peak(fn):
    """The ``tracemalloc`` peak of one ``fn()`` call, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
def window_sums():
    """Count the ``monitor.window_mean`` calls, each of which sums its window's
    weights, in ``.calls``; the binding is restored on exit."""
    seen = SimpleNamespace(calls=0)
    window_mean = monitor.window_mean

    def counting_window_mean(*args):
        seen.calls += 1
        return window_mean(*args)

    monitor.window_mean = counting_window_mean
    try:
        yield seen
    finally:
        monitor.window_mean = window_mean


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
        _process_parts(times, values, cfg, terms=whole_row_terms(cfg, N) if whole_rows else None)

    with kernel_points() as seen:
        call()
    return best_ms(call, repeats), seen.points


# layout -> keyword arguments of per_update_us
STREAM_LAYOUTS = {
    "unit times, h = 50": {},
    "unit times, h = 50, no variance": {"method": None},
    "unit times, h = 50, gasser": {"method": "gasser"},
    "irregular times, h = 50": {"irregular": True},
    "fixed design, h = 5": {"h": 5.0, "design": dw.TimeDesign(gamma=2.0, mode="fixed")},
}


def per_update_us(sizes, window, seed, repeats=1, h=50.0, design=None, irregular=False,
                  method="naive"):
    """The least over ``repeats`` streams of the median microseconds per update
    over the ``window`` updates ending at each size, and the kernel points
    evaluated and the weight sums taken per update."""
    N = max(sizes)
    series = dw.generate(dw.SeriesSpec(N=N), seed)
    times = series.times
    if irregular:
        times = np.cumsum(np.random.default_rng(seed).uniform(0.5, 1.5, N))
    smoother = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=h, scaling="null_scale",
                                 design=design)
    elapsed = np.empty(N)
    clock = time.perf_counter
    best = dict.fromkeys(sizes, np.inf)
    with kernel_points() as seen, window_sums() as sums:
        for _ in range(repeats):
            mon = dw.StreamMonitor(dw.MonitorConfig(smoother, np.inf, N, variance_method=method))
            for i, (t, y) in enumerate(zip(times.tolist(), series.values.tolist())):
                t0 = clock()
                mon.update(t, y)
                elapsed[i] = clock() - t0
            for n in sizes:
                best[n] = min(best[n], float(np.median(elapsed[n - window : n])) * 1e6)
    return best, seen.points / (N * repeats), sums.calls / (N * repeats)


C_GRID = np.linspace(0.0, 0.3, 20)


def limit_cost(paths, grid_M, repeats, seed):
    """Best milliseconds per call, the traced peak bytes of one call and the minor page
    faults per call, for each stage and the whole chunk, by name."""
    cfg = dw.LimitConfig(zeta=10.0, kernel=dw.gaussian_kernel(), grid_M=grid_M)
    seeds = dw.substreams(seed, 0, paths)
    B = _bm_paths(grid_M, seeds)
    # the stop stage's input as _limit_chunk hands it over, NaN cells below s_min included
    vals = _null_values(cfg, B)
    stages = {
        "path sampling": lambda: _bm_paths(grid_M, seeds),
        "FFT num/den": lambda: RatioTerms(cfg)(B),
        "stop extraction": lambda: _stops_from_values(vals, C_GRID),
        # the same replicates: substream(seed, i) for i in [0, paths)
        "whole chunk": lambda: _limit_chunk((cfg, C_GRID, seed, (), 0, paths)),
    }
    return {name: (best_ms(fn, repeats), traced_peak(fn), minor_faults(fn, repeats))
            for name, fn in stages.items()}


def finite_chunk_cost(rows, N, repeats, seed):
    """``limit_cost``'s three figures for one finite-sample chunk of ``rows`` null walks
    of length N (h = N/10, naive variance)."""
    variant = dw.FiniteSampleVariant(N, N / 10, variance_method="naive")
    payload = (variant, dw.gaussian_kernel(), C_GRID, seed, 0, rows)

    def fn():
        _finite_chunk(payload)

    return best_ms(fn, repeats), traced_peak(fn), minor_faults(fn, repeats)


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


RECURSION_ROWS = (1, 16, 32, 64, 250)


STREAMS = 2000


def stream_cost(streams, repeats, seed):
    """Best microseconds per stream to seed ``streams`` replicate streams and draw one
    normal from each: through one ``substreams`` block, and through ``substream`` and
    ``default_rng`` per stream, which the block's draws must equal."""
    block = np.empty((streams, 1))
    reference = np.empty((streams, 1))

    def by_block():
        normal_rows(block, dw.substreams(seed, 0, streams))

    def by_stream():
        for i, row in enumerate(reference):
            np.random.default_rng(dw.substream(seed, i)).standard_normal(out=row)

    cost = tuple(1e3 * best_ms(fn, repeats) / streams for fn in (by_block, by_stream))
    if block.tobytes() != reference.tobytes():
        raise AssertionError("the block's draws differ from default_rng's")
    return cost


def recursion_cost(row_counts, steps, repeats, seed):
    """Best milliseconds of the ``GARCH`` recursion over (steps, rows) normals,
    the ``_garch_row`` loop and ``_garch_columns``, by row count.  Each starts
    from the normals as ``innovation_rows`` hands them over: a list per row, or
    a copy of the block."""
    a0, a1, b1 = GARCH.garch_alpha0, GARCH.garch_alpha1, GARCH.garch_beta1
    var = a0 / (1.0 - a1 - b1)
    cost = {}
    for rows in row_counts:
        eps = np.random.default_rng(seed).standard_normal((steps, rows))
        cost[rows] = (
            best_ms(lambda: [_garch_row(col.tolist(), a0, a1, b1, var) for col in eps.T], repeats),
            best_ms(lambda: _garch_columns(eps.copy(), a0, a1, b1, var), repeats),
        )
    return cost


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
    num, den = _process_parts(np.arange(1.0, N + 1.0), values, smoother,
                              terms=whole_row_terms(smoother, N))
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
        cost[name] = (best * 1e3, traced_peak(lambda: fn(block)))
    return cost


def run_batch(args):
    for N in args.sizes:
        for layout, kwargs in BATCH_LAYOUTS.items():
            ms, points = batch_cost(N, args.rows, args.repeats, args.seed, **kwargs)
            print(f"N={N:>6}  {layout:<22}  {ms:10.1f} ms/call  {points:>11} kernel points"
                  f"  ({points / N**2:.2e} N^2)")


def run_stream(args):
    sizes = args.sizes
    for layout, kwargs in STREAM_LAYOUTS.items():
        cost, points, sums = per_update_us(sizes, args.window, args.seed, args.repeats, **kwargs)
        for n in sizes:
            print(f"{layout:<31}  n={n:>7}  {cost[n]:9.1f} us/update"
                  f"  ({cost[n] / cost[sizes[0]]:.2f}x n={sizes[0]})")
        print(f"{layout:<31}  {points:.3g} kernel points/update  {sums:.3g} weight sums/update")


def run_limit(args):
    cost = limit_cost(args.paths, args.grid_m, args.repeats, args.seed)
    rows = [(name, *figures, args.paths * args.grid_m * 8,
             f"{args.paths} paths x grid_M {args.grid_m}") for name, figures in cost.items()]
    rows.append(("finite chunk", *finite_chunk_cost(args.rows, args.n, args.repeats, args.seed),
                 args.rows * args.n * 8, f"{args.rows} x N = {args.n}"))
    for name, ms, peak, faults, block, shape in rows:
        print(f"{name:<16} {ms:9.2f} ms/call  {faults:9.0f} minor faults/call"
              f"  {peak / 1e6:6.1f} MB peak  ({peak / block:.2f} blocks of {shape})")


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
    print("garch11 recursion per 1000 steps:")
    for rows, (loop, columns) in recursion_cost(RECURSION_ROWS, 1000, args.repeats,
                                                args.seed).items():
        print(f"rows={rows:>4}  _garch_row loop {loop:7.2f} ms  _garch_columns {columns:7.2f} ms")
    block, reference = stream_cost(STREAMS, args.repeats, args.seed)
    print(f"streams  {block:6.2f} us/stream by substreams block  {reference:6.2f} us/stream"
          f" by substream + default_rng  ({STREAMS} streams)")


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
    "stream": (run_stream, {"sizes": "1000,10000,100000", "window": 100, "repeats": 3,
                            "seed": 1}),
    "limit": (run_limit, {"paths": 512, "grid_m": 2048, "rows": 256, "n": 4000, "repeats": 5,
                          "seed": 1}),
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
