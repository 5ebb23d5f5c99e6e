"""A fixed corpus of seeded calls, hashed per group, to show that two source
trees give the same results bit for bit.

    python tools/corpus.py [--src PATH] [--size tiny|full]

Each output line is a group name, the SHA-256 of its calls' results in
order, the number of calls and how many of them raised.  A result enters the
hash by its exact bits (arrays and floats by their bytes, containers item by
item, dataclasses field by field); a call that raises enters it by the
exception's type, message and ``index``.  The corpus calls public ``driftwatch`` names
only, so one copy of this script hashes any tree: ``--src`` imports the
package from that ``src/`` directory (default: the one next to this script),
which is named on stderr.  Run it on two trees and compare the lines.

Groups (``--size full`` runs the seeds 20100111 and 3, N = 200, h = 20 and
600 replicates, two chunks; ``tiny`` runs seed 20100111, N = 20, h = 5 and
100 replicates, one chunk):

- ``finite_arl``: finite ``arl_curve`` over i.i.d., GARCH(1,1), AR(1) and
  sigma = 1.3 innovations x no/naive/rice/gasser variance x prerun length
  None/0/7 x start fraction 0/0.3 (Gaussian kernel), then a kernel with
  K(0) = 0, whose first index has no weight, with no and naive variance at
  start fractions 0 and 0.3 (at 0 the call raises); ``full`` adds one
  ``jobs=2`` call.
- ``coverage``: ``coverage_sim`` over the four variance settings and sigma
  1 and 1.3.
- ``conservativeness``: ``conservativeness_check``, coupled and not, with
  no and naive variance, on the Gaussian and Epanechnikov kernels.
- ``limit_arl``: limit ``arl_curve`` without drift and with step and ramp
  drifts (cp1, and cp2 at theta = 0.5).
- ``seeded``: ``generate`` (i.i.d., GARCH, AR(1), a drifted series),
  ``sample_bm`` and ``validate_kernel`` on the three built-in kernels.
- ``stops``: the callers of the one first-crossing scan outside the
  replicate routines.  ``run_monitor`` on a null and a drifted walk with no,
  naive and gasser variance (the last two seeded by a prerun) at start
  fractions 0 and 0.3; ``limit_stop_sample`` without drift and with a step
  drift (cp1, and cp2 at theta = 0.5) at a = 0, 0.3 and 0.5;
  ``asymptotic_normed_delay`` on the drifted ones (once: it takes no seed),
  and on a step drift at zeta = 10 and grid_M = 64 under a kernel narrower
  than one grid cell (every lag weight 0, so the drift curve is NaN) at c =
  0.1, 0.5 and 0.9 times its drift term at s = 1;
  ``kernel_comparison_curves`` of the three built-in kernels under the step
  and ramp shapes.  Each runs over the thresholds with -inf and +inf added,
  so both alarm and truncation occur.
- ``charts``: the monitor's chart and its running variance.  ``run_monitor``
  on a walk and on one whose first N/2 increments are zero (so without a
  prerun the variance estimate is zero at the first eligible index) with no,
  naive, rice and gasser variance, the last three without a prerun, with a
  prerun and with a flat one, at start fractions 0 and 0.3, over the
  ``stops`` thresholds; on the Gaussian kernel and on a kernel with K(0) = 0
  at h = 1, whose first index has no weight (with a flat prerun that index
  is eligible and its variance estimate zero too, and the weights are
  named); ``running_estimates`` of the three methods on five walks as
  C-ordered, Fortran-ordered and strided (every other row, every other
  column) rows and as one row, without a prerun, with a one-row prerun and
  with one prerun per row.
- ``designs``: ``null_limit_process``, ``sigma_k_sq`` at s = 1 and the
  limit ``arl_curve`` without drift under fixed and rolled time designs, each
  with the power map of gamma = 2 and a tabulated map.
- ``design_drift``: ``drift_term`` at s = 0.5 and 1, ``alt_limit_process``,
  ``asymptotic_normed_delay`` and the limit ``arl_curve`` under the fixed
  (cp2 at theta = 0.3) and rolled (cp1) designs of gamma = 2, on the step,
  ramp and a tabulated shape.
- ``optimal``: the two monotone limit objects and their callers.
  ``optimal_delay`` on the step, ramp and the tabulated shape over the
  thresholds -inf, -0.1, 0, 0.03, 0.2, 0.6, 10 and +inf; ``optimal_kernel``
  for the ramp and step shapes at zeta 1 and 2, c 0.03 and 0.2 and t_max None
  and 0.5; ``check_km_condition`` on the three built-in kernels x the zero,
  step, ramp and tabulated shapes at c -0.5, 0, 0.1 and 30 and x_max 5 and
  20; ``full`` adds ``verify_optimality`` for the ramp at zeta 1, c 0.03
  against the three built-in kernels.
"""

import argparse
import dataclasses
import hashlib
import sys
from functools import partial
from pathlib import Path

import numpy as np

C_GRID = [0.0, 0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.5]
VARIANCE_METHODS = (None, "naive", "rice", "gasser")
SIZES = {
    "tiny": {"seeds": (20100111,), "N": 20, "h": 5.0, "reps": 100, "grid_M": 64},
    "full": {"seeds": (20100111, 3), "N": 200, "h": 20.0, "reps": 600, "grid_M": 2048},
}


def innovations(dw):
    """The innovation laws of the finite groups, by name."""
    return {
        "iid": dw.InnovationSpec(),
        "garch11": dw.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1,
                                     garch_beta1=0.8),
        "ar1": dw.InnovationSpec(family="ar1", ar_a=0.5),
        "sigma 1.3": dw.InnovationSpec(sigma=1.3),
    }


def finite_arl(dw, size):
    G = dw.gaussian_kernel()
    for seed in size["seeds"]:
        for inno in innovations(dw).values():
            for method in VARIANCE_METHODS:
                for prerun in (None, 0, 7):
                    for start in (0.0, 0.3):
                        variant = dw.FiniteSampleVariant(size["N"], size["h"], inno, method,
                                                          prerun, start)
                        yield partial(dw.arl_curve, variant, G, C_GRID, size["reps"], seed)
        k0 = dw.tabulated_kernel([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0])
        for method in (None, "naive"):
            for start in (0.0, 0.3):
                variant = dw.FiniteSampleVariant(size["N"], size["h"], variance_method=method,
                                                  start_fraction=start)
                yield partial(dw.arl_curve, variant, k0, C_GRID, size["reps"], seed)
    if size["reps"] > 512:
        variant = dw.FiniteSampleVariant(size["N"], size["h"], variance_method="naive")
        yield partial(dw.arl_curve, variant, G, C_GRID, size["reps"], size["seeds"][0], jobs=2)


def coverage(dw, size):
    G = dw.gaussian_kernel()
    for seed in size["seeds"]:
        for method in VARIANCE_METHODS:
            for sigma in (1.0, 1.3):
                yield partial(dw.coverage_sim, size["N"], size["h"], G, 0.1, size["reps"], seed,
                              method, sigma)


def conservativeness(dw, size):
    for seed in size["seeds"]:
        for kernel in (dw.gaussian_kernel(), dw.epanechnikov_kernel()):
            for method in (None, "naive"):
                for coupled in (True, False):
                    yield partial(dw.conservativeness_check, size["N"], size["h"], kernel, C_GRID,
                                  size["reps"], seed, method, coupled, size["grid_M"])


def limit_arl(dw, size):
    G = dw.gaussian_kernel()
    drifts = [None] + [dw.LimitDrift(dw.alternative_by_name(name), *cp)
                       for name in ("step", "ramp") for cp in (("cp1",), ("cp2", 0.5))]
    for seed in size["seeds"]:
        for drift in drifts:
            cfg = dw.LimitConfig(zeta=size["N"] / size["h"], kernel=G, grid_M=size["grid_M"],
                                 drift=drift)
            yield partial(dw.arl_curve, cfg, G, C_GRID, size["reps"], seed)


def seeded(dw, size):
    drift = dw.DriftSpec(dw.alternative_by_name("step"), -0.5, "cp2", theta=0.5,
                         h_link=size["h"])
    specs = [dw.SeriesSpec(N=size["N"], innovations=inno) for inno in innovations(dw).values()]
    specs.append(dw.SeriesSpec(N=size["N"], drift=drift))
    for seed in (*size["seeds"], 0, 2**40 + 7):
        yield from (partial(dw.generate, spec, seed) for spec in specs)
        yield partial(dw.sample_bm, size["grid_M"], seed)
        for name in ("gaussian", "epanechnikov", "laplace"):
            yield partial(dw.validate_kernel, dw.kernel_by_name(name), seed)


def stops(dw, size):
    N, h, G = size["N"], size["h"], dw.gaussian_kernel()
    thresholds = [-np.inf, *C_GRID, np.inf]
    step = dw.alternative_by_name("step")
    smoother = dw.SmootherConfig(G, h, "null_scale")
    drift = dw.DriftSpec(step, -0.5, "cp2", theta=0.5, h_link=h)
    limits = [dw.LimitConfig(zeta=N / h, kernel=G, grid_M=size["grid_M"], drift=d)
              for d in (None, dw.LimitDrift(step), dw.LimitDrift(step, "cp2", 0.5))]
    for seed in size["seeds"]:
        prerun = dw.generate(dw.SeriesSpec(N=int(h)), dw.substream(seed, 1))
        for spec in (dw.SeriesSpec(N=N), dw.SeriesSpec(N=N, drift=drift)):
            series = dw.generate(spec, seed)
            for method, pre in ((None, None), ("naive", prerun), ("gasser", prerun)):
                for start in (0.0, 0.3):
                    for c in thresholds:
                        cfg = dw.MonitorConfig(smoother, c, N, start, method)
                        yield partial(dw.run_monitor, series, cfg, pre)
        for cfg in limits:
            for a in (0.0, 0.3, 0.5):
                yield from (partial(dw.limit_stop_sample, cfg, c, a, seed) for c in thresholds)
    for cfg in limits[1:]:  # the drift term's delay takes no seed
        for a in (0.0, 0.3, 0.5):
            yield from (partial(dw.asymptotic_normed_delay, cfg, c, a) for c in thresholds)
    w = 0.02
    narrow = dw.tabulated_kernel([-w, -w / 2, 0.0, w / 2, w], [0.0, 1 / w, 0.0, 1 / w, 0.0])
    cfg = dw.LimitConfig(zeta=10.0, kernel=narrow, grid_M=64, drift=dw.LimitDrift(step))
    mu_1 = dw.drift_term(cfg, 1.0)
    yield from (partial(dw.asymptotic_normed_delay, cfg, f * mu_1) for f in (0.1, 0.5, 0.9))
    kernels = [dw.kernel_by_name(name) for name in ("gaussian", "epanechnikov", "laplace")]
    for name in ("step", "ramp"):
        for c in thresholds:
            yield partial(dw.kernel_comparison_curves, kernels, dw.alternative_by_name(name),
                          N / h, c, size["grid_M"])


def charts(dw, size):
    N, h = size["N"], size["h"]
    thresholds = [-np.inf, *C_GRID, np.inf]
    k0 = dw.tabulated_kernel([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0])
    smoothers = [dw.SmootherConfig(dw.gaussian_kernel(), h, "null_scale"),
                 dw.SmootherConfig(k0, 1.0, "null_scale")]
    times = np.arange(1.0, N + 1.0)
    for seed in size["seeds"]:
        rng = np.random.default_rng(dw.substream(seed, 2))
        inc = rng.standard_normal(N)
        flat = np.where(times <= N // 2, 0.0, inc)
        prerun = dw.generate(dw.SeriesSpec(N=int(h)), dw.substream(seed, 1))
        preruns = (None, prerun, dw.TimeSeries(prerun.times, np.zeros(int(h))))
        for values in (np.cumsum(inc), np.cumsum(flat)):
            series = dw.TimeSeries(times, values)
            for smoother in smoothers:
                for method in VARIANCE_METHODS:
                    for pre in preruns if method else (None,):
                        for start in (0.0, 0.3):
                            for c in thresholds:
                                cfg = dw.MonitorConfig(smoother, c, N, start, method)
                                yield partial(dw.run_monitor, series, cfg, pre)
        walks = np.cumsum(rng.standard_normal((5, N)), axis=1)
        pre_rows = rng.standard_normal((5, int(h)))
        for method in ("naive", "rice", "gasser"):
            for rows in (walks, np.asfortranarray(walks), walks[::2, ::2]):
                for pre in (None, pre_rows[:1], pre_rows[: len(rows)]):
                    yield partial(dw.running_estimates, rows, method, pre)
            for pre in (None, pre_rows[0]):
                yield partial(dw.running_estimates, walks[0], method, pre)


def designs(dw, size):
    G, zeta = dw.gaussian_kernel(), size["N"] / size["h"]
    maps = (dict(gamma=2.0), dict(knots_u=np.array([0.0, 0.4, 1.0]),
                                   knots_v=np.array([0.0, 0.2, 1.0])))
    for design in (dw.TimeDesign(**m, mode=mode) for m in maps for mode in ("fixed", "rolling")):
        cfg = dw.LimitConfig(zeta=zeta, kernel=G, grid_M=size["grid_M"], design=design)
        yield partial(dw.sigma_k_sq, cfg, 1.0)
        for seed in size["seeds"]:
            yield partial(dw.null_limit_process, cfg, seed)
            yield partial(dw.arl_curve, cfg, G, C_GRID, size["reps"], seed)


def shapes(dw):
    """The step, ramp and tabulated drift shapes of the drift groups."""
    return [dw.alternative_by_name("step"), dw.alternative_by_name("ramp"),
            dw.seriesgen.tabulated_alternative([0.0, 0.5, 2.0], [0.0, 1.0, 0.25])]


def design_drift(dw, size):
    G, zeta = dw.gaussian_kernel(), size["N"] / size["h"]
    for m0 in shapes(dw):
        for mode, cp in (("fixed", ("cp2", 0.3)), ("rolling", ("cp1",))):
            cfg = dw.LimitConfig(zeta=zeta, kernel=G, grid_M=size["grid_M"],
                                 drift=dw.LimitDrift(m0, *cp),
                                 design=dw.TimeDesign(gamma=2.0, mode=mode))
            yield from (partial(dw.drift_term, cfg, s) for s in (0.5, 1.0))
            yield from (partial(dw.asymptotic_normed_delay, cfg, c) for c in (0.1, 0.4, 1.0))
            for seed in size["seeds"]:
                yield partial(dw.alt_limit_process, cfg, seed)
                yield partial(dw.arl_curve, cfg, G, C_GRID, size["reps"], seed)


def optimal(dw, size):
    step, ramp, tab = shapes(dw)
    for m0 in (step, ramp, tab):
        for c in (-np.inf, -0.1, 0.0, 0.03, 0.2, 0.6, 10.0, np.inf):
            yield partial(dw.optimal_delay, m0, c)
    for m0 in (ramp, step):
        for zeta in (1.0, 2.0):
            for c in (0.03, 0.2):
                for t_max in (None, 0.5):
                    yield partial(dw.optimal_kernel, m0, zeta, c, t_max)
    kernels = [dw.kernel_by_name(name) for name in ("gaussian", "epanechnikov", "laplace")]
    for kernel in kernels:
        for m0 in (dw.alternative_by_name("zero"), step, ramp, tab):
            for c in (-0.5, 0.0, 0.1, 30.0):
                for x_max in (5.0, 20.0):
                    yield partial(dw.check_km_condition, kernel, m0, c, x_max)
    if size["reps"] > 512:
        yield partial(dw.verify_optimality, ramp, 1.0, 0.03, kernels, grid_M=size["grid_M"])


GROUPS = {"finite_arl": finite_arl, "coverage": coverage, "conservativeness": conservativeness,
          "limit_arl": limit_arl, "seeded": seeded, "stops": stops, "charts": charts,
          "designs": designs, "design_drift": design_drift, "optimal": optimal}


def feed(digest, x):
    """Add ``x`` to ``digest`` by its exact bits."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        for key in sorted(x):
            digest.update(repr(key).encode())
            feed(digest, x[key])
    elif isinstance(x, (list, tuple)):
        digest.update(f"{type(x).__name__}{len(x)}".encode())
        for item in x:
            feed(digest, item)
    elif isinstance(x, (float, np.ndarray, np.generic)):
        a = np.ascontiguousarray(x)
        digest.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())
    else:
        digest.update(repr(x).encode())


def group_hash(calls):
    """SHA-256 hex digest over the results of ``calls``, the call count and the raised count."""
    digest, n, raised = hashlib.sha256(), 0, 0
    for call in calls:
        n += 1
        try:
            result = call()
        except Exception as exc:  # a raised error is part of the result
            raised += 1
            result = f"{type(exc).__name__}: {exc} (index {getattr(exc, 'index', None)})"
        feed(digest, result)
    return digest.hexdigest(), n, raised


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if not (args.src / "driftwatch" / "__init__.py").is_file():
        parser.error(f"--src must hold a driftwatch package, got {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    import driftwatch as dw

    print(f"driftwatch from {Path(dw.__file__).parent}", file=sys.stderr)
    for name, group in GROUPS.items():
        digest, n, raised = group_hash(group(dw, SIZES[args.size]))
        print(f"{name:<17} {digest}  {n} calls, {raised} raised", flush=True)


if __name__ == "__main__":
    main()
