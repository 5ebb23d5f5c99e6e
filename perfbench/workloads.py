"""The four benchmark workloads: inputs from a seed, one task, and its checks.

Every workload is a closed loop in one process: the next task starts only
after the previous one returns (``jobs=1``).  Tasks look up driftwatch
functions through their module attributes at call time, so the wrappers in
``spans.py`` see every call.

Correctness checks (a task whose check reports a problem counts as failed):

* ARL curves are checked two ways.  The warm-up task runs on
  ``REFERENCE_SEED`` and must reproduce the curve recorded in
  ``reference.json``: a threshold whose value differs by more than 1e-12 is
  counted as a flipped tie, and the curve fails if any threshold moves by
  more than ``2 / reps`` (one tie flip moves one replicate's normed stop by at
  most 1, so 2/reps allows two flips per threshold and nothing else).  A
  curve on any other seed must lie within ``3/sqrt(reps) + 3/sqrt(K reps)``
  of the recorded K-seed mean curve: by Hoeffding's inequality for means of
  values in [0, 1], a correct program exceeds that with probability below
  1e-7 per threshold, while a wrong scaling, kernel or variance moves whole
  curves by far more.
* Table-1 cells lie within +-0.0015 of the published values.
* ``verify_optimality`` reports ``is_optimal`` and s* = sqrt(c / 0.3) to 1e-6.
* The stream alarm index equals ``run_monitor`` on the same series and
  config, and equals the index the benchmark's own numpy smoother predicts.
* The worker additionally requires every repeat of a task within a run to
  return bitwise-identical output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from driftwatch import calibration, kernels, limitsim, monitor, optkernel, seriesgen
from driftwatch.estimator import SmootherConfig

REFERENCE_SEED = 20100111
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# published limit variances sigma_K^2(1) (Table 1), rows per kernel, columns per zeta
TABLE1_ZETAS = (10.0, 5.0, 4.0, 2.0, 1.5, 1.2, 1.0)
TABLE1 = {
    "gaussian": (0.0089, 0.0310, 0.0449, 0.1242, 0.1913, 0.2754, 0.3775),
    "laplace": (0.0089, 0.0316, 0.0463, 0.1443, 0.2310, 0.3353, 0.4578),
    "epanechnikov": (0.0095, 0.0359, 0.0545, 0.1857, 0.2921, 0.3968, 0.4857),
}
TABLE1_TOL = 0.0015

C_GRID = np.linspace(0.0, 0.3, 20)
TIE_EPS = 1e-12

# sizes: "full" is what the benchmark measures; "tiny" keeps the layer mix
# but finishes in well under a second, for the transparency self-test
SIZES = {
    "full": {
        "finite_long": {"N": 4000, "h": 400.0, "reps": 256},
        "finite_garch": {"N": 500, "h": 50.0, "reps": 250},
        "asymptotic": {"zetas": TABLE1_ZETAS, "kernels": tuple(TABLE1), "grid_M": 2048,
                       "reps": 2000, "candidates": ("gaussian", "epanechnikov", "laplace"),
                       "verify_grid_M": 2048, "verify_c": 0.03},
        "stream": {"N": 2500, "h": 50.0},
    },
    "tiny": {
        "finite_long": {"N": 200, "h": 20.0, "reps": 100},
        "finite_garch": {"N": 60, "h": 6.0, "reps": 100},
        # verify_optimality alone takes over a second at any size, so tiny skips it
        "asymptotic": {"zetas": (2.0,), "kernels": ("gaussian",), "grid_M": 256,
                       "reps": 100, "candidates": ()},
        "stream": {"N": 300, "h": 10.0},
    },
}

GARCH = seriesgen.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1,
                                 garch_beta1=0.8)


@dataclass
class Workload:
    name: str
    item_label: str          # what items_per_s counts
    build: Callable[[int, dict], dict]
    run: Callable[[dict], tuple[Any, list[float]]]  # -> (output, per-item latencies)
    check: Callable[[dict, Any], list[str]]
    items: Callable[[dict], int]
    curve: Callable[[Any], np.ndarray | None]   # the ARL curve in an output, if any


def _reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# ARL-curve checks shared by the finite workloads and the limit curve
# ---------------------------------------------------------------------------


def check_curve(curve: np.ndarray, seed: int, reps: int, ref: dict | None) -> list[str]:
    """Problems with an ARL curve against the recorded reference (see module doc)."""
    problems = []
    if not (np.all(np.isfinite(curve)) and np.all(curve > 0) and np.all(curve <= 1 + 1e-12)):
        problems.append("ARL values outside (0, 1]")
    if np.any(np.diff(curve) < -1e-12):
        problems.append("ARL curve decreases in the threshold")
    if ref is None:
        return problems
    if seed == REFERENCE_SEED:
        gap = np.abs(curve - np.asarray(ref["curve"]))
        if np.any(gap > 2.0 / reps):
            problems.append(f"reference-seed curve off by {gap.max():.3g} > 2/reps "
                            f"({tie_flips(curve, ref)} thresholds differ)")
    else:
        mean = np.asarray(ref["mean"])
        tol = 3.0 / np.sqrt(reps) + 3.0 / np.sqrt(ref["seeds"] * reps)
        gap = np.abs(curve - mean)
        if np.any(gap > tol):
            problems.append(f"curve off the {ref['seeds']}-seed mean by {gap.max():.3g} "
                            f"> {tol:.3g}")
    return problems


def tie_flips(curve: np.ndarray | None, ref: dict | None) -> int:
    """Thresholds whose reference-seed ARL differs from the recorded one."""
    if curve is None or ref is None:
        return 0
    return int(np.count_nonzero(np.abs(curve - np.asarray(ref["curve"])) > TIE_EPS))


# ---------------------------------------------------------------------------
# finite-sample ARL curves
# ---------------------------------------------------------------------------


def _finite(name: str, innovations: seriesgen.InnovationSpec) -> Workload:
    def build(seed: int, size: dict) -> dict:
        variant = calibration.FiniteSampleVariant(
            N=size["N"], h=size["h"], innovations=innovations, variance_method="naive")
        return {"variant": variant, "kernel": kernels.gaussian_kernel(), "reps": size["reps"],
                "seed": seed, "ref": size.get("ref")}

    def run(inp: dict):
        table = calibration.arl_curve(inp["variant"], inp["kernel"], C_GRID, inp["reps"],
                                      inp["seed"])
        return table.normed_arl, []

    def check(inp: dict, out) -> list[str]:
        return check_curve(out, inp["seed"], inp["reps"], inp["ref"])

    return Workload(name, "replicates", build, run, check, lambda inp: inp["reps"],
                    lambda out: out)


# ---------------------------------------------------------------------------
# asymptotic side: Table-1 grid, limit ARL curve, optimal-kernel verification
# ---------------------------------------------------------------------------


def _asym_build(seed: int, size: dict) -> dict:
    return {
        "zetas": size["zetas"],
        "kernels": [kernels.kernel_by_name(k) for k in size["kernels"]],
        "limit": limitsim.LimitConfig(zeta=10.0, kernel=kernels.gaussian_kernel(),
                                      grid_M=size["grid_M"]),
        "reps": size["reps"],
        "candidates": [kernels.kernel_by_name(k) for k in size["candidates"]],
        "ramp": seriesgen.alternative_by_name("ramp"),
        "verify_grid_M": size.get("verify_grid_M"),
        "verify_c": size.get("verify_c"),
        "seed": seed,
        "ref": size.get("ref"),
    }


def _asym_run(inp: dict):
    table = np.array([
        [limitsim.sigma_k_sq(limitsim.LimitConfig(zeta=z, kernel=k), 1.0) for z in inp["zetas"]]
        for k in inp["kernels"]
    ])
    curve = calibration.arl_curve(inp["limit"], inp["limit"].kernel, C_GRID, inp["reps"],
                                  inp["seed"]).normed_arl
    out = {"table": table, "curve": curve}
    if inp["candidates"]:
        rep = optkernel.verify_optimality(inp["ramp"], 1.0, inp["verify_c"], inp["candidates"],
                                          grid_M=inp["verify_grid_M"])
        out.update(is_optimal=rep.is_optimal, s_star=rep.s_star,
                   delays=np.array([rep.completed_delay, *rep.candidate_delays.values()]))
    return out, []


def _asym_check(inp: dict, out) -> list[str]:
    problems = []
    for row, kernel in zip(out["table"], inp["kernels"]):
        published = dict(zip(TABLE1_ZETAS, TABLE1[kernel.family]))
        for z, got in zip(inp["zetas"], row):
            if abs(got - published[z]) > TABLE1_TOL:
                problems.append(f"sigma_K^2 {kernel.family} zeta={z}: {got:.5f} vs {published[z]}")
    if inp["candidates"]:
        if not out["is_optimal"]:
            problems.append("verify_optimality: completed kernel is not optimal")
        # ramp drift: the optimal delay ratio is 0.3 s^2, so s* = sqrt(c / 0.3)
        if abs(out["s_star"] - np.sqrt(inp["verify_c"] / 0.3)) > 1e-6:
            problems.append(f"s* = {out['s_star']!r}, expected sqrt(c / 0.3)")
    ref = inp["ref"]
    problems += check_curve(out["curve"], inp["seed"], inp["reps"], ref)
    if ref is not None and inp["seed"] == REFERENCE_SEED:
        if np.max(np.abs(out["delays"] - np.asarray(ref["delays"]))) > 1e-9:
            problems.append("optimal/candidate delays differ from the reference by > 1e-9")
    return problems


# ---------------------------------------------------------------------------
# streaming monitor
# ---------------------------------------------------------------------------

STREAM_THETA = 0.8      # step drift starts at 0.8 N
STREAM_TARGET = 0.85    # alarm placed at the first exceedance from 0.85 N on


def reference_statistic(values: np.ndarray, h: float) -> np.ndarray:
    """Standardized Gaussian-kernel smoother on times 1..N, computed independently.

    Causal convolution with the truncated Gaussian weights, null scaling
    h N^{-3/2}, divided by the root of the running naive variance; NaN at
    index 1, where that variance is undefined.
    """
    N = len(values)
    lags = np.arange(int(np.floor(kernels.GAUSSIAN_TRUNCATION * h)) + 1)
    w = np.exp(-0.5 * (lags / h) ** 2) / np.sqrt(2.0 * np.pi) / h
    num = np.convolve(values, w)[:N]
    den = np.cumsum(w)[np.minimum(np.arange(N), lags[-1])]
    d2 = np.diff(values) ** 2
    var = np.concatenate([[np.nan], np.cumsum(d2) / np.arange(1, N)])
    return num / den * h * N**-1.5 / np.sqrt(var)


def _stream_build(seed: int, size: dict) -> dict:
    """A step-drifted walk plus a threshold that alarms at a fixed index.

    The threshold sits halfway between the largest statistic before
    ``STREAM_TARGET * N`` and the first value from there on that exceeds it,
    so every seed does the same number of updates and no tie is near c.
    """
    N, h = size["N"], size["h"]
    drift = seriesgen.DriftSpec(m0=seriesgen.alternative_by_name("step"), beta=0.0,
                                cp_model="cp2", theta=STREAM_THETA, h_link=50.0)
    series = seriesgen.generate(seriesgen.SeriesSpec(N=N, drift=drift), seed)
    stat = reference_statistic(series.values, h)
    T = int(STREAM_TARGET * N)
    prior = np.nanmax(stat[: T - 1])
    above = np.nonzero(stat[T - 1:] > prior)[0]
    if above.size == 0:
        raise ValueError(f"seed {seed}: the drifted statistic never exceeds its pre-target maximum")
    j = T - 1 + int(above[0])
    if stat[j] - prior <= 1e-10 * abs(prior):
        raise ValueError(f"seed {seed}: exceedance at index {j + 1} is a near tie")
    cfg = monitor.MonitorConfig(
        smoother=SmootherConfig(kernel=kernels.gaussian_kernel(), h=h, scaling="null_scale"),
        threshold=float(prior + 0.5 * (stat[j] - prior)), N=N, variance_method="naive")
    return {"series": series, "cfg": cfg, "expected_index": j + 1, "seed": seed,
            "ref": size.get("ref")}


def _stream_run(inp: dict):
    mon = monitor.StreamMonitor(inp["cfg"])
    latencies = []
    record = None
    clock = time.perf_counter
    for t, y in zip(inp["series"].times.tolist(), inp["series"].values.tolist()):
        t0 = clock()
        record = mon.update(t, y)
        latencies.append(clock() - t0)
        if record is not None:
            break
    return record if record is not None else mon.truncation_record(), latencies


def _stream_check(inp: dict, out) -> list[str]:
    problems = []
    if "batch" not in inp:  # one batch pass per input is enough
        res = monitor.run_monitor(inp["series"], inp["cfg"])
        inp["batch"] = (res.alarmed, res.alarm_index)
    if (out["alarmed"], out["index"]) != inp["batch"]:
        problems.append(f"stream alarm {out['alarmed'], out['index']} "
                        f"!= run_monitor {inp['batch']}")
    if out["index"] != inp["expected_index"]:
        problems.append(f"stream alarm at {out['index']}, reference smoother predicts "
                        f"{inp['expected_index']}")
    ref = inp["ref"]
    if ref is not None and inp["seed"] == REFERENCE_SEED:
        if out["index"] != ref["index"] or abs(out["statistic"] - ref["statistic"]) > 1e-12:
            problems.append(f"reference-seed alarm {out['index']}, {out['statistic']!r} differs "
                            f"from recorded {ref['index']}, {ref['statistic']!r}")
    return problems


WORKLOADS = {
    "finite_long": _finite("finite_long", seriesgen.InnovationSpec()),
    "finite_garch": _finite("finite_garch", GARCH),
    "asymptotic": Workload("asymptotic", "limit replicates", _asym_build, _asym_run,
                           _asym_check, lambda inp: inp["reps"], lambda out: out["curve"]),
    "stream": Workload("stream", "records", _stream_build, _stream_run, _stream_check,
                       lambda inp: inp["expected_index"], lambda out: None),
}


def sizes(scale: str, name: str) -> dict:
    """Size parameters for one workload; ``full`` ones carry the recorded reference."""
    size = dict(SIZES[scale][name])
    if scale == "full":
        size["ref"] = _reference().get(name)
    return size


def same_output(a, b) -> bool:
    """Bitwise equality of two task outputs (arrays by bytes, floats exactly)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_output(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b
