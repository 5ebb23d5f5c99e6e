"""One rule for non-finite numbers at the public boundary.

Each numeric parameter of the public constructors and entry points gets NaN,
+inf and -inf in turn, and each array parameter an empty array and arrays
ending in those values.  Every such call must raise ValueError, while the
valid call returns a result whose numbers are all finite (a constructor's
result is its fields).  A finite result for a non-finite input is no excuse:
mapping NaN or ±inf to a plausible number hides the bad input.
Integer parameters are no exception: one count check rejects a non-finite
value with ValueError, before Python would raise TypeError or OverflowError
where a float stands for an integer, and so it does a non-integral float (the
valid value + 0.5), which Python would reject deep inside or truncate.
``EXEMPT`` lists what the rule does not cover, each with its reason.
"""

import dataclasses
import math

import numpy as np
import pytest

import driftwatch as dw
from driftwatch.optkernel import TruncatedAlternative
from driftwatch.seriesgen import tabulated_alternative

G, E = dw.gaussian_kernel(), dw.epanechnikov_kernel()
STEP = dw.alternative_by_name("step")
SERIES = dw.TimeSeries(np.arange(1.0, 31.0), np.sin(np.arange(30.0)))
SMOOTHER = dw.SmootherConfig(G, 5.0, "null_scale")
MONITOR = dw.MonitorConfig(SMOOTHER, 0.5, 30)
LIMIT = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=64)
DRIFTED = dataclasses.replace(LIMIT, drift=dw.LimitDrift(STEP))
CP2 = dw.DriftSpec(STEP, 0.0, "cp2", theta=0.5)


def _variant_curve(seed, **fields):
    variant = dw.FiniteSampleVariant(**{"N": 20, "h": 5.0, "variance_method": "naive", **fields})
    return dw.arl_curve(variant, G, [0.1, 0.5], 100, seed)


# name -> (call, valid keyword arguments, float, integer and array parameters)
TABLE = {
    "tabulated_kernel": (dw.tabulated_kernel, dict(knots_z=[-1.0, 0.0], knots_k=[1.0, 1.0]),
                         [], [], ["knots_z", "knots_k"]),
    "eval_kernel": (dw.eval_kernel, dict(kernel=G, z=-0.5), ["z"], [], []),
    "eval_rescaled": (dw.eval_rescaled, dict(kernel=G, h=2.0, z=-0.5), ["h", "z"], [], []),
    "limit_weight_integral": (dw.limit_weight_integral, dict(kernel=G, zeta=2.0, s=0.5),
                              ["zeta", "s"], [], []),
    "weight_sum": (dw.weight_sum, dict(kernel=G, h=2.0, times=[1.0, 2.0, 3.0], t_now=3.0),
                   ["h", "t_now"], [], ["times"]),
    "validate_kernel": (dw.validate_kernel, dict(kernel=G, seed=0, n_pairs=16), [],
                        ["seed", "n_pairs"], []),
    "DriftSpec": (dw.DriftSpec, dict(m0=STEP, beta=-0.2, cp_model="cp2", theta=0.5, h_link=2.0),
                  ["beta", "theta", "h_link"], [], []),
    "DriftSpec cp1": (dw.DriftSpec, dict(m0=STEP, beta=0.0, cp_model="cp1", q=3), [], ["q"], []),
    "InnovationSpec garch11": (
        dw.InnovationSpec, dict(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1,
                                garch_beta1=0.8),
        ["sigma", "garch_alpha0", "garch_alpha1", "garch_beta1"], [], []),
    "InnovationSpec ar1": (dw.InnovationSpec, dict(family="ar1", ar_a=0.5), ["ar_a"], [], []),
    "SeriesSpec": (dw.SeriesSpec, dict(N=10), [], ["N"], []),
    "TimeDesign": (dw.TimeDesign, dict(gamma=2.0, snap_grid=0.5), ["gamma", "snap_grid"], [], []),
    "TimeDesign knots": (dw.TimeDesign, dict(knots_u=[0.0, 1.0], knots_v=[0.0, 1.0]), [], [],
                         ["knots_u", "knots_v"]),
    "TimeSeries": (dw.TimeSeries, dict(times=[1.0, 2.0], values=[0.0, 1.0]), [], [],
                   ["times", "values"]),
    "tabulated_alternative": (tabulated_alternative, dict(knots_t=[0.0, 1.0], knots_m=[0.0, 1.0]),
                              [], [], ["knots_t", "knots_m"]),
    "change_point_index": (dw.change_point_index, dict(drift=CP2, horizon=10), [], ["horizon"],
                           []),
    "design_times": (dw.design_times, dict(design=dw.TimeDesign(gamma=2.0), n=5, horizon=10),
                     [], ["n", "horizon"], []),
    "drift_value": (dw.drift_value, dict(drift=CP2, t=7.0, horizon=10), ["t"], ["horizon"], []),
    "draw_innovations": (dw.draw_innovations, dict(spec=dw.InnovationSpec(), n=5, seed=1), [],
                         ["n", "seed"], []),
    "SmootherConfig": (dw.SmootherConfig, dict(kernel=G, h=2.0), ["h"], [], []),
    "nw_estimate": (dw.nw_estimate, dict(series=SERIES, cfg=SMOOTHER, n=10), [], ["n"], []),
    "scaling_factor": (dw.scaling_factor, dict(cfg=SMOOTHER, N=30), [], ["N"], []),
    "scaled_statistic": (dw.scaled_statistic, dict(value=0.3, cfg=SMOOTHER, N=30), ["value"],
                         ["N"], []),
    "estimate_variance": (dw.estimate_variance, dict(series=SERIES, method="naive", n=10), [],
                          ["n"], []),
    "nuisance_free": (dw.nuisance_free,
                      dict(statistic=0.3, est=dw.VarianceEstimate("naive", 1.0, 10)),
                      ["statistic"], [], []),
    "running_estimates": (dw.running_estimates,
                          dict(values=np.arange(5.0), method="naive",
                               prerun_increments=np.array([1.0, 2.0])),
                          [], [], ["values", "prerun_increments"]),
    "MonitorConfig": (dw.MonitorConfig, dict(smoother=SMOOTHER, threshold=0.5, N=30,
                                             start_fraction=0.1),
                      ["threshold", "start_fraction"], ["N"], []),
    "confidence_interval": (dw.confidence_interval, dict(m_hat=0.1, sigma_k=0.5, sigma_hat=1.0,
                                                         h=5.0, N=30, alpha=0.05),
                            ["m_hat", "sigma_k", "sigma_hat", "h", "alpha"], ["N"], []),
    "false_alarm_rate": (dw.false_alarm_rate, dict(cfg=MONITOR, n=20, reps=5, seed=1), [],
                         ["n", "reps", "seed"], []),
    "StreamMonitor.update": (lambda t, y: dw.StreamMonitor(MONITOR).update(t, y),
                             dict(t=1.0, y=0.5), ["t", "y"], [], []),
    "LimitConfig": (dw.LimitConfig, dict(zeta=2.0, kernel=G, sigma=1.0, grid_M=64),
                    ["zeta", "sigma"], ["grid_M"], []),
    "LimitDrift": (dw.LimitDrift, dict(m0=STEP, cp_model="cp2", theta=0.5), ["theta"], [], []),
    "asymptotic_normed_delay": (dw.asymptotic_normed_delay, dict(cfg=DRIFTED, c=0.2, a=0.0),
                                ["c", "a"], [], []),
    "check_km_condition": (dw.check_km_condition, dict(kernel=G, m0=STEP, c=0.2, x_max=5.0),
                           ["c", "x_max"], [], []),
    "drift_term": (dw.drift_term, dict(cfg=DRIFTED, s=0.5), ["s"], [], []),
    "limit_stop_sample": (dw.limit_stop_sample, dict(cfg=LIMIT, c=0.5, a=0.0, seed=1),
                          ["c", "a"], ["seed"], []),
    "sample_bm": (dw.sample_bm, dict(grid_M=8, seed=1), [], ["grid_M", "seed"], []),
    "sigma_k_sq": (dw.sigma_k_sq, dict(cfg=LIMIT, s=0.5), ["s"], [], []),
    "CalibrationTable": (dw.CalibrationTable, dict(thresholds=[0.1, 0.2], normed_arl=[0.5, 0.6]),
                         [], [], ["thresholds", "normed_arl"]),
    # no variance method: a NaN prerun length used to pass unread
    "FiniteSampleVariant": (dw.FiniteSampleVariant, dict(N=20, h=5.0, prerun_length=5,
                                                         start_fraction=0.1),
                            ["h", "start_fraction"], ["N", "prerun_length"], []),
    "arl_curve of a FiniteSampleVariant": (_variant_curve, dict(N=20, prerun_length=5, seed=1),
                                           ["h", "start_fraction"],
                                           ["N", "prerun_length", "seed"], []),
    "arl_curve finite": (
        lambda c_grid, reps, seed, jobs: dw.arl_curve(dw.FiniteSampleVariant(N=20, h=5.0), G,
                                                      c_grid, reps, seed, jobs),
        dict(c_grid=[0.1, 0.5], reps=100, seed=1, jobs=1), [], ["reps", "seed", "jobs"],
        ["c_grid"]),
    "arl_curve limit": (lambda c_grid, seed, jobs: dw.arl_curve(LIMIT, G, c_grid, 100, seed, jobs),
                        dict(c_grid=[0.1, 0.5], seed=1, jobs=1), [], ["seed", "jobs"],
                        ["c_grid"]),
    "conservativeness_check": (
        lambda **kw: dw.conservativeness_check(kernel=G, **kw),
        dict(N=20, h=5.0, c_grid=[0.1, 0.5], reps=100, seed=1, min_grid=64, jobs=1),
        ["h"], ["N", "reps", "seed", "min_grid", "jobs"], ["c_grid"]),
    "coverage_sim": (lambda **kw: dw.coverage_sim(kernel=G, **kw),
                     dict(N=20, h=5.0, alpha=0.1, reps=100, seed=1, sigma=1.0, jobs=1),
                     ["h", "alpha", "sigma"], ["N", "reps", "seed", "jobs"], []),
    "critical_value_for_arl": (
        lambda target: dw.critical_value_for_arl(dw.CalibrationTable([0.1, 0.2], [0.5, 0.6]),
                                                 target),
        dict(target=0.55), ["target"], [], []),
    # the curves are NaN below s_min on every input; the crossings are the result
    "kernel_comparison_curves": (
        lambda **kw: dw.kernel_comparison_curves([G, E], STEP, **kw).crossings,
        dict(zeta=2.0, c=0.2, grid_M=64), ["zeta", "c"], ["grid_M"], []),
    "optimal_delay": (dw.optimal_delay, dict(m0=STEP, c=0.2), ["c"], [], []),
    "optimal_kernel": (dw.optimal_kernel, dict(m0=STEP, zeta=2.0, c=0.2, t_max=2.0, n_points=51),
                       ["zeta", "c", "t_max"], ["n_points"], []),
    "TruncatedAlternative": (TruncatedAlternative, dict(base=STEP, t_max=2.0), ["t_max"], [], []),
    "tau_ratio": (dw.tau_ratio, dict(kernel=G, m0=STEP, zeta=2.0, s_star=0.5),
                  ["zeta", "s_star"], [], []),
    "verify_optimality": (dw.verify_optimality, dict(m0=STEP, zeta=1.0, c=0.2, candidates=[G],
                                                     t_max=1.0, grid_M=64),
                          ["zeta", "c", "t_max"], ["grid_M"], []),
}

EXEMPT = {
    ("MonitorConfig", "threshold", "+inf"): "calibration runs the monitor's chart at +inf",
    ("MonitorConfig", "threshold", "-inf"): "an alarm at the first eligible index is well defined",
    ("scaled_statistic", "value"): "it scales a value: NaN in, NaN out, as numpy arithmetic",
    ("nuisance_free", "statistic"): "it standardizes a value: NaN in, NaN out",
    ("running_estimates", "values"): "an array primitive whose NaN output marks an undefined "
                                      "estimate; series reach it through TimeSeries, which "
                                      "rejects non-finite values",
    ("running_estimates", "prerun_increments"): "as for values; an empty prerun leaves the first "
                                                "estimate undefined (NaN), as documented",
    **{(name, "c", label): "a threshold of +inf is never crossed, and one of -inf is crossed at "
                           "the first eligible point: both are well-defined stops"
       for name in ("limit_stop_sample", "asymptotic_normed_delay", "check_km_condition",
                    "kernel_comparison_curves", "optimal_delay")
       for label in ("+inf", "-inf")},
    ("optimal_kernel", "c", "+inf"): "never crossed: s* = 1, a well-defined window (a negative "
                                     "c, -inf included, has no kernel and raises)",
    ("verify_optimality", "c", "+inf"): "as for optimal_kernel: every delay is 1",
}

BAD = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


def _finite(x) -> bool:
    if isinstance(x, (float, np.floating, np.ndarray)):
        return bool(np.all(np.isfinite(x))) if np.asarray(x).dtype.kind == "f" else True
    if isinstance(x, (tuple, list)):
        return all(map(_finite, x))
    if isinstance(x, dict):
        return all(map(_finite, x.values()))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return True


def _cases(numbers, arrays, base):
    for param in numbers:
        for label, value in BAD.items():
            yield param, label, value
    for param in arrays:
        yield param, "empty", np.array([])
        for label, value in BAD.items():
            yield param, f"ending in {label}", np.append(np.asarray(base[param], float)[:-1],
                                                         value)


@pytest.mark.parametrize("name", list(TABLE))
def test_non_finite_input_raises_or_gives_a_finite_result(name):
    call, base, floats, ints, arrays = TABLE[name]
    assert _finite(call(**base))
    failures = []
    for param, label, value in _cases(floats + ints, arrays, base):
        if (name, param, label) in EXEMPT or (name, param) in EXEMPT:
            continue
        try:
            result = call(**{**base, param: value})
        except ValueError:
            continue
        failures.append(f"{param}={label} gave {result!r}")
    assert not failures, failures


@pytest.mark.parametrize("name", [name for name, row in TABLE.items() if row[3]])
def test_a_non_integral_count_is_rejected(name):
    call, base, _, ints, _ = TABLE[name]
    for param in ints:
        with pytest.raises(ValueError, match="must be an integer"):
            call(**{**base, param: base[param] + 0.5})


NAN_THRESHOLD = {
    "MonitorConfig": lambda: dw.MonitorConfig(SMOOTHER, math.nan, 30),
    "arl_curve": lambda: dw.arl_curve(LIMIT, G, [0.1, math.nan], 100, 1),
    "CalibrationTable": lambda: dw.CalibrationTable([math.nan, 0.2], [0.5, 0.6]),
    "limit_stop_sample": lambda: dw.limit_stop_sample(LIMIT, math.nan, 0.0, 1),
    "asymptotic_normed_delay": lambda: dw.asymptotic_normed_delay(DRIFTED, math.nan),
    "check_km_condition": lambda: dw.check_km_condition(G, STEP, math.nan),
    "optimal_delay": lambda: dw.optimal_delay(STEP, math.nan),
    "optimal_kernel": lambda: dw.optimal_kernel(STEP, 2.0, math.nan),
    "verify_optimality": lambda: dw.verify_optimality(STEP, 1.0, math.nan, [G], grid_M=64),
    "kernel_comparison_curves": lambda: dw.kernel_comparison_curves([G], STEP, 2.0, math.nan, 64),
}


@pytest.mark.parametrize("name", list(NAN_THRESHOLD))
def test_a_nan_threshold_is_rejected(name):
    # every threshold is compared with >, which is False for NaN: a NaN threshold
    # would read as "never crossed" and give a delay or normed ARL of 1
    with pytest.raises(ValueError):
        NAN_THRESHOLD[name]()
