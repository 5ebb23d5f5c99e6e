"""Bitwise oracles for the finite-sample Monte Carlo path.

The references below are the per-method running variance, the per-cell
Brownian-bridge loop, the numpy-scalar GARCH(1,1) and AR(1) recursions and
calibration's own trajectory builder that the table-driven
``running_estimates``, the vectorized ``_brownian_paths``, the Python-float
loops in ``seriesgen`` and the monitor's ``chart`` at threshold +inf
replaced.  The numpy-scalar GARCH(1,1) recursion is also the reference for
the recursion that runs across replicate rows.  All must agree with them
bit for bit, since seeded draws and calibration results are part of the
numeric contract.  The whole-prefix
streaming update is the reference for the support-window update; only the
summation order of the smoother changes there, so the two end the same way
and their statistics agree to 1e-12 relative.  The support-window update,
which kept its records in lists and evaluated the kernel on every window,
is the reference for the update that slices a lag template, bit for bit;
its single-anchor weights, with their own window bisection and design
placement, are the reference for the one-anchor block of the batch
smoother's weight builder, bit for bit, start included.
``scipy.signal.fftconvolve`` is the reference for the stationary limit's
direct real FFT, bit for bit.  The banded smoother and ``monitor.chart`` are
the reference for calibration's null charts, whose numerator is an FFT
(``causal_sums``): the same error at the same index, and chart values within
a stated tolerance of the FFT's rounding.  ``chart`` builds the chart in
its numerator's block and ``running_estimates`` in its output, step by step
in place; the references see every input layout, and the inputs other than
the numerator stay as they were.  The dense smoother, which
weighted every record at every anchor, is the reference for the banded one;
its weights are unchanged and only the summation order differs, so the two
agree to a few ulps of the largest term and keep every exact zero.  The same
holds for the per-anchor loops that smoothed a time design, in the batch
smoother and in the limit layer's trapezoid, against the row-block loop that
replaced them.  The quadrature integrands used to pass every point through
a 0-d array; the scalar evaluators that the float branches of
``KernelSpec.evaluate``, ``GenericAlternative.integral`` (tabulated shapes
included) and ``TruncatedAlternative.integral`` call, and that the limit
layer's integrands call directly, must return the same bits, so every
``quad`` result built on them is unchanged.
"""

import dataclasses
import math
import tracemalloc
from bisect import bisect_left
from contextlib import nullcontext
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftwatch as dw
from driftwatch.calibration import _brownian_paths, _null_charts, _null_walks
from driftwatch.estimator import (
    _block_weights, _process_parts, anchor_times, causal_sums, check_weights, lag_rows,
    scaling_factor,
)
from driftwatch.kernels import _quad
from driftwatch.limitsim import _num_den, _weight_fn
from driftwatch.monitor import StreamMonitor, chart, monitor_trajectory
from driftwatch.optkernel import TruncatedAlternative, _delay_ratio
from driftwatch.seriesgen import (
    _VECTOR_ROWS, GARCH_BURN_IN, _pow_may_differ, design_times, innovation_rows,
    tabulated_alternative,
)
from driftwatch.variance import RunningVariance, check_variance, running_estimates


def running_reference(values, method, prerun_increments=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
        squeeze = True
    else:
        squeeze = False
    batch, N = values.shape
    d = np.diff(values, axis=1)
    p = np.zeros((batch, 0)) if prerun_increments is None else np.atleast_2d(
        np.asarray(prerun_increments, dtype=float)
    )
    if p.shape[0] == 1 and batch > 1:
        p = np.broadcast_to(p, (batch, p.shape[1]))
    m_p = p.shape[1]

    out = np.full((batch, N), np.nan)
    if method == "naive":
        head = np.sum(p * p, axis=1)
        cnt0 = m_p
        cums = np.concatenate([np.zeros((batch, 1)), np.cumsum(d * d, axis=1)], axis=1)
        counts = cnt0 + np.arange(0, N)
        valid = counts >= 1
        out[:, valid] = (head[:, None] + cums[:, valid]) / counts[valid]
    elif method == "rice":
        dd_p = np.diff(p, axis=1) if m_p >= 2 else np.zeros((batch, 0))
        head = np.sum(dd_p * dd_p, axis=1)
        cnt0 = max(m_p - 1, 0)
        dd = np.diff(d, axis=1) if d.shape[1] >= 2 else np.zeros((batch, 0))
        cums = np.concatenate([np.zeros((batch, 1)), np.cumsum(dd * dd, axis=1)], axis=1)
        counts = cnt0 + np.clip(np.arange(0, N) - 1, 0, None)
        valid = counts >= 1
        out[:, valid] = (head[:, None] + cums[:, np.clip(np.arange(0, N) - 1, 0, None)][:, valid]) / (
            2.0 * counts[valid]
        )
    else:  # gasser
        if m_p >= 3:
            eps_p = 0.5 * p[:, :-2] + 0.5 * p[:, 2:] - p[:, 1:-1]
            head = np.sum(eps_p * eps_p, axis=1)
            cnt0 = m_p - 2
        else:
            head = np.zeros(batch)
            cnt0 = 0
        if N >= 4:
            eps = 0.5 * d[:, :-2] + 0.5 * d[:, 2:] - d[:, 1:-1]
            ecum = np.concatenate([np.zeros((batch, 1)), np.cumsum(eps * eps, axis=1)], axis=1)
        else:
            ecum = np.zeros((batch, 1))
        ser_cnt = np.clip(np.arange(0, N) - 2, 0, None)
        counts = cnt0 + ser_cnt
        valid = counts >= 1
        out[:, valid] = (2.0 / 3.0) * (head[:, None] + ecum[:, ser_cnt][:, valid]) / counts[valid]
    return out[0] if squeeze else out


def bridge_reference(walks, refine, seed, start, stop):
    rows, N = walks.shape
    M = refine * N
    B = np.empty((rows, M + 1))
    B[:, ::refine] = np.concatenate([np.zeros((rows, 1)), walks / np.sqrt(N)], axis=1)
    if refine > 1:
        Z = np.stack([
            np.random.default_rng(dw.substream(seed, i, 1)).standard_normal((N, refine - 1))
            for i in range(start, stop)
        ])
        fracs = np.arange(1, refine) / refine
        for cell in range(N):
            left = B[:, cell * refine]
            right = B[:, (cell + 1) * refine]
            prev, fprev = left, 0.0
            for idx, fl in enumerate(fracs):
                var = (fl - fprev) * (1.0 - fl) / (1.0 - fprev) / N
                mean = prev + (fl - fprev) / (1.0 - fprev) * (right - prev)
                prev = mean + np.sqrt(var) * Z[:, cell, idx]
                fprev = fl
                B[:, cell * refine + idx + 1] = prev
    return B


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(["naive", "rice", "gasser"]),
    N=st.integers(1, 30),
    batch=st.integers(1, 4),
    prerun=st.none() | st.integers(0, 7),
    one_row_prerun=st.booleans(),
    squeeze=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_running_estimates_match_reference_bitwise(method, N, batch, prerun, one_row_prerun,
                                                   squeeze, seed):
    # N and the prerun length range below and above each method's span
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal((batch, N)) * rng.uniform(0.1, 10.0), axis=1)
    pre = None
    if prerun is not None:
        pre = rng.standard_normal((1 if one_row_prerun else batch, prerun))
    if squeeze:
        values = values[0]
        pre = None if pre is None else pre[0]
    got = running_estimates(values, method, pre)
    want = running_reference(values, method, pre)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("method", ["naive", "rice", "gasser"])
@pytest.mark.parametrize("layout", ["Fortran-ordered", "strided"])
def test_running_estimates_of_any_layout_match_reference_bitwise(method, layout):
    # the estimates are built in one C-ordered output, whatever the rows' layout
    rng = np.random.default_rng(7)
    block = np.cumsum(rng.standard_normal((9, 61)), axis=1)
    values = np.asfortranarray(block) if layout == "Fortran-ordered" else block[::2, ::3]
    kept = values.copy()
    pre = rng.standard_normal((len(values), 6))
    for p in (None, pre[:1], pre):
        got = running_estimates(values, method, p)
        assert got.tobytes() == running_reference(values, method, p).tobytes()
        assert got.tobytes() == running_estimates(values.copy(), method, p).tobytes()
    assert values.tobytes() == kept.tobytes()


def _chart_inputs(rows, N, method, whole_rows=False):
    rng = np.random.default_rng(rows * N)
    values = np.cumsum(rng.standard_normal((rows, N)), axis=1)
    pre = rng.standard_normal((rows, N // 10))
    smoother = dw.SmootherConfig(dw.gaussian_kernel(), N / 10, "null_scale")
    cfg = dw.MonitorConfig(smoother, np.inf, N, 0.1, method)
    num, den = _process_parts(np.arange(1.0, N + 1.0), values, smoother, whole_rows=whole_rows)
    return num, den, values, cfg, pre


@pytest.mark.parametrize("method", [None, "naive", "rice", "gasser"])
def test_chart_overwrites_only_its_numerator(method):
    num, den, values, cfg, pre = _chart_inputs(3, 300, method)
    kept = [x.copy() for x in (den, values, pre)]
    want = np.where(den > 0.0, num / den, np.nan) * scaling_factor(cfg.smoother, cfg.N)
    traj, _ = chart(num, den, values, cfg, pre)
    assert np.shares_memory(traj, num)
    assert all(x.tobytes() == k.tobytes() for x, k in zip((den, values, pre), kept))
    if method is None:
        assert traj.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", [None, "naive"])
def test_chart_peak_is_at_most_two_blocks(method):
    # the running variance is the one float block chart allocates; the parent's
    # out-of-place chart peaked at about five blocks
    num, den, values, cfg, pre = _chart_inputs(64, 2000, method, whole_rows=True)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        chart(num, den, values, cfg, pre)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * num.nbytes


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 40),
    refine=st.integers(1, 6),
    start=st.integers(0, 5),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_brownian_paths_match_per_cell_bridge(N, refine, start, rows, seed):
    walks = _null_walks(dw.InnovationSpec(), N, seed, start, start + rows)
    got = _brownian_paths(walks, refine, seed, start, start + rows)
    assert np.array_equal(got, bridge_reference(walks, refine, seed, start, start + rows))


def test_null_walks_are_the_coupled_brownian_skeleton():
    # each finite walk is the cumulative sum of its replicate's substream, the
    # same draws the coupled comparison scales into its Brownian skeleton
    seed, a, b, N = 42, 3, 9, 57
    walks = _null_walks(dw.InnovationSpec(), N, seed, a, b)
    assert walks.shape == (b - a, N)
    for r, i in enumerate(range(a, b)):
        ref = np.cumsum(np.random.default_rng(dw.substream(seed, i)).standard_normal(N))
        assert np.array_equal(walks[r], ref)


def _seed_sequence(seed):
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def garch_reference(spec, n, seed):
    rng = np.random.default_rng(_seed_sequence(seed))
    a0, a1, b1 = spec.garch_alpha0, spec.garch_alpha1, spec.garch_beta1
    eps = rng.standard_normal(GARCH_BURN_IN + n)
    var = a0 / (1.0 - a1 - b1)
    u = np.empty(GARCH_BURN_IN + n)
    for i in range(GARCH_BURN_IN + n):
        u[i] = np.sqrt(var) * eps[i]
        var = a0 + a1 * u[i] ** 2 + b1 * var
    return spec.sigma * u[GARCH_BURN_IN:]


def ar1_reference(spec, seed):
    inno, N = spec.innovations, spec.N
    ar_seq, inno_seq = _seed_sequence(seed).spawn(2)
    u = dw.draw_innovations(inno, N, inno_seq)
    drift_inc = np.zeros(N)
    if spec.drift is not None:
        d = spec.drift
        t_prev = np.arange(0.0, N)  # unit times, shifted by one index
        t_q = dw.change_point_index(d, N)
        drift_inc = d.m0.value((t_prev - t_q) / d.h_link) * d.h_link**d.beta
    a = inno.ar_a
    y = float(np.random.default_rng(ar_seq).standard_normal() * inno.sigma
              / np.sqrt(1.0 - a * a))
    values = np.empty(N)
    for n in range(N):
        y = a * y + drift_inc[n] + u[n]
        values[n] = y
    return values


# an int seed, or a fresh SeedSequence per call (spawning mutates a sequence)
_SEEDS = st.tuples(st.integers(0, 2**63 - 1), st.booleans()).map(
    lambda sk: (lambda: np.random.SeedSequence((sk[0], 7))) if sk[1] else (lambda: sk[0])
)
_SIGMAS = st.floats(0.01, 100.0)


@st.composite
def _garch_specs(draw):
    a1 = draw(st.floats(0.0, 0.6))
    b1 = draw(st.floats(0.0, 0.999)) * (1.0 - a1)  # alpha1 + beta1 < 1
    return dw.InnovationSpec(family="garch11", sigma=draw(_SIGMAS),
                             garch_alpha0=draw(st.floats(1e-4, 10.0)),
                             garch_alpha1=a1, garch_beta1=b1)


@settings(max_examples=150, deadline=None)
@given(spec=_garch_specs(), n=st.integers(1, 300), seed=_SEEDS)
def test_garch_draws_match_numpy_scalar_recursion(spec, n, seed):
    got = dw.draw_innovations(spec, n, seed())
    want = garch_reference(spec, n, seed())
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    a=st.floats(-0.99, 0.99),
    sigma=_SIGMAS,
    N=st.integers(2, 300),
    drift=st.none() | st.tuples(st.sampled_from(["step", "ramp"]), st.floats(-0.9, 0.0),
                                st.floats(0.05, 0.95), st.floats(0.5, 20.0)),
    seed=_SEEDS,
)
def test_ar1_series_match_numpy_scalar_recursion(a, sigma, N, drift, seed):
    d = None
    if drift is not None:
        shape, beta, theta, h_link = drift
        d = dw.DriftSpec(m0=dw.alternative_by_name(shape), beta=beta, cp_model="cp2",
                         theta=theta, h_link=h_link)
    spec = dw.SeriesSpec(N=N, innovations=dw.InnovationSpec(family="ar1", sigma=sigma, ar_a=a),
                         drift=d)
    assert dw.generate(spec, seed()).values.tobytes() == ar1_reference(spec, seed()).tobytes()


def test_garch_null_walks_match_reference():
    spec = dw.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1,
                             garch_beta1=0.8)
    seed, a, b, N = 11, 2, 7, 50
    walks = _null_walks(spec, N, seed, a, b)
    for r, i in enumerate(range(a, b)):
        ref = np.cumsum(garch_reference(spec, N, dw.substream(seed, i)))
        assert walks[r].tobytes() == ref.tobytes()


def _row_seeds(seed, rows):
    return [dw.substream(seed, i) for i in range(rows)]


@settings(max_examples=15, deadline=None)
@given(spec=_garch_specs(), n=st.integers(1, 300), rows=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
@example(spec=dw.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1,
                                garch_beta1=0.8), n=40, rows=_VECTOR_ROWS - 1, seed=1)
@example(spec=dw.InnovationSpec(family="garch11", sigma=1.7, garch_alpha0=2.0,
                                garch_alpha1=0.3, garch_beta1=0.6), n=40, rows=_VECTOR_ROWS,
         seed=2)
def test_garch_rows_match_numpy_scalar_recursion(spec, n, rows, seed):
    # below _VECTOR_ROWS rows the recursion runs row by row, from it on across the rows
    seeds = _row_seeds(seed, rows)
    got = innovation_rows(spec, n, seeds)
    assert got.shape == (rows, n)
    for row, s in zip(got, seeds):
        assert row.tobytes() == garch_reference(spec, n, s).tobytes()


@settings(max_examples=40, deadline=None)
@given(sigma=_SIGMAS, n=st.integers(1, 300), rows=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_iid_rows_match_the_per_seed_draws(sigma, n, rows, seed):
    spec = dw.InnovationSpec(sigma=sigma)
    seeds = _row_seeds(seed, rows)
    got = innovation_rows(spec, n, seeds)
    assert got.shape == (rows, n)
    for row, s in zip(got, seeds):
        want = sigma * np.random.default_rng(s).standard_normal(n)
        assert row.tobytes() == want.tobytes() == dw.draw_innovations(spec, n, s).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["iid_normal", "garch11", "ar1"]),
    N=st.integers(2, 120),
    start=st.integers(0, 50),
    cuts=st.lists(st.integers(1, 299), max_size=4),
    rows=st.integers(1, 300),
    key=st.sampled_from([(), (1,)]),
)
def test_null_walks_do_not_depend_on_the_chunking(family, N, start, cuts, rows, key):
    inno = {"iid_normal": dw.InnovationSpec(sigma=0.7),
            "garch11": dw.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.1,
                                         garch_beta1=0.8),
            "ar1": dw.InnovationSpec(family="ar1", sigma=1.3, ar_a=-0.6)}[family]
    stop = start + rows
    whole = _null_walks(inno, N, 5, start, stop, *key)
    bounds = sorted({start, stop, *(start + c for c in cuts if c < rows)})
    parts = [_null_walks(inno, N, 5, a, b, *key) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    spec = dw.SeriesSpec(N=N, innovations=inno)
    for r in (0, rows - 1):
        row = dw.generate(spec, dw.substream(5, start + r, *key)).values
        assert whole[r].tobytes() == row.tobytes()


def test_pow_guard_flags_every_square_that_pow_rounds_apart():
    # the guard assumes C pow is within 0.6 ulp of the exact square; this pins it here
    x = 3.0 * np.random.default_rng(2010).standard_normal(1_000_000)
    p = x * x
    flagged = _pow_may_differ(x, p)
    differs = np.array([v ** 2 for v in x.tolist()]) != p
    assert differs.any()
    assert not (differs & ~flagged).any()
    assert flagged.mean() < 0.25
    special = np.array([np.nan, np.inf, -1e200, 1e-200, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert _pow_may_differ(special, special * special).all()


def test_overflowing_garch_rows_raise_as_one_row_does():
    spec = dw.InnovationSpec(family="garch11", garch_alpha0=1.5e307, garch_alpha1=0.05,
                             garch_beta1=0.85)
    with pytest.raises(ValueError) as one:
        dw.generate(dw.SeriesSpec(N=30, innovations=spec), dw.substream(3, 0))
    assert str(one.value) == "garch11 variance overflows with alpha0=1.5e+307"
    with pytest.raises(ValueError) as rows:
        innovation_rows(spec, 30, _row_seeds(3, 200))
    assert str(rows.value) == str(one.value)
    with pytest.raises(ValueError) as walks:
        _null_walks(spec, 30, 3, 0, 200)
    assert str(walks.value) == str(one.value)


def trajectories_reference(values, cfg, variance_method, pre, first=1):
    # calibration checked every eligible index, weights before variance
    N = values.shape[1]
    num, den = _process_parts(np.arange(1.0, N + 1.0), values, cfg)
    eligible = np.arange(1, N + 1) >= first
    if variance_method is not None:
        est = running_estimates(values, variance_method, pre)
        eligible = eligible & ~np.isnan(est)
    check_weights(den, eligible)
    traj = (num / np.where(den > 0.0, den, 1.0)) * scaling_factor(cfg, N)
    if variance_method is not None:
        check_variance(est, eligible)
        traj = traj / np.sqrt(np.where(eligible, est, 1.0))
    return np.where(eligible, traj, -np.inf)


_KERNELS = [
    dw.gaussian_kernel(),
    dw.epanechnikov_kernel(),
    dw.laplace_kernel(),
    # K(0) = 0: no weight at the anchor, and none at all for h < 1/2
    dw.tabulated_kernel([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0]),
]


def _outcome(fn):
    try:
        return fn(), None
    except dw.DriftwatchError as exc:
        return None, (str(exc), exc.index)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 4),
    N=st.integers(1, 40),
    kernel=st.sampled_from(_KERNELS),
    h=st.sampled_from([0.3, 1.0, 2.5, 7.0]),
    method=st.sampled_from([None, "naive", "rice", "gasser"]),
    prerun=st.none() | st.integers(0, 2) | st.integers(3, 12),
    flat=st.integers(0, 12),
    start_fraction=st.sampled_from([0.0, 0.1, 0.3, 0.75]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chart_at_infinite_threshold_matches_calibration_builder(
        rows, N, kernel, h, method, prerun, flat, start_fraction, seed):
    # the first `flat` increments of each row are zero (so are the prerun's
    # when flat > 0), which makes the variance estimate zero at early indices
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((rows, N))
    inc[:, :flat] = 0.0
    values = np.cumsum(inc, axis=1)
    pre = None if prerun is None else rng.standard_normal((rows, prerun)) * (flat == 0)
    smoother = dw.SmootherConfig(kernel=kernel, h=h, scaling="null_scale")
    cfg = dw.MonitorConfig(smoother, np.inf, N, start_fraction, method)

    def via_chart():
        num, den = _process_parts(np.arange(1.0, N + 1.0), values, smoother)
        traj, eligible = chart(num, den, values, cfg, pre)
        return np.where(eligible, traj, -np.inf)

    got, got_err = _outcome(via_chart)
    want, want_err = _outcome(
        lambda: trajectories_reference(values, smoother, method, pre, cfg.start_index))
    assert got_err == want_err
    if want_err is None:
        assert got.tobytes() == want.tobytes()


# the kernels above, and a one-sided tabulated kernel with K(0) > 0
_FFT_KERNELS = [*_KERNELS, dw.tabulated_kernel([-1.5, -0.5, 0.0], [0.0, 1.0, 0.5])]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4),
    N=st.sampled_from([1, 255, 256, 257, 600]) | st.integers(1, 40),
    kernel=st.sampled_from(_FFT_KERNELS),
    h=st.sampled_from([0.3, 1.0, 7.0, 40.0, 400.0]),
    method=st.sampled_from([None, "naive", "rice", "gasser"]),
    prerun=st.none() | st.integers(0, 12),
    flat=st.sampled_from([0, 1, 3, 12, 250, 600]),
    start_fraction=st.sampled_from([0.0, 0.1, 0.75]),
    seed=st.integers(0, 2**32 - 1),
)
# K(0) = 0 and h < 1/2: no weight anywhere, so the first eligible index raises
@example(rows=2, N=257, kernel=_KERNELS[3], h=0.3, method=None, prerun=None, flat=0,
         start_fraction=0.1, seed=1)
# a flat prefix: the variance estimate is 0 at the first eligible index
@example(rows=3, N=600, kernel=_KERNELS[0], h=40.0, method="naive", prerun=None, flat=12,
         start_fraction=0.0, seed=2)
# a flat prefix without a variance method: exact zeros in the banded chart
@example(rows=1, N=256, kernel=_KERNELS[3], h=400.0, method=None, prerun=None, flat=250,
         start_fraction=0.1, seed=3)
def test_null_charts_match_the_banded_chart(rows, N, kernel, h, method, prerun, flat,
                                            start_fraction, seed):
    # as in the test above: the first `flat` increments of each row (and then the
    # prerun's) are zero
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((rows, N))
    inc[:, :flat] = 0.0
    values = np.cumsum(inc, axis=1)
    pre = None if prerun is None else rng.standard_normal((rows, prerun)) * (flat == 0)
    smoother = dw.SmootherConfig(kernel=kernel, h=h, scaling="null_scale")
    cfg = dw.MonitorConfig(smoother, np.inf, N, start_fraction, method)
    num, den = _process_parts(np.arange(1.0, N + 1.0), values, smoother)

    def banded():
        traj, eligible = chart(num, den, values, cfg, pre)
        return np.where(eligible, traj, -np.inf)

    got, got_err = _outcome(lambda: _null_charts(values, cfg, pre))
    want, want_err = _outcome(banded)
    # vanishing weights and zero variance estimates raise at the same index
    assert got_err == want_err
    if want_err is not None:
        return
    eligible = want > -np.inf
    assert np.array_equal(got > -np.inf, eligible)
    # FFT rounding is absolute in the numerator: at most 1e-13 of the row's largest
    # |value| times the kernel mass den.max(); the chart divides it by den (and by the
    # square root of the variance estimate), as the chart of num = den shows
    unit = chart(np.tile(den, (rows, 1)), den, values, cfg, pre)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        tol = 1e-13 * np.abs(unit) * np.abs(values).max(axis=1, keepdims=True) * den.max() / den
    assert np.all(np.abs(got[eligible] - want[eligible]) <= tol[eligible])


@pytest.mark.parametrize("N, lags", [(1, 1), (1, 0), (255, 40), (256, 256), (257, 3),
                                     (600, 600), (600, 1)])
def test_causal_sums_of_a_row_do_not_depend_on_its_batch(N, lags):
    rng = np.random.default_rng(N + lags)
    rows = np.cumsum(rng.standard_normal((130, N)), axis=1)
    k = rng.random(lags)
    whole = causal_sums(rows, k)  # batches of 64 rows: 0-63, 64-127 and 128-129
    for i in (0, 5, 63, 64, 100, 129):
        assert causal_sums(rows[i : i + 1], k).tobytes() == whole[i].tobytes()
    assert causal_sums(rows[50:67], k).tobytes() == whole[50:67].tobytes()
    direct = np.array([np.convolve(row, k)[:N] if lags else np.zeros(N) for row in rows])
    scale = np.abs(rows).max(axis=1, keepdims=True) * k.sum()
    assert np.all(np.abs(whole - direct) <= 1e-13 * scale)


def test_finite_calibration_rejects_a_start_fraction_the_monitor_rejects():
    # the variant checks its start fraction as MonitorConfig does, before any chunk runs
    with pytest.raises(ValueError, match="start_fraction"):
        dw.MonitorConfig(dw.SmootherConfig(dw.gaussian_kernel(), 5.0), np.inf, 50, 1.5)
    with pytest.raises(ValueError, match="start_fraction"):
        variant = dw.FiniteSampleVariant(N=50, h=5.0, start_fraction=1.5)
        dw.arl_curve(variant, dw.gaussian_kernel(), np.array([0.1, 0.2]), 100, 1)


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(["naive", "rice", "gasser"]),
    N=st.integers(1, 30),
    prerun=st.none() | st.integers(0, 7),
    flat=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_running_variance_state_matches_running_estimates_bitwise(method, N, prerun, flat, seed):
    # N and the prerun length range below and above each method's span
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal(N) * rng.uniform(0.1, 10.0)
    inc[:flat] = 0.0
    values = np.cumsum(inc)
    pre = None if prerun is None else rng.standard_normal(prerun)
    state = RunningVariance.start(method, pre)
    for n in range(1, N + 1):
        state = state.push(values[n - 1])
        want = running_estimates(values[:n], method, pre)[n - 1]
        assert np.float64(state.value).tobytes() == want.tobytes()


def stream_update_reference(self, t, y):
    """The whole-prefix ``StreamMonitor.update`` that the support window replaced."""
    if self.alarmed or self.n >= self.cfg.N:
        return None
    t, y = float(t), float(y)
    if not (np.isfinite(t) and np.isfinite(y)):
        raise ValueError(f"stream record must be finite, got t={t!r}, y={y!r}")
    if self.times and t <= self.times[-1]:
        raise ValueError(f"times must be strictly increasing, got {t} after {self.times[-1]}")
    cfg = self.cfg
    n = self.n + 1
    stat = None
    if n >= cfg.start_index:
        values = np.array(self.values + [y])
        est = 1.0  # unit variance unless standardized
        if cfg.variance_method is not None:
            est = running_estimates(values, cfg.variance_method, self._pre_inc)[n - 1]
        if not np.isnan(est):
            series = dw.TimeSeries(np.array(self.times + [t]), values)
            stat = dw.nw_estimate(series, cfg.smoother, n) * scaling_factor(cfg.smoother, cfg.N)
            check_variance(est, first=n)
            stat = stat / float(np.sqrt(est))
    self.times.append(t)
    self.values.append(y)
    self.n = n
    if stat is not None and stat > cfg.threshold:
        self.alarmed = True
        return {"alarmed": True, "index": n, "time": float(t), "statistic": float(stat),
                "threshold": cfg.threshold}
    return None


class StreamReference:
    """A stream monitor that updates with ``stream_update_reference``."""

    def __init__(self, cfg, prerun=None):
        self.cfg = cfg
        self.times, self.values = [], []
        self._pre_inc = np.diff(prerun.values) if prerun is not None else None
        self.alarmed = False
        self.n = 0

    update = stream_update_reference


# support entirely left of 0, with a jump at its left end: a record the
# window wrongly left out or took in would move the statistic by O(1)
LEFT = dw.tabulated_kernel([-3.0, -2.0, -1.0], [1.0, 0.5, 0.0])
# support entirely right of 0: no record at or before an anchor carries weight
RIGHT = dw.tabulated_kernel([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
_STREAM_KERNELS = [dw.gaussian_kernel(), dw.laplace_kernel(), dw.epanechnikov_kernel(),
                   _KERNELS[3], LEFT]


def _edge_times(rng, N, lo_h, near):
    """Increasing irregular times; with ``near``, many land a few ulps either
    side of where an earlier record sits at the window edge t_j - t_n = lo h."""
    times = [float(rng.uniform(0.0, 2.0))]
    while len(times) < N:
        t = times[-1] + float(rng.uniform(0.05, 1.5))
        edges = [s - lo_h for s in times if s - lo_h > times[-1]]
        if near and edges and rng.random() < 0.6:
            edge = edges[int(rng.integers(len(edges)))]
            t = float(edge + int(rng.integers(-3, 4)) * np.spacing(edge))
        times.append(max(t, float(np.nextafter(times[-1], np.inf))))
    return times


def _stream_outcomes(mon, times, values):
    """Per record: ('alarm', index, statistic), ('error', index) or None, then
    the monitor's n, times and values after it."""
    out = []
    for t, y in zip(times, values):
        try:
            rec = mon.update(t, y)
            out.append(None if rec is None else ("alarm", rec["index"], rec["statistic"]))
        except dw.DriftwatchError as exc:
            out.append(("error", exc.index))
        out[-1] = (out[-1], mon.n, list(mon.times), list(mon.values))
    return out


@settings(max_examples=300, deadline=None)
@given(
    kernel=st.sampled_from(_STREAM_KERNELS),
    h=st.sampled_from([0.3, 1.0, 2.5]),
    N=st.integers(1, 60),
    near=st.booleans(),
    method=st.sampled_from([None, "naive", "rice", "gasser"]),
    prerun=st.none() | st.integers(0, 2) | st.integers(3, 12),
    flat=st.integers(0, 10),
    start_fraction=st.sampled_from([0.0, 0.2, 0.5]),
    c=st.floats(0.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_update_ends_like_the_whole_prefix_update(
        kernel, h, N, near, method, prerun, flat, start_fraction, c, seed):
    rng = np.random.default_rng(seed)
    times = _edge_times(rng, N, kernel.support[0] * h, near)
    # positive values, so no weighted sum cancels and 1e-12 relative is a fair bound
    inc = rng.standard_normal(N) * 0.3 + rng.uniform(-0.1, 0.3)
    inc[:flat] = 0.0
    values = (5.0 + np.abs(np.cumsum(inc))).tolist()
    pre = None if prerun is None else dw.TimeSeries(
        np.arange(1.0, prerun + 1.0), np.cumsum(rng.standard_normal(prerun)) * (flat == 0))
    cfg = dw.MonitorConfig(dw.SmootherConfig(kernel=kernel, h=h), c, N, start_fraction, method)

    got = _stream_outcomes(StreamMonitor(cfg, pre), times, values)
    want = _stream_outcomes(StreamReference(cfg, pre), times, values)
    assert [g[1:] for g in got] == [w[1:] for w in want]
    for (g, *_), (w, *_) in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g[:2] == w[:2]
            if w[0] == "alarm":
                assert abs(g[2] - w[2]) <= 1e-12 * abs(w[2])


@settings(max_examples=200, deadline=None)
@given(
    kernel=st.sampled_from(_STREAM_KERNELS),
    h=st.sampled_from([0.3, 1.0, 2.5]),
    N=st.integers(1, 60),
    fixed_design=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_window_leaves_out_only_exact_zeros(kernel, h, N, fixed_design, seed):
    # a fixed design anchors the kernel at its own time points, with ties once snapped
    rng = np.random.default_rng(seed)
    times = _edge_times(rng, N, kernel.support[0] * h, True)
    design = dw.TimeDesign(gamma=0.6, mode="fixed", snap_grid=0.25) if fixed_design else None
    cfg = dw.SmootherConfig(kernel=kernel, h=h, design=design)
    arr = anchor_times(np.array(times), cfg, N)
    start = 0
    for n in range(1, N + 1):
        full = kernel.evaluate((arr[:n] - arr[n - 1]) / h) / h
        # the bisection may begin at the previous index's start
        for lo in (0, start):
            start, W = _block_weights(arr, n - 1, n, cfg, lo=lo)
            assert not full[:start].any()
            assert W[0].tobytes() == full[start:].tobytes()


@pytest.mark.parametrize("design", [dw.TimeDesign(gamma=2.0),
                                    dw.TimeDesign(gamma=0.5, mode="fixed")])
@pytest.mark.parametrize("method", [None, "gasser"])
def test_stream_with_a_design_matches_the_whole_prefix_update_bitwise(design, method):
    # the step drift makes the chart alarm past index 55 at c = 0.05 and 0.2;
    # a rolling design re-selects its time points at every index, so the
    # whole-prefix update is its reference, while a fixed design places them
    # by the horizon N, so the stream must end where batch monitoring does
    drift = dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.0, cp_model="cp2",
                         theta=0.4, h_link=10.0)
    series = dw.generate(dw.SeriesSpec(N=80, drift=drift), 5)
    prerun = dw.generate(dw.SeriesSpec(N=10), 6)
    smoother = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=6.0, scaling="null_scale",
                                 design=design)
    ends = []
    for c in (0.05, 0.2, np.inf):
        cfg = dw.MonitorConfig(smoother, c, 80, 0.1, method)
        got = _stream_outcomes(StreamMonitor(cfg, prerun), series.times, series.values)
        if design.mode == "rolling":
            assert got == _stream_outcomes(StreamReference(cfg, prerun), series.times,
                                           series.values)
            continue
        traj, eligible = monitor_trajectory(series, cfg, prerun)
        exceed = eligible & (traj > c)
        alarms = [g for g, *_ in got if g is not None]
        if not exceed.any():
            assert alarms == [] and got[-1][1] == 80
            continue
        n = int(np.argmax(exceed)) + 1
        assert alarms == [("alarm", n, alarms[0][2])]
        assert abs(alarms[0][2] - traj[n - 1]) <= 1e-12 * abs(traj[n - 1])
        ends.append(n)
    if design.mode == "fixed":
        # the whole-prefix update, which placed them by n, alarmed one index early
        assert ends == ([59, 71] if method is None else [59, 70])


def weights_at_reference(times, cfg, n, horizon):
    """The single-anchor weights that the one-anchor block of the weight
    builder replaced: weights at index n for records start+1..n, with
    ``start``.  A fixed design takes the first n design times of the
    ``horizon``, a rolling design weights all n at ``design_times(design, n,
    horizon)``, and other times bisect all of [0, n) for the support window."""
    design = cfg.design
    if design is not None:
        if design.mode == "rolling":
            t = design_times(design, n, horizon)
            return 0, cfg.kernel.evaluate((t - t[-1]) / cfg.h) / cfg.h
        times = design_times(design, n, horizon)
    t_n, h = times[n - 1], cfg.h
    start = bisect_left(times, cfg.kernel.support[0], 0, n, key=lambda t: (t - t_n) / h)
    args = (np.asarray(times[start:n], dtype=float) - times[n - 1]) / cfg.h
    return start, cfg.kernel.evaluate(args) / cfg.h


@settings(max_examples=200, deadline=None)
@given(
    kernel=st.sampled_from(_STREAM_KERNELS + [RIGHT]),
    h=st.sampled_from([0.3, 1.0, 2.5, 3.0]),
    N=st.integers(1, 40),
    beyond=st.sampled_from([0, 1, 25]),
    layout=st.sampled_from(["unit", "edge", "fixed", "rolling"]),
    t0=st.sampled_from([-7.0, 0.0, 7.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_anchor_block_matches_the_single_anchor_weights_bitwise(
        kernel, h, N, beyond, layout, t0, seed):
    # every index n = 1..N of a horizon ``beyond`` records past N; the fixed
    # design's early points tie once snapped; unit times also take the
    # one-row lag template, which holds on a run from the first record
    horizon = N + beyond
    if layout == "unit":
        times = t0 + np.arange(horizon)
    else:
        rng = np.random.default_rng(seed)
        times = np.array(_edge_times(rng, horizon, kernel.support[0] * h, True))
    design = {"fixed": dw.TimeDesign(gamma=0.6, mode="fixed", snap_grid=0.25),
              "rolling": dw.TimeDesign(gamma=0.5, snap_grid=0.5)}.get(layout)
    cfg = dw.SmootherConfig(kernel=kernel, h=h, design=design)
    templates = [None] + ([lag_rows(cfg, horizon, 1)] if layout == "unit" else [])
    t = anchor_times(times, cfg, horizon)
    start = 0
    for n in range(1, N + 1):
        want_start, want = weights_at_reference(times, cfg, n, horizon)
        for template in templates:
            lo, W = _block_weights(t, n - 1, n, cfg, template, start)
            assert lo == want_start and W.shape == (1, len(want))
            assert W[0].tobytes() == want.tobytes()
        start = want_start


def stream_window_update_reference(self, t, y):
    """The support-window ``StreamMonitor.update`` that the lag template, the
    array buffers and the float variance terms replaced: the records in
    lists, the kernel evaluated on every window, the running variance from
    ``running_estimates`` over the prefix."""
    if self.alarmed or self.n >= self.cfg.N:
        return None
    t, y = float(t), float(y)
    if not (np.isfinite(t) and np.isfinite(y)):
        raise ValueError(f"stream record must be finite, got t={t!r}, y={y!r}")
    if self.times and t <= self.times[-1]:
        raise ValueError(f"times must be strictly increasing, got {t} after {self.times[-1]}")
    cfg = self.cfg
    n = self.n + 1
    times, values = self.times + [t], self.values + [y]
    est = 1.0  # unit variance unless standardized
    if cfg.variance_method is not None:
        est = running_estimates(np.array(values), cfg.variance_method, self._pre_inc)[n - 1]
    stat = None
    if n >= cfg.start_index and not np.isnan(est):
        start, w = weights_at_reference(times, cfg.smoother, n, cfg.N)
        den = w.sum()
        check_weights(den, first=n)
        stat = float(w @ np.asarray(values[start:n], dtype=float) / den)
        check_variance(est, first=n)
        stat = stat * scaling_factor(cfg.smoother, cfg.N) / float(np.sqrt(est))
    self.times, self.values, self.n = times, values, n
    if stat is not None and stat > cfg.threshold:
        self.alarmed = True
        return {"alarmed": True, "index": n, "time": float(t), "statistic": float(stat),
                "threshold": cfg.threshold}
    return None


class StreamWindowReference(StreamReference):
    """A stream monitor that updates with ``stream_window_update_reference``."""

    update = stream_window_update_reference


@st.composite
def _mixed_times(draw):
    """Increasing times in segments: unit-spaced runs from an integer start
    (the first at -7, 0 or 7), unit steps from a half-integer offset, and
    irregular steps, joined by gaps of 1 (a run that carries on), 2 or 5."""
    times = [float(draw(st.sampled_from([-7, 0, 7])))]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["unit", "half", "irregular"]))
        length = draw(st.integers(1, 30))
        if kind == "irregular":
            steps = draw(st.lists(st.floats(0.05, 2.0), min_size=length, max_size=length))
            times += list(times[-1] + np.cumsum(steps))
            continue
        first = math.floor(times[-1]) + draw(st.sampled_from([1, 2, 5]))
        first += 0.5 if kind == "half" else 0.0
        times += [first + i for i in range(length)]
    return times


@settings(max_examples=300, deadline=None)
@given(
    kernel=st.sampled_from(_STREAM_KERNELS),
    h=st.sampled_from([0.3, 1.0, 2.5, 3.0]),
    times=_mixed_times(),
    method=st.sampled_from([None, "naive", "rice", "gasser"]),
    prerun=st.none() | st.integers(0, 2) | st.integers(3, 12),
    flat=st.integers(0, 10),
    start_fraction=st.sampled_from([0.0, 0.2, 0.5]),
    capacity=st.sampled_from([1, 3, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_update_matches_the_window_update_bitwise(
        kernel, h, times, method, prerun, flat, start_fraction, capacity, seed):
    # at threshold -inf every eligible index alarms; clearing ``alarmed`` after
    # each one lets the stream go on, so every statistic is compared; small
    # first capacities make the buffers grow within the stream
    rng = np.random.default_rng(seed)
    N = len(times)
    inc = rng.standard_normal(N)
    inc[:flat] = 0.0
    values = np.cumsum(inc).tolist()
    pre = None if prerun is None else dw.TimeSeries(
        np.arange(1.0, prerun + 1.0), np.cumsum(rng.standard_normal(prerun)) * (flat == 0))
    cfg = dw.MonitorConfig(dw.SmootherConfig(kernel=kernel, h=h), -np.inf, N, start_fraction,
                           method)

    def outcomes(mon):
        out = []
        for t, y in zip(times, values):
            try:
                rec = mon.update(t, y)
                out.append(None if rec is None else
                           (rec["index"], rec["time"], np.float64(rec["statistic"]).tobytes()))
                mon.alarmed = False
            except dw.DriftwatchError as exc:
                out.append(("error", exc.index))
            out[-1] = (out[-1], mon.n, list(mon.times), list(mon.values))
        return out

    with mock.patch("driftwatch.monitor._FIRST_CAPACITY", capacity):
        mon = StreamMonitor(cfg, pre)
    assert outcomes(mon) == outcomes(StreamWindowReference(cfg, pre))


def process_parts_reference(times, values, cfg):
    """The dense no-design smoother that the banded one replaced: every anchor
    weights all N records, and the upper triangle is zeroed."""
    values = np.asarray(values, dtype=float)
    N = values.shape[1]
    num = np.empty_like(values)
    den = np.empty(N)
    t = np.asarray(times, dtype=float)
    for start in range(0, N, 512):
        stop = min(start + 512, N)
        args = (t[None, :] - t[start:stop, None]) / cfg.h
        W = cfg.kernel.evaluate(args) / cfg.h
        W[np.arange(1, N + 1)[None, :] > np.arange(start + 1, stop + 1)[:, None]] = 0.0
        den[start:stop] = W.sum(axis=1)
        num[:, start:stop] = values @ W.T
    return num, den


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 3),
    N=st.integers(1, 600),
    layout=st.sampled_from(["unit", "irregular", "step 0.1"]),
    t0=st.sampled_from([-3.0, 0.0, 1.0, 7.0]),
    kernel=st.sampled_from(_KERNELS + [LEFT, RIGHT]),
    h_frac=st.floats(0.0, 1.0),
    flat=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_smoother_matches_the_dense_reference(rows, N, layout, t0, kernel, h_frac, flat,
                                                     seed):
    # N spans one to more than two row blocks; h runs log-uniformly from 0.3 to N
    rng = np.random.default_rng(seed)
    h = 0.3 * (max(N, 0.3) / 0.3) ** h_frac
    if layout == "unit":
        times = t0 + np.arange(N)
    elif layout == "irregular":
        times = t0 + np.cumsum(rng.uniform(0.05, 2.0, N))
    else:  # looks equally spaced, but t_i - t_n is not (i - n) / 10 exactly
        times = t0 + 0.1 * np.arange(1, N + 1)
    inc = rng.standard_normal((rows, N))
    inc[:, :flat] = 0.0
    values = np.cumsum(inc, axis=1)
    cfg = dw.SmootherConfig(kernel=kernel, h=h)
    num, den = _process_parts(times, values, cfg)
    ref_num, ref_den = process_parts_reference(times, values, cfg)
    assert np.all(np.abs(num - ref_num) <= 1e-13 * np.abs(ref_num).max(axis=1, keepdims=True))
    assert np.all(np.abs(den - ref_den) <= 1e-14 * ref_den)
    assert not num[ref_num == 0.0].any() and not den[ref_den == 0.0].any()


def process_parts_design_reference(values, cfg):
    """The per-anchor design loop that the block loop replaced: anchor n
    weights records 1..n at ``design_times(design, n, N)``."""
    values = np.asarray(values, dtype=float)
    N = values.shape[1]
    num = np.empty_like(values)
    den = np.empty(N)
    for n in range(1, N + 1):
        t = design_times(cfg.design, n, N)
        w = cfg.kernel.evaluate((t - t[-1]) / cfg.h) / cfg.h
        den[n - 1] = w.sum()
        num[:, n - 1] = values[:, :n] @ w
    return num, den


def design_num_den_reference(cfg, paths):
    """The per-anchor trapezoid that the limit layer's block path replaced."""
    M = cfg.grid_M
    dt = 1.0 / M
    r = np.arange(M + 1) / M
    num = np.empty((paths.shape[0], M))
    den = np.empty(M)
    for j in range(1, M + 1):
        s = j / M
        w = _weight_fn(cfg, s)(r[: j + 1])
        tw = w.copy()
        tw[0] *= 0.5
        tw[-1] *= 0.5
        num[:, j - 1] = dt * (paths[:, : j + 1] @ tw)
        den[j - 1] = cfg.zeta * dt * tw.sum()
    return num, den


# power, snapped and tabulated maps; the snapped one has tied time points
_DESIGN_MAPS = [
    {"gamma": 2.0},
    {"gamma": 0.5},
    {"gamma": 0.7, "snap_grid": 0.5},
    {"knots_u": np.array([0.0, 0.3, 0.7, 1.0]), "knots_v": np.array([0.0, 0.1, 0.6, 1.0])},
]
_DESIGNS = st.builds(lambda m, mode: dw.TimeDesign(**m, mode=mode),
                     st.sampled_from(_DESIGN_MAPS), st.sampled_from(["rolling", "fixed"]))


@settings(max_examples=120, deadline=None)
@given(
    rows=st.integers(1, 3),
    N=st.integers(1, 600),
    design=_DESIGNS,
    kernel=st.sampled_from(_KERNELS),
    h_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_design_smoother_matches_the_per_anchor_loop(rows, N, design, kernel, h_frac, seed):
    # N spans one to more than two row blocks; h runs log-uniformly from 0.3 to N
    rng = np.random.default_rng(seed)
    h = 0.3 * (max(N, 0.3) / 0.3) ** h_frac
    values = np.cumsum(rng.standard_normal((rows, N)), axis=1)
    cfg = dw.SmootherConfig(kernel=kernel, h=h, design=design)
    num, den = _process_parts(np.arange(1.0, N + 1.0), values, cfg)
    ref_num, ref_den = process_parts_design_reference(values, cfg)
    assert np.all(np.abs(num - ref_num) <= 1e-13 * np.abs(ref_num).max(axis=1, keepdims=True))
    assert np.all(np.abs(den - ref_den) <= 1e-14 * ref_den)
    assert not num[ref_num == 0.0].any() and not den[ref_den == 0.0].any()


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 600), design_map=st.sampled_from(_DESIGN_MAPS))
def test_rolled_block_times_are_the_design_times_of_each_anchor(N, design_map):
    # the last step of a block's rolled times is the design's snap; record its output
    design = dw.TimeDesign(**design_map)
    blocks = []
    snap = dw.TimeDesign.snap

    def recording_snap(self, t):
        out = snap(self, t)
        if np.ndim(out) == 2:
            blocks.append(out)
        return out

    with mock.patch.object(dw.TimeDesign, "snap", recording_snap):
        _process_parts(np.arange(1.0, N + 1.0), np.zeros((1, N)), dw.SmootherConfig(
            kernel=dw.gaussian_kernel(), h=1.0, design=design))
    assert sum(len(block) for block in blocks) == N
    n = 0
    for block in blocks:
        for row in block:
            n += 1
            assert row[:n].tobytes() == design_times(design, n, N).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    grid_M=st.sampled_from([64, 300, 600]),
    design=_DESIGNS,
    kernel=st.sampled_from(_KERNELS),
    zeta=st.sampled_from([1.0, 4.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_limit_design_process_matches_the_per_anchor_trapezoid(grid_M, design, kernel, zeta,
                                                              seed):
    design = dataclasses.replace(design, snap_grid=None)  # the limit design is not snapped
    cfg = dw.LimitConfig(zeta=zeta, kernel=kernel, grid_M=grid_M, design=design)
    paths = np.stack([dw.sample_bm(grid_M, dw.substream(seed, i)) for i in range(2)])
    num, den = _num_den(cfg, paths)
    ref_num, ref_den = design_num_den_reference(cfg, paths)
    assert np.all(np.abs(den - ref_den) <= 1e-13 * ref_den)
    assert np.all(np.abs(num - ref_num) <= 1e-13 * np.abs(ref_num).max(axis=1, keepdims=True))
    assert not den[ref_den == 0.0].any()


def stationary_num_den_reference(cfg, paths):
    """The stationary limit num/den with the window sums from
    ``scipy.signal.fftconvolve``, which the direct real FFT replaced."""
    from scipy.signal import fftconvolve

    M = cfg.grid_M
    dt = 1.0 / M
    k = cfg.kernel.evaluate(-cfg.zeta * np.arange(M + 1) / M)
    sums = fftconvolve(paths, k[None, :], axes=1)[:, 1 : M + 1]
    mass, w_0, w_s = np.cumsum(k)[1:], k[1:], k[0]
    num = dt * (sums - 0.5 * w_s * paths[:, 1:])
    return num, cfg.zeta * dt * (mass - 0.5 * w_0 - 0.5 * w_s)


@pytest.mark.parametrize("grid_M", [64, 257, 1000, 4096])
@pytest.mark.parametrize("kernel", _KERNELS[:3])
@pytest.mark.parametrize("zeta", [1.0, 2.0, 10.0])
def test_stationary_limit_process_matches_fftconvolve_bitwise(grid_M, kernel, zeta):
    cfg = dw.LimitConfig(zeta=zeta, kernel=kernel, grid_M=grid_M)
    paths = np.stack([dw.sample_bm(grid_M, dw.substream(7, i)) for i in range(3)])
    for got, want in zip(_num_den(cfg, paths), stationary_num_den_reference(cfg, paths)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# scalar quadrature integrands
# ---------------------------------------------------------------------------


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@cache
def _completed_ramp():
    """The optimal ramp solution at zeta = 1, c = 0.03 and its completed kernel."""
    sol = dw.optimal_kernel(dw.alternative_by_name("ramp"), 1.0, 0.03)
    return sol, dw.completed_kernel(sol)


_QUAD_KERNELS = ["gaussian", "epanechnikov", "laplace", "completed"]


# knots 2e308 apart: z - z_0 overflows to inf, so np.interp's slope times it is
# NaN, and np.interp retries from the right knot (then holds a flat piece)
_WIDE = {"wide ramp": [0.0, 1.0], "wide flat": [1.0, 1.0]}


def _quad_kernel(name):
    if name in _WIDE:
        with np.errstate(over="ignore"):
            return dw.tabulated_kernel([-1e308, 1e308], _WIDE[name])
    return _completed_ramp()[1] if name == "completed" else dw.kernel_by_name(name)


def _marks(lo, hi, knots=()):
    """Support ends, knots, signed zeros and non-finite values, with their neighbours."""
    base = [lo, hi, 0.0, *knots]
    near = [float(np.nextafter(m, d)) for m in base for d in (-np.inf, np.inf)]
    return [*base, *near, -0.0, math.nan, -math.nan, math.inf, -math.inf]


def _scalar_points(marks, lo, hi):
    return st.one_of(st.sampled_from(marks), st.floats(lo - 1.0, hi + 1.0), st.floats())


@pytest.mark.parametrize("name", _QUAD_KERNELS + list(_WIDE))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), as_numpy=st.booleans())
def test_scalar_kernel_evaluate_matches_one_element_array(name, data, as_numpy):
    kernel = _quad_kernel(name)
    lo, hi = kernel.support
    knots = kernel.knots_z.tolist() if kernel.family == "tabulated" else ()
    z = data.draw(_scalar_points(_marks(lo, hi, knots), lo, hi))
    z = np.float64(z) if as_numpy else z
    # np.float64 arithmetic warns where the wide spans overflow
    wide = np.errstate(over="ignore", invalid="ignore") if name in _WIDE else nullcontext()
    with wide:
        assert _bits(kernel.evaluate(z)) == _bits(kernel.evaluate(np.array([z]))[0])


@pytest.mark.parametrize("name", _QUAD_KERNELS)
def test_scalar_kernel_evaluate_matches_the_array_on_a_dense_grid(name):
    # math.exp differs from np.exp in the last bit on a few percent of inputs,
    # so a grid this dense catches a scalar branch that swaps them
    kernel = _quad_kernel(name)
    lo, hi = kernel.support
    z = np.linspace(lo - 0.5, hi + 0.5, 4001)
    want = kernel.evaluate(z)
    got = [kernel.evaluate(v) for v in z.tolist()]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]


_SHAPES = {
    **{name: dw.alternative_by_name(name) for name in ("zero", "step", "ramp")},
    "tabulated": tabulated_alternative([0.0, 0.5, 2.0], [1.0, 0.25, 1.5]),
    # a first knot past 0 and a last value of 0, so an infinite x gives inf * 0 = NaN
    "tabulated late": tabulated_alternative([0.2, 0.7, 1.0, 3.0], [0.0, 2.0, 0.5, 0.0]),
}


@settings(max_examples=600, deadline=None)
@given(
    name=st.sampled_from(list(_SHAPES)),
    data=st.data(),
    t_max=st.none() | st.sampled_from([0.5, 1.0, 20.0]),
    as_numpy=st.booleans(),
)
def test_scalar_drift_integral_matches_one_element_array(name, data, t_max, as_numpy):
    m0 = _SHAPES[name]
    knots = m0.knots_t.tolist() if m0.name == "tabulated" else []
    x = data.draw(_scalar_points(_marks(-1.0, 1.0, [1e154, 1e155, *knots]), -3.0, 3.0))
    if t_max is not None:
        m0 = TruncatedAlternative(m0, t_max)
    x = np.float64(x) if as_numpy else x
    # ramp squares x and a tabulated tail multiplies it: np.float64 warns on
    # overflow, and the array branch computes the tail of an infinite x anyway
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(m0.integral(x)) == _bits(m0.integral(np.array([x]))[0])


# The integrands below are the ones the float branches replaced: each point
# went through a 0-d array, which takes the array branch.  They keep their own
# copy of the kernel's kinks in r, so they do not lean on the panels of the
# code under test.


def _kinks(kernel, zeta, s):
    return [s + z / zeta for z in kernel.breakpoints()]


def limit_weight_integral_reference(kernel, zeta, s):
    val = _quad(lambda r: kernel.evaluate(np.asarray(zeta * (r - s))), 0.0, s,
                _kinks(kernel, zeta, s))
    return zeta * val


def _weight_reference(cfg, s):
    return lambda r: cfg.kernel.evaluate(cfg.zeta * (np.asarray(r, dtype=float) - s))


def sigma_k_sq_reference(cfg, s):
    f = _weight_reference(cfg, s)
    breaks = _kinks(cfg.kernel, cfg.zeta, s)

    def inner(v):
        return _quad(lambda u: u * f(u), 0.0, v, breaks)

    num = 2.0 * _quad(lambda v: f(v) * inner(v), 0.0, s, breaks)
    return num / (cfg.zeta * _quad(f, 0.0, s, breaks)) ** 2


def drift_term_reference(cfg, s):
    d, zeta = cfg.drift, cfg.zeta
    off = zeta * d.theta if d.cp_model == "cp2" else 0.0
    f = _weight_reference(cfg, s)
    inner = lambda r: d.m0.integral(zeta * np.asarray(r, dtype=float) - off)  # noqa: E731
    kinks = _kinks(cfg.kernel, zeta, s)
    num = _quad(lambda r: float(f(r)) * float(inner(r)), 0.0, s,
                kinks + [(off + k) / zeta for k in d.m0.knots()])
    return num / (zeta**1.5 * _quad(f, 0.0, s, kinks))


def tau_ratio_reference(kernel, m0, zeta, s_star):
    breaks = _kinks(kernel, zeta, s_star)
    k = lambda r: float(kernel.evaluate(np.asarray(zeta * (r - s_star))))  # noqa: E731
    num = _quad(lambda r: k(r) * float(m0.integral(np.asarray(r))), 0.0, s_star, breaks)
    return num / _quad(k, 0.0, s_star, breaks)


def delay_ratio_reference(m0, s):
    num = _quad(lambda r: float(m0.integral(np.asarray(r))) ** 2, 0.0, s)
    den = _quad(lambda r: float(m0.integral(np.asarray(r))), 0.0, s)
    return num / den


_QUAD_WARNINGS = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


@_QUAD_WARNINGS
@pytest.mark.parametrize("name", _QUAD_KERNELS)
@pytest.mark.parametrize("zeta", [1.0, 2.0, 10.0])
def test_limit_weight_and_variance_match_the_array_integrands(name, zeta):
    kernel = _quad_kernel(name)
    for s in (0.3, 1.0):
        assert _bits(dw.limit_weight_integral(kernel, zeta, s)) == _bits(
            limit_weight_integral_reference(kernel, zeta, s))
    if name != "completed":  # the nested rule takes minutes on 1001 knots
        cfg = dw.LimitConfig(zeta=zeta, kernel=kernel)
        assert _bits(dw.sigma_k_sq(cfg, 1.0)) == _bits(sigma_k_sq_reference(cfg, 1.0))


@_QUAD_WARNINGS
@pytest.mark.parametrize("name", _QUAD_KERNELS)
@pytest.mark.parametrize("m0", ["zero", "step", "ramp"])
@pytest.mark.parametrize("cp", [("cp1", None), ("cp2", 0.4)])
def test_drift_term_matches_the_array_integrand(name, m0, cp):
    kernel = _quad_kernel(name)
    drift = dw.LimitDrift(dw.alternative_by_name(m0), *cp)
    for zeta in (1.0, 4.0):
        cfg = dw.LimitConfig(zeta=zeta, kernel=kernel, drift=drift)
        for s in (0.5, 1.0):
            assert _bits(dw.drift_term(cfg, s)) == _bits(drift_term_reference(cfg, s))


@_QUAD_WARNINGS
@pytest.mark.parametrize("shape", ["tabulated", "tabulated late"])
def test_tabulated_shape_quadratures_match_the_array_integrands(shape):
    m0 = _SHAPES[shape]
    trunc = TruncatedAlternative(m0, 1.5)
    for name in ("gaussian", "laplace", "completed"):
        kernel = _quad_kernel(name)
        cfg = dw.LimitConfig(zeta=2.0, kernel=kernel, drift=dw.LimitDrift(m0, "cp1"))
        assert _bits(dw.drift_term(cfg, 0.7)) == _bits(drift_term_reference(cfg, 0.7))
        for shape_ in (m0, trunc):
            assert _bits(dw.tau_ratio(kernel, shape_, 1.0, 0.6)) == _bits(
                tau_ratio_reference(kernel, shape_, 1.0, 0.6))
    for shape_ in (m0, trunc):
        assert _bits(_delay_ratio(shape_, 0.8)) == _bits(delay_ratio_reference(shape_, 0.8))


@_QUAD_WARNINGS
@pytest.mark.parametrize("name", _QUAD_KERNELS)
def test_tau_and_delay_ratios_match_the_array_integrands(name):
    sol, _ = _completed_ramp()
    kernel = _quad_kernel(name)
    trunc = TruncatedAlternative(dw.alternative_by_name("ramp"), sol.t_max)
    for m0 in (trunc, dw.alternative_by_name("step")):
        assert _bits(dw.tau_ratio(kernel, m0, 1.0, sol.s_star)) == _bits(
            tau_ratio_reference(kernel, m0, 1.0, sol.s_star))
        for s in (sol.s_star, 1.0):
            assert _bits(_delay_ratio(m0, s)) == _bits(delay_ratio_reference(m0, s))
