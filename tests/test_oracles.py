"""Bitwise oracles for the finite-sample Monte Carlo path.

The references below are the per-method running variance, the per-cell
Brownian-bridge loop, the numpy-scalar GARCH(1,1) and AR(1) recursions and
calibration's own trajectory builder that the table-driven
``running_estimates``, the vectorized ``_brownian_paths``, the Python-float
loops in ``seriesgen`` and the monitor's ``chart`` at threshold +inf
replaced.  All must agree with them bit for bit, since seeded draws and
calibration results are part of the numeric contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftwatch as dw
from driftwatch.calibration import _brownian_paths, _null_walks
from driftwatch.estimator import _process_parts, check_weights, scaling_factor
from driftwatch.monitor import chart
from driftwatch.seriesgen import GARCH_BURN_IN
from driftwatch.variance import check_variance, running_estimates


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


def test_finite_calibration_rejects_a_start_fraction_the_monitor_rejects():
    # the replicate chart is a MonitorConfig, so its start fraction is validated
    variant = dw.FiniteSampleVariant(N=50, h=5.0, start_fraction=1.5)
    with pytest.raises(ValueError, match="start_fraction"):
        dw.arl_curve(variant, dw.gaussian_kernel(), np.array([0.1, 0.2]), 100, 1)
