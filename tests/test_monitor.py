import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import driftwatch as dw
from driftwatch import estimator, monitor, variance
from driftwatch.monitor import MonitoringError

G = dw.gaussian_kernel()
# a valid kernel with K(0) = 0: at unit spacing and h = 1 the weights vanish at index 1 only
K0 = dw.tabulated_kernel([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0])


def test_tiny_bandwidth_on_irregular_times_does_not_overflow():
    # (t_i - t_n) / h reaches 8.5e160, which the Gaussian formula would square
    series = dw.TimeSeries(times=np.array([1.0, 2.5, 3.0, 7.0, 9.5]), values=np.zeros(5))
    cfg = dw.MonitorConfig(smoother=dw.SmootherConfig(kernel=G, h=1e-160), threshold=1.0, N=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = dw.run_monitor(series, cfg)
    assert not res.alarmed and res.trajectory.tolist() == [0.0] * 5


def make_series(values):
    values = np.asarray(values, dtype=float)
    return dw.TimeSeries(times=np.arange(1.0, len(values) + 1.0), values=values)


def config(N, h=10.0, c=0.1, a=0.0, variance=None, scaling="null_scale"):
    return dw.MonitorConfig(
        smoother=dw.SmootherConfig(kernel=G, h=h, scaling=scaling),
        threshold=c,
        N=N,
        start_fraction=a,
        variance_method=variance,
    )


def test_first_crossings_is_the_first_index_above_each_threshold():
    # the loop it replaces: the first j >= start with values[j - 1] > c, else 0
    rng = np.random.default_rng(5)
    values = rng.standard_normal((6, 40))
    values[rng.random(values.shape) < 0.2] = np.nan
    values[rng.random(values.shape) < 0.2] = -np.inf
    values[0, 7] = np.inf
    c_grid = [-np.inf, -1.0, 0.0, 0.5, 1.5, 2.5, np.inf]
    for start in (1, 2, 13, 40):
        want = [[next((j for j in range(start, 41) if row[j - 1] > c), 0) for c in c_grid]
                for row in values]
        assert monitor.first_crossings(values.copy(), c_grid, start).tolist() == want
        assert monitor.first_crossings(values[1].copy(), c_grid, start).tolist() == want[1]


def test_truncation_on_zero_series():
    res = dw.run_monitor(make_series(np.zeros(30)), config(30, c=1.0))
    assert not res.alarmed
    assert res.alarm_index == 30
    assert res.normed_time == 1.0


def test_immediate_alarm():
    y = np.zeros(20)
    y[0] = 1e9
    res = dw.run_monitor(make_series(y), config(20, c=0.0))
    assert res.alarmed and res.alarm_index == 1


def test_alarm_matches_brute_force_scan():
    series = dw.generate(dw.SeriesSpec(N=20), 77)
    cfg = config(20, h=10.0, c=0.1)
    res = dw.run_monitor(series, cfg)
    scale = dw.scaling_factor(cfg.smoother, 20)
    oracle = 20
    alarmed = False
    for n in range(1, 21):
        if dw.nw_estimate(series, cfg.smoother, n) * scale > 0.1:
            oracle, alarmed = n, True
            break
    assert res.alarm_index == oracle
    assert res.alarmed == alarmed
    if alarmed:
        assert res.trajectory[res.alarm_index - 1] > 0.1
        assert not np.any(res.trajectory[: res.alarm_index - 1] > 0.1)


def test_alarm_index_monotone_in_threshold():
    series = dw.generate(dw.SeriesSpec(N=100), 5)
    last = 0
    for c in np.linspace(-0.5, 0.5, 11):
        res = dw.run_monitor(series, config(100, h=25.0, c=float(c)))
        assert res.alarm_index >= last
        last = res.alarm_index


def test_delayed_start_dominance():
    series = dw.generate(dw.SeriesSpec(N=100), 41)
    base = dw.run_monitor(series, config(100, h=25.0, c=-1e9, a=0.0))
    delayed = dw.run_monitor(series, config(100, h=25.0, c=-1e9, a=0.2))
    assert base.alarm_index == 1
    assert delayed.alarm_index == 20
    assert delayed.alarm_index >= base.alarm_index


def test_variance_eligibility_skips_undefined_indices():
    y = np.zeros(30)
    y[1] = 1e9  # would alarm at n = 2 without standardization
    y[2:] = np.linspace(1, 2, 28)
    res = dw.run_monitor(make_series(y), config(30, c=0.0, variance="gasser"))
    assert res.alarm_index >= 4  # gasser undefined below n = 4


def test_unknown_variance_method_is_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown variance method 'bogus'"):
        dw.MonitorConfig(dw.SmootherConfig(G, 5.0), 0.5, 30, variance_method="bogus")


def test_zero_variance_errors():
    with pytest.raises(MonitoringError):
        dw.run_monitor(make_series(np.ones(10)), config(10, c=100.0, variance="naive"))


def test_standardized_trajectory_is_scale_free():
    series = dw.generate(dw.SeriesSpec(N=500), 13)
    doubled = dw.TimeSeries(times=series.times, values=2.0 * series.values)
    cfg = config(500, h=100.0, c=0.2, variance="naive")
    a = dw.run_monitor(series, cfg)
    b = dw.run_monitor(doubled, cfg)
    mask = np.isfinite(a.trajectory)
    assert np.allclose(a.trajectory[mask], b.trajectory[mask], rtol=1e-10)
    assert a.alarm_index == b.alarm_index


def test_prerun_seeds_variance():
    series = dw.generate(dw.SeriesSpec(N=30), 3)
    prerun = dw.generate(dw.SeriesSpec(N=10), 4)
    cfg = config(30, c=1e9, variance="naive")
    res = dw.run_monitor(series, cfg, prerun=prerun)
    # with a prerun the statistic is standardized from the very first index
    assert np.isfinite(res.trajectory[0])
    res_bare = dw.run_monitor(series, cfg)
    assert not np.isfinite(res_bare.trajectory[0])


def test_confidence_interval_arithmetic():
    sigma_k = np.sqrt(0.1242)
    lo, hi = dw.confidence_interval(0.0, sigma_k, 1.0, 50.0, 100, 0.05)
    z = norm.ppf(0.975)
    half = z * sigma_k * 1.0 * 100**1.5 / 50.0
    assert hi == pytest.approx(half, rel=1e-12)
    assert lo == pytest.approx(-half, rel=1e-12)


def test_confidence_interval_collapses():
    lo, hi = dw.confidence_interval(1.5, 0.5, 1.0, 10.0, 100, 1 - 1e-12)
    assert hi - lo < 1e-6
    assert lo == pytest.approx(1.5, abs=1e-6)


def test_confidence_interval_validation():
    with pytest.raises(ValueError):
        dw.confidence_interval(0.0, 0.5, 1.0, 10.0, 100, 1.5)
    with pytest.raises(ValueError):
        dw.confidence_interval(0.0, -0.5, 1.0, 10.0, 100, 0.05)


def test_false_alarm_rate_extremes():
    cfg = config(50, h=25.0, c=1e9)
    assert dw.false_alarm_rate(cfg, 50, 50, 1) == 0.0
    cfg = config(50, h=25.0, c=-1e9)
    assert dw.false_alarm_rate(cfg, 50, 50, 1) == 1.0


def test_false_alarm_rate_places_a_fixed_design_by_the_horizon():
    # the rate is the share of replicate charts above c at n, as the monitor computes them
    N, n, reps, seed, c = 80, 40, 400, 3, 0.05
    smoother = dw.SmootherConfig(kernel=G, h=6.0, scaling="null_scale",
                                 design=dw.TimeDesign(gamma=0.5, mode="fixed"))
    cfg = dw.MonitorConfig(smoother=smoother, threshold=c, N=N)
    charts = [monitor.monitor_trajectory(dw.generate(dw.SeriesSpec(N=N), dw.substream(seed, i)),
                                         cfg)[0][n - 1] for i in range(reps)]
    assert dw.false_alarm_rate(cfg, n, reps, seed) == np.mean(np.array(charts) > c)


def test_false_alarm_rate_standardizes_by_the_variance_estimate():
    # the rate is the share of standardized replicate statistics above c at n, as a hand loop
    # over the series, its running estimate, the smoother and the scaling computes it
    cfg, n, reps, seed = config(60, h=10.0, c=0.05, variance="naive"), 30, 200, 4
    scale = dw.scaling_factor(cfg.smoother, cfg.N)
    hits = 0
    for i in range(reps):
        series = dw.generate(dw.SeriesSpec(N=cfg.N), dw.substream(seed, i))
        est = dw.running_estimates(series.values[:n], "naive")[n - 1]
        stat = variance.standardized(dw.nw_estimate(series, cfg.smoother, n), scale, est, n)
        hits += stat > cfg.threshold
    rate = dw.false_alarm_rate(cfg, n, reps, seed)
    assert 0.0 < rate < 1.0 and rate == hits / reps
    # at n = 1 the estimate is undefined in every replicate: all are skipped
    assert dw.false_alarm_rate(config(60, c=-1e9, variance="naive"), 1, 20, seed) == 0.0


def test_false_alarm_rate_decreases_with_horizon():
    # at fixed zeta and fixed c the early-index rate shrinks as N grows:
    # the discrete walk's inflation of the statistic variance fades like 1/n
    zeta = 2.0
    c = float(np.sqrt(dw.sigma_k_sq(dw.LimitConfig(zeta=zeta, kernel=G), 0.1)))
    reps = 20_000
    r100 = dw.false_alarm_rate(config(100, h=50.0, c=c), 10, reps, 99)
    r400 = dw.false_alarm_rate(config(400, h=200.0, c=c), 40, reps, 99)
    assert r100 > r400


def test_stream_monitor_matches_batch():
    series = dw.generate(dw.SeriesSpec(N=40), 8)
    cfg = config(40, h=10.0, c=0.05)
    batch = dw.run_monitor(series, cfg)
    stream = dw.StreamMonitor(cfg)
    alarm = None
    for t, y in zip(series.times, series.values):
        rec = stream.update(float(t), float(y))
        if rec is not None:
            alarm = rec
            break
    if batch.alarmed:
        assert alarm is not None
        assert alarm["index"] == batch.alarm_index
        assert alarm["statistic"] == pytest.approx(
            batch.trajectory[batch.alarm_index - 1], rel=1e-12
        )
    else:
        assert alarm is None
        assert stream.truncation_record()["alarmed"] is False


@pytest.mark.parametrize("layout", ["unit, naive, prerun", "unit, no variance", "irregular",
                                    "fixed design", "rolling design", "gasser, N ineligible"])
def test_stream_truncation_statistic_is_the_chart_at_the_horizon(layout):
    # the last update's own statistic (alarming at threshold -inf), bit for bit, and the
    # batch chart's value at N up to the rounding of its matrix products
    N, h, method, design, prerun = 100, 8.0, "naive", None, None  # a full window from 65 on
    times = np.arange(1.0, N + 1.0)
    if layout == "unit, naive, prerun":
        prerun = dw.generate(dw.SeriesSpec(N=9), 4)
    elif layout == "unit, no variance":
        method = None
    elif layout == "irregular":
        times = np.cumsum(np.random.default_rng(2).uniform(0.5, 1.5, N))
    elif layout == "gasser, N ineligible":
        N, method = 3, "gasser"  # defined from index 4 on
        times = times[:N]
    else:
        design = dw.TimeDesign(gamma=2.0, mode=layout.split()[0])
    values = dw.generate(dw.SeriesSpec(N=N), 11).values
    smoother = dw.SmootherConfig(dw.gaussian_kernel(), h, "null_scale", design=design)
    cfg = dw.MonitorConfig(smoother, np.inf, N, 0.0, method)
    stream, last = dw.StreamMonitor(cfg, prerun), dw.StreamMonitor(cfg, prerun)
    for t, y in zip(times, values):
        stream.update(t, y)
    for t, y in zip(times[:-1], values[:-1]):
        last.update(t, y)
    last.cfg = dataclasses.replace(cfg, threshold=-np.inf)
    alarm = last.update(times[-1], values[-1])
    got = stream.truncation_record()
    assert (got["alarmed"], got["index"], got["time"]) == (False, N, times[-1])
    want = monitor.monitor_trajectory(dw.TimeSeries(times, values), cfg, prerun)[0][N - 1]
    if layout == "gasser, N ineligible":
        assert alarm is None and got["statistic"] is None and np.isnan(want)
        return
    assert got["statistic"] == alarm["statistic"]
    assert got["statistic"] == pytest.approx(want, rel=1e-12)


def test_stream_update_work_is_bounded_by_the_kernel_support(monkeypatch):
    # counts, not timing: on unit-spaced times the monitor evaluates the kernel
    # once, on its lag template; irregular times and a fixed design evaluate it
    # on the support window of each update, the fixed design on its own time
    # points; no update recomputes the running variance over the prefix
    N, h = 5000, 5.0
    series = dw.generate(dw.SeriesSpec(N=N), 12)
    irregular = np.cumsum(np.random.default_rng(12).uniform(0.5, 1.5, N))
    fixed = dw.TimeDesign(gamma=2.0, mode="fixed")
    sizes, running_calls = [], []
    evaluate, running = dw.KernelSpec.evaluate, variance.running_estimates

    def counting_evaluate(self, z):
        sizes.append(np.size(z))
        return evaluate(self, z)

    def counting_running(*args, **kwargs):
        running_calls.append(np.size(args[0]))
        return running(*args, **kwargs)

    monkeypatch.setattr(dw.KernelSpec, "evaluate", counting_evaluate)
    monkeypatch.setattr(monitor, "running_estimates", counting_running)
    monkeypatch.setattr(variance, "running_estimates", counting_running)
    # layout -> (times, design, evaluate calls: the template's, then one per
    # update from index 2 on, where the variance estimate is first defined)
    layouts = {"unit": (series.times, None, 1), "irregular": (irregular, None, 1 + N - 1),
               "fixed design": (series.times, fixed, N - 1)}
    for times, design, calls in layouts.values():
        cfg = config(N, h=h, c=np.inf, variance="naive")
        cfg = dataclasses.replace(cfg, smoother=dataclasses.replace(cfg.smoother, design=design))
        t = times if design is None else dw.design_times(design, N, N)
        # the most records within the support, 8h, of any anchor
        window = np.arange(1, N + 1) - np.searchsorted(t, t - dw.kernels.GAUSSIAN_TRUNCATION * h)
        sizes.clear()
        stream = dw.StreamMonitor(cfg)
        for record in zip(times.tolist(), series.values.tolist()):
            stream.update(*record)
        assert stream.n == N and len(sizes) == calls
        assert max(sizes) <= window.max() + 1 <= 100
    assert running_calls == []


def test_stream_steady_state_takes_no_window_weights(monkeypatch):
    # on unit-spaced times the full window's weights and their sum are taken
    # once: window_mean runs only until the window first fills, and after a
    # gap until the run holds the window and the record before it again; the
    # first full window's sum is checked there, and the held one equals it
    N, h, gap = 5000, 5.0, 100
    L = int(dw.kernels.GAUSSIAN_TRUNCATION * h) + 1  # 41 records
    times = np.arange(1.0, N + 1.0)
    times[gap - 1 :] += 1.0  # a step of 2 into index gap, past index L
    values = dw.generate(dw.SeriesSpec(N=N), 12).values
    indices, window_mean = [], monitor.window_mean

    def counting_window_mean(t, values, n, *args):
        indices.append(n)
        return window_mean(t, values, n, *args)

    monkeypatch.setattr(monitor, "window_mean", counting_window_mean)
    stream = dw.StreamMonitor(config(N, h=h, c=np.inf))
    for record in zip(times.tolist(), values.tolist()):
        stream.update(*record)
    assert stream.n == N
    assert indices == [*range(1, L + 1), *range(gap, gap + L + 1)]


def test_stream_monitor_rejects_nonincreasing_times():
    stream = dw.StreamMonitor(config(10, c=1.0))
    stream.update(1.0, 0.0)
    with pytest.raises(ValueError):
        stream.update(1.0, 0.0)


def test_short_series_rejected():
    with pytest.raises(ValueError):
        dw.run_monitor(make_series(np.zeros(5)), config(10))


def test_one_error_type_under_every_name():
    assert dw.DriftwatchError is estimator.DegenerateWeightsError
    assert dw.DriftwatchError is variance.DegenerateVarianceError
    assert dw.DriftwatchError is MonitoringError
    assert issubclass(dw.DriftwatchError, ValueError)


def test_rejected_stream_record_leaves_monitor_unchanged():
    for kernel, irregular in ((G, False), (G, True), (K0, True)):
        _check_rejected_records_leave_no_trace(kernel, irregular)


def _check_rejected_records_leave_no_trace(kernel, irregular):
    # every record after the rejected ones gets what a monitor that never saw
    # them gives; under K0 a record 30 past the last one has no weight within
    # the support, 2h, so it raises, and a monitor that kept its window start
    # would bisect past the window of the record after it
    series = dw.generate(dw.SeriesSpec(N=60), 6)
    times = series.times
    if irregular:
        times = np.cumsum(np.random.default_rng(6).uniform(0.5, 1.5, 60))
    cfg = config(60, h=10.0, c=0.1, variance="naive")
    cfg = dataclasses.replace(cfg, smoother=dataclasses.replace(cfg.smoother, kernel=kernel))
    batch = dw.run_monitor(dw.TimeSeries(times, series.values), cfg)
    assert batch.alarmed and batch.alarm_index > 11
    stream, clean = dw.StreamMonitor(cfg), dw.StreamMonitor(cfg)
    records = list(zip(times.tolist(), series.values.tolist()))
    alarm = None
    for i, (t, y) in enumerate(records):
        if i == 10:
            for bad in ((t, np.nan), (np.inf, y), (records[i - 1][0], y)):
                with pytest.raises(ValueError):
                    stream.update(*bad)
            if kernel is K0:
                with pytest.raises(dw.DriftwatchError) as exc:
                    stream.update(t + 30.0, y)
                assert exc.value.index == 11
            assert stream.n == 10
        alarm = stream.update(t, y)
        assert alarm == clean.update(t, y)
        if alarm is not None:
            break
    assert alarm["index"] == batch.alarm_index


def test_rejected_records_on_the_held_weights_path_leave_no_trace():
    # unit times at N = 200, h = 5: the Gaussian window of 8h + 1 = 41 records
    # fills at index 41, and the held weights serve the unit steps after it.
    # Record 61 comes half a step after record 60, so the run restarts at record
    # 62 and the held weights take over again once it holds the window, from
    # index 103 on.  Bad records arrive in the steady state, at the half step
    # and after the held weights are back; at threshold -inf every eligible
    # index alarms, and clearing ``alarmed`` lets each statistic be compared.
    N = 200
    values = dw.generate(dw.SeriesSpec(N=N), 6).values.tolist()
    times = [float(i) for i in range(1, 61)] + [60.5] + [float(i) for i in range(61, N)]
    cfg = config(N, h=5.0, c=-np.inf, variance="naive")
    stream, clean = dw.StreamMonitor(cfg), dw.StreamMonitor(cfg)
    for i, (t, y) in enumerate(zip(times, values)):
        if i in (50, 60, 102, 103, 150):
            kept = (stream.n, stream.times, stream.values)
            for bad in ((t, np.nan), (np.inf, y), (times[i - 1], y)):
                with pytest.raises(ValueError):
                    stream.update(*bad)
                assert (stream.n, stream.times, stream.values) == kept
        record = stream.update(t, y)
        assert record == clean.update(t, y) and (record is None) == (i == 0)
        stream.alarmed = clean.alarmed = False
    assert stream.n == N


def test_a_held_weight_sum_of_zero_raises_at_every_attempt():
    # K0 at h = 0.5 gives every integer lag weight 0, so the full window's held
    # sum is exactly 0; the first eligible index, floor(N/2), raises as it does in
    # run_monitor at every attempt, and the monitor keeps its state
    N = 200
    assert K0.evaluate(-np.arange(3.0) / 0.5).sum() == 0.0
    series = dw.generate(dw.SeriesSpec(N=N), 6)
    cfg = dw.MonitorConfig(smoother=dw.SmootherConfig(kernel=K0, h=0.5), threshold=0.1, N=N,
                           start_fraction=0.5)
    with pytest.raises(dw.DriftwatchError) as batch:
        dw.run_monitor(series, cfg)
    assert batch.value.index == N // 2
    stream = dw.StreamMonitor(cfg)
    records = list(zip(series.times.tolist(), series.values.tolist()))
    for record in records[: N // 2 - 1]:
        assert stream.update(*record) is None
    kept = (stream.n, stream.times, stream.values)
    for _ in range(3):
        with pytest.raises(dw.DriftwatchError) as exc:
            stream.update(*records[N // 2 - 1])
        assert exc.value.index == batch.value.index
        assert (stream.n, stream.times, stream.values) == kept


def test_degenerate_stream_record_is_not_kept():
    # K(0) = 0 at h = 1: index 1 has no weight, so the chart cannot pass it
    cfg = dw.MonitorConfig(smoother=dw.SmootherConfig(kernel=K0, h=1.0), threshold=0.1, N=10)
    with pytest.raises(dw.DriftwatchError) as first:
        dw.run_monitor(make_series(np.zeros(10)), cfg)
    stream = dw.StreamMonitor(cfg)
    for t in (1.0, 2.0):
        with pytest.raises(dw.DriftwatchError) as exc:
            stream.update(t, 0.0)
        assert exc.value.index == first.value.index == 1
        assert (stream.n, stream.times, stream.values) == (0, [], [])


def _batch_ending(series, cfg, prerun):
    try:
        res = dw.run_monitor(series, cfg, prerun)
    except dw.DriftwatchError as exc:
        return ("error", exc.index)
    return ("alarm", res.alarm_index) if res.alarmed else ("truncated", cfg.N)


def _stream_ending(series, cfg, prerun):
    mon = dw.StreamMonitor(cfg, prerun)
    try:
        for t, y in zip(series.times, series.values):
            record = mon.update(t, y)
            if record is not None:
                return ("alarm", record["index"])
    except dw.DriftwatchError as exc:
        return ("error", exc.index)
    return ("truncated", cfg.N)


_STRETCHES = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 8), st.booleans()), min_size=1, max_size=5
)


def _stretched(stretches, seed):
    """Concatenated stretches: constant at a level, or a walk started at it."""
    rng = np.random.default_rng(seed)
    parts = [level + (np.cumsum(rng.standard_normal(n)) if walk else np.zeros(n))
             for level, n, walk in stretches]
    return make_series(np.concatenate(parts))


@settings(max_examples=150, deadline=None)
@given(
    kernel=st.sampled_from([G, dw.epanechnikov_kernel(), K0]),
    h=st.sampled_from([0.5, 1.0, 2.0, 6.0]),
    # off the grid of values integer-level data produce, so no float tie
    c=st.integers(-12, 12).map(lambda k: k / 4 + 0.0123),
    method=st.sampled_from([None, "naive", "rice", "gasser"]),
    prerun=st.none() | _STRETCHES,
    a=st.sampled_from([0.0, 0.2, 0.5]),
    stretches=_STRETCHES,
    seed=st.integers(0, 2**16),
)
@example(kernel=K0, h=1.0, c=100.0123, method=None, prerun=None, a=0.5,
         stretches=[(0, 12, True)], seed=1)
def test_batch_and_stream_end_the_same_way(kernel, h, c, method, prerun, a, stretches, seed):
    series = _stretched(stretches, seed)
    pre = None if prerun is None else _stretched(prerun, seed + 1)
    cfg = dw.MonitorConfig(smoother=dw.SmootherConfig(kernel=kernel, h=h), threshold=c,
                           N=len(series), start_fraction=a, variance_method=method)
    assert _batch_ending(series, cfg, pre) == _stream_ending(series, cfg, pre)
