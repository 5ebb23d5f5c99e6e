import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import driftwatch as dw
from driftwatch import estimator, variance
from driftwatch.monitor import MonitoringError

G = dw.gaussian_kernel()
# a valid kernel with K(0) = 0: at unit spacing and h = 1 the weights vanish at index 1 only
K0 = dw.tabulated_kernel([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0])


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
    series = dw.generate(dw.SeriesSpec(N=60), 6)
    cfg = config(60, h=10.0, c=0.1, variance="naive")
    batch = dw.run_monitor(series, cfg)
    assert batch.alarmed and batch.alarm_index > 11
    stream = dw.StreamMonitor(cfg)
    records = list(zip(series.times, series.values))
    alarm = None
    for i, (t, y) in enumerate(records):
        if i == 10:
            for bad in ((t, np.nan), (np.inf, y), (records[i - 1][0], y)):
                with pytest.raises(ValueError):
                    stream.update(*bad)
            assert stream.n == 10
        alarm = stream.update(t, y)
        if alarm is not None:
            break
    assert alarm["index"] == batch.alarm_index


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
