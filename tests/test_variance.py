import numpy as np
import pytest

import driftwatch as dw
from driftwatch.variance import DegenerateVarianceError, running_estimates


def series_from(values):
    values = np.asarray(values, dtype=float)
    return dw.TimeSeries(times=np.arange(1.0, len(values) + 1.0), values=values)


def test_naive_examples():
    assert dw.naive_var(series_from([0, 1, 2, 3])) == pytest.approx(1.0)
    assert dw.naive_var(series_from(np.zeros(6))) == 0.0
    assert dw.naive_var(series_from([0, 1, 3, 6])) == pytest.approx(14 / 3)


def test_gasser_examples():
    # linear drift annihilated
    assert dw.gasser_var(series_from(np.arange(10) * 0.7 + 2)) == pytest.approx(0.0, abs=1e-24)
    assert dw.gasser_var(series_from(np.zeros(8))) == 0.0


def test_rice_examples():
    assert dw.rice_var(series_from(np.arange(9) * 1.3)) == pytest.approx(0.0, abs=1e-24)
    assert dw.rice_var(series_from([0, 1, 3, 6])) == pytest.approx(0.5)


def test_large_sample_unbiasedness():
    n = 100_000
    rng = np.random.default_rng(21)
    y = np.cumsum(rng.standard_normal(n))
    s = series_from(y)
    assert dw.naive_var(s) == pytest.approx(1.0, rel=0.03)
    assert dw.gasser_var(s) == pytest.approx(1.0, rel=0.03)
    assert dw.rice_var(s) == pytest.approx(1.0, rel=0.03)


def test_difference_estimators_ignore_constant_drift():
    # increments u + 0.5: the naive estimate absorbs the squared drift
    n = 100_000
    rng = np.random.default_rng(22)
    y = np.cumsum(rng.standard_normal(n) + 0.5)
    s = series_from(y)
    assert dw.gasser_var(s) == pytest.approx(1.0, rel=0.03)
    assert dw.rice_var(s) == pytest.approx(1.0, rel=0.03)
    assert dw.naive_var(s) > 1.0 + 0.25 * 0.9


def test_minimum_sample_sizes():
    s = series_from([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        dw.naive_var(s, 1)
    with pytest.raises(ValueError):
        dw.rice_var(s, 2)
    with pytest.raises(ValueError):
        dw.gasser_var(s, 3)


def test_shift_invariance_and_scale():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(64)
    for fn in (dw.naive_var, dw.gasser_var, dw.rice_var):
        base = fn(series_from(y))
        assert fn(series_from(y + 17.3)) == pytest.approx(base, rel=1e-12)
        assert fn(series_from(y * 3.0)) == pytest.approx(base * 9.0, rel=1e-12)


def test_estimate_variance_dispatch():
    s = series_from([0, 1, 3, 6, 10])
    est = dw.estimate_variance(s, "rice")
    assert est.method == "rice"
    assert est.n_used == 5
    with pytest.raises(ValueError):
        dw.estimate_variance(s, "bogus")
    # n past the series end is out of range, as in nw_estimate
    with pytest.raises(ValueError, match="^rice variance needs 3 <= n <= 5, got 6$"):
        dw.estimate_variance(s, "rice", 6)


def test_nuisance_free():
    est = dw.VarianceEstimate(method="naive", value=4.0, n_used=10)
    assert dw.nuisance_free(2.0, est) == pytest.approx(1.0)
    assert dw.nuisance_free(0.0, est) == 0.0
    assert dw.nuisance_free(0.05, dw.VarianceEstimate("naive", 0.25, 10)) == pytest.approx(0.1)
    with pytest.raises(DegenerateVarianceError, match="^variance estimate is zero at index 10$") as err:
        dw.nuisance_free(1.0, dw.VarianceEstimate("naive", 0.0, 10))
    assert err.value.index == 10
    # a Python float with the bits of statistic / np.sqrt(value)
    rng = np.random.default_rng(5)
    for stat, value in zip(rng.standard_normal(200).tolist(), rng.exponential(size=200).tolist()):
        got = dw.nuisance_free(stat, dw.VarianceEstimate("naive", value, 3))
        assert type(got) is float and got == stat / np.sqrt(value)


@pytest.mark.parametrize("method,min_n", [("naive", 2), ("gasser", 4), ("rice", 3)])
def test_running_matches_batch(method, min_n):
    rng = np.random.default_rng(31)
    y = np.cumsum(rng.standard_normal(40))
    s = series_from(y)
    fn = {"naive": dw.naive_var, "gasser": dw.gasser_var, "rice": dw.rice_var}[method]
    running = running_estimates(y, method)
    for n in range(1, 41):
        if n < min_n:
            assert np.isnan(running[n - 1])
        else:
            assert running[n - 1] == pytest.approx(fn(s, n), rel=1e-12)


def test_running_with_prerun_seed():
    rng = np.random.default_rng(32)
    pre = rng.standard_normal(9)  # increments of a prerun segment
    y = np.cumsum(rng.standard_normal(20))
    running = running_estimates(y, "naive", pre)
    # defined from the very first index using the prerun increments alone
    assert running[0] == pytest.approx(np.mean(pre**2))
    d = np.diff(y[:5])
    oracle = (np.sum(pre**2) + np.sum(d**2)) / (len(pre) + len(d))
    assert running[4] == pytest.approx(oracle, rel=1e-12)
    # gasser: prerun contributes its interior pseudo-residuals
    g = running_estimates(y, "gasser", pre)
    eps = 0.5 * pre[:-2] + 0.5 * pre[2:] - pre[1:-1]
    assert g[0] == pytest.approx((2 / 3) * np.mean(eps**2), rel=1e-12)
