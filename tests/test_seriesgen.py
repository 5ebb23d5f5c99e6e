import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import integrate

import driftwatch as dw


def step_drift(beta=0.0, cp="cp1", q=5, theta=None, h_link=10.0):
    return dw.DriftSpec(
        m0=dw.alternative_by_name("step"), beta=beta, cp_model=cp, q=q, theta=theta,
        h_link=h_link,
    )


def test_drift_value_examples():
    zero = dw.DriftSpec(m0=dw.alternative_by_name("zero"), beta=0.0, cp_model="cp1", q=1)
    assert dw.drift_value(zero, 123.0) == 0.0
    d = step_drift(beta=0.0, q=5, h_link=10.0)
    assert dw.drift_value(d, 15.0) == pytest.approx(1.0)
    ramp = dw.DriftSpec(m0=dw.alternative_by_name("ramp"), beta=-0.5, cp_model="cp1", q=1,
                        h_link=100.0)
    # m0(0.5) * 100^{-1/2} = 0.05, with the change at t_q = 0 emulated by q=1, t=51
    assert dw.drift_value(ramp, 51.0) == pytest.approx(0.5 * 0.1)


def test_drift_value_zero_before_change():
    d = step_drift(q=7)
    for t in np.linspace(-3, 7, 21):
        assert dw.drift_value(d, float(t)) == 0.0


def test_change_point_index():
    cp2 = dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.0, cp_model="cp2", theta=0.25)
    assert dw.change_point_index(cp2, 100) == 25
    cp1 = step_drift(q=7)
    assert dw.change_point_index(cp1, 10) == 7
    assert dw.change_point_index(cp1, 10_000) == 7
    late = dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.0, cp_model="cp2", theta=0.999)
    assert dw.change_point_index(late, 10) == 9


def test_cp2_needs_horizon():
    d = dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.0, cp_model="cp2", theta=0.5)
    with pytest.raises(ValueError):
        dw.drift_value(d, 3.0)


def test_generate_deterministic():
    spec = dw.SeriesSpec(N=64)
    a = dw.generate(spec, 42)
    b = dw.generate(spec, 42)
    c = dw.generate(spec, 43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_null_increments_equal_innovation_stream():
    garch = dw.InnovationSpec(family="garch11", sigma=1.3, garch_alpha0=0.1, garch_alpha1=0.1,
                              garch_beta1=0.8)
    for innovations in (dw.InnovationSpec(), garch):
        series = dw.generate(dw.SeriesSpec(N=128, innovations=innovations), 7)
        u = dw.draw_innovations(innovations, 128, 7)
        # the null walk is exactly the running sum of the raw innovation stream
        assert np.array_equal(series.values, np.cumsum(u))
        increments = np.diff(np.concatenate([[0.0], series.values]))
        assert np.allclose(increments, u, atol=1e-12, rtol=0)


def test_ar1_null_follows_the_recursion_exactly():
    a, sigma, N, seed = -0.7, 2.0, 200, 9
    innovations = dw.InnovationSpec(family="ar1", sigma=sigma, ar_a=a)
    y = dw.generate(dw.SeriesSpec(N=N, innovations=innovations), seed).values
    ar_seq, inno_seq = np.random.SeedSequence(seed).spawn(2)
    u = dw.draw_innovations(innovations, N, inno_seq)
    y0 = float(np.random.default_rng(ar_seq).standard_normal() * sigma / np.sqrt(1.0 - a * a))
    assert y[0] == a * y0 + u[0]
    assert np.array_equal(y[1:], a * y[:-1] + u[1:])


def test_ar1_autocovariance():
    a, sigma, n = 0.5, 1.0, 100_000
    spec = dw.SeriesSpec(N=n, innovations=dw.InnovationSpec(family="ar1", sigma=sigma, ar_a=a))
    y = dw.generate(spec, 123).values
    y = y - y.mean()
    target = lambda k: sigma**2 * a**k / (1 - a * a)
    for k in (0, 1, 2):
        sample = np.mean(y[: n - k] * y[k:])
        assert sample == pytest.approx(target(k), rel=0.05)


def test_null_walk_functional_clt():
    # Var(N^{-1/2} Y_{floor(N r)}) ~ r
    N, reps = 400, 5000
    idx = {0.25: 99, 0.5: 199, 1.0: 399}
    vals = np.empty((reps, 3))
    spec = dw.SeriesSpec(N=N)
    for i in range(reps):
        y = dw.generate(spec, dw.substream(2024, i)).values
        vals[i] = [y[idx[0.25]], y[idx[0.5]], y[idx[1.0]]]
    scaled = vals / np.sqrt(N)
    for j, r in enumerate((0.25, 0.5, 1.0)):
        assert scaled[:, j].var() == pytest.approx((idx[r] + 1) / N, rel=0.05)


def test_garch_innovation_variance():
    # alpha0 = 1 - alpha1 - beta1 makes the unconditional variance sigma^2
    spec = dw.InnovationSpec(family="garch11", sigma=1.5, garch_alpha0=0.4,
                             garch_alpha1=0.1, garch_beta1=0.5)
    u = dw.draw_innovations(spec, 200_000, 5)
    assert u.var() == pytest.approx(1.5**2, rel=0.05)


def test_garch_validation():
    with pytest.raises(ValueError):
        dw.InnovationSpec(family="garch11", garch_alpha0=0.1, garch_alpha1=0.6, garch_beta1=0.5)
    with pytest.raises(ValueError):
        dw.InnovationSpec(family="ar1", ar_a=1.0)


def test_design_times_uniform_is_integers():
    td = dw.TimeDesign(gamma=1.0, mode="rolling")
    assert np.array_equal(dw.design_times(td, 5, 10), np.arange(1.0, 6.0))


def test_design_times_power_family():
    td = dw.TimeDesign(gamma=2.0, mode="rolling")
    got = dw.design_times(td, 2, 10)
    assert got == pytest.approx([2 * (0.5) ** 0.5, 2.0])
    assert np.all(np.diff(dw.design_times(td, 50, 50)) >= 0)


def test_design_times_fixed_prefix():
    td = dw.TimeDesign(gamma=2.0, mode="fixed")
    full = dw.design_times(td, 10, 10)
    head = dw.design_times(td, 4, 10)
    assert np.allclose(head, full[:4])


def test_design_times_bad_n():
    td = dw.TimeDesign(gamma=1.0, mode="rolling")
    with pytest.raises(ValueError):
        dw.design_times(td, 11, 10)


def test_snap_nearest_and_ties():
    td = dw.TimeDesign(gamma=1.0, mode="rolling", snap_grid=1.0)
    assert td.snap(1.41421356) == pytest.approx(1.0)
    assert td.snap(1.6) == pytest.approx(2.0)
    # exact midpoint resolves to the smaller grid point
    assert td.snap(1.5) == pytest.approx(1.0)


def test_design_map_validation():
    with pytest.raises(ValueError):
        dw.TimeDesign(knots_u=[0.0, 1.0], knots_v=[0.1, 1.0], mode="fixed")
    with pytest.raises(ValueError):
        dw.TimeDesign(gamma=-1.0)


def test_tabulated_alternative_matches_quadrature():
    t = np.array([0.0, 0.5, 1.0, 2.0])
    m = np.array([0.0, 1.0, 1.0, 3.0])
    alt = dw.seriesgen.tabulated_alternative(t, m)
    for x in (0.3, 0.75, 1.4, 2.0, 2.5):
        oracle, _ = integrate.quad(lambda r: float(alt.value(r)), 0.0, x, limit=200)
        assert float(alt.integral(x)) == pytest.approx(oracle, abs=1e-9)
    assert float(alt.value(-0.5)) == 0.0
    assert float(alt.integral(-1.0)) == 0.0


def test_cp2_drift_enters_after_change():
    # theta = 0.25, N = 100: change index 25; the drift term is nonzero from
    # t = 26 and first perturbs the next observation
    drift = dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.0, cp_model="cp2",
                         theta=0.25, h_link=10.0)
    null = dw.generate(dw.SeriesSpec(N=100), 9)
    alt = dw.generate(dw.SeriesSpec(N=100, drift=drift), 9)
    assert dw.drift_value(drift, 25.0, horizon=100) == 0.0
    assert dw.drift_value(drift, 26.0, horizon=100) > 0.0
    assert np.array_equal(alt.values[:26], null.values[:26])
    assert not np.isclose(alt.values[26], null.values[26])


def test_series_csv_round_trip(tmp_path):
    series = dw.generate(dw.SeriesSpec(N=20), 3)
    path = tmp_path / "s.csv"
    dw.save_series_csv(series, path)
    back = dw.load_series_csv(path)
    assert np.array_equal(series.times, back.times)
    assert np.array_equal(series.values, back.values)
    dw.save_series_csv(dw.TimeSeries(times=[1.0, 2.5], values=[0.1, -3e-05]), path)
    assert path.read_bytes() == b"t,y\r\n1.0,0.1\r\n2.5,-3e-05\r\n"


@pytest.mark.parametrize("family", ["iid_normal", "ar1", "garch11"])
def test_generate_leaves_the_seed_sequence_unchanged(family):
    spec = dw.SeriesSpec(N=30, innovations=dw.InnovationSpec(
        family=family, ar_a=0.5, garch_alpha0=0.1, garch_alpha1=0.1, garch_beta1=0.8))
    ss = np.random.SeedSequence(5)
    first = dw.generate(spec, ss).values
    assert ss.n_children_spawned == 0
    assert dw.generate(spec, ss).values.tobytes() == first.tobytes()
    assert dw.generate(spec, np.random.SeedSequence(5)).values.tobytes() == first.tobytes()


@pytest.mark.parametrize("loader,header", [
    (dw.load_kernel_csv, "z,k"),
    (dw.load_alternative_csv, "t,m0"),
    (dw.load_series_csv, "t,y"),
])
@pytest.mark.parametrize("body,line", [
    ("", 1),
    ("{header}\n", 2),
    ("{header}\n0.0,1.0\nabc,2.0\n", 3),
])
def test_two_column_csv_errors_name_file_and_line(tmp_path, loader, header, body, line):
    path = tmp_path / "in.csv"
    path.write_text(body.format(header=header))
    with pytest.raises(ValueError, match=f"line {line}:") as err:
        loader(path)
    assert str(path) in str(err.value)


_FIELDS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-1e999", "abc", '"', '"1,2"', "\x00", "\r",
                     "9" * 140_000]),
)
_LINES = st.lists(st.lists(_FIELDS, max_size=3).map(",".join), max_size=6)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.sampled_from(["t,y", "z,k", "t,m0", "a,b", ""]), lines=_LINES,
       tail=st.sampled_from([b"", b"\n", b"\xff\n", b"1,\xe9\n"]))
def test_two_column_loaders_load_or_name_the_file(tmp_path, header, lines, tail):
    path = tmp_path / "fuzz.csv"
    path.write_bytes("\n".join([header, *lines]).encode() + tail)
    for loader in (dw.load_series_csv, dw.load_kernel_csv, dw.load_alternative_csv):
        try:
            loader(path)
        except ValueError as exc:
            assert str(path) in str(exc)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        dw.TimeSeries(times=np.array([1.0, 1.0]), values=np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        dw.TimeSeries(times=np.array([1.0, 2.0]), values=np.array([0.0]))
    with pytest.raises(ValueError):
        dw.TimeSeries(times=np.array([1.0, 2.0]), values=np.array([0.0, np.nan]))


def test_driftspec_validation():
    with pytest.raises(ValueError):
        dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.5, cp_model="cp1", q=1)
    with pytest.raises(ValueError):
        dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.0, cp_model="cp2", theta=1.5)
    with pytest.raises(ValueError):
        dw.DriftSpec(m0=dw.alternative_by_name("step"), beta=0.0, cp_model="cp1", q=0)


def test_fixed_design_generation_times():
    td = dw.TimeDesign(gamma=2.0, mode="fixed")
    series = dw.generate(dw.SeriesSpec(N=16, design=td), 5)
    assert np.allclose(series.times, dw.design_times(td, 16, 16))
    # rolling designs do not define a generation axis; the finest scale is used
    td_roll = dw.TimeDesign(gamma=2.0, mode="rolling")
    series2 = dw.generate(dw.SeriesSpec(N=16, design=td_roll), 5)
    assert np.array_equal(series2.times, np.arange(1.0, 17.0))
