import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

import driftwatch as dw

ALL_KERNELS = {
    "gaussian": dw.gaussian_kernel(),
    "epanechnikov": dw.epanechnikov_kernel(),
    "laplace": dw.laplace_kernel(),
}


def test_eval_at_zero():
    assert dw.eval_kernel(ALL_KERNELS["epanechnikov"], 0.0) == pytest.approx(0.75, abs=1e-12)
    assert dw.eval_kernel(ALL_KERNELS["laplace"], 0.0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert dw.eval_kernel(ALL_KERNELS["gaussian"], 0.0) == pytest.approx(
        1 / math.sqrt(2 * math.pi), abs=1e-12
    )


def test_eval_outside_support():
    assert dw.eval_kernel(ALL_KERNELS["epanechnikov"], 2.0) == 0.0
    assert dw.eval_kernel(ALL_KERNELS["epanechnikov"], -1.0) == 0.0
    assert dw.eval_kernel(ALL_KERNELS["gaussian"], 9.0) == 0.0


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_array_evaluate_does_not_overflow_outside_the_support(name):
    # the formula squares (or exponentiates) its argument; outside the support
    # it must not see the argument at all
    z = np.array([2e154, -2e154, 1e300, -math.inf, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert ALL_KERNELS[name].evaluate(z).tolist() == [0.0] * 5


def _masked_evaluate(kernel, z):
    """The array branch that masked every call, inside the support or not."""
    lo, hi = kernel.support
    z = np.asarray(z, dtype=float)
    inside = (z >= lo) & (z <= hi)
    return np.where(inside, kernel._formula(np.where(inside, z, 0.0)), 0.0)


@pytest.mark.parametrize("name", [*sorted(ALL_KERNELS), "tabulated"])
@pytest.mark.parametrize("z", [
    np.linspace(-0.9, 0.0, 400), np.array([[-0.5, 0.25], [0.0, -0.0]]), np.array(0.5),
    np.array(-0.0), np.array([0.5, math.nan]), np.array(math.nan), np.array([0.5, 30.0]),
    np.array([]), np.zeros((2, 0)), np.array([-1.0, 1.0]), [0.1, -0.2], 3,
], ids=["window", "2-d", "0-d", "0-d -0.0", "nan", "0-d nan", "outside", "empty",
        "empty 2-d", "support ends", "list", "int"])
def test_array_evaluate_skips_the_mask_inside_the_support_bit_for_bit(name, z):
    kernel = (dw.tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]) if name == "tabulated"
              else ALL_KERNELS[name])
    got, want = kernel.evaluate(z), _masked_evaluate(kernel, z)
    assert type(got) is type(want) is np.ndarray
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_eval_nonfinite_argument():
    with pytest.raises(ValueError):
        dw.eval_kernel(ALL_KERNELS["gaussian"], float("nan"))
    with pytest.raises(ValueError):
        dw.eval_kernel(ALL_KERNELS["gaussian"], float("inf"))


def test_eval_rescaled():
    assert dw.eval_rescaled(ALL_KERNELS["epanechnikov"], 2.0, 0.0) == pytest.approx(0.375)
    assert dw.eval_rescaled(ALL_KERNELS["gaussian"], 1.0, 0.0) == pytest.approx(
        dw.eval_kernel(ALL_KERNELS["gaussian"], 0.0)
    )
    # oracle: (1/sqrt 2) e^{-sqrt 2} / 10 evaluated directly
    oracle = (1 / math.sqrt(2)) * math.exp(-math.sqrt(2)) / 10
    assert dw.eval_rescaled(ALL_KERNELS["laplace"], 10.0, 10.0) == pytest.approx(oracle, abs=1e-12)


def test_eval_rescaled_bad_bandwidth():
    with pytest.raises(ValueError):
        dw.eval_rescaled(ALL_KERNELS["gaussian"], 0.0, 1.0)
    with pytest.raises(ValueError):
        dw.eval_rescaled(ALL_KERNELS["gaussian"], -2.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    h=st.floats(min_value=0.01, max_value=100),
    z=st.floats(min_value=-50, max_value=50),
)
def test_rescaled_is_rescaled(h, z):
    k = ALL_KERNELS["gaussian"]
    assert dw.eval_rescaled(k, h, z) == pytest.approx(dw.eval_kernel(k, z / h) / h, rel=1e-12)


def test_weight_sum_single_point():
    k = ALL_KERNELS["gaussian"]
    assert dw.weight_sum(k, 1.0, [1.0], 1.0) == pytest.approx(dw.eval_kernel(k, 0.0))


def test_weight_sum_compact_edge():
    # K(-1) = 0 for the Epanechnikov kernel: only the current point contributes
    k = ALL_KERNELS["epanechnikov"]
    assert dw.weight_sum(k, 1.0, [1.0, 2.0], 2.0) == pytest.approx(0.75)


def test_weight_sum_direct_summation_oracle():
    k = ALL_KERNELS["gaussian"]
    times = np.arange(1, 101)
    oracle = sum(norm.pdf((t - 100) / 50) / 50 for t in times)
    assert dw.weight_sum(k, 50.0, times, 100.0) == pytest.approx(oracle, rel=1e-12)


def test_weight_sum_empty_times():
    with pytest.raises(ValueError):
        dw.weight_sum(ALL_KERNELS["gaussian"], 1.0, [], 0.0)


@pytest.mark.parametrize("h", [math.inf, math.nan, -1.0, 0.0])
def test_kernel_helpers_reject_a_bandwidth_the_smoother_rejects(h):
    k = ALL_KERNELS["gaussian"]
    message = f"bandwidth must be positive and finite, got {h!r}"
    for call in (lambda: dw.eval_rescaled(k, h, 0.5), lambda: dw.weight_sum(k, h, [1.0], 1.0),
                 lambda: dw.SmootherConfig(k, h)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("times, t_now", [([1.0, math.nan], 2.0), ([1.0, math.inf], 2.0),
                                          ([1.0, 2.0], math.nan), ([1.0, 2.0], -math.inf)])
def test_weight_sum_rejects_a_non_finite_time(times, t_now):
    with pytest.raises(ValueError, match="finite"):
        dw.weight_sum(ALL_KERNELS["gaussian"], 1.0, times, t_now)


def test_limit_weight_integral_gaussian():
    # zeta=1, s=1: int_0^1 phi(r-1) dr = Phi(0) - Phi(-1)
    oracle = norm.cdf(0) - norm.cdf(-1)
    assert dw.limit_weight_integral(ALL_KERNELS["gaussian"], 1.0, 1.0) == pytest.approx(
        oracle, rel=1e-8
    )


def test_limit_weight_integral_epanechnikov():
    # closed-form polynomial oracle: int_{-1}^{0} (3/4)(1-u^2) du = 1/2
    oracle, _ = integrate.quad(lambda u: 0.75 * (1 - u * u), -1.0, 0.0)
    assert oracle == pytest.approx(0.5, abs=1e-12)
    assert dw.limit_weight_integral(ALL_KERNELS["epanechnikov"], 2.0, 1.0) == pytest.approx(
        oracle, rel=1e-8
    )


def test_limit_weight_integral_vanishes_at_small_s():
    for k in ALL_KERNELS.values():
        assert dw.limit_weight_integral(k, 2.0, 1e-7) < 1e-6


def test_limit_weight_integral_domain():
    with pytest.raises(ValueError):
        dw.limit_weight_integral(ALL_KERNELS["gaussian"], 2.0, 0.0)
    with pytest.raises(ValueError):
        dw.limit_weight_integral(ALL_KERNELS["gaussian"], 0.5, 1.0)


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_density_contract(name):
    report = dw.validate_kernel(ALL_KERNELS[name], seed=1)
    assert abs(report["mass"] - 1.0) < 1e-8
    assert abs(report["mean"]) < 1e-8
    assert np.isfinite(report["second_moment"])


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
@pytest.mark.parametrize("h", [0.5, 3.0])
def test_rescaled_integrates_to_one(name, h):
    k = ALL_KERNELS[name]
    lo, hi = k.support
    val, _ = integrate.quad(
        lambda z: dw.eval_rescaled(k, h, z), lo * h, hi * h, limit=200
    )
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_weight_sum_riemann_convergence(name):
    # |sum - integral| = O(1/h) with n/h fixed at 2
    k = ALL_KERNELS[name]
    errs = {}
    for h in (10, 50, 100):
        n = 2 * h
        s = dw.weight_sum(k, float(h), np.arange(1, n + 1), float(n))
        errs[h] = abs(s - dw.limit_weight_integral(k, n / h, 1.0))
    assert errs[100] <= errs[50] <= errs[10]
    bound = 2.0 * max(errs[10] * 10, 0.05)
    for h, e in errs.items():
        assert e <= bound / h


def test_tabulated_round_trip(tmp_path):
    # triangular kernel: a valid density with Lipschitz constant 1
    k = dw.tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    dw.validate_kernel(k, seed=2)
    assert k.lipschitz_bound == pytest.approx(1.0)
    path = tmp_path / "tri.csv"
    from driftwatch.kernels import save_kernel_csv

    save_kernel_csv(k, path)
    k2 = dw.load_kernel_csv(path)
    z = np.linspace(-1.5, 1.5, 41)
    assert np.allclose(k.evaluate(z), k2.evaluate(z))
    assert k2.evaluate(np.array([1.2]))[0] == 0.0
    save_kernel_csv(dw.tabulated_kernel([-1.0, 2.5], [0.4, 1e-20]), path)
    assert path.read_bytes() == b"z,k\r\n-1.0,0.4\r\n2.5,1e-20\r\n"


def test_tabulated_validation():
    with pytest.raises(ValueError):
        dw.tabulated_kernel([0.0, 0.0], [1.0, 1.0])  # not increasing
    with pytest.raises(ValueError):
        dw.tabulated_kernel([0.0], [1.0])  # too short
    # a negative lobe would let the unit-time weight sum fall back to zero
    with pytest.raises(ValueError, match=r"k=-1\.0 at z=-3\.0"):
        dw.tabulated_kernel([-3.0, -1.0, 0.0, 1.0], [-1.0, -1.0, 1.0, 0.0])


def test_load_kernel_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError):
        dw.load_kernel_csv(path)
