"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; the whole module is deterministic (fixed seeds).
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest

import driftwatch as dw
from driftwatch.calibration import _finite_chunk
from driftwatch.limitsim import _batch_null_values

G = dw.gaussian_kernel()
E = dw.epanechnikov_kernel()
L = dw.laplace_kernel()

TABLE1 = {
    "gaussian": (G, [0.0089, 0.0310, 0.0449, 0.1242, 0.1913, 0.2754, 0.3775]),
    "laplace": (L, [0.0089, 0.0316, 0.0463, 0.1443, 0.2310, 0.3353, 0.4578]),
    "epanechnikov": (E, [0.0095, 0.0359, 0.0545, 0.1857, 0.2921, 0.3968, 0.4857]),
}
ZETAS = [10.0, 5.0, 4.0, 2.0, 1.5, 1.2, 1.0]

TABLE2 = {  # (zeta, N) -> published coverage
    (2, 100): 0.9480, (2, 500): 0.9518,
    (4, 100): 0.9474, (4, 500): 0.9515,
    (10, 100): 0.9523, (10, 500): 0.9471,
}


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_limit_variance_table():
    t0 = time.monotonic()
    worst = 0.0
    for name, (kernel, published) in TABLE1.items():
        for zeta, value in zip(ZETAS, published):
            got = dw.sigma_k_sq(dw.LimitConfig(zeta=zeta, kernel=kernel), 1.0)
            worst = max(worst, abs(got - value))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.0015 and elapsed < 30.0
    report(1, ok, f"21 variance cells within ±0.0015 (worst |err| = {worst:.6f}, "
                  f"{elapsed:.1f} s < 30 s)")
    assert worst <= 0.0015
    assert elapsed < 30.0


def test_criterion_2_limit_variance_monte_carlo():
    t0 = time.monotonic()
    reps = 10_000
    details = []
    all_ok = True
    for zeta in (1.0, 2.0, 10.0):
        cfg = dw.LimitConfig(zeta=zeta, kernel=G, grid_M=2048)
        seeds = [dw.substream(1001, i) for i in range(reps)]
        ends = np.empty(reps)
        for a in range(0, reps, 1000):
            b = min(a + 1000, reps)
            ends[a:b] = _batch_null_values(cfg, seeds[a:b])[:, -1]
        # the batch helper and the public op are the same computation
        assert ends[0] == dw.null_limit_process(cfg, seeds[0])[-1]
        target = dw.sigma_k_sq(cfg, 1.0)
        se = target * np.sqrt(2.0 / (reps - 1))
        ok = abs(ends.var() - target) < 3 * se
        all_ok &= ok
        details.append(f"zeta={zeta:g}: var={ends.var():.5f} vs {target:.5f} (3se={3*se:.5f})")
    elapsed = time.monotonic() - t0
    all_ok &= elapsed < 120.0
    report(2, all_ok, "; ".join(details) + f"; {elapsed:.1f} s < 120 s")
    assert all_ok


def test_criterion_3_coverage_table():
    t0 = time.monotonic()
    details = []
    all_ok = True
    for (zeta, N), published in TABLE2.items():
        h = float(round(N / zeta))
        cov = dw.coverage_sim(N, h, G, 0.05, 2000, 313, variance_method="naive")
        ok = abs(cov - published) <= 0.02
        all_ok &= ok
        details.append(f"(zeta={zeta}, N={N}): {cov:.4f} vs {published:.4f}")
    elapsed = time.monotonic() - t0
    all_ok &= elapsed < 180.0
    report(3, all_ok, "; ".join(details) + f"; {elapsed:.1f} s < 180 s")
    assert all_ok


def test_criterion_4_null_distribution_shape():
    N, h, reps = 500, 250.0, 2000
    cfg = dw.SmootherConfig(kernel=G, h=h, scaling="null_scale")
    scale = dw.scaling_factor(cfg, N)
    stats = np.empty(reps)
    for i in range(reps):
        series = dw.generate(dw.SeriesSpec(N=N), dw.substream(7, i))
        stats[i] = dw.nw_estimate(series, cfg, N) * scale
    result = kstest(stats, "norm", args=(0.0, np.sqrt(0.1242)))
    ok = result.pvalue > 0.01
    report(4, ok, f"KS vs N(0, 0.1242): stat={result.statistic:.4f}, p={result.pvalue:.3f} > 0.01")
    assert ok


def _conservativeness(zeta):
    h = 50.0
    N = int(zeta * h)
    sk = np.sqrt(dw.sigma_k_sq(dw.LimitConfig(zeta=zeta, kernel=G), 1.0))
    c_grid = np.linspace(0.2, 2.5, 20) * sk
    return dw.conservativeness_check(N, h, G, c_grid, 2000, 515)


def test_criterion_5a_conservative_critical_values():
    rep = _conservativeness(10.0)
    frac = rep.frac_nonnegative
    ok = frac >= 0.9
    report("5a", ok, f"zeta=10, h=50: finite >= limit on {frac:.0%} of the 20-point grid "
                     f"(need >= 90%); gaps = {np.array2string(rep.gaps, precision=4)}")
    assert ok, (
        "the finite-sample curve does not dominate the limit curve on >= 90% of the grid; "
        "the underlying gaps are of order 1e-3 with mixed signs (see decisions ledger)"
    )


def test_criterion_5b_accuracy_improves_with_zeta():
    gap10 = _conservativeness(10.0).mean_abs_gap
    gap3 = _conservativeness(3.0).mean_abs_gap
    ok = gap10 <= gap3
    report("5b", ok, f"mean |finite-limit| at zeta=10 ({gap10:.5f}) <= zeta=3 ({gap3:.5f})")
    assert ok


def test_criterion_6_optimal_delay_closed_forms():
    # hand-integration oracles: ratio 0.3 s^2 for the ramp, 2s/3 for the step
    ramp = dw.optimal_delay(dw.alternative_by_name("ramp"), 0.03)
    step = dw.optimal_delay(dw.alternative_by_name("step"), 0.2)
    ramp_target = np.sqrt(0.1)
    ok = abs(ramp - ramp_target) <= 1e-6 and abs(step - 0.3) <= 1e-6
    report(6, ok, f"ramp: {ramp:.8f} vs sqrt(0.1) = {ramp_target:.8f}; step: {step:.8f} vs 0.3")
    assert abs(ramp - ramp_target) <= 1e-6
    assert abs(step - 0.3) <= 1e-6


def _dense_delay(kernel, m0, c, zeta=1.0):
    """Dense-scan delay oracle at resolution 1e-4 (coarse localize, then refine)."""
    cfg = dw.LimitConfig(zeta=zeta, kernel=kernel, drift=dw.LimitDrift(m0, "cp1"))
    coarse = np.arange(0.01, 1.0001, 0.01)
    mu = np.array([dw.drift_term(cfg, float(s)) for s in coarse])
    if not np.any(mu > c):
        return 1.0
    k = int(np.argmax(mu > c))
    lo = coarse[k - 1] if k else 1e-4
    fine = np.arange(lo, coarse[k] + 1e-12, 1e-4)
    mu_f = np.array([dw.drift_term(cfg, float(s)) for s in fine])
    return float(fine[int(np.argmax(mu_f > c))])


def test_criterion_7_optimal_kernel_dominates():
    step = dw.alternative_by_name("step")
    c = 0.2
    sol = dw.optimal_kernel(step, 1.0, c, t_max=1.0)
    completed = dw.completed_kernel(sol)
    d_opt = _dense_delay(completed, step, c)
    others = {k.family: _dense_delay(k, step, c) for k in (G, E, L)}
    tol = 2e-4
    ok = all(d_opt <= d + tol for d in others.values())
    report(7, ok, f"completed optimal kernel delay {d_opt:.4f} <= " +
                  ", ".join(f"{n}={d:.4f}" for n, d in others.items()) + f" (+{tol})")
    assert ok


def test_criterion_8_variance_estimators():
    n = 100_000
    rng = np.random.default_rng(808)
    u = rng.standard_normal(n)
    null_walk = dw.TimeSeries(times=np.arange(1.0, n + 1.0), values=np.cumsum(u))
    drifted = dw.TimeSeries(times=np.arange(1.0, n + 1.0), values=np.cumsum(u + 0.5))
    naive0 = dw.naive_var(null_walk)
    gasser0 = dw.gasser_var(null_walk)
    rice0 = dw.rice_var(null_walk)
    gasser1 = dw.gasser_var(drifted)
    rice1 = dw.rice_var(drifted)
    naive1 = dw.naive_var(drifted)
    within = all(abs(v - 1.0) <= 0.03 for v in (naive0, gasser0, rice0, gasser1, rice1))
    # the naive estimate absorbs the squared per-step drift (0.25)
    inflated = naive1 - 1.0 >= 0.25 - 3 * np.sqrt(3.0 / n)
    ok = within and inflated
    report(8, ok, f"null: naive={naive0:.4f} gasser={gasser0:.4f} rice={rice0:.4f}; "
                  f"drifted: gasser={gasser1:.4f} rice={rice1:.4f} naive={naive1:.4f}")
    assert ok


def test_criterion_9_property_suites():
    # kernel density / zero-mean / Lipschitz contracts
    for kernel in (G, E, L):
        dw.validate_kernel(kernel, seed=99)
    # weight-sum Riemann convergence at rate O(1/h)
    errs = {}
    for h in (10, 50, 100):
        n = 2 * h
        s = dw.weight_sum(G, float(h), np.arange(1, n + 1), float(n))
        errs[h] = abs(s - dw.limit_weight_integral(G, 2.0, 1.0))
    rate_ok = errs[100] <= errs[50] <= errs[10] and errs[100] <= 10 * errs[10] / 100 * 2
    # per-replicate threshold monotonicity under common random numbers
    variant = dw.FiniteSampleVariant(N=80, h=40.0)
    stops = _finite_chunk((variant, G, np.linspace(-0.1, 0.5, 7), 31, 0, 200))
    crn_ok = bool(np.all(np.diff(stops, axis=1) >= 0))
    # worker count cannot change seeded results
    grid = np.linspace(0.02, 0.3, 4)
    a = dw.arl_curve(variant, G, grid, 600, 12, jobs=1).normed_arl
    b = dw.arl_curve(variant, G, grid, 600, 12, jobs=2).normed_arl
    jobs_ok = bool(np.array_equal(a, b))
    ok = rate_ok and crn_ok and jobs_ok
    report(9, ok, f"kernel contracts pass; Riemann errors {errs}; "
                  f"CRN monotone per replicate: {crn_ok}; worker-count invariant: {jobs_ok}")
    assert ok
