"""Bitwise oracles for the finite-sample Monte Carlo path.

The references below are the per-method running variance and the per-cell
Brownian-bridge loop that the table-driven ``running_estimates`` and the
vectorized ``_brownian_paths`` replaced.  Both must agree with them bit for
bit, since seeded calibration results are part of the numeric contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import driftwatch as dw
from driftwatch.calibration import _brownian_paths, _null_walks
from driftwatch.variance import running_estimates


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
