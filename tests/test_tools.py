"""The cost scripts under ``tools/`` still run: each measuring function at tiny sizes."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the scripts pin BLAS threads for their own process
        spec.loader.exec_module(module)
    return module


def test_batch_cost_runs():
    tool = _load("batch_cost")
    ms, points = tool.batch_cost(N=100, rows=2, repeats=1, seed=1)
    assert ms > 0.0
    # one kernel point per lag of the Gaussian's support window, h = N/10
    assert points == 81
    ms, points = tool.batch_cost(N=100, rows=2, repeats=1, seed=1,
                                 design=tool.LAYOUTS["rolling design"])
    # one row block: every anchor's row reaches the block's last record
    assert ms > 0.0 and points == 100 * 100


def test_stream_cost_runs():
    tool = _load("stream_cost")
    for h, design in tool.LAYOUTS.values():
        cost = tool.per_update_us([20, 60], window=10, seed=1, h=h, design=design)
        assert sorted(cost) == [20, 60] and all(v > 0.0 for v in cost.values())


def test_limit_cost_runs():
    cost = _load("limit_cost").limit_cost(paths=4, grid_M=64, repeats=1, seed=1)
    assert list(cost) == ["path sampling", "FFT num/den", "stop extraction"]
    assert all(ms > 0.0 for ms in cost.values())


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quad_cost_runs():
    tool = _load("quad_cost")
    cases = tool.cases(zetas=(2.0,), table_kernels=("gaussian",), grid_M=64)
    assert len(cases) == 3
    for fn in cases.values():
        ms, calls, evaluations = tool.quad_cost(fn, repeats=1)
        assert ms > 0.0 and calls > 0 and evaluations > 0
