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
    # the FFT numerator takes its kernel from the same template
    ms, points = tool.batch_cost(N=100, rows=2, repeats=1, seed=1,
                                 **tool.LAYOUTS["unit times, whole rows"])
    assert ms > 0.0 and points == 81
    ms, points = tool.batch_cost(N=100, rows=2, repeats=1, seed=1,
                                 **tool.LAYOUTS["rolling design"])
    # one row block: every anchor's row reaches the block's last record
    assert ms > 0.0 and points == 100 * 100


def test_stream_cost_runs():
    tool = _load("stream_cost")
    points = {}
    for layout, (h, design, irregular) in tool.LAYOUTS.items():
        cost, points[layout] = tool.per_update_us([20, 60], window=10, seed=1, h=h,
                                                  design=design, irregular=irregular)
        assert sorted(cost) == [20, 60] and all(v > 0.0 for v in cost.values())
    # unit times: one template of min(8h + 1, N) = 60 points for the whole stream
    assert points["unit times, h = 50"] == 1.0
    assert points["irregular times, h = 50"] > 1.0 and points["fixed design, h = 5"] > 1.0
    assert tool.dw.KernelSpec.evaluate is tool.dw.KernelSpec.__call__  # the counter is off


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


def test_draw_cost_runs():
    tool = _load("draw_cost")
    assert list(tool.CASES) == ["iid", "garch11"]
    cases = {name: (innovations, 3, 20) for name, (innovations, _, _) in tool.CASES.items()}
    cost = tool.draw_cost(cases, repeats=1, seed=1)
    assert list(cost) == ["iid", "garch11"] and all(ms > 0.0 for ms in cost.values())
