"""The layer-cost harness ``tools/cost.py`` still runs: each measuring function at tiny
sizes, and its command line rejects out-of-range options.  The hash corpus
``tools/corpus.py`` prints the same hashes on every run."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
COST = ROOT / "tools" / "cost.py"
CORPUS = ROOT / "tools" / "corpus.py"


def _load(path=COST):
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the script pins BLAS threads for its own process
        spec.loader.exec_module(module)
    return module


tool = _load()


def test_batch_cost_runs():
    ms, points = tool.batch_cost(N=100, rows=2, repeats=1, seed=1)
    assert ms > 0.0
    # one kernel point per lag of the Gaussian's support window, h = N/10
    assert points == 81
    # the FFT numerator takes its kernel from the same template
    ms, points = tool.batch_cost(N=100, rows=2, repeats=1, seed=1,
                                 **tool.BATCH_LAYOUTS["unit times, whole rows"])
    assert ms > 0.0 and points == 81
    ms, points = tool.batch_cost(N=100, rows=2, repeats=1, seed=1,
                                 **tool.BATCH_LAYOUTS["rolling design"])
    # one row block: every anchor's row reaches the block's last record
    assert ms > 0.0 and points == 100 * 100


def test_stream_cost_runs():
    points, sums = {}, {}
    for layout, (h, design, irregular) in tool.STREAM_LAYOUTS.items():
        cost, points[layout], sums[layout] = tool.per_update_us(
            [20, 60], window=10, seed=1, h=h, design=design, irregular=irregular)
        assert sorted(cost) == [20, 60] and all(v > 0.0 for v in cost.values())
    # unit times: one template of min(8h + 1, N) = 60 points for the whole stream
    assert points["unit times, h = 50"] == 1.0
    assert points["irregular times, h = 50"] > 1.0 and points["fixed design, h = 5"] > 1.0
    # the naive variance is first defined at index 2; the window of 60 records
    # fills at index 60, where the held weights and sum take over
    assert sums == {"unit times, h = 50": 58 / 60, "irregular times, h = 50": 59 / 60,
                    "fixed design, h = 5": 59 / 60}
    # h = 2: the window of 8h + 1 = 17 records fills at index 17
    assert tool.per_update_us([60], window=10, seed=1, h=2.0)[2] == 15 / 60
    # the counters are off
    assert tool.dw.KernelSpec.evaluate is tool.dw.KernelSpec.__call__
    assert tool.monitor.window_mean is tool.dw.estimator.window_mean


def test_limit_cost_runs():
    cost = tool.limit_cost(paths=4, grid_M=64, repeats=1, seed=1)
    assert list(cost) == ["path sampling", "FFT num/den", "stop extraction", "whole chunk"]
    assert all(ms > 0.0 and peak > 0 for ms, peak in cost.values())
    assert not tracemalloc.is_tracing()


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quad_cost_runs():
    cases = tool.quad_cases(zetas=(2.0,), table_kernels=("gaussian",), grid_M=64)
    assert len(cases) == 5
    calls = {}
    for label, fn in cases.items():
        ms, calls[label], evaluations = tool.quad_cost(fn, repeats=1)
        assert ms > 0.0 and calls[label] > 0 and evaluations > 0
    # one detectability integral; s* by bisection, not by a scan of its 1000-point grid
    assert calls["check_km_condition(gaussian, ramp, 0.1)"] == 1
    assert calls["optimal_kernel(ramp, 1, 0.03)"] < 100
    assert tool.kernels.integrate is tool.integrate  # the counter is off


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quad_counts_are_pinned():
    # an integrand that returns other values moves quad's adaptive path, and with it
    # these counts: the scalar evaluators must keep every point's bits
    cases = tool.quad_cases(zetas=(2.0,), table_kernels=("gaussian",), grid_M=64)
    counts = {label: tool.quad_cost(fn, repeats=1)[1:] for label, fn in cases.items()}
    assert counts == {
        "drift_term, completed ramp kernel": (2, 15078),
        "sigma_k_sq grid, 1 cells": (23, 483),
        "optimal_kernel(ramp, 1, 0.03)": (29, 609),
        "check_km_condition(gaussian, ramp, 0.1)": (1, 84),
        "verify_optimality(ramp, 1, 0.03)": (83, 82257),
    }


def test_draw_cost_runs():
    assert list(tool.DRAW_CASES) == ["iid", "garch11"]
    cases = {name: (innovations, 3, 20) for name, (innovations, _, _) in tool.DRAW_CASES.items()}
    cost = tool.draw_cost(cases, repeats=1, seed=1)
    assert list(cost) == ["iid", "garch11"] and all(ms > 0.0 for ms in cost.values())
    assert tool.RECURSION_ROWS == (1, 16, 32, 64, 250)
    cost = tool.recursion_cost((1, 3), steps=20, repeats=1, seed=1)
    assert list(cost) == [1, 3] and all(loop > 0.0 and columns > 0.0
                                        for loop, columns in cost.values())


def test_chart_cost_runs():
    assert tool.CHART_METHODS == ("naive", "rice", "gasser")
    for method in tool.CHART_METHODS:
        cost = tool.chart_cost(rows=3, N=40, repeats=1, seed=1, method=method)
        assert list(cost) == ["running_estimates", "chart"]
        assert all(ms > 0.0 and peak > 0 for ms, peak in cost.values())
    assert not tracemalloc.is_tracing()


@pytest.mark.parametrize("argv", [
    ["batch", "--rows", "0"],
    ["batch", "--repeats", "0"],
    ["stream", "--window", "0"],
    ["stream", "--sizes", "50,100", "--window", "51"],
    ["limit", "--paths", "0"],
    ["limit", "--repeats", "0"],
    ["limit", "--grid-m", "63"],
    ["quad", "--repeats", "0"],
    ["draw", "--repeats", "0"],
    ["chart", "--rows", "0"],
    ["chart", "--n", "0"],
    ["chart", "--repeats", "0"],
], ids=" ".join)
def test_out_of_range_option_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        tool.main(argv)
    assert exit_.value.code == 2
    assert "must" in capsys.readouterr().err


def test_corpus_hashes_repeat():
    runs = [subprocess.run([sys.executable, str(CORPUS), "--size", "tiny", *src], check=True,
                           capture_output=True, text=True).stdout
            for src in ([], ["--src", str(ROOT / "src")])]
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0].splitlines()]
    assert [line[0] for line in lines] == list(_load(CORPUS).GROUPS)
    assert all(len(line[1]) == 64 and int(line[2]) > 0 for line in lines)


def test_corpus_optimal_group_runs():
    corpus = _load(CORPUS)
    tiny, full = (list(corpus.optimal(tool.dw, corpus.SIZES[size])) for size in ("tiny", "full"))
    # full adds verify_optimality
    assert len(tiny) == 3 * 8 + 16 + 3 * 4 * 4 * 2 and len(full) == len(tiny) + 1
    digest, n, raised = corpus.group_hash(tiny)
    assert len(digest) == 64 and n == len(tiny) and raised == 0


def test_corpus_rejects_a_tree_without_the_package(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        _load(CORPUS).main(["--src", str(tmp_path)])
    assert exit_.value.code == 2
    assert "--src must hold a driftwatch package" in capsys.readouterr().err
