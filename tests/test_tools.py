"""The layer-cost harness ``tools/cost.py`` still runs: each measuring function at tiny
sizes, and its command line rejects out-of-range options.  The hash corpus
``tools/corpus.py`` prints the same hashes on every run.  The parent-versus-change
summary of ``tools/compare.py`` reads canned benchmark and corpus output; no benchmark
runs, and no full corpus."""

import importlib.util
import json
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
COMPARE = ROOT / "tools" / "compare.py"


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
    for layout, kwargs in tool.STREAM_LAYOUTS.items():
        cost, points[layout], sums[layout] = tool.per_update_us([20, 60], window=10, seed=1,
                                                                **kwargs)
        assert sorted(cost) == [20, 60] and all(v > 0.0 for v in cost.values())
    # unit times: one template of min(8h + 1, N) = 60 points for the whole stream
    assert points["unit times, h = 50"] == 1.0
    assert points["irregular times, h = 50"] > 1.0 and points["fixed design, h = 5"] > 1.0
    # the variance is first defined at index 1 without a method, 2 for naive and
    # 4 for gasser; the window of 60 records fills at index 60, whose weights
    # are summed and checked once, and the held weights and sum take over after it
    assert sums == {"unit times, h = 50": 59 / 60, "unit times, h = 50, no variance": 60 / 60,
                    "unit times, h = 50, gasser": 57 / 60, "irregular times, h = 50": 59 / 60,
                    "fixed design, h = 5": 59 / 60}
    # h = 2: the window of 8h + 1 = 17 records fills at index 17
    assert tool.per_update_us([60], window=10, seed=1, h=2.0)[2] == 16 / 60
    # each of the repeated streams does the same work; the least window median is reported
    with mock.patch.object(tool.np, "median", side_effect=[3.0, 1.0, 2.0, 5.0, 4.0, 6.0]):
        cost, points_3, sums_3 = tool.per_update_us([20, 60], window=10, seed=1, repeats=3)
    assert cost == {20: 2e6, 60: 1e6}
    assert (points_3, sums_3) == (points["unit times, h = 50"], sums["unit times, h = 50"])
    # the counters are off
    assert tool.dw.KernelSpec.evaluate is tool.dw.KernelSpec.__call__
    assert tool.monitor.window_mean is tool.dw.estimator.window_mean


def test_limit_cost_runs():
    cost = tool.limit_cost(paths=4, grid_M=64, repeats=1, seed=1)
    assert list(cost) == ["path sampling", "FFT num/den", "stop extraction", "whole chunk"]
    assert all(ms > 0.0 and peak > 0 and faults >= 0 for ms, peak, faults in cost.values())
    ms, peak, faults = tool.finite_chunk_cost(rows=3, N=40, repeats=1, seed=1)
    assert ms > 0.0 and peak > 0 and faults >= 0
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
    assert tool.STREAMS == 2000
    assert all(us > 0.0 for us in tool.stream_cost(streams=5, repeats=1, seed=1))


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
    ["stream", "--repeats", "0"],
    ["stream", "--sizes", "50,100", "--window", "51"],
    ["limit", "--paths", "0"],
    ["limit", "--repeats", "0"],
    ["limit", "--grid-m", "63"],
    ["limit", "--rows", "0"],
    ["limit", "--n", "0"],
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


def _bench_stdout(task_rel, peak, setup, failed=0):
    """What ``perfbench/run.py`` prints, cut to the lines ``compare.py`` reads."""
    metrics = {"task_rel": {"value": task_rel, "unit": "ratio"},
               "peak_rss_mb": {"value": peak, "unit": "MB"},
               "setup_s": {"value": setup, "unit": "s"}}
    return "\n".join([
        "# driftwatch benchmark: workload=stream seed=1 seconds=20 trace=0",
        '# provenance {"commit": "abc", "src_sha256": "%s"}' % ("0" if task_rel > 0.5 else "1"),
        f"task_rel{task_rel:>16.6g}  ratio       9  median task time / reference-loop time",
        json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                    "metrics": metrics})]) + "\n"


def test_compare_summarizes_alternating_pairs():
    compare = _load(COMPARE)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = [(0.60, 137.5, 0.50), (0.58, 135.5, 0.40), (0.62, 136.0, 0.45)]
    change = [(0.40, 143.5, 0.50), (0.41, 143.8, 0.42), (0.39, 150.0, 0.43)]
    pairs = [{"base": compare.parse_run(_bench_stdout(*b)),
              "change": compare.parse_run(_bench_stdout(*c))} for b, c in zip(base, change)]
    pairs.append({"base": compare.parse_run(_bench_stdout(0.59, 136.0, 0.4, failed=1)),
                  "change": {"summary": None, "provenance": None, "error": "worker exited"}})
    entry = compare.summarize(end_to_end, pairs)
    assert entry["pairs"] == 4 and entry["failed_runs"] == {"base": 0, "change": 1}
    assert entry["failed_tasks"] == {"base": 1, "change": 0}
    assert entry["provenance"]["base"] == {"commit": "abc", "src_sha256": "0"}
    assert entry["provenance"]["change"]["src_sha256"] == "1"
    rel = entry["metrics"]["task_rel"]
    assert rel["base"]["runs"] == [0.60, 0.58, 0.62, 0.59]
    assert rel["base"]["median"] == pytest.approx(0.595)
    assert (rel["base"]["q1"], rel["base"]["q3"]) == pytest.approx((0.5875, 0.605))
    assert rel["change"] == pytest.approx({"runs": [0.40, 0.41, 0.39], "median": 0.40,
                                           "q1": 0.395, "q3": 0.405})
    # a pair with a failed side counts for neither; lower is better for every metric
    assert rel["wins"] == 3 and rel["within_bound"]
    assert rel["rel_change"] == pytest.approx(0.40 / 0.595 - 1.0)
    peak = entry["metrics"]["peak_rss_mb"]
    assert peak["wins"] == 0 and peak["rel_change"] == pytest.approx(143.8 / 136.0 - 1.0)
    assert peak["within_bound"] and peak["bound"] == 0.1
    setup = entry["metrics"]["setup_s"]
    assert setup["wins"] == 1  # a tie, (0.50, 0.50), counts for neither side


def test_compare_pairs_the_corpus_groups_of_both_trees():
    compare = _load(COMPARE)
    # lines as tools/corpus.py prints them
    base = compare.parse_corpus(
        "stops             7f0dc85fc98b871f9d4f13776a77e34ea3075d7870640cbfe3c4acd962829ae4"
        "  293 calls, 0 raised\n"
        "charts            fac91540863856e30d5e324fc250f61ff87ea54eb718aa7f0062fbb0d91099b5"
        "  833 calls, 380 raised\n")
    assert base["charts"] == {
        "hash": "fac91540863856e30d5e324fc250f61ff87ea54eb718aa7f0062fbb0d91099b5",
        "calls": 833, "raised": 380}
    change = {"stops": dict(base["stops"]), "charts": {**base["charts"], "raised": 381},
              "optimal": {"hash": "0" * 64, "calls": 1, "raised": 0}}
    section = compare.corpus_section(base, change)
    assert list(section) == ["stops", "charts", "optimal"]
    assert [group["equal"] for group in section.values()] == [True, False, False]
    assert section["stops"] == {"base": base["stops"], "change": base["stops"], "equal": True}
    assert section["optimal"]["base"] is None
