import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

import driftwatch as dw
from driftwatch.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [list(map(float, r)) for r in reader]
    return header, rows


def test_generate_is_reproducible(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        res = runner.invoke(main, ["generate", "--n", "100", "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()
    header, rows = read_rows(a)
    assert header == ["t", "y"]
    assert len(rows) == 100


def test_generate_prints_drawn_seed(runner, tmp_path):
    res = runner.invoke(main, ["generate", "--n", "10", "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 0
    assert "seed = " in res.stderr


def test_generate_cp2_drift_from_row_26(runner, tmp_path):
    null_path = tmp_path / "null.csv"
    drift_path = tmp_path / "drift.csv"
    base = ["generate", "--n", "100", "--seed", "3"]
    res = runner.invoke(main, base + ["--out", str(null_path)])
    assert res.exit_code == 0
    res = runner.invoke(
        main,
        base + ["--m0", "step", "--beta", "0", "--cp2", "0.25", "--h-link", "10",
                "--out", str(drift_path)],
    )
    assert res.exit_code == 0
    _, null_rows = read_rows(null_path)
    _, drift_rows = read_rows(drift_path)
    null_y = np.array([r[1] for r in null_rows])
    drift_y = np.array([r[1] for r in drift_rows])
    # change index 25: the drift term is active from row 26 and the first
    # perturbed observation is row 27
    assert np.array_equal(null_y[:26], drift_y[:26])
    assert not np.isclose(null_y[26], drift_y[26])


def test_generate_drift_needs_change_point(runner, tmp_path):
    res = runner.invoke(main, ["generate", "--n", "10", "--m0", "step",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


def test_malformed_flag_exits_2(runner):
    res = runner.invoke(main, ["generate", "--n", "not-a-number"])
    assert res.exit_code == 2


def test_monitor_truncation_and_alarm(runner, tmp_path):
    path = tmp_path / "zeros.csv"
    series = dw.TimeSeries(times=np.arange(1.0, 31.0), values=np.zeros(30))
    dw.save_series_csv(series, path)
    res = runner.invoke(main, ["monitor", "--input", str(path), "--h", "10", "-c", "1.0"])
    assert res.exit_code == 0
    record = json.loads(res.output.strip())
    assert record["alarmed"] is False
    assert record["index"] == 30

    jump = np.zeros(30)
    jump[9] = 50.0
    jump_path = tmp_path / "jump.csv"
    dw.save_series_csv(dw.TimeSeries(times=np.arange(1.0, 31.0), values=jump), jump_path)
    res = runner.invoke(main, ["monitor", "--input", str(jump_path), "--h", "10", "-c", "0.0"])
    assert res.exit_code == 3
    record = json.loads(res.output.strip())
    assert record["alarmed"] is True
    assert record["index"] == 10


def test_monitor_matches_brute_force_oracle(runner, tmp_path):
    path = tmp_path / "walk.csv"
    series = dw.generate(dw.SeriesSpec(N=40), 77)
    dw.save_series_csv(series, path)
    res = runner.invoke(main, ["monitor", "--input", str(path), "--h", "10", "-c", "0.05"])
    record = json.loads(res.output.strip())
    cfg = dw.SmootherConfig(kernel=dw.gaussian_kernel(), h=10.0, scaling="null_scale")
    scale = dw.scaling_factor(cfg, 40)
    oracle, alarmed = 40, False
    for n in range(1, 41):
        if dw.nw_estimate(series, cfg, n) * scale > 0.05:
            oracle, alarmed = n, True
            break
    assert record["index"] == oracle
    assert record["alarmed"] == alarmed
    assert res.exit_code == (3 if alarmed else 0)


def test_monitor_streaming(runner):
    stream = "t,y\n1,0.0\n2,0.1\n3,25.0\n4,0.0\n"
    res = runner.invoke(
        main,
        ["monitor", "--input", "-", "--h", "5", "-c", "0.1", "--horizon", "4"],
        input=stream,
    )
    assert res.exit_code == 3
    record = json.loads(res.output.strip())
    assert record["alarmed"] is True
    assert record["index"] == 3
    assert record["statistic"] > 0.1


def test_monitor_stream_truncates(runner):
    stream = "t,y\n1,0.0\n2,0.0\n"
    res = runner.invoke(
        main, ["monitor", "--input", "-", "--h", "5", "-c", "0.5", "--horizon", "2"],
        input=stream,
    )
    assert res.exit_code == 0
    assert json.loads(res.output.strip())["alarmed"] is False


def test_monitor_missing_input_exits_2(runner):
    res = runner.invoke(main, ["monitor", "--input", "nope.csv", "--h", "5", "-c", "0.5"])
    assert res.exit_code == 2


def test_table1_reference_cell(runner, tmp_path):
    out = tmp_path / "t1.csv"
    res = runner.invoke(main, ["table1", "--zetas", "5", "--kernels", "gaussian",
                               "--out", str(out)])
    assert res.exit_code == 0
    header, rows_text = out.read_text().strip().split("\n")
    assert header == "kernel,5"
    name, value = rows_text.split(",")
    assert name == "gaussian"
    assert float(value) == pytest.approx(0.0310, abs=0.0005)


def test_coverage_record(runner):
    res = runner.invoke(
        main,
        ["coverage", "--zeta", "4", "--n", "250", "--reps", "2000", "--seed", "21"],
    )
    assert res.exit_code == 0
    record = json.loads(res.output.strip().splitlines()[-1])
    assert record["N"] == 250
    assert record["h"] == pytest.approx(62.0)
    assert record["coverage"] == pytest.approx(0.9473, abs=0.02)


def test_calibrate_limit_curve(runner, tmp_path):
    out = tmp_path / "arl.csv"
    args = ["calibrate", "--variant", "limit", "--zeta", "3", "--grid-m", "512",
            "--c-min", "0.05", "--c-max", "0.5", "--c-points", "5",
            "--reps", "300", "--seed", "5", "--out", str(out)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    header, rows = read_rows(out)
    assert header == ["c", "normed_arl"]
    arl = [r[1] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(arl, arl[1:]))
    # worker count must not change the table
    out2 = tmp_path / "arl2.csv"
    res = runner.invoke(main, args[:-1] + [str(out2), "--jobs", "2"])
    assert res.exit_code == 0
    assert out.read_bytes() == out2.read_bytes()


def test_calibrate_finite_needs_dimensions(runner):
    res = runner.invoke(main, ["calibrate", "--variant", "finite", "--c-min", "0",
                               "--c-max", "1"])
    assert res.exit_code == 2


def test_optkernel_record_and_csv(runner, tmp_path):
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optkernel", "--m0", "ramp", "--c", "0.03", "--out", str(out)])
    assert res.exit_code == 0
    record = json.loads(res.output.strip())
    assert record["s_star"] == pytest.approx(np.sqrt(0.1), abs=1e-6)
    k = dw.load_kernel_csv(out)
    assert k.family == "tabulated"


def test_optkernel_rejects_zero_shape(runner):
    res = runner.invoke(main, ["optkernel", "--m0", "zero", "--c", "0.1"])
    assert res.exit_code == 2


def test_config_file_supplies_seed(runner, tmp_path):
    cfg = tmp_path / "driftwatch.conf"
    cfg.write_text("seed = 123\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    res = runner.invoke(main, ["--config", str(cfg), "generate", "--n", "12",
                               "--out", str(a)])
    assert res.exit_code == 0
    assert "seed = 123" in res.stderr
    res = runner.invoke(main, ["generate", "--n", "12", "--seed", "123", "--out", str(b)])
    assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_flag_overrides_config(runner, tmp_path):
    cfg = tmp_path / "driftwatch.conf"
    cfg.write_text("seed = 123\n")
    res = runner.invoke(main, ["--config", str(cfg), "generate", "--n", "12", "--seed", "9",
                               "--out", str(tmp_path / "c.csv")])
    assert res.exit_code == 0
    assert "seed = 9" in res.stderr


def test_env_seed_fallback(runner, tmp_path):
    res = runner.invoke(
        main,
        ["generate", "--n", "12", "--out", str(tmp_path / "d.csv")],
        env={"DRIFTWATCH_SEED": "77"},
    )
    assert res.exit_code == 0
    assert "seed = 77" in res.stderr


def test_config_supplies_command_defaults(runner, tmp_path):
    cfg = tmp_path / "driftwatch.conf"
    cfg.write_text("h = 10\nthreshold = 1.0\n")
    path = tmp_path / "zeros.csv"
    dw.save_series_csv(dw.TimeSeries(times=np.arange(1.0, 11.0), values=np.zeros(10)), path)
    res = runner.invoke(main, ["--config", str(cfg), "monitor", "--input", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output.strip())["threshold"] == 1.0


def _write(path, data):
    (path.write_bytes if isinstance(data, bytes) else path.write_text)(data)
    return str(path)


def _walk(path, values):
    dw.save_series_csv(dw.TimeSeries(times=np.arange(1.0, len(values) + 1.0), values=values),
                       path)
    return str(path)


STREAM = ["monitor", "--input", "-", "--h", "5", "-c", "0.5", "--horizon", "5"]

# name -> (files under tmp_path -> (args, stdin, env), text the last stderr line must contain)
BAD_INPUTS = {
    "horizon beyond series": (
        lambda d: (["monitor", "--input", _walk(d / "w.csv", np.zeros(20)), "--h", "5",
                    "-c", "0.1", "--horizon", "50"], None, None), "horizon is 50"),
    "non-numeric stream field": (lambda d: (STREAM, "t,y\n1,abc\n", None), "'abc'"),
    "repeated stream time": (lambda d: (STREAM, "1,0\n1,0\n", None), "1.0 after 1.0"),
    "NaN stream value": (lambda d: (STREAM, "1,0\n2,nan\n", None), "y=nan"),
    "header-only CSV": (
        lambda d: (["monitor", "--input", _write(d / "h.csv", "t,y\n"), "--h", "5", "-c", "1"],
                   None, None), "h.csv"),
    "one-knot kernel CSV": (
        lambda d: (["monitor", "--input", _walk(d / "w.csv", np.zeros(5)), "--h", "5", "-c", "1",
                    "--kernel", _write(d / "k1.csv", "z,k\n0,1\n")], None, None), "k1.csv"),
    "unknown kernel name": (
        lambda d: (["table1", "--kernels", "cosine", "--out", str(d / "t.csv")], None, None),
        "choose from"),
    "bad DRIFTWATCH_SEED": (
        lambda d: (["generate", "--n", "5", "--out", str(d / "g.csv")], None,
                   {"DRIFTWATCH_SEED": "xyz"}), "'xyz'"),
    "negative bandwidth": (
        lambda d: (["monitor", "--input", _walk(d / "w.csv", np.zeros(5)), "--h", "-1",
                    "-c", "1"], None, None), "-1.0"),
    "start fraction 2": (
        lambda d: (["monitor", "--input", _walk(d / "w.csv", np.zeros(5)), "--h", "5", "-c", "1",
                    "--start-fraction", "2"], None, None), "2.0"),
    "constant series, naive variance": (
        lambda d: (["monitor", "--input", _walk(d / "w.csv", np.ones(8)), "--h", "5", "-c", "1",
                    "--variance", "naive"], None, None), "index 2"),
    "constant stream, naive variance": (
        lambda d: (STREAM + ["--variance", "naive"], "1,1\n2,1\n3,1\n", None), "index 2"),
    "coverage zeta 0": (
        lambda d: (["coverage", "--zeta", "0", "--n", "100", "--reps", "100"], None, None),
        "'--zeta'"),
    "table1 zeta below 1": (
        lambda d: (["table1", "--zetas", "0.5", "--out", str(d / "t.csv")], None, None), "0.5"),
    "directory as input": (
        lambda d: (["monitor", "--input", str(d), "--h", "5", "-c", "1"], None, None), "{d}"),
    "missing input": (
        lambda d: (["monitor", "--input", str(d / "nope.csv"), "--h", "5", "-c", "1"], None, None),
        "nope.csv"),
    "missing prerun": (
        lambda d: (["monitor", "--input", _walk(d / "w.csv", np.zeros(5)), "--h", "5", "-c", "1",
                    "--variance", "naive", "--prerun", str(d / "pre.csv")], None, None),
        "pre.csv"),
    "missing config": (
        lambda d: (["--config", str(d / "none.conf"), "generate", "--n", "5"], None, None),
        "none.conf"),
    "oversized CSV field": (
        lambda d: (["monitor", "--input", _write(d / "big.csv", "t,y\n1,0\n2," + "9" * 140_000),
                    "--h", "5", "-c", "1"], None, None), "big.csv"),
    "non-UTF-8 CSV": (
        lambda d: (["monitor", "--input", _write(d / "bin.csv", b"t,y\n1,0\n2,\xff\n"), "--h", "5",
                    "-c", "1"], None, None), "bin.csv, line 3"),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(runner, tmp_path, name):
    make, expected = BAD_INPUTS[name]
    args, stdin, env = make(tmp_path)
    res = runner.invoke(main, args, input=stdin, env=env)
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.stderr
    assert expected.format(d=tmp_path) in res.stderr.strip().splitlines()[-1]
