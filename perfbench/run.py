"""driftwatch benchmark: one workload per call, each in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload finite_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics: set-up is timed in three
fresh worker processes (median reported), and the last of them then runs
tasks back to back for ``--seconds``.  ``--trace 1`` runs one worker that
alternates untraced and traced tasks and reports the per-layer metrics; its
spans go to ``perfbench/out/``.  Every output is checked (see
``workloads.py``); a human-readable table precedes the last stdout line,
which is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The worker environment pins BLAS to one thread and imports driftwatch from
this checkout's ``src/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("finite_long", "finite_garch", "asymptotic", "stream")
SETUP_PROCESSES = 3
DEADLINE_S = 170.0
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict, dict | None]:
    """Start one worker; return (seconds to ready, ready line, result line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready_line:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    lines = [json.loads(s) for s in rest.splitlines() if s.strip()]
    return ready_s, json.loads(ready_line), (lines[-1] if lines else None)


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups, readies = [], []
    if trace == 0:
        for _ in range(SETUP_PROCESSES - 1):
            ready_s, ready, _ = run_worker([*common, "--phase", "setup"], deadline)
            setups.append(ready_s)
            readies.append(ready)
    spans_out = HERE / "out" / f"spans-{workload}-seed{seed}.npz"
    ready_s, ready, result = run_worker(
        [*common, "--phase", "measure", "--seconds", str(seconds), "--trace", str(trace),
         "--spans-out", str(spans_out)], deadline)
    if result is None:
        raise BenchError("measuring worker printed no result")
    setups.append(ready_s)
    readies.append(ready)
    return {"setups": setups, "readies": readies, "result": result, "spans_out": spans_out}


def end_to_end(m: dict) -> tuple[dict, list[tuple]]:
    """JSON metrics plus the printed table rows (name, value, unit, samples, note).

    Raw wall times drift by 10-30% between runs on a shared host, so the
    gated task metric is ``task_rel``: each task's wall time over the mean of
    the reference-loop times measured right before and right after it.  The
    raw times and the rates derived from them are printed, not gated.
    """
    res = m["result"]
    task_s, rel = res["task_s"], res["task_rel"]
    if not task_s:
        raise BenchError("no task completed; see the problems above")
    n = len(task_s)
    items = res["items"]
    metrics = {
        "task_rel": statistics.median(rel),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(m["setups"]),
    }
    rate = statistics.median([items / t for t in task_s])
    rows = [
        ("task_rel", metrics["task_rel"], "ratio", n,
         "median task time / reference-loop time around it"),
        ("task_s", statistics.median(task_s), "s", n, "median wall time of one task"),
        ("items_per_s", rate, "1/s", n, f"{res['item_label']} per second, {items} per task"),
    ]
    if res["item_label"] == "replicates":
        rows.append(("reps_per_s", rate, "1/s", n, f"at {res['shape']}"))
    if "latency_us" in res:
        lat = res["latency_us"]
        beyond = lat["count"] - int(0.99 * lat["count"])
        rows += [
            ("obs_per_s", rate, "1/s", n, f"records per second over a pass, {res['shape']}"),
            ("obs_latency_p50_us", lat["p50"], "us", lat["count"], "per update, all passes"),
            ("obs_latency_p99_us", lat["p99"], "us", lat["count"], f"{beyond} samples beyond it"),
        ]
    rows += [
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1, "ru_maxrss of the measuring process"),
        ("setup_s", metrics["setup_s"], "s", len(m["setups"]),
         "fresh process to ready (import, inputs, warm-up task), median"),
    ]
    return metrics, rows


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit as declared in BENCHMARK.json for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def report(workload: str, seed: int, seconds: int, trace: int, m: dict) -> dict:
    res = m["result"]
    attempted = res["attempted"] + sum(r["attempted"] for r in m["readies"][:-1])
    failed = res["failed"] + sum(r["failed"] for r in m["readies"][:-1])
    # the measuring worker repeats its warm-up problems in its result
    problems = list(dict.fromkeys([p for r in m["readies"] for p in r["problems"]]
                                  + res["problems"]))
    flips = max(r["tie_flips"] for r in m["readies"])
    if trace == 0:
        metrics, rows = end_to_end(m)
    elif "trace" in res:
        metrics, rows = res["trace"]["metrics"], res["trace"]["spans"]
    else:
        raise BenchError("no traced task completed; problems: " + "; ".join(problems))
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print(f"# driftwatch benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={trace}")
    print("# provenance " + json.dumps(res["provenance"]))
    print("# closed loop, one process, jobs=1; waiting time: not applicable (no queues, "
          "no other process)")
    if trace == 0:
        print(f"{'metric':<22}{'value':>16}  {'unit':<6}{'samples':>8}  note")
        for name, value, unit, n, note in rows:
            print(f"{name:<22}{value:>16.6g}  {unit:<6}{n:>8}  {note}")
    else:
        print(f"{'span':<38}{'calls':>9}{'self_s':>12}{'share':>9}")
        for name, calls, secs, share in rows:
            print(f"{name:<38}{calls:>9}{secs:>12.6f}{share:>9.4f}")
        for name, value in metrics.items():
            if not name.endswith((".calls", ".share")):
                print(f"{name:<38}{value:>21.6g}")
        print(f"# spans of the first traced task: {m['spans_out'].relative_to(ROOT)}")
    print(f"{'error_rate':<22}{failed / attempted:>16.6g}  {'ratio':<6}{attempted:>8}  "
          f"failed {failed} of {attempted} tasks (warm-ups included); "
          f"reference-seed tie flips: {flips}")
    for p in problems:
        print(f"# problem: {p}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(summary))
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "driftwatch" / "__init__.py").is_file():
        print(f"no driftwatch sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            report(name, args.seed, args.seconds, args.trace,
                   measure(name, args.seed, args.seconds, args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
