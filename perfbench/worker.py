"""One benchmark process: import, build inputs, warm up, then (optionally) measure.

Started by ``run.py``; it writes JSON lines to stdout.  The first line,
``{"event": "ready"}``, marks the end of set-up (``import driftwatch``,
building the inputs and one untimed warm-up task on the reference seed).
With ``--phase measure`` the process then runs tasks back to back for
``--seconds`` and writes one ``{"event": "result"}`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_TASKS = 3          # timed tasks per run, even if --seconds runs out first
MIN_TRACED = 2         # traced (and untraced) tasks in a --trace 1 run
MAX_PROBLEMS = 5


def reference_loop() -> float:
    """Seconds for a fixed mix of work that runs no driftwatch code.

    The mix covers the kinds of work the tasks do: an interpreter loop, a
    loop of numpy scalar operations, and numpy ``exp`` over an in-cache and
    an out-of-cache array.  Timed before every task and after the last one;
    a task's time over the mean of the two reference times around it
    cancels most of the host's speed drift, which moves raw task times by
    10-30% between runs.
    """
    import numpy as np

    small = np.linspace(-8.0, 8.0, 100_000)
    large = np.linspace(0.0, 1.0, 500_000)  # 4 MB: past L2, small next to any task's RSS
    out = np.empty_like(large)
    steps = np.linspace(0.5, 1.5, 1000)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    x = np.float64(1.0)
    for i in range(20_000):
        x = np.sqrt(x) * steps[i % 1000] + 0.1
    for _ in range(5):
        np.exp(-0.5 * small * small)
    for _ in range(8):
        np.exp(large, out=out)
    return time.perf_counter() - t0


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def provenance(seed: int) -> dict:
    import hashlib
    import subprocess

    import numpy
    import scipy

    src = ROOT / "src" / "driftwatch"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    caches = {}
    for level, index in (("L2", 2), ("L3", 3)):
        size = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        caches[level] = size.read_text().strip() if size.exists() else "unknown"
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cache": caches,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import driftwatch

    if not Path(driftwatch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"driftwatch imported from {driftwatch.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from scipy.integrate import IntegrationWarning

    import workloads

    # verify_optimality(ramp) raises IntegrationWarnings by design; traced
    # runs count them, untraced runs keep stderr readable
    warnings.filterwarnings("ignore", category=IntegrationWarning)

    wl = workloads.WORKLOADS[args.workload]
    size = workloads.sizes("full", args.workload)
    attempted = failed = 0
    problems: list[str] = []

    def checked(inp, out) -> bool:
        found = wl.check(inp, out)
        problems.extend(found[: MAX_PROBLEMS - len(problems)])
        return not found

    # set-up: inputs for the run's seed and the reference seed, one warm-up task
    inp = wl.build(args.seed, size)
    ref_inp = inp if args.seed == workloads.REFERENCE_SEED else wl.build(workloads.REFERENCE_SEED,
                                                                         size)
    warm, _ = wl.run(ref_inp)
    attempted += 1
    failed += not checked(ref_inp, warm)
    emit({"event": "ready", "attempted": attempted, "failed": failed, "problems": problems,
          "tie_flips": workloads.tie_flips(wl.curve(warm), size.get("ref"))})
    if args.phase == "setup":
        return 0

    task_s: list[float] = []
    ref_s: list[float] = []
    traced_s: list[float] = []
    latencies: list[float] = []
    counts_seen: list[dict] = []
    self_s: dict[str, list[float]] = {}
    first = None
    tracer_kept = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = args.trace == 1 and i % 2 == 1
        i += 1
        attempted += 1
        try:
            if traced:
                from spans import Tracer

                tracer = Tracer()
                out, _ = tracer.run(wl.run, inp)
                traced_s.append(tracer.task_s)
                counts_seen.append(tracer.exact_counts())
                for name, secs in tracer.self_s.items():
                    self_s.setdefault(name, []).append(secs)
                if tracer_kept is None:
                    tracer_kept = tracer
            else:
                if args.trace == 0 and not ref_s:
                    ref_s.append(reference_loop())
                t0 = time.perf_counter()
                out, lat = wl.run(inp)
                task_s.append(time.perf_counter() - t0)
                if args.trace == 0:
                    ref_s.append(reference_loop())
                latencies += lat
            ok = checked(inp, out)
            if first is None:
                first = out
            elif not workloads.same_output(first, out):
                ok = False
                if len(problems) < MAX_PROBLEMS:
                    problems.append(f"task {i} output differs bitwise from the first repeat"
                                    + (" (traced)" if traced else ""))
            failed += not ok
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"task {i} raised; traceback on stderr")
        enough = len(task_s) >= MIN_TASKS if args.trace == 0 else (
            len(task_s) >= MIN_TRACED and len(traced_s) >= MIN_TRACED)
        if time.perf_counter() >= deadline and enough:
            break
        if failed > MIN_TASKS and not task_s:
            break

    result = {
        "event": "result",
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "task_s": task_s,
        "task_rel": [2.0 * t / (a + b) for t, a, b in zip(task_s, ref_s, ref_s[1:])],
        "shape": ", ".join(f"{k}={v}" for k, v in size.items() if k != "ref"),
        "items": wl.items(inp),
        "item_label": wl.item_label,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(args.seed),
    }
    if latencies:
        ordered = sorted(latencies)
        result["latency_us"] = {
            "count": len(ordered),
            "p50": 1e6 * statistics.median(ordered),
            "p99": 1e6 * ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
        }
    if args.trace == 1 and counts_seen and task_s:
        from spans import per_layer

        counts_repeat = all(c == counts_seen[0] for c in counts_seen)
        if not counts_repeat:
            result["failed"] += 1
            problems.append("per-layer counts differ between traced repeats")
        result["trace"] = per_layer(
            counts_seen[0], {k: statistics.median(v) for k, v in self_s.items()},
            statistics.median(traced_s), statistics.median(task_s))
        if tracer_kept is not None and args.spans_out:
            import numpy as np

            out_path = Path(args.spans_out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(out_path, **tracer_kept.span_arrays())
    emit(result)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
