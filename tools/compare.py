"""Parent-versus-change timing: alternating ``perfbench/run.py`` pairs from two
trees, after the hash corpus of both.

    python tools/compare.py --base REV --label NAME [--workloads all|W,W,...] [--pairs 10]

The base tree is REV checked out in a shared clone (``git clone --shared``)
in a temporary directory, which is removed on exit, so the repository gains
no worktree; the change tree is the checkout this script lives in, as it
stands, uncommitted edits included.  First this script's ``tools/corpus.py
--size full`` hashes each tree's ``src/``, and every corpus group whose
hashes differ is named on stderr.  Then, for each workload, pair i runs
``perfbench/run.py --workload W --seed 1 --seconds T`` once from each tree,
with T the ``run_seconds`` of ``BENCHMARK.json``, the base first in even pairs
and the change first in odd ones, so a drift of the host during the pairs
falls on both sides alike.

``BENCH_<NAME>.json`` at the repository root then holds, per workload and per
end-to-end metric of ``BENCHMARK.json``: each side's values in run order,
their median and quartiles, the number of pairs the change wins (ties count
for neither side), the relative change of the medians and whether it stays
within the metric's bound.  Per workload it also holds the failed task counts
of each side and each side's provenance line (commit, source digest,
versions, host).  A run that exits non-zero is kept as a failed run without
metrics.  Under ``corpus`` it holds, per corpus group, each side's hash, call
count and raise count, and whether the two sides are ``equal``.  An existing
``BENCH_<NAME>.json`` is never overwritten.

The tool only runs the corpus and the benchmark: it reads ``BENCHMARK.json``
and changes nothing under ``perfbench/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
SEED = 1  # the seed of every run, on both sides


def parse_run(stdout: str) -> dict:
    """The summary (the last stdout line, one JSON object) and the provenance
    (the ``# provenance`` line) of one ``perfbench/run.py`` run."""
    lines = stdout.strip().splitlines()
    marker = "# provenance "
    provenance = next((json.loads(s[len(marker):]) for s in lines if s.startswith(marker)), None)
    return {"summary": json.loads(lines[-1]), "provenance": provenance}


def run_bench(tree: Path, workload: str, seconds: int) -> dict:
    """One benchmark run from ``tree``; a run that fails has no summary."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"summary": None, "provenance": None, "error": proc.stderr.strip()[-500:]}
    return parse_run(proc.stdout)


def parse_corpus(stdout: str) -> dict:
    """Per group of one ``tools/corpus.py`` run, its hash, call count and raise
    count, from lines such as ``stops  <sha256>  503 calls, 0 raised``."""
    groups = {}
    for line in stdout.splitlines():
        name, digest, calls, _, raised, _ = line.split()
        groups[name] = {"hash": digest, "calls": int(calls), "raised": int(raised)}
    return groups


def run_corpus(tree: Path) -> dict:
    """``parse_corpus`` of this script's ``tools/corpus.py --size full`` on ``tree``'s source."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "corpus.py"), "--size", "full", "--src",
         str(tree / "src")], capture_output=True, text=True, check=True)
    return parse_corpus(proc.stdout)


def corpus_section(base: dict, change: dict) -> dict:
    """Per group of either side, both sides' ``parse_corpus`` entries (None where a
    side lacks the group) and whether they are equal."""
    return {name: {"base": base.get(name), "change": change.get(name),
                   "equal": name in base and base.get(name) == change.get(name)}
            for name in {**base, **change}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(end_to_end: list[dict], pairs: list[dict]) -> dict:
    """One workload's entry of ``BENCH_*.json`` from its pairs, each a dict of
    ``parse_run`` results by side; ``end_to_end`` is ``BENCHMARK.json``'s list."""
    ok = {side: [p[side]["summary"] for p in pairs if p[side]["summary"]] for side in SIDES}
    entry = {
        "pairs": len(pairs),
        "failed_runs": {side: len(pairs) - len(ok[side]) for side in SIDES},
        "failed_tasks": {side: sum(s["failed"] for s in ok[side]) for side in SIDES},
        "attempted_tasks": {side: sum(s["attempted"] for s in ok[side]) for side in SIDES},
        "provenance": {side: next((p[side]["provenance"] for p in pairs
                                   if p[side]["provenance"]), None) for side in SIDES},
        "metrics": {},
    }
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = {side: [s["metrics"][name]["value"] for s in ok[side]] for side in SIDES}
        row = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
        for side in SIDES:
            row[side] = {"runs": runs[side], **spread(runs[side])}
        row["wins"] = 0
        for pair in pairs:
            if pair["base"]["summary"] and pair["change"]["summary"]:
                b, c = (pair[side]["summary"]["metrics"][name]["value"] for side in SIDES)
                row["wins"] += (c < b) if lower else (c > b)
        if runs["base"] and runs["change"]:
            base, change = row["base"]["median"], row["change"]["median"]
            rel = (change - base) / base
            row["rel_change"] = rel
            row["within_bound"] = (rel if lower else -rel) <= metric["bound"]
        entry["metrics"][name] = row
    return entry


def compare(base_tree: Path, workloads, end_to_end, pair_count: int, seconds: int) -> dict:
    """``summarize`` per workload over ``pair_count`` alternating pairs."""
    trees = {"base": base_tree, "change": ROOT}
    out = {}
    for workload in workloads:
        pairs = []
        for i in range(pair_count):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                print(f"{workload} pair {i + 1}/{pair_count}: {side}", file=sys.stderr)
                pair[side] = run_bench(trees[side], workload, seconds)
            pairs.append(pair)
        out[workload] = summarize(end_to_end, pairs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base tree")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workloads == "all" else args.workloads.split(",")
    if args.pairs < 1 or not set(workloads) <= set(known):
        ap.error(f"--pairs must be >= 1 and --workloads a subset of {known}")
    target = ROOT / f"BENCH_{args.label}.json"
    if target.exists():
        ap.error(f"{target.name} exists; choose another --label")
    rev = subprocess.run(["git", "rev-parse", "--verify", args.base + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True)
    if rev.returncode != 0:
        ap.error(f"--base {args.base!r} is not a commit")
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        for git in (["clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(base_tree)],
                    ["-C", str(base_tree), "checkout", "--quiet", "--detach", rev.stdout.strip()]):
            subprocess.run(["git", *git], check=True, capture_output=True)
        corpus = corpus_section(run_corpus(base_tree), run_corpus(ROOT))
        for name, group in corpus.items():
            if not group["equal"]:
                print(f"corpus group {name} differs", file=sys.stderr)
        results = compare(base_tree, workloads, spec["end_to_end"], args.pairs,
                          spec["run_seconds"])
    record = {"base": f"{args.base} ({rev.stdout.strip()})", "change": "working tree",
              "pairs": args.pairs, "seconds": spec["run_seconds"], "seed": SEED,
              "command": "python3 perfbench/run.py --workload W --seed S --seconds T",
              "corpus": corpus, "workloads": results}
    target.write_text(json.dumps(record, indent=1) + "\n")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
