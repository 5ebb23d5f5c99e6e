"""Record ``reference.json``: the outputs the benchmark's checks compare against.

For each workload this stores the reference-seed output (compared exactly,
up to flipped ties) and, for ARL curves, the mean curve over ``SEEDS``
other seeds (compared within the Hoeffding bound in ``workloads.py``).
Record once from a commit whose outputs are trusted, with the same BLAS
thread count the benchmark uses:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

SEEDS = range(1000, 1016)


def main() -> None:
    warnings.filterwarnings("ignore", category=IntegrationWarning)
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        size = workloads.sizes("full", name)
        size["ref"] = None
        ref_out, _ = wl.run(wl.build(workloads.REFERENCE_SEED, size))
        entry = {}
        if name == "stream":
            entry = {"index": ref_out["index"], "statistic": ref_out["statistic"]}
        else:
            if name == "asymptotic":
                entry["delays"] = ref_out["delays"].tolist()
            entry["curve"] = wl.curve(ref_out).tolist()
            curves = [wl.curve(wl.run(wl.build(s, size))[0]) for s in SEEDS]
            entry["mean"] = np.mean(curves, axis=0).tolist()
            entry["seeds"] = len(SEEDS)
        out[name] = entry
        print(f"{name}: recorded", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
