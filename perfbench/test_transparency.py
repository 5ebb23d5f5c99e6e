"""Transparency self-test of the benchmark's tracing, on tiny workload sizes.

* Traced and untraced runs of each workload give bitwise-identical outputs.
* Span self times plus the tracer's bookkeeping sum to the traced task time,
  within 1e-9 s per recorded span (rounding of perf_counter differences).
* Every count repeats exactly between two traced runs with the same seed.
* Wrappers reach every module that binds a traced function, and the
  originals are back after the traced call.
"""

import sys
import warnings
from pathlib import Path

import pytest
from scipy.integrate import IntegrationWarning

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from driftwatch import calibration, estimator, kernels  # noqa: E402

SEED = 7

# bindings made by ``from ... import`` that a wrapper must replace
MUST_PATCH = {
    *(f"driftwatch.calibration.{a}" for a in (
        "_process_parts", "nw_estimate", "generate", "running_estimates", "run_chunked",
        "_batch_null_values", "_drift_curve", "sigma_k_sq")),
    *(f"driftwatch.monitor.{a}" for a in (
        "_process_parts", "nw_estimate", "generate", "running_estimates")),
    "driftwatch.limitsim._quad", "driftwatch.optkernel._quad",
    "driftwatch.optkernel.asymptotic_normed_delay",
    "KernelSpec.evaluate", "KernelSpec.__call__",
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_is_transparent(name):
    wl = workloads.WORKLOADS[name]
    inp = wl.build(SEED, workloads.sizes("tiny", name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        plain, _ = wl.run(inp)
        tracers = [Tracer(), Tracer()]
        traced = [tr.run(wl.run, inp)[0] for tr in tracers]

    assert wl.check(inp, plain) == []
    for out in traced:
        assert workloads.same_output(plain, out)
    for tr in tracers:
        assert all(v >= -1e-9 for v in tr.self_s.values())
        assert abs(tr.accounted_s() - tr.task_s) <= 1e-9 * len(tr.rec_name)
    assert tracers[0].exact_counts() == tracers[1].exact_counts()
    assert MUST_PATCH <= tracers[0].locations
    # originals are restored once the traced call returns
    assert calibration._process_parts is estimator._process_parts
    assert not hasattr(calibration._process_parts, "__wrapped__")
    assert kernels.KernelSpec.__call__ is kernels.KernelSpec.evaluate
