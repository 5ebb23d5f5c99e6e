"""Per-layer tracing, installed from outside the package.

A ``Tracer`` replaces driftwatch layer functions with span-recording
wrappers for the duration of one traced task and restores the originals
afterwards, so untraced tasks run the unmodified code.  Functions that other
modules bind with ``from ... import`` are replaced in every driftwatch module
(and class) that holds the same object, so no call escapes its span.

Accounting: a span's self time is its duration minus the wrapper-to-wrapper
time of its child spans.  The wrapper's own bookkeeping is kept in a separate
``trace.bookkeeping`` bucket, so the self times of all spans, the root
``task`` span and the bookkeeping add up to the traced task time.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from array import array
from collections import defaultdict

import numpy as np
from scipy.integrate import IntegrationWarning

from driftwatch import (
    calibration, estimator, kernels, limitsim, monitor, optkernel, seriesgen, variance,
)

ROOT = "task"
BOOKKEEPING = "trace.bookkeeping"


def _useful_weights(times, kernel, h: float, anchors: np.ndarray) -> int:
    """Causal, in-support weights summed over anchors (0-based indices).

    Observation i <= n carries weight at anchor n when (t_i - t_n)/h >= lo;
    the upper support bound is never binding for past data.
    """
    t = np.asarray(times, dtype=float)
    left = np.searchsorted(t, t[anchors] + kernel.support[0] * h, side="left")
    return int(np.sum(anchors + 1 - left))


# hooks: (tracer, args, kwargs) -> None, run after the call, outside its span


def _evaluate_hook(tr, args, kwargs):
    z = args[1] if len(args) > 1 else kwargs["z"]
    n = int(np.size(z))
    tr.counts["kernels.evaluate.points"] += n
    if tr.estimator_depth:
        tr.counts["estimator.points_evaluated"] += n


def _draw_hook(tr, args, kwargs):
    spec, n = args[0], args[1]
    burn = seriesgen.GARCH_BURN_IN if spec.family == "garch11" else 0
    tr.counts["seriesgen.draw_innovations.draws"] += int(n) + burn


def _process_parts_hook(tr, args, kwargs):
    times, values, cfg = args
    tr.counts["estimator.process_parts.cells"] += int(np.size(values))
    if cfg.design is None:
        N = np.shape(values)[1]
        tr.counts["estimator.useful_weights"] += _useful_weights(
            np.asarray(times)[:N], cfg.kernel, cfg.h, np.arange(N))


def _nw_estimate_hook(tr, args, kwargs):
    series, cfg, n = args
    if cfg.design is None:
        tr.counts["estimator.useful_weights"] += _useful_weights(
            series.times[:n], cfg.kernel, cfg.h, np.array([n - 1]))


def _running_hook(tr, args, kwargs):
    tr.counts["variance.running_estimates.cells"] += int(np.size(args[0]))


def _stops_hook(tr, args, kwargs):
    values = args[0]
    tr.counts["calibration.stops_from_values.eligible"] += int(np.count_nonzero(values != -np.inf))
    tr.counts["calibration.stops_from_values.entries"] += int(values.size)


def _chunks_hook(tr, args, kwargs):
    payloads = args[1] if len(args) > 1 else kwargs["payloads"]
    tr.counts["calibration.run_chunked.chunks"] += len(payloads)


# (owner, attribute, span name, hook); the owner holds the original object
TARGETS = [
    (kernels.KernelSpec, "evaluate", "kernels.evaluate", _evaluate_hook),
    (kernels, "_quad", "kernels.quad", None),
    (seriesgen, "generate", "seriesgen.generate", None),
    (seriesgen, "draw_innovations", "seriesgen.draw_innovations", _draw_hook),
    (estimator, "_process_parts", "estimator.process_parts", _process_parts_hook),
    (estimator, "nw_estimate", "estimator.nw_estimate", _nw_estimate_hook),
    (variance, "running_estimates", "variance.running_estimates", _running_hook),
    (monitor.StreamMonitor, "update", "monitor.update", None),
    (calibration, "run_chunked", "calibration.run_chunked", _chunks_hook),
    (calibration, "_finite_chunk", "calibration.finite_chunk", None),
    (calibration, "_limit_chunk", "calibration.limit_chunk", None),
    (calibration, "_stops_from_values", "calibration.stops_from_values", _stops_hook),
    (limitsim, "sample_bm", "limitsim.sample_bm", None),
    (limitsim, "_batch_null_values", "limitsim.batch_null_values", None),
    (limitsim, "_null_values", "limitsim.null_values", None),
    (limitsim, "_drift_curve", "limitsim.drift_curve", None),
    (limitsim, "sigma_k_sq", "limitsim.sigma_k_sq", None),
    (limitsim, "drift_term", "limitsim.drift_term", None),
    (limitsim, "asymptotic_normed_delay", "limitsim.asymptotic_normed_delay", None),
    (optkernel, "optimal_kernel", "optkernel.optimal_kernel", None),
    (optkernel, "verify_optimality", "optkernel.verify_optimality", None),
]
SPANS = [name for _, _, name, _ in TARGETS]
ESTIMATOR_SPANS = {"estimator.process_parts", "estimator.nw_estimate"}


def _holders(original):
    """Every (namespace owner, key) in driftwatch that binds ``original``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "driftwatch" and not modname.startswith("driftwatch."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, key))
            elif isinstance(value, type) and value.__module__.startswith("driftwatch"):
                found += [(value, k) for k, v in list(vars(value).items()) if v is original]
    return list(dict.fromkeys(found))


class Tracer:
    """Spans and counts for one traced task; use ``run`` to trace a call."""

    def __init__(self):
        self.names = [ROOT, BOOKKEEPING, *SPANS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        # span records in call (pre-)order: name id, parent record, start, end
        self.rec_name = array("i")
        self.rec_parent = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.estimator_depth = 0
        self._open: list[int] = []       # record index of each open span
        self._child: list[list[float]] = []  # child wrapper time of each open span
        self._patched: list[tuple] = []
        self.locations: set[str] = set()   # every binding the last install replaced
        self.task_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self):
        for owner, attr, name, hook in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, hook)
            for holder, key in _holders(original):
                setattr(holder, key, wrapper)
                self._patched.append((holder, key, original))
                self.locations.add(f"{holder.__name__}.{key}")

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- recording ---------------------------------------------------------

    def _begin(self, nid: int) -> int:
        rec = len(self.rec_name)
        self.rec_name.append(nid)
        self.rec_parent.append(self._open[-1] if self._open else -1)
        self.rec_start.append(0.0)
        self.rec_end.append(0.0)
        self._open.append(rec)
        self._child.append([0.0])
        return rec

    def _end(self, rec: int, name: str, t0: float, t1: float):
        self._open.pop()
        child = self._child.pop()[0]
        self.rec_start[rec] = t0
        self.rec_end[rec] = t1
        self.calls[name] += 1
        self.self_s[name] += (t1 - t0) - child

    def _wrap(self, fn, name, hook):
        tr = self
        nid = self._ids[name]
        is_quad = name == "kernels.quad"
        is_est = name in ESTIMATOR_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            rec = tr._begin(nid)
            if is_est:
                tr.estimator_depth += 1
            if is_quad:
                caught_ctx = warnings.catch_warnings(record=True)
                caught = caught_ctx.__enter__()
                warnings.simplefilter("always", IntegrationWarning)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if is_quad:
                    caught_ctx.__exit__(None, None, None)
                    tr.counts["kernels.quad.warnings"] += sum(
                        issubclass(w.category, IntegrationWarning) for w in caught)
                if is_est:
                    tr.estimator_depth -= 1
                tr._end(rec, name, t0, t1)
                if hook is not None:
                    hook(tr, args, kwargs)
                t_out = clock()
                tr._child[-1][0] += t_out - t_in
                tr.self_s[BOOKKEEPING] += (t_out - t_in) - (t1 - t0)

        return wrapper

    def run(self, fn, *args):
        """Call ``fn(*args)`` as the root span with every wrapper installed."""
        self.install()
        try:
            rec = self._begin(self._ids[ROOT])
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                t1 = time.perf_counter()
                self._end(rec, ROOT, t0, t1)
                self.task_s = t1 - t0
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def accounted_s(self) -> float:
        """Self times of every span plus bookkeeping; equals ``task_s``."""
        return sum(self.self_s.values())

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": self.calls.get(name, 0) for name in SPANS}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def span_arrays(self) -> dict[str, np.ndarray]:
        """Span records with times relative to the root span's start."""
        start = np.frombuffer(self.rec_start, dtype=float)
        base = start[0] if start.size else 0.0
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.rec_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.rec_parent, dtype=np.int32).copy(),
            "start": start - base,
            "end": np.frombuffer(self.rec_end, dtype=float) - base,
        }


def per_layer(counts: dict, self_s: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics and table rows from one traced task's counts and self times.

    ``share`` is self time over the traced task time.  Ratios whose base is
    zero on a workload (no estimator weights, no stop extraction) read 0.
    """
    metrics, rows = {}, []
    for name in SPANS:
        calls = counts.get(f"{name}.calls", 0)
        secs = self_s.get(name, 0.0)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.share"] = secs / traced_s
        rows.append((name, calls, secs, secs / traced_s))
    for name in (ROOT, BOOKKEEPING):
        rows.append((name, "", self_s.get(name, 0.0), self_s.get(name, 0.0) / traced_s))
    points = counts.get("estimator.points_evaluated", 0)
    entries = counts.get("calibration.stops_from_values.entries", 0)
    for name in ("kernels.evaluate.points", "kernels.quad.warnings",
                 "seriesgen.draw_innovations.draws", "estimator.process_parts.cells",
                 "variance.running_estimates.cells", "calibration.run_chunked.chunks"):
        metrics[name] = counts.get(name, 0)
    metrics["estimator.useful_weight_ratio"] = (
        counts.get("estimator.useful_weights", 0) / points if points else 0.0)
    metrics["calibration.stops_from_values.eligible_ratio"] = (
        counts.get("calibration.stops_from_values.eligible", 0) / entries if entries else 0.0)
    metrics["task.self_share"] = self_s.get(ROOT, 0.0) / traced_s
    metrics["trace.bookkeeping_share"] = self_s.get(BOOKKEEPING, 0.0) / traced_s
    metrics["traced_task_s"] = traced_s
    metrics["trace_overhead"] = traced_s / untraced_s - 1.0
    return {"metrics": metrics, "spans": rows}
