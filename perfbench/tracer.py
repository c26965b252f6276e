"""Span tracing of qresp's public functions, installed at run time.

The tracer replaces module attributes and class methods of an imported
qresp with wrappers that record one span per call: name, start, end and the
id of the enclosing span.  Nothing in the package itself is changed.  Spans
are kept in flat arrays in memory and written out once, at the end.

A function that a later version of qresp renames or removes is recorded as
absent, and the metrics that need it are left out of the report.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ipc_calls: list[tuple[int, int, int, int]] = []  # components, kept, surrogates, n
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        parent, names, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None, rebind=()) -> None:
        """Wrap owner.attr; also rebind modules that imported it by name."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.absent.append(name)
            return
        wrapped = self._wrap(fn, name, observe)
        setattr(owner, attr, wrapped)
        for module in rebind:
            if getattr(module, attr, None) is fn:
                setattr(module, attr, wrapped)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer: Tracer, reservoir, espmetrics, benchmarks, qmat, sweep) -> None:
    """Wrap the public entry points of every qresp layer."""
    for cls_name in ("NsReservoir", "SubsetReservoir"):
        cls = getattr(reservoir, cls_name, None)
        tracer.patch(cls, "__init__", "reservoir.build")
        tracer.patch(cls, "step", "reservoir.step")
    tracer.patch(reservoir, "run_reservoir", "reservoir.run_reservoir", rebind=(sweep, espmetrics))

    for attr in ("indicator_ensemble", "subset_indicator_ensemble"):
        tracer.patch(espmetrics, attr, f"espmetrics.{attr}")

    def observe_ipc(args, kwargs, result):
        features, cfg, washout = args[1], args[2], args[3]
        kept = sum(1 for _, value in result.components if value > 0.0)
        tracer.ipc_calls.append(
            (len(result.components), kept, cfg.surrogate_count, len(features) - washout)
        )

    for attr in ("narma_generate", "train_linear_readout", "rnmse", "mc_report", "trajectory_rank"):
        tracer.patch(benchmarks, attr, f"benchmarks.{attr}")
    tracer.patch(benchmarks, "ipc_report", "benchmarks.ipc_report", observe=observe_ipc)

    for attr, fn in list(vars(qmat).items()):
        if isinstance(fn, types.FunctionType) and not attr.startswith("_") and fn.__module__ == qmat.__name__:
            tracer.patch(qmat, attr, f"qmat.{attr}")

    for attr in ("run_sweep", "evaluate_point", "emit_field"):
        tracer.patch(sweep, attr, f"sweep.{attr}")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans, keyed by metric name."""
    names = tracer.names
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    n = len(dur)
    has_parent = parent >= 0

    def is_(span_name):
        return name == names.index(span_name) if span_name in names else np.zeros(n, bool)

    def child_time(mask):
        """Per span, the time its direct children selected by mask took."""
        sel = has_parent & mask
        return np.bincount(parent[sel], weights=dur[sel], minlength=n)

    layers = np.array([s.split(".")[0] for s in names] + [""])[name]
    parent_layer = np.where(has_parent, layers[np.maximum(parent, 0)], "")

    def busy(layer):
        return float(dur[(layers == layer) & (parent_layer != layer)].sum())

    own = dur - child_time(np.ones(n, bool))
    out: dict[str, float] = {}

    def put(metric, needs, value_fn):
        if all(s in names for s in needs):
            out[metric] = value_fn()

    step = is_("reservoir.step")
    run = is_("reservoir.run_reservoir")
    steps = int(step.sum())
    per_step = (lambda t: 1e6 * t / steps) if steps else (lambda t: 0.0)
    put("reservoir.step_us", ["reservoir.step"], lambda: per_step(own[step].sum()))
    put("reservoir.step_incl_us", ["reservoir.step"], lambda: per_step(dur[step].sum()))
    put("reservoir.readout_us_per_step", ["reservoir.step", "reservoir.run_reservoir"],
        lambda: per_step((dur - child_time(step))[run].sum()))
    put("reservoir.steps", ["reservoir.step"], lambda: steps)
    put("reservoir.run_calls", ["reservoir.run_reservoir"], lambda: int(run.sum()))
    put("reservoir.busy_s", ["reservoir.step", "reservoir.run_reservoir"], lambda: busy("reservoir"))
    build = is_("reservoir.build")
    put("reservoir.build_ms", ["reservoir.build"],
        lambda: 1e3 * float(dur[build].mean()) if build.any() else 0.0)

    ens = is_("espmetrics.indicator_ensemble")
    put("espmetrics.busy_s", ["espmetrics.indicator_ensemble"], lambda: busy("espmetrics"))
    put("espmetrics.self_s", ["espmetrics.indicator_ensemble", "reservoir.run_reservoir"],
        lambda: float((dur - child_time(run))[ens].sum()))

    def total(span_name):
        return lambda: float(dur[is_(span_name)].sum())

    ipc = np.array(tracer.ipc_calls, dtype=float).reshape(-1, 4)
    evals = ipc[:, 0] * ipc[:, 2]
    put("benchmarks.ipc_report_s", ["benchmarks.ipc_report"], total("benchmarks.ipc_report"))
    put("benchmarks.ipc_components", ["benchmarks.ipc_report"], lambda: int(ipc[:, 0].sum()))
    put("benchmarks.ipc_surrogate_evals", ["benchmarks.ipc_report"], lambda: int(evals.sum()))
    put("benchmarks.ipc_kept_frac", ["benchmarks.ipc_report"],
        lambda: float(ipc[:, 1].sum() / ipc[:, 0].sum()) if ipc[:, 0].sum() else 0.0)
    put("benchmarks.ipc_shuffle_bytes", ["benchmarks.ipc_report"],
        lambda: int((evals * ipc[:, 3] * 8).sum()))
    for metric, span_name in (
        ("benchmarks.mc_report_s", "benchmarks.mc_report"),
        ("benchmarks.trajectory_rank_s", "benchmarks.trajectory_rank"),
        ("benchmarks.narma_generate_s", "benchmarks.narma_generate"),
        ("benchmarks.readout_fit_s", "benchmarks.train_linear_readout"),
    ):
        put(metric, [span_name], total(span_name))

    put("qmat.partial_trace_calls", ["qmat.partial_trace"], lambda: int(is_("qmat.partial_trace").sum()))
    put("qmat.pauli_basis_matrices_calls", ["qmat.pauli_basis_matrices"],
        lambda: int(is_("qmat.pauli_basis_matrices").sum()))
    put("qmat.busy_s", ["qmat.partial_trace"], lambda: busy("qmat"))

    point = dur[is_("sweep.evaluate_point")]
    points = len(point)
    put("sweep.point_ms_p50", ["sweep.evaluate_point"],
        lambda: 1e3 * float(np.percentile(point, 50)) if points else 0.0)
    # p85 is reported only with at least ten points beyond it; 0 otherwise.
    put("sweep.point_ms_p85", ["sweep.evaluate_point"],
        lambda: 1e3 * float(np.percentile(point, 85)) if points * 0.15 >= 10 else 0.0)
    put("sweep.overhead_ms_per_point", ["sweep.run_sweep", "sweep.evaluate_point"],
        lambda: 1e3 * (float(dur[is_("sweep.run_sweep")].sum()) - float(point.sum())) / max(points, 1))
    put("sweep.emit_ms", ["sweep.emit_field"], lambda: 1e3 * float(dur[is_("sweep.emit_field")].sum()))
    return out
