"""Spans around the calls into each layer of ``dpem``, taken from outside.

A :class:`Tracer` replaces module-level functions with timing wrappers in
the namespace of each calling module, so ``dpem.dpem_mog.e_step`` is
wrapped as well as ``dpem.mog.e_step``. Spans stay in memory until
:meth:`Tracer.write` is called once, at the end of a run. A name that is
missing from its module is recorded as absent and the run goes on.
"""
from __future__ import annotations

import importlib
import json
import pickle
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _method_of_plan(args, kwargs):
    plan = kwargs.get("plan", args[0] if args else None)
    return getattr(plan, "method", "unknown")


def _method_arg(args, kwargs):
    return kwargs.get("method", args[1] if len(args) > 1 else "unknown")


def _trace_sizes(args, kwargs, result):
    trace = kwargs.get("trace", args[0] if args else None)
    return {"accountant.compose_trace.records": len(trace),
            "accountant.compose_trace.groups": len(trace.groups())}


def _psd_clamped(args, kwargs, result):
    mat = kwargs.get("mat", args[0] if args else None)
    return {"mechanisms.psd_project.clamped":
            0 if np.array_equal(np.asarray(mat, dtype=float), result) else 1}


def _assign_work(args, kwargs, result):
    """Computed, not counted: three flops (subtract, square, add) per point,
    centre and coordinate; bytes of X and the centres read and labels
    written, without temporaries."""
    X, centers = args[0], args[1]
    n, d = X.shape
    k = centers.shape[0]
    return {"kmeans.assign.flops": 3 * n * k * d,
            "kmeans.assign.bytes": X.nbytes + centers.nbytes + 8 * n}


def _task_bytes(args, kwargs, result):
    """Bytes of the task as ``pickle`` writes it: what a ``--jobs N`` pool
    ships to a worker for this cell."""
    task = kwargs.get("task", args[0] if args else None)
    return {"cli.task_bytes": len(pickle.dumps(task))}


RELEASE = "mechanisms.release"
# (module, attribute, span name or callable giving it, counter hook)
TARGETS = [
    ("dpem.mog", "e_step", "mog.e_step", None),
    ("dpem.dpem_mog", "e_step", "mog.e_step", None),
    ("dpem.mog", "log_likelihood", "mog.log_likelihood", None),
    ("dpem.cli", "log_likelihood", "mog.log_likelihood", None),
    ("dpem.dpem_mog", "run_dpem_mog", "dpem_mog.run", None),
    ("dpem.cli", "run_dpem_mog", "dpem_mog.run", None),
    ("dpem.dpem_mog", "perturb_simplex", RELEASE, None),
    ("dpem.dpem_mog", "perturb_mean", RELEASE, None),
    ("dpem.dpem_mog", "analyze_gauss_perturb", RELEASE, None),
    ("dpem.mechanisms", "psd_project", "mechanisms.psd_project", _psd_clamped),
    ("dpem.mog", "psd_project", "mechanisms.psd_project", _psd_clamped),
    ("dpem.accountant", "calibrate",
     lambda a, k: f"accountant.calibrate.{_method_of_plan(a, k)}", None),
    ("dpem.dpem_mog", "calibrate",
     lambda a, k: f"accountant.calibrate.{_method_of_plan(a, k)}", None),
    ("dpem.accountant", "compose_trace",
     lambda a, k: f"accountant.compose_trace.{_method_arg(a, k)}", _trace_sizes),
    ("dpem.cli", "compose_trace",
     lambda a, k: f"accountant.compose_trace.{_method_arg(a, k)}", _trace_sizes),
    ("dpem.accountant", "zcdp_calibrate_pure", "accountant.zcdp_calibrate_pure", None),
    ("dpem.kmeans", "zcdp_calibrate_pure", "accountant.zcdp_calibrate_pure", None),
    ("dpem.kmeans", "_assign", "kmeans.assign", _assign_work),
    ("dpem.kmeans", "_counts_and_sums", "kmeans.counts_and_sums", None),
    ("dpem.kmeans", "nicv", "kmeans.nicv", None),
    ("dpem.kmeans", "dpem_kmeans", "kmeans.fit", None),
    ("dpem.kmeans", "dplloyd", "kmeans.fit", None),
    ("dpem.dataio", "synth_mog", "dataio.synth_mog", None),
    ("dpem.data", "preprocess", "data.preprocess", None),
    ("dpem.cli", "preprocess", "data.preprocess", None),
    ("dpem.dataio", "cv_split", "dataio.cv_split", None),
    ("dpem.dataio", "write_results_jsonl", "dataio.write", None),
    ("dpem.dataio", "write_summary_csv", "dataio.write", None),
    ("dpem.cli", "_run_cell", "cli.run_cell", _task_bytes),
]


class Tracer:
    """Records spans ``[name, start, end, parent, op]`` while ``recording``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.recording = False
        self.op = None  # index of the operation being traced, None in set-up
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = [span_name, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None and self.op is not None:
                for key, val in hook(args, kwargs, result).items():
                    self.counts[key] += val
            return result
        traced.__wrapped__ = fn
        return traced

    def totals(self, ops_only: bool = True):
        """Per span name: summed duration, call count and summed self time."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        dur, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if ops_only and op is None:
                continue
            dur[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - child_time[idx]
        return dur, calls, self_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
