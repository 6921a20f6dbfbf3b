"""Spans around the calls into each weakbounds layer, installed from outside.

weakbounds imports functions by value (``from .bounds import estimate_bounds``),
so wrapping the defining module alone would miss calls. ``Tracer.install``
replaces the function object wherever any weakbounds module holds it, and
``uninstall`` puts the originals back, so traced and untraced jobs can
alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# span name "<module>.<function>" names weakbounds.<module>.<function>
TRACED = (
    "objective.gradient",
    "objective.minimized_value",
    "solver.minimize",
    "bounds.estimate_bounds",
    "bounds.plugin_std",
    "metrics.threshold_sweep",
    "metrics.build_g",
    "oracle.exact_bounds",
    "oracle.transport_general",
    "fileio.read_dataset_csv",
    "fileio.write_dataset_csv",
    "fileio.dump_result_json",
    "fileio.write_sweep_csv",
    "domain.encode_signatures",
    "synth.generate_synthetic",
    "diagnostics.label_model_score",
    "diagnostics.conditional_entropy_y",
)
ENTRY = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, job)
        self.job = None
        self._stack = []
        self._counters = defaultdict(Counter)
        self._undo = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        c = self._counters[self.job]
        if name.startswith("objective."):
            c["rows_evaluated"] += args[0].n
        elif name == "fileio.read_dataset_csv":
            c["read_bytes"] += os.path.getsize(args[0])
        elif name == "fileio.write_dataset_csv":
            c["write_bytes"] += os.path.getsize(args[0])
        elif name == "domain.encode_signatures":
            c["rows_encoded"] += len(args[0])
        elif name == "solver.minimize":
            report = result[1]
            c["iterations"] += report.iterations
            c["unconverged"] += not report.converged
            c["max_final_grad_norm"] = max(c["max_final_grad_norm"], report.final_gradient_norm)

    def install(self):
        """Wrap every traced function at every weakbounds import site.

        A traced function that no longer exists raises here: a renamed or
        moved layer must show up as an error, never as a silent zero.
        """
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "weakbounds"]
        for span in TRACED:
            module, fn = span.split(".")
            try:
                original = getattr(importlib.import_module(f"weakbounds.{module}"), fn)
            except (ImportError, AttributeError) as exc:
                original = exc
            if not callable(original):
                raise SystemExit(f"traced layer weakbounds.{span} is gone ({original}); "
                                 "update TRACED in perfbench/tracing.py")
            wrapper = self.wrap(span, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def job_metrics(self, job):
        """Per-layer metrics of one traced job."""
        covered = Counter()  # span index -> time its children cover
        for name, start, end, parent, j in self.spans:
            if j == job and parent >= 0:
                covered[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        sweep_solves = 0
        for i, (name, start, end, parent, j) in enumerate(self.spans):
            if j != job:
                continue
            calls[name] += 1
            total[name] += (end - start) / 1e9
            own[name] += (end - start - covered[i]) / 1e9
            if name == "solver.minimize" and self._has_ancestor(parent, "metrics.threshold_sweep"):
                sweep_solves += 1
        out = {}
        for name in (ENTRY, *TRACED):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        c = self._counters[job]
        rate = lambda amount, seconds: amount / seconds if seconds > 0 else 0.0
        evals_s = total["objective.gradient"] + total["objective.minimized_value"]
        out.update(
            {
                "objective.ns_per_row_eval": rate(evals_s * 1e9, c["rows_evaluated"]),
                "solver.iterations": c["iterations"],
                "solver.unconverged": c["unconverged"],
                "solver.max_final_grad_norm": float(c["max_final_grad_norm"]),
                "metrics.threshold_sweep.solves": sweep_solves,
                "fileio.read_mb_per_s": rate(c["read_bytes"] / 1e6, total["fileio.read_dataset_csv"]),
                "fileio.write_mb_per_s": rate(c["write_bytes"] / 1e6, total["fileio.write_dataset_csv"]),
                "domain.rows_per_s": rate(c["rows_encoded"], total["domain.encode_signatures"]),
            }
        )
        return out

    def _has_ancestor(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def reached(self):
        return {span[0] for span in self.spans}

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")
