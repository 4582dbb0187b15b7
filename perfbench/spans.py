"""Span tracer for the benchmark's traced rounds.

The tracer replaces each layer's public functions where their callers bind
them (``corbf.bench.fit``, ``corbf.trainer.kernel_matrix``, ...) with a
wrapper that records one span per call: name, start, end, parent and, for
counted layers, an exact work count. Spans stay in memory until the run
ends. ``layer_metrics`` turns one round's spans into per-layer self times,
counts and rates.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

from workloads import ARCHS


def _columns(args, kwargs, result) -> int:
    return int(result.shape[1])


def _updates(args, kwargs, result) -> int:
    X = args[1] if len(args) > 1 else kwargs["X"]
    return len(result.mse_linear) * int(X.shape[1])


# (layer, "module:attribute", count). The attribute is looked up where the
# caller binds it, so a call through another name is not seen; a target that
# no longer exists stops the traced run instead of reading as zero time.
TARGETS = (
    ("tasks.data", "corbf.bench:load_iris", None),
    ("tasks.data", "corbf.bench:gen_function_approx", None),
    ("tasks.data", "corbf.bench:gen_sysid", None),
    ("centers.select", "corbf.bench:subtractive_clustering", _columns),
    ("centers.select", "corbf.bench:fixed_centers", _columns),
    ("kernels.matrix", "corbf.trainer:kernel_matrix", _columns),
    ("kernels.matrix", "corbf.model:kernel_matrix", _columns),
    ("kernels.matrix", "corbf.bench:kernel_matrix", _columns),
    ("trainer.fit", "corbf.bench:fit", _updates),
    ("trainer.bound", "corbf.bench:learning_rate_bound", None),
    ("model.eval", "corbf.bench:forward_batch", None),
    ("model.eval", "corbf.metrics:forward_batch", None),
    ("model.eval", "corbf.model:MultiHeadRbfModel.forward_batch", None),
    ("model.eval", "corbf.model:MultiHeadRbfModel.decide_batch", None),
    ("metrics.eval", "corbf.bench:error_surface", None),
    ("metrics.eval", "corbf.bench:confusion", None),
    ("metrics.eval", "corbf.bench:sensitivity_specificity_youden", None),
    ("bench.write", "corbf.bench:write_trace_csv", None),
    ("bench.write", "corbf.bench:write_metric_table", None),
    ("bench.write", "corbf.bench:_write_surface_csv", None),
    ("bench.write", "corbf.bench:_write_test_errors_csv", None),
    ("bench.write", "corbf.bench:_write_sysid_trace_csv", None),
)

# Layers each task must reach in a traced round. A layer listed here that
# records no span means a wrapper no longer sits on the path the program
# takes, which fails the run.
REQUIRED = {
    "iris": ("tasks.data", "centers.select", "kernels.matrix", "trainer.fit",
             "trainer.bound", "model.eval", "metrics.eval", "bench.write"),
    "funapprox": ("tasks.data", "kernels.matrix", "trainer.fit", "trainer.bound",
                  "model.eval", "metrics.eval", "bench.write"),
    "sysid": ("tasks.data", "centers.select", "kernels.matrix", "trainer.fit",
              "trainer.bound", "model.eval", "bench.write"),
}


# Per-layer metrics of a traced run, in print order.
LAYER_UNITS = {
    "tasks.data_s": "s",
    "centers.select_s": "s", "centers.count": "count",
    "kernels.matrix_s": "s", "kernels.columns": "count", "kernels.columns_per_s": "1/s",
    **{f"trainer.fit_s.{a}": "s" for a in ARCHS},
    **{f"trainer.updates.{a}": "count" for a in ARCHS},
    **{f"trainer.updates_per_s.{a}": "1/s" for a in ARCHS},
    "trainer.bound_s": "s",
    "model.eval_s": "s", "metrics.eval_s": "s",
    "bench.write_s": "s", "bench.write_bytes": "bytes", "bench.files": "count",
    "bench.report_s": "s", "bench.other_s": "s",
    **{f"trace.overhead_s.{a}": "s" for a in ARCHS},
    "trace.spans": "count",
}


class Tracer:
    """Records nested spans in memory; single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["attrs"]["count"] = count(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target; raises if one is missing."""
        for layer, target, count in TARGETS:
            module_name, attr_path = target.split(":")
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if not callable(original):
                self.uninstall()
                raise RuntimeError(f"trace target {target} does not exist")
            setattr(owner, attr, self._wrap(layer, original, count))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[dict], task: str) -> dict[str, float]:
    """Per-layer totals over one round's spans.

    A span's self time is its duration minus that of its direct children
    (children never overlap: one thread). Per-architecture figures follow the
    enclosing ``bench.battery`` span's ``arch``.
    """
    by_id = {s["id"]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s["parent"] in by_id:
            child[s["parent"]] += s["end"] - s["start"]

    def arch_of(s: dict) -> str | None:
        while s is not None:
            if "arch" in s["attrs"]:
                return s["attrs"]["arch"]
            s = by_id.get(s["parent"])
        return None

    self_s = defaultdict(float)
    counts = defaultdict(int)
    seen = set()
    for s in spans:
        own = s["end"] - s["start"] - child[s["id"]]
        name = s["name"]
        seen.add(name)
        if name == "trainer.fit":
            name = f"trainer.fit.{arch_of(s)}"
        self_s[name] += own
        counts[name] += s["attrs"].get("count", 0)

    missing = [layer for layer in REQUIRED[task] if layer not in seen]
    if missing:
        raise RuntimeError(f"traced round saw no call into {', '.join(missing)}")

    m = {
        "tasks.data_s": self_s["tasks.data"],
        "centers.select_s": self_s["centers.select"],
        "centers.count": counts["centers.select"],
        "kernels.matrix_s": self_s["kernels.matrix"],
        "kernels.columns": counts["kernels.matrix"],
        "kernels.columns_per_s": counts["kernels.matrix"] / self_s["kernels.matrix"],
        "trainer.bound_s": self_s["trainer.bound"],
        "model.eval_s": self_s["model.eval"],
        "metrics.eval_s": self_s["metrics.eval"],
        "bench.write_s": self_s["bench.write"],
        "bench.report_s": self_s["bench.report"],
        "bench.other_s": self_s["bench.battery"],
        "trace.spans": len(spans),
    }
    for arch in ARCHS:
        fit_s = self_s[f"trainer.fit.{arch}"]
        m[f"trainer.fit_s.{arch}"] = fit_s
        m[f"trainer.updates.{arch}"] = counts[f"trainer.fit.{arch}"]
        m[f"trainer.updates_per_s.{arch}"] = counts[f"trainer.fit.{arch}"] / fit_s
    return m
