"""Outside-in layer tracing: wrap geograph's public functions in spans.

``Tracer.install`` replaces each target function, in every geograph module
namespace that holds it (so ``from .x import f`` aliases are covered too),
with a wrapper that records a span: layer name, start, end, parent span and
the phase (0 = set-up, k = round k) in an in-memory list. Python's garbage
collector is recorded the same way through ``gc.callbacks``, so a collection
that runs inside a training step is charged to ``runtime.gc`` rather than to
the step. ``layer_metrics`` turns the spans into self times and counts.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from collections import defaultdict

# module -> {qualified name in module: layer}. Several functions may share a
# layer; class attributes are written "Class.method".
TARGETS = {
    "geograph.data": {"load_dataset": "data.load", "subsample_labels": "data.partition"},
    "geograph.views": {
        "build_text_view": "views.text",
        "build_mention_graph": "views.graph",
        "normalize_adjacency": "views.normalize",
    },
    "geograph.geo": {
        "RegionTree.build": "geo.tree",
        "RegionTree.assign_many": "geo.assign",
        "evaluate": "geo.evaluate",
    },
    "geograph.sparse": {
        "SparseMatrix.__init__": "sparse.build",
        "SparseMatrix.from_dense": "sparse.build",
        "SparseMatrix.from_triplets": "sparse.build",
        "hstack": "sparse.build",
        "SparseMatrix.matmul_dense": "sparse.matmul",
        "SparseMatrix.transpose": "sparse.transpose",
    },
    "geograph.autodiff": {
        "backward": "autodiff.backward",
        "sigmoid": "autodiff.sigmoid",
        "make_dropout_mask": "autodiff.mask",
        "dropout": "autodiff.mask",
    },
    "geograph.optim": {"ParamSet.adam_step": "optim.adam", "ParamSet.zero_grads": "optim.zero_grads"},
    "geograph.models": {
        "gcn_forward": "models.forward",
        "mlp_forward": "models.forward",
        "projection_forward": "models.forward",
        "lp_input": "models.lp_input",
        "predict_logits": "models.predict",
    },
    "geograph.sweep": {"fit_model": "sweep.fit", "evaluate_model": "sweep.evaluate"},
    "geograph.checkpoint": {"save_checkpoint": "checkpoint.save", "load_checkpoint": "checkpoint.load"},
}

# Per-layer metrics: name -> (unit, better). Times are self times (span minus
# its child spans) unless listed in INCLUSIVE.
LAYER_METRICS = {
    "data.load_s": ("s", "lower"),
    "data.partition_s": ("s", "lower"),
    "views.text_s": ("s", "lower"),
    "views.graph_s": ("s", "lower"),
    "views.normalize_s": ("s", "lower"),
    "views.adj_nnz": ("count", "lower"),
    "views.text_nnz": ("count", "lower"),
    "geo.tree_s": ("s", "lower"),
    "geo.assign_s": ("s", "lower"),
    "geo.evaluate_s": ("s", "lower"),
    "geo.classes": ("count", "higher"),
    "sparse.build_count": ("count", "lower"),
    "sparse.build_s": ("s", "lower"),
    "sparse.matmul_count": ("count", "lower"),
    "sparse.matmul_s": ("s", "lower"),
    "sparse.transpose_s": ("s", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.sigmoid_count": ("count", "lower"),
    "autodiff.sigmoid_s": ("s", "lower"),
    "autodiff.mask_s": ("s", "lower"),
    "optim.adam_s": ("s", "lower"),
    "optim.zero_grads_s": ("s", "lower"),
    "optim.step_count": ("count", "lower"),
    "models.forward_s": ("s", "lower"),
    "models.lp_input_count": ("count", "lower"),
    "models.lp_input_s": ("s", "lower"),
    "models.predict_s": ("s", "lower"),
    "sweep.fit_s": ("s", "lower"),
    "sweep.evaluate_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "runtime.gc_count": ("count", "lower"),
    "runtime.gc_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    # Wall time inside evaluate_model, summed over cells; it varies more from
    # run to run than an end-to-end bound allows.
    "predict_s": ("s", "lower"),
    # Model quality, averaged over the workload's cells. Deterministic
    # for a seed, but it moves far more from seed to seed than any bound.
    "final_train_loss": ("nats", "lower"),
    "test_acc161": ("fraction", "higher"),
    "test_median_km": ("km", "lower"),
    "test_mean_km": ("km", "lower"),
}
INCLUSIVE = {"sweep.fit", "sweep.evaluate", "models.predict"}


class Tracer:
    def __init__(self) -> None:
        # (layer, start, end, parent index or -1, phase); filled on exit.
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.phase = 0
        self._gc_start = 0.0

    def _wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            spans.append(None)
            index = len(spans) - 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (layer, start, clock(), parent, self.phase)

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(("runtime.gc", self._gc_start, time.perf_counter(), parent, self.phase))

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "geograph" or name.startswith("geograph.")]
        for module_name, targets in TARGETS.items():
            module = sys.modules[module_name]
            for qualname, layer in targets.items():
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(raw.__func__, layer)))
                    else:
                        setattr(cls, attr, self._wrap(raw, layer))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(original, layer)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def layer_metrics(self, rounds: int, values: dict[str, float]) -> dict[str, float]:
        """Set-up phase totals plus the median over rounds of each round's total.

        ``values`` holds metrics read from outputs rather than spans (nnz,
        classes, checkpoint bytes); they are passed through unchanged.
        """
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_phase: dict[str, list[float]] = defaultdict(lambda: [0.0] * (rounds + 1))
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            layer, start, end, parent, phase = span
            duration = end - start
            parent_layer = self.spans[parent][0] if parent >= 0 and self.spans[parent] else None
            per_phase[f"{layer}_s"][phase] += duration if layer in INCLUSIVE else duration - child_time[index]
            if parent_layer != layer:  # a construction calling another counts once
                per_phase[f"{layer}_count"][phase] += 1
        per_phase["optim.step_count"] = per_phase["optim.adam_count"]

        out = {}
        for name in LAYER_METRICS:
            if name in values:
                out[name] = values[name]
                continue
            series = per_phase.get(name, [0.0] * (rounds + 1))
            out[name] = series[0] + (statistics.median(series[1:]) if rounds else 0.0)
        return out
