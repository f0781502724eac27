"""Outside-in instrumentation of the sarchange layers.

Nothing inside the package is changed.  For the length of a pass, the
module-level bindings that the pipeline calls through are replaced by
wrappers and restored afterwards:

* timing mode records one span (name, start, end, parent) per call; a
  counter hook runs right after the call it counts, outside that call's
  span (its milliseconds land in the caller's span and in the tracing
  overhead);
* memory mode keeps, for the outer calls of each module, the largest
  tracemalloc peak above the traced size at entry.

Counters are computed only from public arguments and return values.  A
binding that a later version of the package no longer has is skipped
and reported; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# metric -> bindings ("module.attribute" inside sarchange) whose calls it times.
TIMED = {
    "raster.load_s": ["pipeline.load_raster"],
    "raster.save_s": ["pipeline.save_raster"],
    "difference.log_ratio_s": ["pipeline.log_ratio_di"],
    "preclassify.preclassify_s": ["pipeline.preclassify_di"],
    "preclassify.kmeans_s": ["preclassify.kmeans_cluster"],
    "preclassify.sample_s": ["pipeline.sample_training"],
    "propagation.clean_s": ["pipeline.clean_labels"],
    "superpixels.segment_s": ["propagation.segment_superpixels"],
    "propagation.weights_s": ["propagation.build_weights", "propagation.build_transition"],
    "propagation.propagate_s": ["propagation.propagate"],
    "patch_features.stack_s": [
        "pipeline.stack_features", "pipeline.raw_feature_stack", "pipeline.zscore_channels",
    ],
    "patch_features.select_s": ["patch_features.select_kernels"],
    "patch_features.conv_s": ["patch_features.conv_layer"],
    "patch_features.pca_s": ["patch_features.pca_reduce"],
    "svm.build_samples_s": ["pipeline.build_samples"],
    "svm.train_s": ["pipeline.train_svm"],
    "svm.predict_s": ["pipeline.predict_map"],
    "metrics.evaluate_s": [
        "metrics.confusion", "metrics.roc_auc", "metrics.pcc", "metrics.kappa",
        "metrics.f1", "metrics.write_roc_csv",
    ],
}

# metric -> bindings of the module's outer calls, for the memory pass.
MEMORY = {
    "preclassify.peak_mb": ["pipeline.preclassify_di", "pipeline.sample_training"],
    "propagation.peak_mb": ["pipeline.clean_labels"],
    "patch_features.peak_mb": TIMED["patch_features.stack_s"],
    "svm.peak_mb": ["pipeline.build_samples", "pipeline.predict_map"],
}
UNTRACED = ("pipeline.train_svm",)  # see MemoryProbe

# Per-layer metrics that count things; the rest without a unit suffix are ratios.
COUNTS = {
    "superpixels.regions", "superpixels.region_px_max", "propagation.propagate_calls",
    "patch_features.fallback_layers", "patch_features.pca_channels", "svm.n_train",
    "svm.support_vectors",
}

ROOT = "pipeline.run_pipeline"
SV_MARGIN = 1.0 + 1e-3  # training rows at or inside the margin count as support vectors
MB = 1e6


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root


def _resolve(binding: str):
    module_name, attr = binding.split(".")
    module = importlib.import_module(f"sarchange.{module_name}")
    return module, attr


class _Patches:
    """Replace bindings with wrappers; ``restore`` puts the originals back."""

    def __init__(self):
        self._saved = []
        self.missing: list[str] = []

    def install(self, binding: str, make_wrapper) -> None:
        module, attr = _resolve(binding)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(binding)
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(binding, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------- counters


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_segment(c, a, rm, truth):
    c["superpixels.regions"] += rm.region_count
    sizes = np.bincount(np.asarray(rm.region_id).ravel())
    c["superpixels.region_px_max"] = max(c["superpixels.region_px_max"], float(sizes.max()))


def _count_clean(c, a, cleaned, truth):
    before = np.asarray(a["pseudo"].labels)
    after = np.asarray(cleaned.labels)
    labeled = before >= 0  # UNLABELED is -1
    gt = truth[labeled]
    c["clean.labeled"] += int(labeled.sum())
    c["clean.err_before"] += int(((before[labeled] == 1) != gt).sum())
    c["clean.err_after"] += int(((after[labeled] == 1) != gt).sum())
    c["clean.flips"] += int((before[labeled] != after[labeled]).sum())


def _count_preclassify(c, a, pseudo, truth):
    labels = np.asarray(pseudo.labels)
    c["preclassify.changed"] += int((labels == 1).sum())
    c["preclassify.pixels"] += labels.size


def _count_propagate(c, a, result, truth):
    c["propagation.propagate_calls"] += 1


def _count_select(c, a, kernels, truth):
    c["patch_features.fallback_layers"] += int(bool(kernels.fallback))


def _count_pca(c, a, reduced, truth):
    c["patch_features.pca_channels"] += reduced.channels


def _count_conv(c, a, out, truth):
    # Computed, not measured: the reflect-padded input, the im2col matrix
    # (one row of c*k*k values per pixel) and the (pixels, m) output.
    f, kset = a["f"], a["kernels"]
    m, k = kset.kernels.shape[0], kset.kernels.shape[1]
    item = f.data.itemsize
    h, w, ch = f.data.shape
    padded = (h + k - 1) * (w + k - 1) * ch
    nbytes = (padded + h * w * ch * k * k + h * w * m) * item
    c["patch_features.conv_bytes"] = max(c["patch_features.conv_bytes"], nbytes)


def _count_samples(c, a, result, truth):
    c["svm.n_train"] += result[0].shape[0]


def _count_train(c, a, model, truth):
    x, y = np.asarray(a["x"], dtype=np.float64), np.asarray(a["y"], dtype=np.float64)
    w, b = np.asarray(model.weights, dtype=np.float64), float(model.bias)
    margins = y * (x @ w + b)
    c["svm.support_vectors"] += int((margins <= SV_MARGIN).sum())
    c["svm.objective"] += 0.5 * float(w @ w) + float(a["c"]) * float(
        np.maximum(0.0, 1.0 - margins).sum())


HOOKS = {
    "propagation.segment_superpixels": _count_segment,
    "pipeline.clean_labels": _count_clean,
    "pipeline.preclassify_di": _count_preclassify,
    "propagation.propagate": _count_propagate,
    "patch_features.select_kernels": _count_select,
    "patch_features.pca_reduce": _count_pca,
    "patch_features.conv_layer": _count_conv,
    "pipeline.build_samples": _count_samples,
    "pipeline.train_svm": _count_train,
}


# ---------------------------------------------------------------- timing


class Tracer:
    """Timing pass: spans at every instrumented binding plus counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.truth: np.ndarray | None = None  # current scene, True where changed
        self._stack: list[int] = []
        self._patches = _Patches()

    @property
    def missing(self) -> list[str]:
        return self._patches.missing

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
            if hook is not None:
                hook(self.counts, _bound(fn, args, kwargs), result, self.truth)
            return result

        return traced

    def __enter__(self):
        for binding in sorted({b for bs in TIMED.values() for b in bs} | set(HOOKS)):
            self._patches.install(binding, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def run(self, run_pipeline, cfg, truth: np.ndarray) -> float:
        """Time one pipeline call as a root span; ``truth`` is the scene's
        change mask, against which label noise is counted."""
        self.truth = truth
        root = len(self.spans)
        self._wrap(ROOT, run_pipeline)(cfg)
        return self.spans[root].end - self.spans[root].start

    def metrics(self) -> dict[str, float]:
        """Per-layer seconds and counters over every span recorded so far."""
        metric_of = {b: m for m, bs in TIMED.items() for b in bs}
        out = {m: 0.0 for m in TIMED}
        for span in self.spans:
            metric = metric_of.get(span.name)
            if metric is None or self._nested_in(span, metric, metric_of):
                continue
            out[metric] += span.end - span.start
        roots = [i for i, s in enumerate(self.spans) if s.name == ROOT]
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and self.spans[s.parent].name == ROOT:
                children[s.parent] += s.end - s.start
        out["pipeline.self_s"] = sum(
            self.spans[i].end - self.spans[i].start - children[i] for i in roots)

        c = self.counts
        for name in sorted(COUNTS) + ["patch_features.conv_bytes", "svm.objective"]:
            out[name] = c[name]
        labeled = max(c["clean.labeled"], 1.0)
        out["propagation.flip_ratio"] = c["clean.flips"] / labeled
        out["propagation.noise_before"] = c["clean.err_before"] / labeled
        out["propagation.noise_after"] = c["clean.err_after"] / labeled
        out["preclassify.changed_frac"] = c["preclassify.changed"] / max(c["preclassify.pixels"], 1.0)
        return out

    def _nested_in(self, span, metric, metric_of) -> bool:
        """True when an enclosing span already counts toward ``metric``."""
        parent = span.parent
        while parent is not None:
            if metric_of.get(self.spans[parent].name) == metric:
                return True
            parent = self.spans[parent].parent
        return False


# ---------------------------------------------------------------- memory


class MemoryProbe:
    """Memory pass: tracemalloc peak above the entry level of each module's
    outer calls.  tracemalloc slows the pass, so its timings are discarded.

    ``train_svm`` runs with tracing stopped: its per-coordinate Python loop
    runs about 20x slower under tracemalloc, which no run could afford at
    the benchmark's larger scenes.  ``svm.peak_mb`` therefore covers
    ``build_samples`` and ``predict_map``.
    """

    def __init__(self):
        self.peaks = {m: 0.0 for m in MEMORY}
        self._patches = _Patches()

    @property
    def missing(self) -> list[str]:
        return self._patches.missing

    def _measure(self, metric):
        def make(name, fn):
            @functools.wraps(fn)
            def measured(*args, **kwargs):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    rise = (tracemalloc.get_traced_memory()[1] - base) / MB
                    self.peaks[metric] = max(self.peaks[metric], rise)
            return measured
        return make

    @staticmethod
    def _untraced(name, fn):
        @functools.wraps(fn)
        def paused(*args, **kwargs):
            tracemalloc.stop()
            try:
                return fn(*args, **kwargs)
            finally:
                tracemalloc.start()
        return paused

    def __enter__(self):
        for metric, bindings in MEMORY.items():
            for binding in bindings:
                self._patches.install(binding, self._measure(metric))
        for binding in UNTRACED:
            self._patches.install(binding, self._untraced)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self._patches.restore()
