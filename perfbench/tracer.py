"""In-process spans around every public function of tailkit's modules.

``Tracer.install`` wraps each module's public functions (plus two private
helpers whose arguments carry counts) and patches every tailkit module that
bound the original at import, since ``from .loss import stable_sigmoid`` and
the like copy the name into ``cli``, ``trainer``, ``pipeline`` and
``zeroshot``.  Each call records a span (name, start, end, parent) in memory;
``layer_metrics`` turns the spans and counters of one pass into per-layer
metrics.  A span's self time is its duration minus its child spans'.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("data", "raster", "rng", "loss", "sampler", "trainer", "pipeline", "zeroshot", "metrics", "cli")

# Counts taken from array sizes or file sizes rather than counted by the program.
COMPUTED = ("rng.draws", "zeroshot.flops", "raster.pixels", "data.bytes_read", "data.bytes_written",
            "cli.digest_bytes")

# Private helpers that are spanned because their arguments carry a count.
PRIVATE_SPANNED = {"cli": ("_sha256",), "pipeline": ("_align_to",)}


def _size(value) -> int:
    """Cells in an array, a matrix-like result or a list of arrays."""
    if isinstance(value, (list, tuple)):
        return sum(_size(v) for v in value)
    for attr in ("values", "vectors", "pixels", "indices"):
        inner = getattr(value, attr, None)
        if hasattr(inner, "shape"):
            return int(inner.size)
    return int(value.size) if hasattr(value, "shape") else 0


def _rows(value) -> int:
    return len(value.ids) if hasattr(value, "ids") else 0


def _file_bytes(path) -> int:
    path = os.fspath(path)
    sidecar = path + ".ids.json"
    return os.path.getsize(path) + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


def _count_build_epoch(c, args, kwargs, result, parent_layer):
    n, length = len(args[0]), int(result.indices.size)
    c["sampler.epochs"] += 1
    c["sampler.indices"] += length
    c["sampler.base"] += n
    # one next_float per sample, then len - 1 bounded draws in the shuffle
    c["rng.draws"] += n + max(length - 1, 0)
    if parent_layer == "trainer":
        c["trainer.sample_steps"] += length


def _count_load(c, args, kwargs, result, parent_layer):
    c["data.bytes_read"] += _file_bytes(args[0])
    c["data.rows"] += _rows(result)


def _count_save(c, args, kwargs, result, parent_layer):
    c["data.bytes_written"] += _file_bytes(args[1])
    c["data.rows"] += _rows(args[0])


def _count_align(c, args, kwargs, result, parent_layer):
    reference, other = args
    if result is not other.values:
        c["pipeline.realigned_rows"] += len(reference.ids)


def _count_macro_report(c, args, kwargs, result, parent_layer):
    c["metrics.columns"] += len(result.per_class)
    c["metrics.skipped"] += len(result.skipped_classes)


def _count_score_batch(c, args, kwargs, result, parent_layer):
    images, bank = args[0], args[1]
    n, d = images.vectors.shape
    c["zeroshot.flops"] += 2 * n * d * len(bank.class_names)


def _count_sha256(c, args, kwargs, result, parent_layer):
    c["cli.digest_bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "sampler.build_epoch": _count_build_epoch,
    "data.load_labels": _count_load,
    "data.load_scores": _count_load,
    "data.load_embeddings": _count_load,
    "data.save_labels": _count_save,
    "data.save_scores": _count_save,
    "data.save_embeddings_binary": _count_save,
    "data.save_embeddings_csv": _count_save,
    "pipeline._align_to": _count_align,
    "metrics.macro_report": _count_macro_report,
    "zeroshot.score_batch": _count_score_batch,
    "cli._sha256": _count_sha256,
}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def reset(self) -> None:
        self.spans, self.counters, self._stack = [], defaultdict(int), []

    def _wrap(self, span_name: str, fn):
        layer = span_name.split(".", 1)[0]
        count = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            parent = stack[-1] if stack else -1
            parent_layer = spans[parent][0].split(".", 1)[0] if parent >= 0 else ""
            span = [span_name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if parent_layer != layer:
                # count work once, at the outermost call into the layer
                self.counters[f"{layer}.outer_calls"] += 1
                self.counters[f"{layer}.outer_cells"] += _size(args[0]) if args else 0
                self.counters[f"{layer}.result_cells"] += _size(result)
            if count is not None:
                count(self.counters, args, kwargs, result, parent_layer)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions at every tailkit import site."""
        modules = {name: sys.modules[f"tailkit.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                public = not attr.startswith("_") or attr in PRIVATE_SPANNED.get(layer, ())
                if public and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "tailkit" and not name.startswith("tailkit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans and counters recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        data_io_s = defaultdict(float)  # outermost data-layer calls, by verb (load, save)
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer, function = name.split(".", 1)
            self_s[layer] += end - start - child[i]
            inclusive[name] += end - start
            if layer == "data" and (parent < 0 or not self.spans[parent][0].startswith("data.")):
                data_io_s[function.split("_", 1)[0]] += end - start
        c = self.counters

        return {
            "rng.draws": c["rng.draws"],
            "sampler.self_s": self_s["sampler"],
            "sampler.epochs": c["sampler.epochs"],
            "sampler.epoch_len": c["sampler.indices"] / max(c["sampler.epochs"], 1),
            "sampler.oversample_ratio": c["sampler.indices"] / max(c["sampler.base"], 1),
            "loss.self_s": self_s["loss"],
            "loss.calls": c["loss.outer_calls"],
            "loss.cells": c["loss.outer_cells"],
            "trainer.self_s": self_s["trainer"],
            "trainer.sample_steps": c["trainer.sample_steps"],
            "data.load_s": data_io_s["load"],
            "data.save_s": data_io_s["save"],
            "data.bytes_read": c["data.bytes_read"],
            "data.bytes_written": c["data.bytes_written"],
            "data.rows": c["data.rows"],
            "pipeline.self_s": self_s["pipeline"],
            "pipeline.cells": c["pipeline.result_cells"],
            "pipeline.realigned_rows": c["pipeline.realigned_rows"],
            "metrics.self_s": self_s["metrics"],
            "metrics.auc_s": inclusive["metrics.auc_roc"],
            "metrics.ap_s": inclusive["metrics.average_precision"],
            "metrics.ece_s": inclusive["metrics.ece"],
            "metrics.columns": c["metrics.columns"],
            "metrics.skipped": c["metrics.skipped"],
            "raster.self_s": self_s["raster"],
            "raster.pixels": c["raster.result_cells"],
            "zeroshot.self_s": self_s["zeroshot"],
            "zeroshot.flops": c["zeroshot.flops"],
            "cli.self_s": self_s["cli"],
            "cli.digest_bytes": c["cli.digest_bytes"],
        }
