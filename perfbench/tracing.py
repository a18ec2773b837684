"""Spans, counters and the wrappers that record them around the program's
layers.

A span has a name, a start, an end and the span that was open when it
began. Spans and counts are kept in memory and summarised at the end of a
traced run. The wrappers are installed from here, around the public entry
point of each layer, and removed again afterwards: the program itself
carries no tracing code.

Backward time per layer cannot be read off the program's single backward
sweep, so `replay_backward` re-runs a layer's public call on inputs
captured during the traced run and times `autodiff.backward` on the sum of
its output.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

CAPTURES_PER_LAYER = 5


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.captures: dict[str, list] = defaultdict(list)
        self.images: dict[str, set] = defaultdict(set)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")
        self.spans[index].end = self.clock()

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out[span.name]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += own
        return dict(out)


# ---------------------------------------------------------------------------
# instrumentation


# Public autodiff functions counted as ops; `_slice` is what tensor[...] calls.
OP_NAMES = (
    "add", "sub", "mul", "neg", "relu", "gelu", "pow_scalar", "maximum_scalar",
    "dropout", "matmul", "linear", "transpose2d", "reshape", "_slice", "take_pairs",
    "embedding_gather", "concat", "stack", "tensor_sum", "mean", "softmax",
    "log_sum_exp", "layer_norm", "conv2d",
)


def _image_key(image) -> bytes:
    arr = np.ascontiguousarray(image)
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


class Instrumentation:
    """Wraps the program's layer entry points while active.

    Use as a context manager; leaving it restores every original function,
    method and alias, so untraced code after it runs the unwrapped program.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.originals: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, wrapper):
        """Replace module.attr and every alias of it in the mmner modules."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mmner" or name.startswith("mmner.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, alias, wrapper)

    def _span_wrapper(self, key, original, name, capture=False, image_arg=None):
        tracer = self.tracer
        signature = inspect.signature(original) if capture else None
        self.originals[key] = original

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if capture and len(tracer.captures[label]) < CAPTURES_PER_LAYER:
                bound = signature.bind(*args, **kwargs)
                tracer.captures[label].append((key, dict(bound.arguments)))
            if image_arg is not None:
                tracer.images[label].add(_image_key(args[image_arg]))
            index = tracer.begin(label)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        wrapper.__wrapped__ = original
        return wrapper

    def span_method(self, cls, attr, name, capture=False, image_arg=None):
        key = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        self._set(cls, attr, self._span_wrapper(key, getattr(cls, attr), name, capture, image_arg))

    def span_function(self, module, attr, name, capture=False):
        key = f"{module.__name__}.{attr}"
        self._patch_function(module, attr,
                             self._span_wrapper(key, getattr(module, attr), name, capture))

    def __enter__(self):
        from mmner import (alignment, autodiff, checkpoint, cli, collaboration, crf, data,
                           encoders, gradcheck, metrics, model, selftest, training)

        tracer = self.tracer
        counts = tracer.counts
        roles = self.roles

        for op in OP_NAMES:
            original = getattr(autodiff, op)

            def counted(*args, _original=original, **kwargs):
                counts["autodiff.ops"] += 1
                return _original(*args, **kwargs)

            self._patch_function(autodiff, op, counted)

        tensor_init = autodiff.Tensor.__init__

        def counted_init(obj, *args, **kwargs):
            counts["autodiff.tensors"] += 1
            tensor_init(obj, *args, **kwargs)

        self._set(autodiff.Tensor, "__init__", counted_init)

        model_init = model.MultimodalNerModel.__init__

        def registering_init(obj, *args, **kwargs):
            model_init(obj, *args, **kwargs)
            for role in ("vit_fusion", "conv_fusion"):
                if getattr(obj, role) is not None:
                    roles[getattr(obj, role)] = role

        self._set(model.MultimodalNerModel, "__init__", registering_init)

        self.span_method(encoders.TextEncoder, "encode", "encoders.text", capture=True)
        self.span_method(encoders.VitEncoder, "encode", "encoders.vit", capture=True, image_arg=1)
        self.span_method(encoders.ConvEncoder, "encode", "encoders.conv", capture=True,
                         image_arg=1)
        self.span_method(encoders.TransformerLayer, "__call__", "encoders.transformer_layer",
                         capture=True)
        self.span_method(encoders.ResidualBlock, "__call__", "encoders.residual_block",
                         capture=True)
        self.span_method(collaboration.CrossAttentionBlock, "__call__",
                         lambda args: "collaboration." + roles.get(args[0], "cross_attention"),
                         capture=True)
        self.span_method(alignment.ProjectionHead, "__call__", "alignment.head", capture=True)
        self.span_function(alignment, "contrastive_loss", "alignment.infonce", capture=True)
        self.span_method(crf.LinearChainCrf, "nll", "crf.nll", capture=True)
        self.span_method(crf.LinearChainCrf, "viterbi", "crf.viterbi")
        self.span_method(model.MultimodalNerModel, "batch_losses", "model.batch_losses")
        self.span_method(model.MultimodalNerModel, "predict", "model.predict")
        self.span_function(autodiff, "backward", "autodiff.backward")
        self.span_method(training.Adam, "step", "training.adam")
        self.span_function(training, "clip_global_norm", "training.clip")
        self.span_function(training, "evaluate_model", "training.evaluate")
        self.span_function(training, "train", "training.train")
        self.span_function(training, "save_run_artifacts", "training.save_run_artifacts")
        self.span_function(training, "load_run", "training.load_run")
        self.span_function(metrics, "evaluate", "metrics.evaluate")
        self.span_function(checkpoint, "fnv1a_64", "checkpoint.fnv1a")
        self.span_function(data, "parse_iob2", "data.parse")
        self.span_function(cli, "read_predict_input", "data.parse")
        self.span_method(data.ImageStore, "load", "data.image_load")
        self.span_function(selftest, "gradient_suite", "selftest.gradient_suite")
        self.span_function(selftest, "oracle_suite", "selftest.oracle_suite")

        for attr, label in (("save_checkpoint", "checkpoint.save"),
                            ("load_checkpoint", "checkpoint.load")):
            inner = self._span_wrapper(f"mmner.checkpoint.{attr}", getattr(checkpoint, attr), label)

            def sized(*args, _inner=inner):
                result = _inner(*args)
                counts["checkpoint.bytes"] += os.path.getsize(args[-1])  # the file path
                return result

            self._patch_function(checkpoint, attr, sized)

        check = self._span_wrapper("mmner.gradcheck.check_gradients",
                                   gradcheck.check_gradients, "gradcheck.check_gradients")

        def counted_check(f, params, *args, **kwargs):
            def forward():
                counts["gradcheck.forward_evals"] += 1
                return f()
            return check(forward, params, *args, **kwargs)

        self._patch_function(gradcheck, "check_gradients", counted_check)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


# ---------------------------------------------------------------------------
# backward replay


def _detached(value):
    from mmner.autodiff import Tensor
    if isinstance(value, Tensor):
        return Tensor(value.data.copy(), requires_grad=True)
    return value


def replay_backward(original, arguments: dict, clock=time.perf_counter) -> float:
    """Seconds `autodiff.backward` takes on sum(original(**arguments)).

    Tensor inputs are replaced by fresh leaves holding the same values, the
    layer runs in eval mode, and any unconsumed gradient tape left by
    earlier forwards is consumed first so the sweep covers this call only.
    """
    from mmner import autodiff as ad
    args = {k: _detached(v) for k, v in arguments.items()}
    if "train" in args:
        args["train"] = False
    if "rng" in args:
        args["rng"] = None
    ad.backward(ad.mul(ad.Tensor(1.0, requires_grad=True), ad.Tensor(1.0)))
    out = original(**args)
    loss = ad.tensor_sum(out)
    start = clock()
    ad.backward(loss)
    return clock() - start


def live_tensors() -> int:
    """Tensor objects still reachable, counted after a full collection."""
    import gc
    from mmner.autodiff import Tensor
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Tensor))


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, bwd: dict[str, list[float]], items: int, live: int,
                  overhead_pct: float) -> dict[str, tuple[float | None, str]]:
    """Per-layer figures of one traced job: name -> (value, unit).

    Times are per call unless the name says otherwise; None marks a layer
    the job never called. `items` is what the job processed: sentences, or
    check cases for the verify commands.
    """
    summary = tracer.summary()
    counts = tracer.counts

    def calls(*names):
        return sum(summary[n]["calls"] for n in names if n in summary)

    def seconds(*names, field="total_s"):
        return sum(summary[n][field] for n in names if n in summary)

    def per_call_ms(*names, field="total_s"):
        n = calls(*names)
        return 1e3 * seconds(*names, field=field) / n if n else None

    def bwd_ms(*labels):
        values = [v for label in labels for v in bwd.get(label, [])]
        return 1e3 * sum(values) / len(values) if values else None

    fusions = sorted(n for n in summary if n.startswith("collaboration."))
    batches = calls("model.batch_losses")
    out: dict[str, tuple[float | None, str]] = {}
    for layer in ("text", "vit", "conv", "transformer_layer", "residual_block"):
        out[f"encoders.{layer}.fwd_ms"] = (per_call_ms(f"encoders.{layer}"), "ms")
        out[f"encoders.{layer}.bwd_ms"] = (bwd_ms(f"encoders.{layer}"), "ms")
    ratios = [calls(label) / len(seen) for label, seen in tracer.images.items() if seen]
    out["encoders.image_encodes_per_distinct_image"] = (
        sum(ratios) / len(ratios) if ratios else 0.0, "ratio")
    for role in ("vit_fusion", "conv_fusion"):
        out[f"collaboration.{role}.fwd_ms"] = (per_call_ms(f"collaboration.{role}"), "ms")
        out[f"collaboration.{role}.bwd_ms"] = (bwd_ms(f"collaboration.{role}"), "ms")
    out["collaboration.cross_attention.fwd_ms"] = (per_call_ms(*fusions), "ms")
    out["collaboration.cross_attention.bwd_ms"] = (bwd_ms(*fusions), "ms")
    heads = ("alignment.head", "alignment.infonce")
    if batches and calls(*heads):
        head_bwd = sum((bwd_ms(h) or 0.0) * calls(h) for h in heads) / batches
        out["alignment.heads_infonce.fwd_ms"] = (1e3 * seconds(*heads) / batches, "ms")
        out["alignment.heads_infonce.bwd_ms"] = (head_bwd, "ms")
    else:
        out["alignment.heads_infonce.fwd_ms"] = (None, "ms")
        out["alignment.heads_infonce.bwd_ms"] = (None, "ms")
    out["crf.nll.fwd_ms"] = (per_call_ms("crf.nll"), "ms")
    out["crf.nll.bwd_ms"] = (bwd_ms("crf.nll"), "ms")
    out["crf.viterbi_ms"] = (per_call_ms("crf.viterbi"), "ms")
    out["model.batch_losses.self_ms"] = (per_call_ms("model.batch_losses", field="self_s"), "ms")
    out["model.predict.self_ms"] = (per_call_ms("model.predict", field="self_s"), "ms")
    out["autodiff.backward_ms"] = (per_call_ms("autodiff.backward"), "ms")
    out["autodiff.ops_per_item"] = (counts["autodiff.ops"] / items, "count")
    out["autodiff.tensors_per_item"] = (counts["autodiff.tensors"] / items, "count")
    out["autodiff.live_tensors_end"] = (float(live), "count")
    out["training.adam_ms"] = (per_call_ms("training.adam"), "ms")
    out["training.clip_ms"] = (per_call_ms("training.clip"), "ms")
    out["training.evaluate_ms"] = (per_call_ms("training.evaluate"), "ms")
    out["metrics.evaluate_ms"] = (per_call_ms("metrics.evaluate"), "ms")
    out["checkpoint.save_ms"] = (per_call_ms("checkpoint.save"), "ms")
    out["checkpoint.load_ms"] = (per_call_ms("checkpoint.load"), "ms")
    out["checkpoint.fnv1a_ms"] = (per_call_ms("checkpoint.fnv1a"), "ms")
    files = calls("checkpoint.save", "checkpoint.load")
    out["checkpoint.bytes"] = (counts["checkpoint.bytes"] / files if files else 0.0, "bytes")
    out["data.parse_ms"] = (per_call_ms("data.parse"), "ms")
    out["data.image_load_ms"] = (per_call_ms("data.image_load"), "ms")
    out["gradcheck.check_gradients_ms"] = (per_call_ms("gradcheck.check_gradients"), "ms")
    out["gradcheck.forward_evals"] = (float(counts["gradcheck.forward_evals"]), "count")
    suites = ("gradient_suite", "oracle_suite")
    for suite in suites:
        ms = per_call_ms(f"selftest.{suite}")
        out[f"selftest.{suite}_s"] = (ms / 1e3 if ms is not None else None, "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
