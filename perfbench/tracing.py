"""In-memory spans around the public functions the CLI calls.

A :class:`Tracer` replaces, for the duration of a traced pass, the module
attributes through which ``voxanon.cli`` (and ``voxanon.benchmark``, for
``simulate``) reach each layer. Every call then records a span: layer
name, start, end, parent span, item id (the utterance being worked on)
and any work counts. Spans stay in memory; the caller writes them out
when the run ends.

A layer's time is the duration of its spans minus the part covered by
child spans of other layers. A layer's own sub-layers (names that extend
it, such as ``nnet.nsf.filter_block`` under ``nnet.nsf``) count toward
it, so ``nnet.nsf_s`` is the whole vocoder and the sub-layer metrics
split it further.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _stem(args, kwargs):
    return Path(args[0]).name.split(".", 1)[0]


def _original_id(args, kwargs):
    original = kwargs.get("original")
    return original.id if original is not None else None


# (module, attribute, layer, item of the call, work counts of the call)
LAYERS = [
    ("voxanon.nnet", "load_weights", "nnet.weights.load", None, lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("voxanon.nnet", "xvector_forward", "nnet.xvector", lambda a, k: k.get("embedding_id"), None),
    ("voxanon.nnet", "ppg_forward", "nnet.ppg", None, None),
    ("voxanon.nnet", "acoustic_forward", "nnet.acoustic", None, lambda a, k, r: {"frames": a[0].n_frames}),
    ("voxanon.nnet", "nsf_forward", "nnet.nsf", None, lambda a, k, r: {"samples": len(r)}),
    ("voxanon.nnet.nsf", "filter_block_forward", "nnet.nsf.filter_block", None, None),
    ("voxanon.nnet.nsf", "nsf_source", "nnet.nsf.source", None, None),
    ("voxanon.cli", "mel_features", "features.mel", None, None),
    ("voxanon.cli", "extract_f0", "features.f0", None, None),
    ("voxanon.cli", "align_streams", "features.align", None, None),
    ("voxanon.cli", "save_features", "features.save", _stem, None),
    ("voxanon.cli", "save_f0", "features.save", _stem, None),
    ("voxanon.cli", "load_features", "features.load", _stem, None),
    ("voxanon.cli", "load_f0", "features.load", _stem, None),
    ("voxanon.cli", "read_wav", "audio.read_wav", _stem, None),
    ("voxanon.cli", "write_wav", "audio.write_wav", _stem, None),
    ("voxanon.cli", "load_pool", "embeddings.pool_io", None, None),
    ("voxanon.cli", "save_pool", "embeddings.pool_io", None, None),
    ("voxanon.cli", "read_trials", "metrics.read_trials", None, None),
    ("voxanon.cli", "score_trials", "metrics.score_trials", None, lambda a, k, r: {"trials": len(r)}),
    ("voxanon.cli", "compute_eer", "metrics.compute_eer", None, None),
    ("voxanon.benchmark", "compute_eer", "metrics.compute_eer", None, None),
    ("voxanon.cli", "nearest_nontarget_subset", "metrics.nearest_nontarget", None, None),
    ("voxanon.benchmark", "nearest_nontarget_subset", "metrics.nearest_nontarget", None, None),
    ("voxanon.cli", "apply_spec", "anonymize.apply_spec", _original_id, None),
    ("voxanon.benchmark", "apply_spec", "anonymize.apply_spec", _original_id, None),
    ("voxanon.cli", "run_anonymization_benchmark", "benchmark.condition", None, None),
]

# Every module that calls cosine_similarity through its own namespace.
COSINE_CALLERS = ("voxanon.embeddings", "voxanon.metrics", "voxanon.benchmark", "voxanon.anonymize", "voxanon.cli")

COMMANDS = ("extract", "anonymize", "synthesize", "evaluate", "simulate")


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "counts")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.counts = {}

    def record(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item,
            **self.counts,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pair_calls: Counter = Counter()  # cosine_similarity calls per distinct pair
        self._pair_lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._embedding_keys: dict[int, tuple[object, tuple]] = {}

    @contextmanager
    def span(self, name: str, item=None):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if item is not None:
            local.item = item
        parent = stack[-1] if stack else self._root
        span = Span(name, time.perf_counter(), parent, getattr(local, "item", None))
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def command(self, name: str):
        """The root span of one CLI command; spans in worker threads hang here."""
        self._local.item = None
        with self.span(f"cli.{name}") as span:
            self._root = len(self.spans) - 1
            try:
                yield span
            finally:
                self._root = None

    def install(self) -> None:
        for module_name, attr, layer, item_of, count in LAYERS:
            self._patch(module_name, attr, self._spanned(layer, item_of, count))
        for module_name in COSINE_CALLERS:
            self._patch(module_name, "cosine_similarity", self._counted)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module_name, attr, make_wrapper) -> None:
        # A function that a later version of the program no longer has is
        # simply not traced; its layer then reads zero.
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _spanned(self, layer, item_of, count):
        def make(original):
            def traced(*args, **kwargs):
                with self.span(layer, item_of(args, kwargs) if item_of else None) as span:
                    result = original(*args, **kwargs)
                    if count is not None:
                        span.counts.update(count(args, kwargs, result))
                    return result

            return traced

        return make

    def _counted(self, original):
        def counted(a, b):
            ka, kb = self._key(a), self._key(b)
            with self._pair_lock:
                self.pair_calls[(ka, kb) if ka <= kb else (kb, ka)] += 1
            return original(a, b)

        return counted

    def _key(self, embedding) -> tuple:
        # Keyed by content, cached per object; the cache holds the object so
        # its id is not reused while the tracer lives.
        cached = self._embedding_keys.get(id(embedding))
        if cached is None:
            cached = (embedding, (embedding.id, embedding.vector.tobytes()))
            self._embedding_keys[id(embedding)] = cached
        return cached[1]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def layer_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Layer name -> (time excluding other layers' child spans, span count)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, tuple[float, int]] = {}
    for index, span in enumerate(spans):
        prefix = span.name + "."
        covered = _covered(
            [(c.start, c.end) for c in children.get(index, ()) if not c.name.startswith(prefix)]
        )
        seconds, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + (span.end - span.start) - covered, calls + 1)
    return totals


def count_total(spans: list[Span], name: str, key: str) -> int:
    return sum(span.counts.get(key, 0) for span in spans if span.name == name)


TIMED_LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in LAYERS))


def layer_metrics(tracer: Tracer, features_bytes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, with its unit; layers that did not run read 0."""
    times = layer_times(tracer.spans)
    metrics: dict[str, tuple[float, str]] = {}
    for command in COMMANDS:
        metrics[f"cli.{command}_self_s"] = (times.get(f"cli.{command}", (0.0, 0))[0], "s")
    for layer in TIMED_LAYERS:
        seconds, calls = times.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = (seconds, "s")
        metrics[f"{layer}_calls"] = (calls, "count")
    spans = tracer.spans
    metrics["nnet.weights.bytes"] = (count_total(spans, "nnet.weights.load", "bytes"), "bytes")
    metrics["nnet.acoustic_frames"] = (count_total(spans, "nnet.acoustic", "frames"), "count")
    metrics["nnet.nsf_samples"] = (count_total(spans, "nnet.nsf", "samples"), "count")
    metrics["metrics.trials_scored"] = (count_total(spans, "metrics.score_trials", "trials"), "count")
    metrics["features.bytes"] = (features_bytes, "bytes")
    calls = sum(tracer.pair_calls.values())
    metrics["embeddings.cosine_calls"] = (calls, "count")
    metrics["embeddings.cosine_calls_per_pair"] = (calls / len(tracer.pair_calls) if calls else 0.0, "ratio")
    return metrics
