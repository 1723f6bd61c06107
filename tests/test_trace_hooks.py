"""The benchmark's tracer (``perfbench/tracing.py``) times each layer by
swapping the module attribute through which the commands reach it, and it
skips an attribute that does not exist, so a renamed function would make its
layer read 0 without a word. Every hooked name must therefore resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Hooks on ``nearest_nontarget_subset``, which nearest-K filtering inside
# ``score_trials`` replaced; ``metrics.nearest_nontarget_*`` reads 0 until
# the benchmark hooks its successor. The counter hooks ``cosine_similarity``
# in each module that once called it; the package's one cosine is now
# ``embeddings.cosine_matrix``, so ``embeddings.cosine_calls*`` reads 0.
# ``evaluate`` reaches ``compute_eer`` through ``benchmark.verify``, so the
# ``voxanon.benchmark`` hook counts its calls and the ``voxanon.cli`` one is dead.
KNOWN_DEAD = {
    ("voxanon.cli", "compute_eer"),
    ("voxanon.cli", "nearest_nontarget_subset"),
    ("voxanon.benchmark", "nearest_nontarget_subset"),
    *((module, "cosine_similarity") for module in (
        "voxanon.embeddings", "voxanon.metrics", "voxanon.benchmark", "voxanon.anonymize",
        "voxanon.cli",
    )),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_attribute_resolves():
    tracing = _tracing()
    hooks = {(module, attr) for module, attr, *_ in tracing.LAYERS}
    hooks |= {(module, "cosine_similarity") for module in tracing.COSINE_CALLERS}
    missing = {(m, a) for m, a in hooks if not hasattr(importlib.import_module(m), a)}
    assert missing == KNOWN_DEAD
