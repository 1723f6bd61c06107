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
# the benchmark hooks its successor.
KNOWN_DEAD = {
    ("voxanon.cli", "nearest_nontarget_subset"),
    ("voxanon.benchmark", "nearest_nontarget_subset"),
}


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_hooked_attribute_resolves():
    hooks = {(module, attr) for module, attr, *_ in _layers()}
    missing = {(m, a) for m, a in hooks if not hasattr(importlib.import_module(m), a)}
    assert missing == KNOWN_DEAD
