"""Loadable parameter sets for the four network components.

A weight file is an ``.npz`` archive of two entries: ``manifest``, a JSON
string holding the component, ``format_version`` 3, the config and the
``[name, shape]`` table of ``tensor_shapes()``; and ``values``, every tensor
flattened and concatenated in table order as one little-endian float32
array. Loaded tensors are read-only views of that array, so the file's
float32 values are the only copy of the weights in memory. Round-trips are
bit-exact, and equal weights give equal bytes.

float32 is the one weight dtype: ``ModelWeights`` rounds any other input
once, when it is built. Format 2 stored float64 values; such a file is
rejected, naming the file and its version.

Each config class names its component in its class line,
``class PpgConfig(TensorTable, component="ppg")``, which registers it for
the reader. ``TensorTable.__post_init__`` holds the one field rule: a plain
``int`` of at least 1, neither a bool nor a float such as 2.0, which equals
2 in a tensor table but sizes no array. The reader builds the config from
the manifest with that constructor, so a file can hold every config that
can be built, and no other. A config holds only sizes inside its own
network: every width between two networks is a constant of ``features``, so
two weight files cannot disagree about one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from ..errors import DataError, read_npz, write_npz

FORMAT_VERSION = 3

# component name -> config class; each config class enters itself.
_CONFIG_REGISTRY: dict[str, type[TensorTable]] = {}


class TensorTable:
    """Base of the component configs: frozen dataclasses of ``int`` fields,
    each naming its component as a class keyword. ``tensor_items`` yields
    each tensor's ``(name, shape)`` in table order, so a reader can stop
    after as many entries as a file stores."""

    def __init_subclass__(cls, *, component: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.component = component
        _CONFIG_REGISTRY[component] = cls

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{self.component} config {field.name} = {value!r}: "
                                 "expected an integer of at least 1")

    def tensor_items(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        raise NotImplementedError

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        return dict(self.tensor_items())


@dataclass(frozen=True, eq=False)
class ModelWeights:
    """Named tensors plus the component config they were shaped by, which
    names their component.

    Tensors are read-only float32 views; float32 input is not copied. Other
    input is rounded to float32 once, here: a finite value beyond the float32
    range becomes infinite and fails the finiteness check, which names the
    tensor."""

    config: TensorTable
    tensors: Mapping[str, np.ndarray]

    @property
    def component(self) -> str:
        return self.config.component

    def __post_init__(self):
        expected = self.config.tensor_shapes()
        tensors = {}
        missing = set(expected) - set(self.tensors)
        extra = set(self.tensors) - set(expected)
        if missing or extra:
            raise ValueError(
                f"{self.component} weights: tensor set mismatch "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        for name, shape in expected.items():
            with np.errstate(over="ignore"):
                arr = np.asarray(self.tensors[name], dtype=np.float32).view()
            if arr.shape != tuple(shape):
                raise ValueError(
                    f"{self.component} weights: tensor {name!r} has shape "
                    f"{arr.shape}, config requires {tuple(shape)}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(
                    f"{self.component} weights: tensor {name!r} has non-finite values"
                )
            arr.setflags(write=False)
            tensors[name] = arr
        object.__setattr__(self, "tensors", tensors)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def require(self, component: str) -> None:
        """Raise ``ValueError`` unless these are ``component``'s weights."""
        if self.component != component:
            raise ValueError(f"expected {component} weights, got {self.component!r}")


def init_weights(component: str, config, seed: int) -> ModelWeights:
    """Seed-deterministic uniform fan-in-scaled initialization.

    Tensors are drawn in declaration order from one PCG64 stream, each
    uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)] where fan_in is the
    product of the non-leading dimensions of the matching weight matrix.
    The draws are float64 and each tensor is rounded to float32 once.
    """
    if config.component != component:
        raise ValueError(
            f"config is for component {config.component!r}, not {component!r}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors = {}
    shapes = config.tensor_shapes()
    for name, shape in shapes.items():
        fan_in = _fan_in(name, shape, shapes)
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return ModelWeights(config, tensors)


def _fan_in(name: str, shape: tuple[int, ...], shapes: dict) -> int:
    if len(shape) >= 2:
        return int(np.prod(shape[1:]))
    # Bias: fan-in of the weight tensor it pairs with, else its own size.
    partner = name[: -len(".b")] + ".w" if name.endswith(".b") else None
    if partner and partner in shapes and len(shapes[partner]) >= 2:
        return int(np.prod(shapes[partner][1:]))
    return max(1, int(shape[0]))


def save_weights(path, weights: ModelWeights) -> None:
    shapes = weights.config.tensor_shapes()
    manifest = {
        "component": weights.component,
        "format_version": FORMAT_VERSION,
        "config": asdict(weights.config),
        "tensors": [[name, list(shape)] for name, shape in shapes.items()],
    }
    values = np.concatenate([weights[name].ravel() for name in shapes]).astype("<f4", copy=False)
    write_npz(path, manifest=np.array(json.dumps(manifest)), values=values)


def load_weights(path) -> ModelWeights:
    path = Path(path)
    manifest, values = read_npz(path, ("manifest", "values"), "weight file")
    try:
        manifest = json.loads(manifest.tolist())
    except (TypeError, ValueError, RecursionError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: malformed manifest: not a JSON object")
    component = manifest.get("component")
    if not isinstance(component, str) or component not in _CONFIG_REGISTRY:
        raise DataError(f"{path}: unknown component {component!r}")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {manifest.get('format_version')!r} "
            f"(this build reads version {FORMAT_VERSION}, float32 values)"
        )
    # A config may declare any number of layers: read no more of its table
    # than one entry past the stored one, so a mismatch costs what the file does.
    table = manifest.get("tensors")
    stored = len(table) if isinstance(table, list) else 0
    try:
        config = _CONFIG_REGISTRY[component](**manifest["config"])
        declared = list(itertools.islice(config.tensor_items(), stored + 1))
    except KeyError as exc:
        raise DataError(f"{path}: manifest is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    if table != [[name, list(shape)] for name, shape in declared]:
        raise DataError(f"{path}: tensor table does not match the {component} config")
    shapes = dict(declared)
    size = sum(math.prod(shape) for shape in shapes.values())
    if values.dtype != np.float32 or values.shape != (size,):
        raise DataError(
            f"{path}: values must be a 1-d float32 array of {size} elements, "
            f"got {values.dtype} of shape {values.shape}"
        )
    tensors, start = {}, 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        tensors[name] = values[start : start + count].reshape(shape)
        start += count
    try:
        return ModelWeights(config, tensors)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
