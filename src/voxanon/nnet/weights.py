"""Loadable parameter sets for the four network components.

A weight file is a two-line plain-text manifest (magic line, then a JSON
object echoing the component config and the tensor name/shape/offset
table) followed by raw little-endian float64 blobs. Round-trips are
bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import DataError

MAGIC = "voxanon-weights"
FORMAT_VERSION = 1

# component name -> config class; populated by the component modules.
_CONFIG_REGISTRY: dict[str, type] = {}


def register_config(component: str, config_cls: type) -> None:
    _CONFIG_REGISTRY[component] = config_cls


@dataclass(frozen=True, eq=False)
class ModelWeights:
    """Named tensors plus the component config they were shaped by."""

    component: str
    config: object
    tensors: Mapping[str, np.ndarray]

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
            arr = np.array(self.tensors[name], dtype=np.float64)
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


def init_weights(component: str, config, seed: int) -> ModelWeights:
    """Seed-deterministic uniform fan-in-scaled initialization.

    Tensors are drawn in declaration order from one PCG64 stream, each
    uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)] where fan_in is the
    product of the non-leading dimensions of the matching weight matrix.
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
        tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ModelWeights(component, config, tensors)


def _fan_in(name: str, shape: tuple[int, ...], shapes: dict) -> int:
    if len(shape) >= 2:
        return int(np.prod(shape[1:]))
    # Bias: fan-in of the weight tensor it pairs with, else its own size.
    partner = name[: -len(".b")] + ".w" if name.endswith(".b") else None
    if partner and partner in shapes and len(shapes[partner]) >= 2:
        return int(np.prod(shapes[partner][1:]))
    return max(1, int(shape[0]))


def save_weights(path, weights: ModelWeights) -> None:
    path = Path(path)
    table = []
    blobs = []
    offset = 0
    for name in weights.config.tensor_shapes():
        arr = np.ascontiguousarray(weights[name], dtype="<f8")
        blob = arr.tobytes()
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "component": weights.component,
        "format_version": FORMAT_VERSION,
        "config": asdict(weights.config),
        "tensors": table,
    }
    with path.open("wb") as fh:
        fh.write(f"{MAGIC} {FORMAT_VERSION}\n".encode("utf-8"))
        fh.write((json.dumps(manifest) + "\n").encode("utf-8"))
        for blob in blobs:
            fh.write(blob)


def load_weights(path) -> ModelWeights:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read weight file {path}: {exc}") from exc
    first_nl = raw.find(b"\n")
    if first_nl < 0 or not raw[:first_nl].decode("utf-8", "replace").startswith(MAGIC):
        raise DataError(f"{path}: not a {MAGIC} file")
    second_nl = raw.find(b"\n", first_nl + 1)
    if second_nl < 0:
        raise DataError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[first_nl + 1 : second_nl].decode("utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: malformed manifest: not a JSON object")
    component = manifest.get("component")
    if component not in _CONFIG_REGISTRY:
        raise DataError(f"{path}: unknown component {component!r}")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {manifest.get('format_version')!r}"
        )
    try:
        config = _CONFIG_REGISTRY[component](**manifest["config"])
        table = [(str(e["name"]), tuple(e["shape"]), e["offset"]) for e in manifest["tensors"]]
    except KeyError as exc:
        raise DataError(f"{path}: manifest is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    # Tensors are read-only views into the file's bytes; ModelWeights copies
    # each one once.
    body = memoryview(raw)[second_nl + 1 :]
    tensors = {}
    for name, shape, start in table:
        if not all(type(d) is int and d >= 0 for d in shape):
            raise DataError(f"{path}: tensor {name!r} has invalid shape {list(shape)}")
        if type(start) is not int or start < 0:
            raise DataError(f"{path}: tensor {name!r} has invalid offset {start!r}")
        count = math.prod(shape)
        if start + count * 8 > len(body):
            raise DataError(f"{path}: tensor {name!r} blob is truncated")
        tensors[name] = np.frombuffer(body, "<f8", count=count, offset=start).reshape(shape)
    try:
        return ModelWeights(component, config, tensors)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
