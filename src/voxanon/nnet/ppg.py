"""Frame-level phonetic posterior network.

A stack of sigmoid layers over a spliced context of acoustic frames,
topped by a softmax over tied phone states. Two taps are exposed: the
softmax posteriors (rows are probability distributions) or the last
sigmoid layer's activations (each cell in (0, 1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from .weights import ModelWeights, TensorTable, register_config

TAPS = ("softmax", "sigmoid6")


@dataclass(frozen=True)
class PpgConfig(TensorTable):
    input_dim: int = 40
    context_frames: int = 11
    hidden_size: int = 1024
    hidden_layers: int = 6
    n_states: int = 1944

    component = "ppg"

    def __post_init__(self):
        if self.hidden_layers < 1:
            raise ValueError("ppg network needs at least one hidden layer")
        if self.context_frames < 1 or self.context_frames % 2 == 0:
            raise ValueError("context_frames must be odd and positive")
        if self.input_dim < 1 or self.hidden_size < 1 or self.n_states < 1:
            raise ValueError("layer sizes must be positive")

    def tensor_items(self):
        in_dim = self.input_dim * self.context_frames
        for i in range(1, self.hidden_layers + 1):
            yield f"hidden{i}.w", (self.hidden_size, in_dim)
            yield f"hidden{i}.b", (self.hidden_size,)
            in_dim = self.hidden_size
        yield "softmax.w", (self.n_states, self.hidden_size)
        yield "softmax.b", (self.n_states,)


register_config("ppg", PpgConfig)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflows to inf below about -709, and 1 / (1 + inf) is exactly 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ppg_forward(
    frames: FeatureMatrix, weights: ModelWeights, tap: str = "softmax"
) -> FeatureMatrix:
    """Posterior features for every input frame.

    Edge frames are replicated to fill the splice context, so the output
    has exactly as many rows as the input. ``tap`` is one of ``TAPS``;
    with the softmax tap every row sums to one.
    """
    if weights.component != "ppg":
        raise ValueError(f"expected ppg weights, got {weights.component!r}")
    config: PpgConfig = weights.config
    if tap not in TAPS:
        raise ValueError(f"tap must be one of {TAPS}, got {tap!r}")
    if frames.dim != config.input_dim:
        raise ValueError(
            f"expected {config.input_dim}-dim input frames, got {frames.dim}"
        )
    half = config.context_frames // 2
    padded = np.pad(frames.frames, ((half, half), (0, 0)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (config.context_frames, frames.dim)
    )[:, 0]
    spliced = windows.reshape(frames.n_frames, -1)

    h = spliced
    for i in range(1, config.hidden_layers + 1):
        h = _sigmoid(h @ weights[f"hidden{i}.w"].T + weights[f"hidden{i}.b"])
    if tap == "sigmoid6":
        out = h
    else:
        out = _softmax_rows(h @ weights["softmax.w"].T + weights["softmax.b"])
    return FeatureMatrix(out, hop=frames.hop, kind="ppg")
