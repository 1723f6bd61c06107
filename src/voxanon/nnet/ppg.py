"""Frame-level phonetic posterior network.

A stack of sigmoid layers over a spliced context of acoustic frames,
topped by a softmax over tied phone states. The output is the softmax
posteriors: each row is a probability distribution over the states.

The input frames are cast to float32 once, before splicing. The sigmoid
stack and the softmax GEMM then run in float32 on the float32 weights, with
no cast of any weight tensor. The softmax itself is computed in float64, so
each row sums to one within float64 rounding, and the output is float64.

Precision contract: every posterior is within 1e-6 absolute of the
float64 reference (``tests/_oracles.py`` ``ppg_posteriors``). On full-size
``init_weights`` (seed 23) the drift is at most 7.6e-10, at 24 frames and
at 600 alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import MEL40, PPG, FeatureMatrix
from .weights import ModelWeights, TensorTable

INPUT = MEL40


@dataclass(frozen=True)
class PpgConfig(TensorTable, component="ppg"):
    """Layer sizes. Every field is an integer of at least 1 (the
    ``TensorTable`` rule), and ``context_frames`` is odd, so the splice
    window centres on its frame."""

    context_frames: int = 11
    hidden_size: int = 1024
    hidden_layers: int = 6

    def __post_init__(self):
        super().__post_init__()
        if self.context_frames % 2 == 0:
            raise ValueError(f"ppg config context_frames = {self.context_frames}: expected an odd number")

    def tensor_items(self):
        in_dim = INPUT.width * self.context_frames
        for i in range(1, self.hidden_layers + 1):
            yield f"hidden{i}.w", (self.hidden_size, in_dim)
            yield f"hidden{i}.b", (self.hidden_size,)
            in_dim = self.hidden_size
        yield "softmax.w", (PPG.width, self.hidden_size)
        yield "softmax.b", (PPG.width,)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflows to inf below about -88 in float32 (-709 in float64), and
    # 1 / (1 + inf) is exactly 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ppg_forward(frames: FeatureMatrix, weights: ModelWeights) -> FeatureMatrix:
    """The ``ppg`` stream of a ``mel40`` stream, one row per input frame,
    both at the 10 ms content hop.

    Edge frames are replicated to fill the splice context, so the output
    has exactly as many rows as the input, and every row sums to one.
    """
    weights.require("ppg")
    config: PpgConfig = weights.config
    INPUT.check(frames)
    half = config.context_frames // 2
    padded = np.pad(frames.frames.astype(np.float32), ((half, half), (0, 0)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (config.context_frames, frames.dim)
    )[:, 0]
    h = windows.reshape(frames.n_frames, -1)

    for i in range(1, config.hidden_layers + 1):
        h = _sigmoid(h @ weights[f"hidden{i}.w"].T + weights[f"hidden{i}.b"])
    logits = h @ weights["softmax.w"].T + weights["softmax.b"]
    return FeatureMatrix(_softmax_rows(logits.astype(np.float64)), PPG)
