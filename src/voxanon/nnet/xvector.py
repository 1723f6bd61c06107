"""Speaker embedding TDNN with utterance-level statistics pooling.

Five frame-level layers with time splicing, a pooling layer that reduces
the variable-length sequence to utterance statistics, and two segment
layers. The speaker embedding is the affine output of the first segment
layer, taken before its nonlinearity.

Frame splicing offsets per layer: [-2..+2], {-2,0,+2}, {-3,0,+3}, {t},
{t}; the third layer therefore sees a 15-frame receptive field, which sets
the minimum input length. No frame padding is applied, so the frame-level
sequence shrinks by 14 frames before pooling.

The input is cast to float32 once, and the five frame layers run in
float32 on the float32 weights. Statistics pooling and the ``segment6``
affine run in float64.

Precision contract: every embedding value is within 1e-6 absolute of the
float64 reference (``tests/_oracles.py`` ``xvector_embedding_ref``). On
full-size ``init_weights`` (seed 22) the drift is 3.4e-9 at 24 frames and
5.9e-10 at 600, against embedding values up to 0.044.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..embeddings import SpeakerEmbedding
from ..features import EMBED_DIM, FBANK24, FeatureMatrix
from .weights import ModelWeights, TensorTable

INPUT = FBANK24
SPLICE_OFFSETS = ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,))
FRAME_LAYER_SIZES = (512, 512, 512, 512, 1500)
MIN_FRAMES = 15  # total splice context of the frame-level stack


@dataclass(frozen=True)
class XVectorConfig(TensorTable, component="xvector"):
    """Shape parameters of the embedding network.

    The frame-level structure is fixed; only the training-softmax width
    is configurable, as an integer of at least 1 (the ``TensorTable``
    rule). Pooling concatenates the mean and the standard deviation of the
    frame-level outputs.
    """

    n_train_speakers: int = 200

    def tensor_items(self):
        in_dim = INPUT.width
        for i, (offsets, out_dim) in enumerate(
            zip(SPLICE_OFFSETS, FRAME_LAYER_SIZES), start=1
        ):
            yield f"frame{i}.w", (out_dim, in_dim * len(offsets))
            yield f"frame{i}.b", (out_dim,)
            in_dim = out_dim
        pooled = 2 * FRAME_LAYER_SIZES[-1]
        yield "segment6.w", (EMBED_DIM, pooled)
        yield "segment6.b", (EMBED_DIM,)
        yield "segment7.w", (EMBED_DIM, EMBED_DIM)
        yield "segment7.b", (EMBED_DIM,)
        yield "softmax.w", (self.n_train_speakers, EMBED_DIM)
        yield "softmax.b", (self.n_train_speakers,)


def _splice(x: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    # Valid-region splicing: row t of the output concatenates rows
    # t+off-min(offsets) of x for each offset; the sequence shrinks by
    # max(offsets)-min(offsets) rows.
    lo, hi = min(offsets), max(offsets)
    n = x.shape[0] - (hi - lo)
    return np.hstack([x[off - lo : off - lo + n] for off in offsets])


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def xvector_embedding(frames: FeatureMatrix, weights: ModelWeights) -> np.ndarray:
    """Raw embedding vector (the affine output of the first segment layer)."""
    weights.require("xvector")
    INPUT.check(frames)
    if frames.n_frames < MIN_FRAMES:
        raise ValueError(
            f"need at least {MIN_FRAMES} frames, got {frames.n_frames}"
        )
    h = frames.frames.astype(np.float32)
    for i, offsets in enumerate(SPLICE_OFFSETS, start=1):
        spliced = _splice(h, offsets)
        h = _relu(spliced @ weights[f"frame{i}.w"].T + weights[f"frame{i}.b"])
    # Utterance statistics over the valid frames, in float64. The mean is
    # computed as deviations from the first frame so constant sequences pool
    # to the same bits at any length.
    h = h.astype(np.float64)
    mean = h[0] + (h - h[0]).mean(axis=0)
    std = np.sqrt(np.square(h - mean).mean(axis=0))
    pooled = np.concatenate([mean, std])
    # np.dot promotes the float32 matrix and calls a float64 BLAS GEMV;
    # matmul's mixed-dtype matrix-vector loop does not, and takes 6x longer.
    return np.dot(weights["segment6.w"], pooled) + weights["segment6.b"]


def xvector_forward(
    frames: FeatureMatrix, weights: ModelWeights, embedding_id: str = "xvector"
) -> SpeakerEmbedding:
    """Extract a speaker embedding from the ``fbank24`` stream at 10 ms.

    The output dimension is 512 regardless of input length. Note that a
    degenerate all-zero embedding (possible only with pathological
    weights) cannot be wrapped as a ``SpeakerEmbedding``; use
    :func:`xvector_embedding` to inspect the raw vector in that case.
    """
    return SpeakerEmbedding(embedding_id, xvector_embedding(frames, weights))
