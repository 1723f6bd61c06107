"""Autoregressive acoustic model: aligned features to mel spectrogram.

Two tanh feedforward layers, a bidirectional LSTM, then a unidirectional
LSTM whose input at each step concatenates the recurrent features with the
mel frame the model generated at the previous step (a zero mel vector at
step 0). A linear layer produces the 80-dim mel frame. The model always
runs free: it feeds back its own output, as at anonymization time.

All three recurrences (BLSTM forward, BLSTM backward and the AR loop) run
through one ``_lstm_sequence``. Whatever does not depend on the previous
step is computed for all frames before the loop, in float64 over the
float32 weights: the input projections plus biases. Each step then does one float32 GEMV of the step
matrix against ``h`` and the gate math in float32.

The AR loop is a plain LSTM because the mel feedback is folded out of the
step. With ``wx_mel`` the mel columns of ``ar.wx``, the frame fed back at
step t is ``out.w @ h[t-1] + out.b``, so the step matrix is
``ar.wh + wx_mel @ out.w`` and steps 1.. gain ``wx_mel @ out.b``.

The mel output is then one float64 GEMM over all AR hidden states.

Precision contract: every output value is within 1e-6 absolute of the
float64 per-step reference (``tests/_oracles.py`` ``acoustic_frames``).
On full-size ``init_weights`` the drift is at most 3e-9, at 24 frames and
at 600 alike.

The recurrence is inherently sequential over frames; parallelize across
utterances, never within one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import ALIGNED, MELSPEC80, FeatureMatrix
from .weights import ModelWeights, TensorTable

INPUT = ALIGNED


@dataclass(frozen=True)
class AcousticConfig(TensorTable, component="acoustic"):
    """Layer sizes, each an integer of at least 1 (the ``TensorTable``
    rule). The input width is the ``aligned`` stream's, which no config
    sets."""

    ff_size: int = 512
    blstm_size: int = 256  # per direction
    ar_size: int = 512

    def tensor_items(self):
        blstm_in = self.ff_size
        ar_in = 2 * self.blstm_size + MELSPEC80.width
        yield from {
            "ff1.w": (self.ff_size, INPUT.width),
            "ff1.b": (self.ff_size,),
            "ff2.w": (self.ff_size, self.ff_size),
            "ff2.b": (self.ff_size,),
            "blstm.fw.wx": (4 * self.blstm_size, blstm_in),
            "blstm.fw.wh": (4 * self.blstm_size, self.blstm_size),
            "blstm.fw.b": (4 * self.blstm_size,),
            "blstm.bw.wx": (4 * self.blstm_size, blstm_in),
            "blstm.bw.wh": (4 * self.blstm_size, self.blstm_size),
            "blstm.bw.b": (4 * self.blstm_size,),
            "ar.wx": (4 * self.ar_size, ar_in),
            "ar.wh": (4 * self.ar_size, self.ar_size),
            "ar.b": (4 * self.ar_size,),
            "out.w": (MELSPEC80.width, self.ar_size),
            "out.b": (MELSPEC80.width,),
        }.items()


def _lstm_sequence(pre, wh, size, reverse=False):
    """Run one LSTM over precomputed input projections; returns float64 states.

    ``pre`` holds each step's input projection plus bias in float64, gates
    stacked as input, forget, cell, output; ``wh`` is float32. Each step computes
    ``pre[t] + wh @ h`` and the gates in float32. The sigmoid gates use
    ``sigmoid(x) = 1/2 + tanh(x/2)/2``, which cannot overflow: their rows of
    ``pre`` and ``wh`` are halved up front (exact in binary), so one tanh
    call per step serves all four gates.
    """
    scale = np.full(4 * size, 0.5, dtype=np.float32)
    scale[2 * size : 3 * size] = 1.0
    pre = pre.astype(np.float32) * scale
    wh = wh * scale[:, None]
    h = np.zeros(size, dtype=np.float32)
    c = np.zeros(size, dtype=np.float32)
    out = np.empty((pre.shape[0], size))
    for t in range(pre.shape[0] - 1, -1, -1) if reverse else range(pre.shape[0]):
        z = np.tanh(pre[t] + wh @ h)
        gate = 0.5 + 0.5 * z
        c = gate[size : 2 * size] * c + gate[:size] * z[2 * size : 3 * size]
        h = gate[3 * size :] * np.tanh(c)
        out[t] = h
    return out


def acoustic_forward(aligned: FeatureMatrix, weights: ModelWeights) -> FeatureMatrix:
    """Generate the ``melspec80`` stream from the ``aligned`` stream, feeding
    back the model's own previous frame. Output is (frames x 80), both
    streams at the 5 ms F0 hop."""
    weights.require("acoustic")
    config: AcousticConfig = weights.config
    INPUT.check(aligned)

    h = np.tanh(aligned.frames @ weights["ff1.w"].T + weights["ff1.b"])
    h = np.tanh(h @ weights["ff2.w"].T + weights["ff2.b"])
    size = config.blstm_size
    recurrent = np.hstack([
        _lstm_sequence(h @ weights[f"blstm.{name}.wx"].T + weights[f"blstm.{name}.b"],
                       weights[f"blstm.{name}.wh"], size, reverse=name == "bw")
        for name in ("fw", "bw")
    ])

    # The frame fed back at step t is out.w @ h[t-1] + out.b; the folds stay float64.
    wx_mel = weights["ar.wx"][:, 2 * size :].astype(np.float64)
    pre = recurrent @ weights["ar.wx"][:, : 2 * size].T + weights["ar.b"]
    pre[1:] += wx_mel @ weights["out.b"]
    w_step = (weights["ar.wh"] + wx_mel @ weights["out.w"]).astype(np.float32)
    hidden = _lstm_sequence(pre, w_step, config.ar_size)
    out = hidden @ weights["out.w"].T + weights["out.b"]
    return FeatureMatrix(out, MELSPEC80)
