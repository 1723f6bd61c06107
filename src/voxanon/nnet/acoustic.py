"""Autoregressive acoustic model: aligned features to mel spectrogram.

Two tanh feedforward layers, a bidirectional LSTM, then a unidirectional
LSTM whose input at each step concatenates the recurrent features with the
mel frame generated (or, in teacher mode, observed) at the previous step.
A linear layer produces the 80-dim mel frame. Step 0 always feeds a zero
mel vector, so teacher and free mode agree on the first frame.

Only the mel feedback and the AR hidden state change from step to step, so
the recurrent-feature part of the AR input projection (plus bias) is
computed for all frames in one GEMM before the loop; each step then does a
single GEMV of ``[wx_mel | wh]`` against ``[previous mel; h]``. The BLSTM
and the AR loop share one LSTM cell.

The recurrence is inherently sequential over frames; parallelize across
utterances, never within one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from .weights import ModelWeights, TensorTable, register_config

MEL_DIM = 80


@dataclass(frozen=True)
class AcousticConfig(TensorTable):
    """Layer sizes; ``content_dim`` is the width of the content block in the
    aligned input (posterior tap width), so the expected input dimension is
    ``content_dim + 2 + xvec_dim``."""

    content_dim: int = 1944
    xvec_dim: int = 512
    ff_size: int = 512
    blstm_size: int = 256  # per direction
    ar_size: int = 512

    component = "acoustic"

    def __post_init__(self):
        for name in ("content_dim", "xvec_dim", "ff_size", "blstm_size", "ar_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def input_dim(self) -> int:
        return self.content_dim + 2 + self.xvec_dim

    def tensor_items(self):
        blstm_in = self.ff_size
        ar_in = 2 * self.blstm_size + MEL_DIM
        yield from {
            "ff1.w": (self.ff_size, self.input_dim),
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
            "out.w": (MEL_DIM, self.ar_size),
            "out.b": (MEL_DIM,),
        }.items()


register_config("acoustic", AcousticConfig)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_cell(z, c, size):
    # z: stacked gate pre-activations in the order input, forget, cell,
    # output; returns the new (h, c).
    i = _sigmoid(z[:size])
    f = _sigmoid(z[size : 2 * size])
    g = np.tanh(z[2 * size : 3 * size])
    o = _sigmoid(z[3 * size :])
    c = f * c + i * g
    return o * np.tanh(c), c


def _lstm_sequence(xs, wx, wh, b, size, reverse=False):
    steps = range(xs.shape[0] - 1, -1, -1) if reverse else range(xs.shape[0])
    pre = xs @ wx.T + b  # input projections for all steps at once
    h = np.zeros(size)
    c = np.zeros(size)
    out = np.zeros((xs.shape[0], size))
    for t in steps:
        h, c = _lstm_cell(pre[t] + wh @ h, c, size)
        out[t] = h
    return out


def acoustic_forward(
    aligned: FeatureMatrix,
    weights: ModelWeights,
    mode: str = "free",
    teacher_mel: FeatureMatrix | None = None,
) -> FeatureMatrix:
    """Generate a mel spectrogram from aligned synthesis-rate features.

    ``mode`` is ``"free"`` (feed back the model's own previous frame) or
    ``"teacher"`` (feed the supplied natural mel frames, shifted by one
    step). Output is (frames x 80) at the input hop.
    """
    if weights.component != "acoustic":
        raise ValueError(f"expected acoustic weights, got {weights.component!r}")
    config: AcousticConfig = weights.config
    if aligned.kind != "aligned":
        raise ValueError(f"expected aligned features, got kind {aligned.kind!r}")
    if aligned.dim != config.input_dim:
        raise ValueError(
            f"aligned width {aligned.dim} does not match model input {config.input_dim}"
        )
    if mode not in ("free", "teacher"):
        raise ValueError(f"mode must be 'free' or 'teacher', got {mode!r}")
    if mode == "teacher":
        if teacher_mel is None:
            raise ValueError("teacher mode requires teacher_mel")
        if teacher_mel.n_frames != aligned.n_frames:
            raise ValueError(
                f"teacher_mel has {teacher_mel.n_frames} frames, aligned input has "
                f"{aligned.n_frames}"
            )
        if teacher_mel.dim != MEL_DIM:
            raise ValueError(f"teacher_mel must be {MEL_DIM}-dim")

    h = np.tanh(aligned.frames @ weights["ff1.w"].T + weights["ff1.b"])
    h = np.tanh(h @ weights["ff2.w"].T + weights["ff2.b"])
    fw = _lstm_sequence(
        h, weights["blstm.fw.wx"], weights["blstm.fw.wh"], weights["blstm.fw.b"],
        config.blstm_size,
    )
    bw = _lstm_sequence(
        h, weights["blstm.bw.wx"], weights["blstm.bw.wh"], weights["blstm.bw.b"],
        config.blstm_size, reverse=True,
    )
    recurrent = np.hstack([fw, bw])

    n = aligned.n_frames
    split = 2 * config.blstm_size
    pre = recurrent @ weights["ar.wx"][:, :split].T + weights["ar.b"]
    w_step = np.hstack([weights["ar.wx"][:, split:], weights["ar.wh"]])
    out = np.zeros((n, MEL_DIM))
    state = np.zeros(MEL_DIM + config.ar_size)  # [previous mel frame; h]
    c_ar = np.zeros(config.ar_size)
    for t in range(n):
        h_ar, c_ar = _lstm_cell(pre[t] + w_step @ state, c_ar, config.ar_size)
        out[t] = weights["out.w"] @ h_ar + weights["out.b"]
        state[:MEL_DIM] = teacher_mel.frames[t] if mode == "teacher" else out[t]
        state[MEL_DIM:] = h_ar
    return FeatureMatrix(out, hop=aligned.hop, kind="melspec80")
