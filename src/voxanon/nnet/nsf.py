"""Source-filter waveform model.

Three stages:

condition
    Projects per-frame [mel, speaker embedding] features to the filter
    channel width, upsamples by frame replication to the sample rate, and
    smooths with a fixed moving average (replication alone aliases).
source
    A phase-continuous sine excitation on voiced samples and seeded
    Gaussian noise on unvoiced samples.
filter
    A cascade of dilated-convolution blocks. Each block expands the 1-d
    signal to ``channels``, runs ``layers_per_block`` tanh dilated layers
    (kernel 3, dilation doubling per layer) with residual and skip
    connections plus an additive conditioning injection, collapses the
    accumulated skips back to one channel, and adds the result onto the
    block input. The identity path around each block means zeroed filter
    weights pass the excitation through untouched.

The filter kernel works in float32 inside each block and in time tiles of
``_TILE`` samples. The hidden state sits in a zero-margined pair of
buffers, one read and one written per layer, so dilated taps are slices
and nothing is padded per layer. Per tile, the kernel's tap views and the
conditioning slice are stacked into one scratch buffer and multiplied by
the layer's fused ``(channels, (kernel_size + 1) * channels)`` matrix in a
single GEMM; bias, tanh, the skip output projection and the residual
update act on that tile in place. The excitation enters and the block
output leaves in float64, so the identity path stays exact. Against a
float64 evaluation of the same layers, block and vocoder outputs agree
within 1e-4 absolute (tested), below one PCM16 step of 2**-15.

Only the forward pass exists here; with random weights the output is
noise-like by design. The structural contracts (lengths, dilation
schedule, receptive field) are what this module guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio import Waveform
from ..embeddings import SpeakerEmbedding
from ..features import F0Contour, FeatureMatrix
from .weights import ModelWeights, register_config


@dataclass(frozen=True)
class NsfConfig:
    mel_dim: int = 80
    xvec_dim: int = 512
    channels: int = 64
    kernel_size: int = 3
    blocks: int = 5
    layers_per_block: int = 10
    upsample_factor: int = 80  # samples per frame: 5 ms at 16 kHz
    sample_rate: int = 16000
    sine_amplitude: float = 0.1
    noise_std: float = 0.003
    smooth_width: int = 81

    component = "nsf"

    def __post_init__(self):
        if self.blocks < 1 or self.layers_per_block < 1:
            raise ValueError("filter module needs at least one block and one layer")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd and positive")
        if self.upsample_factor < 1:
            raise ValueError("upsample_factor must be positive")
        if self.channels < 1 or self.mel_dim < 1 or self.xvec_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.smooth_width < 1 or self.smooth_width % 2 == 0:
            raise ValueError("smooth_width must be odd and positive")

    @property
    def dilations(self) -> tuple[int, ...]:
        """Dilation of layer k is 2**(k-1), identical in every block."""
        return tuple(2**k for k in range(self.layers_per_block))

    @property
    def receptive_field(self) -> int:
        """Samples covered by one block: 1 + (kernel-1) * sum(dilations)."""
        return 1 + (self.kernel_size - 1) * sum(self.dilations)

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {
            "cond.proj.w": (self.channels, self.mel_dim + self.xvec_dim),
            "cond.proj.b": (self.channels,),
        }
        for b in range(1, self.blocks + 1):
            shapes[f"filter.block{b}.in.w"] = (self.channels, 1)
            shapes[f"filter.block{b}.in.b"] = (self.channels,)
            for k in range(1, self.layers_per_block + 1):
                shapes[f"filter.block{b}.layer{k}.dil.w"] = (
                    self.channels, self.channels, self.kernel_size,
                )
                shapes[f"filter.block{b}.layer{k}.dil.b"] = (self.channels,)
                shapes[f"filter.block{b}.layer{k}.cond.w"] = (
                    self.channels, self.channels,
                )
            shapes[f"filter.block{b}.out.w"] = (1, self.channels)
            shapes[f"filter.block{b}.out.b"] = (1,)
        return shapes


register_config("nsf", NsfConfig)

# Time tile of the filter kernel, in samples: the stacked tap buffer of one
# tile, (kernel_size + 1) * channels rows of float32, stays a few MB.
_TILE = 4096


def nsf_source(
    f0_upsampled: np.ndarray,
    seed: int,
    sample_rate: int = 16000,
    amplitude: float = 0.1,
    noise_std: float = 0.003,
) -> np.ndarray:
    """Excitation signal from a sample-rate F0 track.

    Voiced samples (f0 > 0) carry a sine of the accumulated phase
    phi[n] = phi[n-1] + 2*pi*f0[n]/fs, so the phase is continuous across
    changes in f0; unvoiced samples carry seeded Gaussian noise. The
    output is fully determined by (f0, seed).
    """
    f0 = np.asarray(f0_upsampled, dtype=np.float64)
    if np.any(f0 < 0):
        raise ValueError("f0 must be non-negative (0 encodes unvoiced)")
    phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
    sine = amplitude * np.sin(phase)
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = noise_std * rng.standard_normal(f0.size)
    return np.where(f0 > 0, sine, noise)


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    # x: (length, channels); zero-padded same-length moving average.
    half = width // 2
    padded = np.pad(x, ((half + 1, half), (0, 0)))
    cumsum = np.cumsum(padded, axis=0)
    return (cumsum[width:] - cumsum[:-width]) / width


def filter_block_forward(
    excitation: np.ndarray,
    condition: np.ndarray,
    weights: ModelWeights,
    block: int,
) -> np.ndarray:
    """Run one filter block over a 1-d signal; used directly in diagnostics.

    ``condition`` is the (length, channels) conditioning signal. The block
    output is the input plus the collapsed skip sum, so its deviation from
    the input is confined to the block's receptive field. Neither input is
    modified; the result is a new float64 array.
    """
    config: NsfConfig = weights.config
    prefix = f"filter.block{block}"
    channels, taps = config.channels, config.kernel_size
    length = excitation.shape[0]
    margin = config.dilations[-1] * (taps - 1) // 2

    # Hidden state h lives in the interior of a zero-margined buffer, so
    # every dilated tap is a plain slice; the margins are never written.
    h = np.zeros((channels, length + 2 * margin), dtype=np.float32)
    h_next = np.zeros_like(h)
    interior = slice(margin, margin + length)
    np.multiply(
        weights[f"{prefix}.in.w"].astype(np.float32),
        excitation.astype(np.float32),
        out=h[:, interior],
    )
    h[:, interior] += weights[f"{prefix}.in.b"].astype(np.float32)[:, None]
    cond = np.ascontiguousarray(condition.T, dtype=np.float32)
    # The output projection is linear, so each layer's tile is collapsed to
    # one channel as soon as it is computed; no (channels, length) skip sum
    # is kept.
    out_w = weights[f"{prefix}.out.w"].astype(np.float32)
    collapsed = np.zeros((1, length), dtype=np.float32)

    # Rows of ``stacked`` are [tap 0 | tap 1 | ... | conditioning] for one
    # time tile, matching the column blocks of the fused layer matrix.
    tile = min(_TILE, max(length, 1))
    stacked = np.empty(((taps + 1) * channels, tile), dtype=np.float32)
    z = np.empty((channels, tile), dtype=np.float32)
    for k, dilation in enumerate(config.dilations, start=1):
        w = weights[f"{prefix}.layer{k}.dil.w"]
        fused = np.hstack(
            [w[:, :, t] for t in range(taps)] + [weights[f"{prefix}.layer{k}.cond.w"]]
        ).astype(np.float32)
        bias = weights[f"{prefix}.layer{k}.dil.b"].astype(np.float32)[:, None]
        first_tap = margin - dilation * (taps - 1) // 2
        for t0 in range(0, length, tile):
            n = min(tile, length - t0)
            for t in range(taps):
                start = first_tap + t * dilation + t0
                stacked[t * channels : (t + 1) * channels, :n] = h[:, start : start + n]
            stacked[taps * channels :, :n] = cond[:, t0 : t0 + n]
            u = z[:, :n]
            np.matmul(fused, stacked[:, :n], out=u)
            u += bias
            np.tanh(u, out=u)
            collapsed[:, t0 : t0 + n] += out_w @ u
            at = slice(margin + t0, margin + t0 + n)
            np.add(h[:, at], u, out=h_next[:, at])
        h, h_next = h_next, h
    return excitation + (collapsed[0] + weights[f"{prefix}.out.b"][0])


def nsf_forward(
    mel: FeatureMatrix,
    f0: F0Contour,
    xvec: SpeakerEmbedding,
    weights: ModelWeights,
    seed: int,
) -> Waveform:
    """Synthesize a waveform from mel features, an F0 contour, and a speaker
    embedding.

    The mel and F0 streams must be frame aligned; the output length is
    exactly ``frames * upsample_factor`` samples. Samples are clipped to
    [-1, 1] at the end (untrained filters can otherwise stray outside the
    waveform range).
    """
    if weights.component != "nsf":
        raise ValueError(f"expected nsf weights, got {weights.component!r}")
    config: NsfConfig = weights.config
    if mel.kind != "melspec80" or mel.dim != config.mel_dim:
        raise ValueError(
            f"expected {config.mel_dim}-dim melspec80 features, got "
            f"{mel.kind!r} with dim {mel.dim}"
        )
    if mel.n_frames != f0.n_frames:
        raise ValueError(
            f"mel has {mel.n_frames} frames but F0 has {f0.n_frames}; "
            "streams must be frame aligned"
        )
    if xvec.dim != config.xvec_dim:
        raise ValueError(
            f"speaker embedding dim {xvec.dim} does not match model {config.xvec_dim}"
        )

    # Condition module.
    per_frame = np.hstack([mel.frames, np.tile(xvec.vector, (mel.n_frames, 1))])
    projected = per_frame @ weights["cond.proj.w"].T + weights["cond.proj.b"]
    upsampled = np.repeat(projected, config.upsample_factor, axis=0)
    condition = _moving_average(upsampled, config.smooth_width)

    # Source module.
    f0_up = np.repeat(f0.values, config.upsample_factor)
    signal = nsf_source(
        f0_up, seed,
        sample_rate=config.sample_rate,
        amplitude=config.sine_amplitude,
        noise_std=config.noise_std,
    )

    # Filter module.
    for b in range(1, config.blocks + 1):
        signal = filter_block_forward(signal, condition, weights, b)

    return Waveform(np.clip(signal, -1.0, 1.0), config.sample_rate)
