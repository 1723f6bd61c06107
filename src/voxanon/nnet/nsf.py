"""Source-filter waveform model.

Three stages:

condition
    Projects per-frame [mel, speaker embedding] features to the filter
    channel width, at frame rate. The filter reads the projection as the
    sample-rate signal it defines: each frame replicated
    ``upsample_factor`` times, then smoothed by a zero-padded moving
    average of ``smooth_width`` samples (replication alone aliases).
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

Replication and the moving average are linear, so over a tile of whole
frames a layer's conditioning term ``cond.w @ smooth(up(P))`` equals
``Y @ S``. ``Y = cond.w @ P.T`` is computed at frame rate for the tile's
frames and ``band = ceil((smooth_width // 2) / upsample_factor)``
neighbours on each side. ``S`` is the smoother's response to each of those
unit frames: one constant matrix for every layer, block and tile. No
sample-rate conditioning signal is formed.

The filter kernel works in float32 inside each block, in tiles of whole
frames (51 frames of 80 samples by default). The hidden state sits in a
zero-margined pair of buffers, one read and one written per layer, so
dilated taps are slices and nothing is padded per layer. Per tile, one GEMM
multiplies the layer's fused matrix ``[taps | Y slice | bias]`` by the
stacked operand ``[tap views; S; ones]``. ``S`` and the ones row are written
once per block call; per tile only the tap views and the
``(channels, frames + 2 * band)`` slice of ``Y`` are copied. Tanh, the skip
output projection and the residual update then act on the tile in place.
The residual update reads ``h`` from the operand's middle tap rows, which
hold the undelayed tile; the last layer skips it, as no later layer reads
its output ``h``.
The excitation enters and the block output leaves in float64, so the
identity path stays exact. Against a float64 evaluation of the same layers
over the explicitly upsampled and smoothed conditioning, block and vocoder
outputs agree within 1e-4 absolute (tested), below one PCM16 step of 2**-15.

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
from .weights import ModelWeights, TensorTable, register_config


@dataclass(frozen=True)
class NsfConfig(TensorTable):
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

    def tensor_items(self):
        yield "cond.proj.w", (self.channels, self.mel_dim + self.xvec_dim)
        yield "cond.proj.b", (self.channels,)
        for b in range(1, self.blocks + 1):
            yield f"filter.block{b}.in.w", (self.channels, 1)
            yield f"filter.block{b}.in.b", (self.channels,)
            for k in range(1, self.layers_per_block + 1):
                yield f"filter.block{b}.layer{k}.dil.w", (
                    self.channels, self.channels, self.kernel_size,
                )
                yield f"filter.block{b}.layer{k}.dil.b", (self.channels,)
                yield f"filter.block{b}.layer{k}.cond.w", (self.channels, self.channels)
            yield f"filter.block{b}.out.w", (1, self.channels)
            yield f"filter.block{b}.out.b", (1,)


register_config("nsf", NsfConfig)

# Sample budget of one filter tile. A tile holds whole frames, and no more
# frames than channels, so the interpolation rows that replace the
# conditioning rows in the GEMM operand never outnumber them.
_TILE = 4096


def _tile_frames(config: NsfConfig) -> int:
    return max(1, min(_TILE // config.upsample_factor, config.channels))


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


def _interpolation(frames: int, factor: int, width: int) -> np.ndarray:
    """The (frames + 2 * band, frames * factor) map ``S`` from frame-rate
    values to the smoothed, upsampled signal over ``frames`` whole frames.

    Row i is the smoother's response to unit frame ``i - band`` over those
    samples, found by running the smoother over replicated unit frames;
    ``band`` frames on each side cover the smoothing window's reach.
    """
    band = -(-(width // 2) // factor)
    units = np.repeat(np.eye(frames + 2 * band), factor, axis=0)
    response = _moving_average(units, width)
    return response[band * factor : (band + frames) * factor].T


def filter_block_forward(
    excitation: np.ndarray,
    condition: np.ndarray,
    weights: ModelWeights,
    block: int,
) -> np.ndarray:
    """Run one filter block over a 1-d signal; used directly in diagnostics.

    ``condition`` is the frame-rate conditioning projection, shape
    (ceil(len(excitation) / upsample_factor), channels). The block reads it
    as the sample-rate signal of the module docstring: every frame
    replicated ``upsample_factor`` times, smoothed by the zero-padded
    ``smooth_width`` moving average, and cut to the excitation's length.
    The block output is the input plus the collapsed skip sum, so its
    deviation from the input is confined to the block's receptive field.
    Neither input is modified; the result is a new float64 array.
    """
    config: NsfConfig = weights.config
    prefix = f"filter.block{block}"
    channels, taps, factor = config.channels, config.kernel_size, config.upsample_factor
    length = excitation.shape[0]
    n_frames = -(-length // factor)
    if condition.shape != (n_frames, channels):
        raise ValueError(
            f"condition for {length} samples must have shape {(n_frames, channels)}, "
            f"got {condition.shape}"
        )
    margin = config.dilations[-1] * (taps - 1) // 2

    # Hidden state h lives in the interior of a zero-margined buffer, so
    # every dilated tap is a plain slice; the margins are never written.
    h = np.zeros((channels, length + 2 * margin), dtype=np.float32)
    h_next = np.zeros_like(h)
    interior = slice(margin, margin + length)
    np.multiply(weights[f"{prefix}.in.w"], excitation.astype(np.float32), out=h[:, interior])
    h[:, interior] += weights[f"{prefix}.in.b"][:, None]
    # The output projection is linear, so each layer's tile is collapsed to
    # one channel as soon as it is computed; no (channels, length) skip sum
    # is kept.
    out_w = weights[f"{prefix}.out.w"]
    collapsed = np.zeros((1, length), dtype=np.float32)

    # Rows of ``stacked`` are [tap 0 | ... | tap taps-1 | S | ones] for one
    # tile of whole frames, matching the column blocks [taps | Y | bias] of
    # the fused layer matrix; S and the ones row are written once.
    frames = min(_tile_frames(config), max(n_frames, 1))
    interp = _interpolation(frames, factor, config.smooth_width)
    window, tile = interp.shape
    band = (window - frames) // 2
    tap_rows = taps * channels
    stacked = np.empty((tap_rows + window + 1, tile), dtype=np.float32)
    stacked[tap_rows:-1] = interp
    stacked[-1] = 1.0
    fused = np.empty((channels, tap_rows + window + 1), dtype=np.float32)
    y_cols = slice(tap_rows, tap_rows + window)

    # Every layer's conditioning term Y = cond.w @ condition.T at frame
    # rate, zero beyond the signal so each tile's window slice is plain.
    layers = config.layers_per_block
    cond_w = np.vstack([weights[f"{prefix}.layer{k}.cond.w"] for k in range(1, layers + 1)])
    y = np.zeros((layers, channels, -(-n_frames // frames) * frames + 2 * band), dtype=np.float32)
    y[:, :, band : band + n_frames] = (cond_w @ condition.T).reshape(layers, channels, n_frames)

    z = np.empty((channels, tile), dtype=np.float32)
    middle_tap = slice(taps // 2 * channels, (taps // 2 + 1) * channels)
    for k, dilation in enumerate(config.dilations, start=1):
        w = weights[f"{prefix}.layer{k}.dil.w"]
        for t in range(taps):
            fused[:, t * channels : (t + 1) * channels] = w[:, :, t]
        fused[:, -1] = weights[f"{prefix}.layer{k}.dil.b"]
        first_tap = margin - dilation * (taps - 1) // 2
        for f0 in range(0, n_frames, frames):
            t0 = f0 * factor
            n = min(tile, length - t0)
            for t in range(taps):
                start = first_tap + t * dilation + t0
                stacked[t * channels : (t + 1) * channels, :n] = h[:, start : start + n]
            fused[:, y_cols] = y[k - 1, :, f0 : f0 + window]
            u = z[:, :n]
            np.matmul(fused, stacked[:, :n], out=u)
            np.tanh(u, out=u)
            collapsed[:, t0 : t0 + n] += out_w @ u
            if k < layers:
                np.add(stacked[middle_tap, :n], u, out=h_next[:, margin + t0 : margin + t0 + n])
        h, h_next = h_next, h
    return excitation + (collapsed[0].astype(np.float64) + weights[f"{prefix}.out.b"][0])


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

    # Condition module, at frame rate; the filter upsamples and smooths it.
    per_frame = np.hstack([mel.frames, np.tile(xvec.vector, (mel.n_frames, 1))])
    condition = per_frame @ weights["cond.proj.w"].T + weights["cond.proj.b"]

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
