"""Deterministic DSP front end: framing, log-mel features, F0, alignment.

All framing in this module is left-aligned with no centering or padding,
so every stream extracted from the same waveform at the same hop is
co-indexed frame for frame:

    n_frames = floor((n_samples - frame_len) / hop_len) + 1

Fixed analysis settings (stated so oracles can replicate results bit for
bit): 25 ms frames, periodic Hann window, 512-point FFT, HTK mel scale
spanning 20-7600 Hz, log floor ln(1e-10). Hops are 10 ms for the network
front ends and 5 ms for the synthesis-rate mel spectrogram and F0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform
from .embeddings import SpeakerEmbedding
from .errors import DataError, read_npz, write_npz

FRAME_SECONDS = 0.025
FFT_SIZE = 512
MEL_LOW_HZ = 20.0
MEL_HIGH_HZ = 7600.0
LOG_FLOOR = 1e-10
F0_HOP_SECONDS = 0.005
F0_MIN_HZ = 50.0
F0_MAX_HZ = 600.0
VOICING_THRESHOLD = 0.45
# A frame whose mean-removed energy is at most this times L * max x^2 holds
# only the rounding residue of mean removal (a constant offset) and is unvoiced.
F0_ENERGY_FLOOR = float(np.finfo(np.float64).eps)

MEL_KINDS = {24: "fbank24", 40: "mel40", 80: "melspec80"}
_FIXED_KIND_DIMS = {"fbank24": 24, "mel40": 40, "melspec80": 80}
_KINDS = ("fbank24", "mel40", "melspec80", "ppg", "aligned")
# The PPG network's output taps; a "ppg" feature matrix holds either one.
TAPS = ("softmax", "sigmoid6")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """A (frames x dim) matrix of acoustic features at a fixed hop."""

    frames: np.ndarray
    hop: float
    kind: str

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValueError("feature matrix must be 2-d with at least one frame")
        if not np.all(np.isfinite(frames)):
            raise ValueError("feature matrix contains non-finite values")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        expected = _FIXED_KIND_DIMS.get(self.kind)
        if expected is not None and frames.shape[1] != expected:
            raise ValueError(
                f"kind {self.kind!r} requires dim {expected}, got {frames.shape[1]}"
            )
        if not (np.isfinite(self.hop) and self.hop > 0):
            raise ValueError(f"hop must be a finite positive number, got {self.hop!r}")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def dim(self) -> int:
        return int(self.frames.shape[1])


@dataclass(frozen=True, eq=False)
class F0Contour:
    """Per-frame fundamental frequency in Hz; 0.0 encodes an unvoiced frame."""

    values: np.ndarray
    hop: float = F0_HOP_SECONDS

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("F0 contour must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("F0 contour contains non-finite values")
        if np.any(values < 0):
            raise ValueError("F0 values must be non-negative")
        voiced = values[values > 0]
        if voiced.size and (voiced.min() < F0_MIN_HZ or voiced.max() > F0_MAX_HZ):
            raise ValueError(
                f"voiced F0 values must lie in [{F0_MIN_HZ}, {F0_MAX_HZ}] Hz"
            )
        if not (np.isfinite(self.hop) and self.hop > 0):
            raise ValueError(f"hop must be a finite positive number, got {self.hop!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def voicing(self) -> np.ndarray:
        return self.values > 0

    @property
    def n_frames(self) -> int:
        return int(self.values.size)


def frame_count(n_samples: int, frame_len: int, hop_len: int) -> int:
    if n_samples < frame_len:
        raise ValueError(
            f"waveform of {n_samples} samples is shorter than one frame ({frame_len})"
        )
    return (n_samples - frame_len) // hop_len + 1


def frame_signal(samples: np.ndarray, frame_len: int, hop_len: int) -> np.ndarray:
    """Slice a signal into left-aligned frames; returns an (n, frame_len) view."""
    n = frame_count(samples.size, frame_len, hop_len)
    windows = np.lib.stride_tricks.sliding_window_view(samples, frame_len)
    return windows[: (n - 1) * hop_len + 1 : hop_len]


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int,
    sample_rate: int,
    n_fft: int = FFT_SIZE,
    low_hz: float = MEL_LOW_HZ,
    high_hz: float = MEL_HIGH_HZ,
) -> np.ndarray:
    """Triangular mel filterbank of shape (n_mels, n_fft // 2 + 1).

    Band edges are equally spaced on the HTK mel scale between ``low_hz``
    and ``high_hz``; triangles have unit peak height and overlap at the
    neighboring centers.
    """
    if n_mels < 1:
        raise ValueError("n_mels must be positive")
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    weights = np.zeros((n_mels, bin_hz.size))
    for m in range(n_mels):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    return weights


@functools.lru_cache(maxsize=32)
def _mel_basis(n_mels: int, sample_rate: int) -> np.ndarray:
    """The read-only default filterbank, built once per (n_mels, rate)."""
    weights = mel_filterbank(n_mels, sample_rate)
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=32)
def hann_periodic(length: int) -> np.ndarray:
    """The read-only periodic Hann window, built once per length."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    window.setflags(write=False)
    return window


def mel_features(
    waveform: Waveform, n_mels: int, hop_seconds: float
) -> FeatureMatrix:
    """Log-mel energies of a waveform.

    Parameters
    ----------
    waveform: Waveform
        Input audio; must be at least one frame (25 ms) long.
    n_mels: int
        Number of mel channels; 24, 40, or 80 (the three widths consumed
        by the downstream networks).
    hop_seconds: float
        Frame hop, typically 0.01 or 0.005.

    Returns
    -------
    FeatureMatrix with one row per frame. Each cell is
    ln(max(mel_energy, 1e-10)) of the power spectrum, so an all-zero
    waveform produces a matrix filled with ln(1e-10) and the output is
    finite for every input.
    """
    if n_mels not in MEL_KINDS:
        raise ValueError(f"n_mels must be one of {sorted(MEL_KINDS)}, got {n_mels}")
    fs = waveform.sample_rate
    frame_len = round(FRAME_SECONDS * fs)
    hop_len = round(hop_seconds * fs)
    frames = frame_signal(waveform.samples, frame_len, hop_len)
    window = hann_periodic(frame_len)
    spectrum = np.fft.rfft(frames * window, n=FFT_SIZE, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    energies = power @ _mel_basis(n_mels, fs).T
    logmel = np.log(np.maximum(energies, LOG_FLOOR))
    return FeatureMatrix(logmel, hop=hop_seconds, kind=MEL_KINDS[n_mels])


def extract_f0(
    waveform: Waveform,
    threshold: float = VOICING_THRESHOLD,
    fmin: float = F0_MIN_HZ,
    fmax: float = F0_MAX_HZ,
) -> F0Contour:
    """Estimate F0 every 5 ms with a normalized-autocorrelation tracker.

    Each 25 ms frame is mean-removed, and the normalized cross-correlation

        r[tau] = sum(x[n] x[n+tau]) / sqrt(sum(x[n]^2) sum(x[n+tau]^2))

    is evaluated over the lag range corresponding to [fmin, fmax]. The lag
    is chosen by r minus a small octave cost (0.01 per lag doubling),
    which keeps period multiples, whose correlation ties the true period,
    from stealing the pick; the voicing decision compares the raw r at the
    chosen lag against ``threshold``. The peak lag is refined by parabolic
    interpolation before conversion to Hz. Degenerate input (silence,
    noise) simply yields unvoiced frames. So does a frame of length L whose
    mean-removed energy is at most ``F0_ENERGY_FLOOR * L * max x^2``: a
    constant offset leaves a residue of about one ulp after mean removal,
    and that residue correlates perfectly with itself at every lag.

    The numerator of r is one time-domain product per lag over all frames
    at once. The two energies come from one prefix sum and one suffix sum
    of x^2 per frame: the head sum over n < L - tau and the tail sum over
    n >= tau each add non-negative terms only, so neither can cancel and a
    zero energy stays exactly zero. An FFT autocorrelation is not used:
    its numerator carries an absolute error of about eps times the frame
    energy, which a (near-)zero tail energy turns into a spurious voiced
    frame, e.g. on digital silence just after a click.

    The estimator is deliberately a single interchangeable method; callers
    wanting a different tracker can swap this function as long as they keep
    the 5 ms hop and the shared framing rule.
    """
    if waveform.sample_rate < 8000:
        raise ValueError("F0 extraction requires a sample rate of at least 8 kHz")
    if not math.isfinite(threshold):
        raise ValueError(f"voicing threshold must be finite, got {threshold!r}")
    fs = waveform.sample_rate
    frame_len = round(FRAME_SECONDS * fs)
    hop_len = round(F0_HOP_SECONDS * fs)
    frames = np.array(frame_signal(waveform.samples, frame_len, hop_len))
    peak = np.maximum(frames.max(axis=1), -frames.min(axis=1))
    energy_floor = F0_ENERGY_FLOOR * frame_len * peak * peak
    frames -= frames.mean(axis=1, keepdims=True)

    lag_min = max(2, math.ceil(fs / fmax))
    lag_max = min(frame_len - 1, math.floor(fs / fmin))
    if lag_max <= lag_min:
        raise ValueError("frame too short for the requested F0 search range")
    lags = np.arange(lag_min, lag_max + 1)

    n_frames = frames.shape[0]
    num = np.empty((n_frames, lags.size))
    for i, tau in enumerate(lags):
        num[:, i] = np.einsum("ij,ij->i", frames[:, : frame_len - tau], frames[:, tau:])
    power = frames * frames
    head = np.cumsum(power, axis=1)[:, frame_len - 1 - lags]
    tail = np.cumsum(power[:, ::-1], axis=1)[:, frame_len - 1 - lags]
    denom = np.sqrt(head * tail)
    corr = num / np.maximum(denom, np.finfo(np.float64).tiny)

    rows = np.arange(n_frames)
    best = np.argmax(corr - 0.01 * np.log2(lags / lags[0]), axis=1)
    strength = corr[rows, best]
    # Parabolic refinement of the correlation peak, where it has two
    # neighbours and bends downward.
    left = corr[rows, np.maximum(best - 1, 0)]
    right = corr[rows, np.minimum(best + 1, lags.size - 1)]
    bend = left - 2.0 * strength + right
    refine = (best > 0) & (best < lags.size - 1) & (bend < 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(refine, 0.5 * (left - right) / bend, 0.0)
        f0 = fs / (lags[best] + shift)
    voiced = (strength >= threshold) & (power.sum(axis=1) > energy_floor)
    keep = voiced & (f0 >= fmin) & (f0 <= fmax)
    return F0Contour(np.where(keep, f0, 0.0), hop=F0_HOP_SECONDS)


def align_streams(
    ppg: FeatureMatrix, f0: F0Contour, xvec: SpeakerEmbedding
) -> FeatureMatrix:
    """Merge the 10 ms content stream with the 5 ms F0 stream and a speaker
    embedding into one synthesis-rate feature matrix.

    Each content row is emitted twice to reach the 5 ms rate, the F0 is
    encoded as (log-F0 where voiced else 0, binary voicing flag), and the
    speaker embedding is copied into every row. The output is trimmed to
    ``min(2 * content_frames, f0_frames)``; a disagreement of more than two
    frames signals desynchronized streams and is an error.
    """
    if ppg.kind != "ppg":
        raise ValueError(f"content stream must have kind 'ppg', got {ppg.kind!r}")
    if abs(ppg.hop - 2.0 * f0.hop) > 1e-9:
        raise ValueError(
            f"content hop {ppg.hop} is not twice the F0 hop {f0.hop}; streams desynchronized"
        )
    doubled = 2 * ppg.n_frames
    if abs(doubled - f0.n_frames) > 2:
        raise ValueError(
            f"stream lengths disagree beyond tolerance: 2 x {ppg.n_frames} content "
            f"frames vs {f0.n_frames} F0 frames"
        )
    n = min(doubled, f0.n_frames)
    content = np.repeat(ppg.frames, 2, axis=0)[:n]
    f0v = f0.values[:n]
    voiced = f0v > 0
    log_f0 = np.where(voiced, np.log(np.maximum(f0v, 1.0)), 0.0)
    rows = np.hstack(
        [
            content,
            log_f0[:, None],
            voiced.astype(np.float64)[:, None],
            np.tile(xvec.vector, (n, 1)),
        ]
    )
    return FeatureMatrix(rows, hop=f0.hop, kind="aligned")


def save_features(path, features: FeatureMatrix) -> None:
    """Write a feature matrix as an ``.npz`` stream file.

    The archive holds three entries: ``kind`` (0-d unicode), ``hop``
    (0-d float64) and ``values`` (the frames x dim float64 matrix).
    Floats round-trip exactly, and equal matrices give equal bytes.
    """
    _save_stream(path, features.kind, features.hop, features.frames)


def load_features(path) -> FeatureMatrix:
    return _load_stream(
        path, _KINDS, lambda kind, hop, values: FeatureMatrix(values, hop=hop, kind=kind)
    )


def save_f0(path, contour: F0Contour) -> None:
    _save_stream(path, "f0", contour.hop, contour.values)


def load_f0(path) -> F0Contour:
    return _load_stream(path, ("f0",), lambda kind, hop, values: F0Contour(values, hop=hop))


def _save_stream(path, kind: str, hop: float, values: np.ndarray) -> None:
    write_npz(path, kind=np.array(kind), hop=np.array(hop, dtype=np.float64), values=values)


def _load_stream(path, kinds: tuple[str, ...], build):
    path = Path(path)
    kind, hop, values = read_npz(path, ("kind", "hop", "values"), "feature file")
    kind = kind.tolist()
    if kind not in kinds:
        raise DataError(f"{path}: kind {kind!r} is not one of {', '.join(kinds)}")
    if hop.shape != () or hop.dtype != np.float64:
        raise DataError(f"{path}: hop must be a 0-d float64, got {hop.tolist()!r}")
    if values.dtype != np.float64:
        raise DataError(f"{path}: values must be float64, got {values.dtype}")
    try:
        return build(kind, float(hop), values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
