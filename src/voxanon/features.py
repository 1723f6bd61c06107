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

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform
from .embeddings import SpeakerEmbedding
from .errors import DataError

FRAME_SECONDS = 0.025
FFT_SIZE = 512
MEL_LOW_HZ = 20.0
MEL_HIGH_HZ = 7600.0
LOG_FLOOR = 1e-10
F0_HOP_SECONDS = 0.005
F0_MIN_HZ = 50.0
F0_MAX_HZ = 600.0
VOICING_THRESHOLD = 0.45

MEL_KINDS = {24: "fbank24", 40: "mel40", 80: "melspec80"}
_FIXED_KIND_DIMS = {"fbank24": 24, "mel40": 40, "melspec80": 80}
_KINDS = ("fbank24", "mel40", "melspec80", "ppg", "aligned")
_ENTRIES = ("kind", "hop", "values")


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
        if self.hop <= 0:
            raise ValueError("hop must be positive")
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
        if self.hop <= 0:
            raise ValueError("hop must be positive")
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


def _hann_periodic(length: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


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
    window = _hann_periodic(frame_len)
    spectrum = np.fft.rfft(frames * window, n=FFT_SIZE, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    energies = power @ mel_filterbank(n_mels, fs).T
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
    noise) simply yields unvoiced frames.

    The estimator is deliberately a single interchangeable method; callers
    wanting a different tracker can swap this function as long as they keep
    the 5 ms hop and the shared framing rule.
    """
    if waveform.sample_rate < 8000:
        raise ValueError("F0 extraction requires a sample rate of at least 8 kHz")
    fs = waveform.sample_rate
    frame_len = round(FRAME_SECONDS * fs)
    hop_len = round(F0_HOP_SECONDS * fs)
    frames = np.array(frame_signal(waveform.samples, frame_len, hop_len))
    frames -= frames.mean(axis=1, keepdims=True)

    lag_min = max(2, math.ceil(fs / fmax))
    lag_max = min(frame_len - 1, math.floor(fs / fmin))
    if lag_max <= lag_min:
        raise ValueError("frame too short for the requested F0 search range")
    lags = np.arange(lag_min, lag_max + 1)

    n_frames = frames.shape[0]
    corr = np.zeros((n_frames, lags.size))
    tiny = np.finfo(np.float64).tiny
    for i, tau in enumerate(lags):
        head = frames[:, : frame_len - tau]
        tail = frames[:, tau:]
        num = np.einsum("ij,ij->i", head, tail)
        denom = np.sqrt(np.einsum("ij,ij->i", head, head) * np.einsum("ij,ij->i", tail, tail))
        corr[:, i] = num / np.maximum(denom, tiny)

    values = np.zeros(n_frames)
    octave_cost = 0.01 * np.log2(lags / lags[0])
    best = np.argmax(corr - octave_cost, axis=1)
    for t in range(n_frames):
        b = int(best[t])
        strength = corr[t, b]
        if strength < threshold:
            continue
        lag = float(lags[b])
        if 0 < b < lags.size - 1:
            # Parabolic refinement of the correlation peak.
            left, mid, right = corr[t, b - 1], corr[t, b], corr[t, b + 1]
            denom = left - 2.0 * mid + right
            if denom < 0:
                lag += 0.5 * (left - right) / denom
        f0 = fs / lag
        if fmin <= f0 <= fmax:
            values[t] = f0
    return F0Contour(values, hop=F0_HOP_SECONDS)


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
    # np.savez appends ".npz" to a path it is given; a handle keeps the name.
    with Path(path).open("wb") as fh:
        np.savez(fh, kind=np.array(kind), hop=np.array(hop, dtype=np.float64), values=values)


def _load_stream(path, kinds: tuple[str, ...], build):
    path = Path(path)
    try:
        # Given a path, np.load leaks its handle when the zip is truncated.
        with path.open("rb") as fh:
            kind, hop, values = _read_entries(path, fh)
    except OSError as exc:
        raise DataError(f"cannot read feature file {path}: {exc}") from exc
    kind = kind.tolist()
    if kind not in kinds:
        raise DataError(f"{path}: kind {kind!r} is not one of {', '.join(kinds)}")
    if hop.shape != () or hop.dtype != np.float64 or not (np.isfinite(hop) and hop > 0):
        raise DataError(f"{path}: hop must be a positive 0-d float64, got {hop.tolist()!r}")
    if values.dtype != np.float64:
        raise DataError(f"{path}: values must be float64, got {values.dtype}")
    try:
        return build(kind, float(hop), values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_entries(path, fh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        archive = np.load(fh, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # np.load reports any file that is neither zip nor .npy as pickled data.
        raise DataError(f"{path}: not an .npz archive, or a truncated one") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: a bare .npy array, not an .npz archive")
    with archive:
        missing = [name for name in _ENTRIES if name not in archive.files]
        if missing:
            raise DataError(f"{path}: archive is missing entries {missing}")
        try:
            return tuple(archive[name] for name in _ENTRIES)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: unreadable entry: {exc}") from exc
