"""Deterministic DSP front end: framing, log-mel features, F0, alignment.

All framing in this module is left-aligned with no centering or padding,
so every stream extracted from the same waveform at the same hop is
co-indexed frame for frame:

    n_frames = floor((n_samples - frame_len) / hop_len) + 1

Fixed analysis settings (stated so oracles can replicate results bit for
bit): 25 ms frames, periodic Hann window, 512-point FFT, HTK mel scale
spanning 20-7600 Hz, log floor ln(1e-10). The F0 tracker searches the
whole-sample lags of 50-600 Hz (``F0_LAGS``, 27 to 320 samples) and voices
a frame at a normalized correlation of at least ``VOICING_THRESHOLD``
(0.45); it takes no setting.

The pipeline runs on one clock: ``audio.SAMPLE_RATE`` (16 kHz), with one frame
per ``F0_HOP_SECONDS`` (5 ms), that is ``SAMPLES_PER_FRAME`` (80) samples.
Each stream between the stages is declared once, as a ``Stream`` of one kind,
width and hop. A ``FeatureMatrix`` holds its stream, ``Stream.check`` is a
consumer's one test of it, and every stream-file reader and writer takes the
kind and the hop from it, so a file of another kind or hop is refused on read:

    stream     width               hop    producer          consumer
    FBANK24    24                  10 ms  mel_features      xvector_forward
    MEL40      40                  10 ms  mel_features      ppg_forward
    PPG        1944                10 ms  ppg_forward       align_streams
    F0         1 (F0Contour)       5 ms   extract_f0        align_streams, nsf_forward
    ALIGNED    1944 + 2 + 512      5 ms   align_streams     acoustic_forward
    MELSPEC80  80                  5 ms   acoustic_forward  nsf_forward

The NSF vocoder writes ``SAMPLES_PER_FRAME`` samples per 5 ms frame. The
front end rejects audio at any rate other than ``SAMPLE_RATE``, because
the settings above hold only in a narrow band of rates: below 15.2 kHz,
twice the 7.6 kHz mel top edge, the top mel bands hold no FFT bin, and
above 20.48 kHz a 25 ms frame is longer than the 512-point FFT, which
would drop the end of every frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, Waveform
from .embeddings import SpeakerEmbedding
from .errors import DataError, read_npz, write_npz

F0_HOP_SECONDS = 0.005
SAMPLES_PER_FRAME = round(SAMPLE_RATE * F0_HOP_SECONDS)
CONTENT_HOP_SECONDS = 2 * F0_HOP_SECONDS
FRAME_SECONDS = 0.025
FRAME_SAMPLES = round(FRAME_SECONDS * SAMPLE_RATE)
FFT_SIZE = 512
MEL_LOW_HZ = 20.0
MEL_HIGH_HZ = 7600.0
LOG_FLOOR = 1e-10
F0_MIN_HZ = 50.0
F0_MAX_HZ = 600.0
VOICING_THRESHOLD = 0.45
# The F0 tracker's lags: 27 to 320 samples, each of which fits in one frame.
F0_LAGS = np.arange(math.ceil(SAMPLE_RATE / F0_MAX_HZ), math.floor(SAMPLE_RATE / F0_MIN_HZ) + 1)
F0_LAGS.setflags(write=False)
# A frame whose mean-removed energy is at most this times L * max x^2 holds
# only the rounding residue of mean removal (a constant offset) and is unvoiced.
F0_ENERGY_FLOOR = float(np.finfo(np.float64).eps)
PPG_STATES = 1944  # tied phone states, one posterior each
EMBED_DIM = 512  # the speaker vector: an x-vector (Snyder et al., ICASSP 2018)


@dataclass(frozen=True)
class Stream:
    """A kind of feature matrix, its width and the one hop it runs at."""

    kind: str
    width: int
    hop: float

    def check(self, features: FeatureMatrix) -> None:
        """Raise ``ValueError`` unless ``features`` is of this stream."""
        if features.stream != self:
            raise ValueError(f"expected {self.kind} at a {self.hop} s hop, "
                             f"got {features.stream.kind} at a {features.stream.hop} s hop")


FBANK24 = Stream("fbank24", 24, CONTENT_HOP_SECONDS)
MEL40 = Stream("mel40", 40, CONTENT_HOP_SECONDS)
PPG = Stream("ppg", PPG_STATES, CONTENT_HOP_SECONDS)
F0 = Stream("f0", 1, F0_HOP_SECONDS)  # the file kind of an F0Contour
ALIGNED = Stream("aligned", PPG_STATES + 2 + EMBED_DIM, F0_HOP_SECONDS)
MELSPEC80 = Stream("melspec80", 80, F0_HOP_SECONDS)
MEL_STREAMS = (FBANK24, MEL40, MELSPEC80)


def check_speaker_width(width: int) -> None:
    """Raise ``ValueError`` unless ``width`` is the speaker vector width, ``EMBED_DIM``."""
    if width != EMBED_DIM:
        raise ValueError(f"speaker vectors are {width}-dim, but the networks take {EMBED_DIM}-dim ones")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """A (frames x width) matrix of one ``Stream``."""

    frames: np.ndarray
    stream: Stream

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValueError("feature matrix must be 2-d with at least one frame")
        if not np.all(np.isfinite(frames)):
            raise ValueError("feature matrix contains non-finite values")
        kind, width = self.stream.kind, self.stream.width
        if frames.shape[1] != width:
            raise ValueError(f"kind {kind!r} requires dim {width}, got {frames.shape[1]}")
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
    """F0 in Hz, one value per ``F0_HOP_SECONDS``; 0.0 encodes an unvoiced frame."""

    values: np.ndarray

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
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

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


@functools.lru_cache(maxsize=32)
def mel_filterbank(n_mels: int) -> np.ndarray:
    """The read-only triangular mel filterbank over the FFT_SIZE-point bins
    at ``SAMPLE_RATE``, built once per width.

    Band edges are equally spaced on the HTK mel scale between
    ``MEL_LOW_HZ`` and ``MEL_HIGH_HZ``; triangles have unit peak height and
    overlap at the neighboring centers.
    """
    if n_mels < 1:
        raise ValueError("n_mels must be positive")
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(MEL_LOW_HZ), hz_to_mel(MEL_HIGH_HZ), n_mels + 2))
    bin_hz = np.arange(FFT_SIZE // 2 + 1) * (SAMPLE_RATE / FFT_SIZE)
    weights = np.zeros((n_mels, bin_hz.size))
    for m in range(n_mels):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=32)
def hann_periodic(length: int) -> np.ndarray:
    """The read-only periodic Hann window, built once per length."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    window.setflags(write=False)
    return window


def _check_rate(waveform: Waveform) -> None:
    if waveform.sample_rate != SAMPLE_RATE:
        raise ValueError(f"waveform is at {waveform.sample_rate} Hz, not {SAMPLE_RATE} Hz")


def mel_features(waveform: Waveform, stream: Stream) -> FeatureMatrix:
    """Log-mel energies of a waveform, as one of the ``MEL_STREAMS``.

    Parameters
    ----------
    waveform: Waveform
        Input audio at ``SAMPLE_RATE``, at least one frame (25 ms) long.
    stream: Stream
        ``FBANK24``, ``MEL40`` or ``MELSPEC80``. Its width is the number of
        mel channels, and a frame starts every ``stream.hop`` seconds.

    Returns
    -------
    FeatureMatrix of ``stream`` with one row per frame. Each cell is
    ln(max(mel_energy, 1e-10)) of the power spectrum, so an all-zero
    waveform produces a matrix filled with ln(1e-10) and the output is
    finite for every input.
    """
    if stream not in MEL_STREAMS:
        raise ValueError(f"mel_features makes {', '.join(s.kind for s in MEL_STREAMS)}, not {stream!r}")
    _check_rate(waveform)
    frames = frame_signal(waveform.samples, FRAME_SAMPLES, round(stream.hop * SAMPLE_RATE))
    window = hann_periodic(FRAME_SAMPLES)
    spectrum = np.fft.rfft(frames * window, n=FFT_SIZE, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    energies = power @ mel_filterbank(stream.width).T
    logmel = np.log(np.maximum(energies, LOG_FLOOR))
    return FeatureMatrix(logmel, stream)


def extract_f0(waveform: Waveform) -> F0Contour:
    """Estimate F0 every 5 ms at ``SAMPLE_RATE`` with a normalized-autocorrelation tracker.

    Each 25 ms frame is mean-removed, and the normalized cross-correlation

        r[tau] = sum(x[n] x[n+tau]) / sqrt(sum(x[n]^2) sum(x[n+tau]^2))

    is evaluated over ``F0_LAGS``, every whole-sample lag of
    [``F0_MIN_HZ``, ``F0_MAX_HZ``]. The lag is chosen by r minus a small
    octave cost (0.01 per lag doubling), which keeps period multiples,
    whose correlation ties the true period, from stealing the pick; a frame
    is voiced where the raw r at the chosen lag reaches
    ``VOICING_THRESHOLD``. The peak lag is refined by parabolic
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
    _check_rate(waveform)
    lags = F0_LAGS
    frames = np.array(frame_signal(waveform.samples, FRAME_SAMPLES, SAMPLES_PER_FRAME))
    peak = np.maximum(frames.max(axis=1), -frames.min(axis=1))
    energy_floor = F0_ENERGY_FLOOR * FRAME_SAMPLES * peak * peak
    frames -= frames.mean(axis=1, keepdims=True)

    n_frames = frames.shape[0]
    num = np.empty((n_frames, lags.size))
    for i, tau in enumerate(lags):
        num[:, i] = np.einsum("ij,ij->i", frames[:, : FRAME_SAMPLES - tau], frames[:, tau:])
    power = frames * frames
    head = np.cumsum(power, axis=1)[:, FRAME_SAMPLES - 1 - lags]
    tail = np.cumsum(power[:, ::-1], axis=1)[:, FRAME_SAMPLES - 1 - lags]
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
        f0 = SAMPLE_RATE / (lags[best] + shift)
    voiced = (strength >= VOICING_THRESHOLD) & (power.sum(axis=1) > energy_floor)
    keep = voiced & (f0 >= F0_MIN_HZ) & (f0 <= F0_MAX_HZ)
    return F0Contour(np.where(keep, f0, 0.0))


def align_streams(
    ppg: FeatureMatrix, f0: F0Contour, xvec: SpeakerEmbedding
) -> FeatureMatrix:
    """Merge the ``PPG`` stream with the 5 ms F0 stream and a speaker
    embedding into one ``ALIGNED`` stream.

    Each content row is emitted twice to reach the 5 ms rate, the F0 is
    encoded as (log-F0 where voiced else 0, binary voicing flag), and the
    speaker embedding is copied into every row. The output is trimmed to
    ``min(2 * content_frames, f0_frames)``; a disagreement of more than two
    frames signals desynchronized streams and is an error.
    """
    PPG.check(ppg)
    check_speaker_width(xvec.dim)
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
    return FeatureMatrix(rows, ALIGNED)


def save_features(path, features: FeatureMatrix) -> None:
    """Write a feature matrix as an ``.npz`` stream file.

    The archive holds three entries: the stream's ``kind`` (0-d unicode) and
    ``hop`` (0-d float64), and ``values`` (the frames x width float64 matrix).
    Floats round-trip exactly, and equal matrices give equal bytes.
    """
    _save_stream(path, features.stream, features.frames)


def load_features(path, stream: Stream) -> FeatureMatrix:
    """Read a matrix of ``stream``, refusing a file of another kind or hop."""
    return _load_stream(path, stream, lambda values: FeatureMatrix(values, stream))


def save_f0(path, contour: F0Contour) -> None:
    _save_stream(path, F0, contour.values)


def load_f0(path) -> F0Contour:
    """Read a contour, refusing a file of another kind or hop than ``F0``."""
    return _load_stream(path, F0, F0Contour)


def _save_stream(path, stream: Stream, values: np.ndarray) -> None:
    write_npz(path, kind=np.array(stream.kind), hop=np.array(stream.hop, dtype=np.float64), values=values)


def _load_stream(path, stream: Stream, build):
    path = Path(path)
    kind, hop, values = read_npz(path, ("kind", "hop", "values"), "feature file")
    if kind.tolist() != stream.kind:
        raise DataError(f"{path}: kind {kind.tolist()!r} is not {stream.kind}")
    if hop.shape != () or hop.dtype != np.float64:
        raise DataError(f"{path}: hop must be a 0-d float64, got {hop.tolist()!r}")
    if hop != stream.hop:
        raise DataError(f"{path}: hop {float(hop)!r} is not the {stream.kind} hop, {stream.hop}")
    if values.dtype != np.float64:
        raise DataError(f"{path}: values must be float64, got {values.dtype}")
    try:
        return build(values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
