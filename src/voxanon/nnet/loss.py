"""Multi-resolution short-time spectral amplitude distance.

The distance averages, over three STFT resolutions, the mean squared
difference of log amplitude spectra. It is symmetric, non-negative, zero
exactly when the amplitude spectra match at all three resolutions, and
blind to phase (so a joint polarity flip changes nothing).
"""

from __future__ import annotations

import numpy as np

from ..audio import Waveform
from ..features import frame_signal, hann_periodic

# (fft_size, hop) triples; window length equals the FFT size.
STFT_CONFIGS = ((512, 80), (128, 40), (2048, 320))
AMPLITUDE_FLOOR = 1e-12


def _log_amplitudes(samples: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    frames = frame_signal(samples, n_fft, hop)
    spectrum = np.fft.rfft(frames * hann_periodic(n_fft), axis=1)
    return np.log(np.abs(spectrum) + AMPLITUDE_FLOOR)


def spectral_loss(a: Waveform, b: Waveform) -> float:
    """Mean log-amplitude distance between two equal-length waveforms."""
    if len(a) != len(b):
        raise ValueError(f"waveform lengths differ: {len(a)} vs {len(b)}")
    if a.sample_rate != b.sample_rate:
        raise ValueError(
            f"sample rates differ: {a.sample_rate} vs {b.sample_rate}"
        )
    longest = max(n_fft for n_fft, _ in STFT_CONFIGS)
    if len(a) < longest:
        raise ValueError(
            f"waveforms must be at least {longest} samples for the multi-resolution "
            f"analysis, got {len(a)}"
        )
    total = 0.0
    for n_fft, hop in STFT_CONFIGS:
        diff = _log_amplitudes(a.samples, n_fft, hop) - _log_amplitudes(
            b.samples, n_fft, hop
        )
        total += float(np.mean(diff**2))
    return total / len(STFT_CONFIGS)
