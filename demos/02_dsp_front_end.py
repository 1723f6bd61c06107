"""
DSP front end: framing, log-mel features, F0
============================================

Runs the deterministic signal path on a synthetic vowel-like tone:
waveform I/O, the three mel widths, and the 5 ms F0 contour.
"""

import numpy as np

from voxanon import Waveform, extract_f0, mel_features, read_wav, write_wav
from voxanon.features import MEL_STREAMS, MELSPEC80

fs = 16000
t = np.arange(fs) / fs

# A crude vowel: 140 Hz fundamental plus a couple of harmonics.
samples = (
    0.4 * np.sin(2 * np.pi * 140 * t)
    + 0.2 * np.sin(2 * np.pi * 280 * t)
    + 0.1 * np.sin(2 * np.pi * 560 * t)
)
wav = Waveform(samples, fs)

# PCM16 round trip loses at most one quantization step.
write_wav("demo_tone.wav", wav)
reloaded = read_wav("demo_tone.wav")
print(f"wav round-trip max error: {np.abs(reloaded.samples - wav.samples).max():.2e}")

# The three mel widths consumed downstream. The 10 ms streams feed the
# embedding and posterior networks; the 5 ms stream is the synthesis rate.
for stream in MEL_STREAMS:
    features = mel_features(wav, stream)
    print(
        f"mel {stream.width:2d} @ {stream.hop * 1000:4.0f} ms: {features.n_frames} frames, "
        f"energy range [{features.frames.min():.1f}, {features.frames.max():.1f}]"
    )

# F0 at a 5 ms hop; 0.0 marks unvoiced frames.
contour = extract_f0(wav)
voiced = contour.values[contour.values > 0]
print(
    f"f0: {contour.n_frames} frames, {100 * (contour.values > 0).mean():.0f}% voiced, "
    f"median {np.median(voiced):.1f} Hz"
)

# Framing is shared between streams: the 5 ms mel and the F0 contour are
# co-indexed frame for frame.
assert mel_features(wav, MELSPEC80).n_frames == contour.n_frames
print("5 ms mel and f0 streams are co-indexed")
