"""
Neural stack forward passes
===========================

Walks a waveform through all four networks with freshly initialized
weights: speaker embedding, phonetic posteriors, the autoregressive
acoustic model, and the source-filter waveform model. Untrained weights
produce noise-like audio; the point here is the verifiable plumbing:
shapes, normalizations, lengths, and determinism.
"""

import numpy as np

from voxanon import Waveform, align_streams, extract_f0, mel_features
from voxanon.features import FBANK24, MEL40
from voxanon.nnet import (
    AcousticConfig,
    NsfConfig,
    PpgConfig,
    XVectorConfig,
    acoustic_forward,
    init_weights,
    nsf_forward,
    ppg_forward,
    spectral_loss,
    xvector_forward,
)

fs = 16000
rng = np.random.default_rng(1)
t = np.arange(int(0.4 * fs)) / fs
wav = Waveform(
    np.clip(0.4 * np.sin(2 * np.pi * 170 * t) + 0.02 * rng.standard_normal(t.size), -1, 1),
    fs,
)

# Front-end streams.
fbank = mel_features(wav, FBANK24)
mel40 = mel_features(wav, MEL40)
f0 = extract_f0(wav)

# Speaker embedding network: frame layers, stats pooling, segment affine.
xvector_weights = init_weights("xvector", XVectorConfig(n_train_speakers=100), seed=10)
xvec = xvector_forward(fbank, xvector_weights, embedding_id="demo")
print(f"x-vector: {xvec.dim}-d from {fbank.n_frames} frames")

# Posterior network: every row is a probability distribution.
ppg_weights = init_weights("ppg", PpgConfig(), seed=11)
ppg = ppg_forward(mel40, ppg_weights)
print(f"ppg: {ppg.frames.shape}, row sums within {np.abs(ppg.frames.sum(1) - 1).max():.1e} of 1")

# Merge content, prosody, and identity into the synthesis-rate stream.
aligned = align_streams(ppg, f0, xvec)
print(f"aligned: {aligned.frames.shape} (content + logF0 + voicing + embedding)")

# Acoustic model, feeding back its own mel frames.
acoustic_weights = init_weights("acoustic", AcousticConfig(), seed=12)
mel_generated = acoustic_forward(aligned, acoustic_weights)
print(f"generated mel: {mel_generated.frames.shape}")

# Waveform model: excitation from F0, filtered by dilated-conv blocks.
nsf_weights = init_weights("nsf", NsfConfig(), seed=13)
f0_trimmed = type(f0)(f0.values[: aligned.n_frames])
out = nsf_forward(mel_generated, f0_trimmed, xvec, nsf_weights, seed=14)
print(f"waveform: {len(out)} samples = 80 x {aligned.n_frames} frames")

# The training-time distance between waveforms, usable as a diagnostic.
reference = Waveform(wav.samples[: len(out)], fs)
print(f"spectral distance to the input: {spectral_loss(out, reference):.3f}")
print(f"spectral distance to itself:    {spectral_loss(out, out):.3f}")
