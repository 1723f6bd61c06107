"""Independent reference computations used to check the library.

Everything here deliberately recomputes results by a different route than
the implementation under test: direct counting instead of sorted sweeps,
plain loops instead of vectorized kernels, textbook formulas instead of
shared helpers.
"""

import math

import numpy as np


def eer_midpoint_sweep(target_scores, nontarget_scores) -> float:
    """EER by brute-force counting at every score-midpoint threshold.

    At each candidate threshold the false rejection and false acceptance
    rates are counted directly; the crossing of the two piecewise-linear
    rate curves is located between the bracketing thresholds.
    """
    tar = np.asarray(target_scores, dtype=np.float64)
    non = np.asarray(nontarget_scores, dtype=np.float64)
    pooled = np.unique(np.concatenate([tar, non]))
    mids = (pooled[:-1] + pooled[1:]) / 2.0 if pooled.size > 1 else np.empty(0)
    thresholds = np.concatenate([[pooled[0] - 1.0], mids, [pooled[-1] + 1.0]])
    frr = (tar[None, :] < thresholds[:, None]).mean(axis=1)
    far = (non[None, :] >= thresholds[:, None]).mean(axis=1)
    diff = frr - far
    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0:
        return float(frr[i])
    t = (far[i - 1] - frr[i - 1]) / ((frr[i] - frr[i - 1]) + (far[i - 1] - far[i]))
    return float(frr[i - 1] + t * (frr[i] - frr[i - 1]))


def edit_distance(ref, hyp) -> int:
    """Full-table edit distance with unit costs, no traceback."""
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i][j] = min(
                table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
            )
    return table[n][m]


def cosine_fsum(u, v) -> float:
    """Cosine similarity using compensated summation, no numpy."""
    dot = math.fsum(x * y for x, y in zip(u, v))
    nu = math.sqrt(math.fsum(x * x for x in u))
    nv = math.sqrt(math.fsum(y * y for y in v))
    return dot / (nu * nv)


def fft_peak_hz(frame, sample_rate, n_fft=16384) -> float:
    """Dominant frequency of a frame from a long zero-padded FFT."""
    frame = np.asarray(frame, dtype=np.float64)
    window = np.hanning(frame.size)
    spectrum = np.abs(np.fft.rfft(frame * window, n=n_fft))
    return float(np.argmax(spectrum) * sample_rate / n_fft)


def nccf_peak(frame, lag_min, lag_max) -> float:
    """Best normalized cross-correlation value of one frame, plain loops."""
    x = np.asarray(frame, dtype=np.float64)
    x = x - x.mean()
    best = 0.0
    for tau in range(lag_min, lag_max + 1):
        head = x[: x.size - tau]
        tail = x[tau:]
        denom = math.sqrt(float(head @ head) * float(tail @ tail))
        if denom == 0.0:
            continue
        best = max(best, float(head @ tail) / denom)
    return best


def mel_center_frequencies(n_mels, low_hz, high_hz) -> np.ndarray:
    """Filter center frequencies from the HTK mel formula."""
    def to_mel(hz):
        return 2595.0 * math.log10(1.0 + hz / 700.0)

    def to_hz(mel):
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    points = np.linspace(to_mel(low_hz), to_mel(high_hz), n_mels + 2)
    return np.array([to_hz(m) for m in points[1:-1]])


def nsf_filter_block(excitation, condition, weights, block) -> np.ndarray:
    """One NSF filter block in float64, one GEMM per dilated tap.

    Each layer pads the hidden state afresh and sums the taps over shifted
    views, with the conditioning projection computed over the whole signal.
    """
    config = weights.config
    prefix = f"filter.block{block}"
    length = excitation.shape[0]
    h = weights[f"{prefix}.in.w"] @ excitation[None, :] + weights[f"{prefix}.in.b"][:, None]
    skip = np.zeros_like(h)
    for k, dilation in enumerate(config.dilations, start=1):
        w = weights[f"{prefix}.layer{k}.dil.w"]
        pad = dilation * (w.shape[2] - 1) // 2
        hp = np.pad(h, ((0, 0), (pad, pad)))
        z = weights[f"{prefix}.layer{k}.cond.w"] @ condition.T
        z = z + weights[f"{prefix}.layer{k}.dil.b"][:, None]
        for t in range(w.shape[2]):
            z = z + w[:, :, t] @ hp[:, t * dilation : t * dilation + length]
        u = np.tanh(z)
        h = h + u
        skip = skip + u
    collapsed = (weights[f"{prefix}.out.w"] @ skip)[0] + weights[f"{prefix}.out.b"][0]
    return excitation + collapsed


def _lstm_gates(z, c, size):
    # Gate order in z: input, forget, cell, output. Returns the new (h, c).
    i = 1.0 / (1.0 + np.exp(-z[:size]))
    f = 1.0 / (1.0 + np.exp(-z[size : 2 * size]))
    g = np.tanh(z[2 * size : 3 * size])
    o = 1.0 / (1.0 + np.exp(-z[3 * size :]))
    c = f * c + i * g
    return o * np.tanh(c), c


def acoustic_frames(frames, weights, teacher=None) -> np.ndarray:
    """Acoustic model forward pass with the full AR input projection per step.

    Every AR step concatenates the recurrent features of that frame with the
    previous mel frame (the model's own output, or ``teacher`` shifted by
    one) and multiplies the whole vector by the input matrix.
    """
    config = weights.config
    h = np.tanh(frames @ weights["ff1.w"].T + weights["ff1.b"])
    h = np.tanh(h @ weights["ff2.w"].T + weights["ff2.b"])
    n, size = h.shape[0], config.blstm_size
    directions = []
    for name, steps in (("fw", range(n)), ("bw", range(n - 1, -1, -1))):
        hs, cs = np.zeros(size), np.zeros(size)
        seq = np.zeros((n, size))
        for t in steps:
            z = weights[f"blstm.{name}.wx"] @ h[t] + weights[f"blstm.{name}.wh"] @ hs
            hs, cs = _lstm_gates(z + weights[f"blstm.{name}.b"], cs, size)
            seq[t] = hs
        directions.append(seq)
    recurrent = np.hstack(directions)

    out = np.zeros((n, 80))
    h_ar, c_ar = np.zeros(config.ar_size), np.zeros(config.ar_size)
    prev = np.zeros(80)
    for t in range(n):
        x = np.concatenate([recurrent[t], prev])
        z = weights["ar.wx"] @ x + weights["ar.wh"] @ h_ar + weights["ar.b"]
        h_ar, c_ar = _lstm_gates(z, c_ar, config.ar_size)
        out[t] = weights["out.w"] @ h_ar + weights["out.b"]
        prev = teacher[t] if teacher is not None else out[t]
    return out
