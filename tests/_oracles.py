"""Independent reference computations used to check the library.

Everything here deliberately recomputes results by a different route than
the implementation under test: direct counting instead of sorted sweeps,
plain loops instead of vectorized kernels, textbook formulas instead of
shared helpers.
"""

import math
from dataclasses import replace

import numpy as np

from voxanon.anonymize import apply_spec
from voxanon.cli import speaker_of
from voxanon.embeddings import cosine_similarity, mean_embedding
from voxanon.metrics import compute_eer
from voxanon.seeding import derive_seed


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


# ---------------------------------------------------------------------------
# Verification scoring one cosine_similarity call per pair, as `evaluate`
# and `simulate` each did before they shared one scoring engine.


def _nearest_ids(target, candidates, k):
    # Most similar first, ties by ascending id.
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(candidates):
        raise ValueError(f"k {k} exceeds available non-targets ({len(candidates)})")
    ranked = sorted((-cosine_similarity(target, c), c.id) for c in candidates)
    return [c_id for _, c_id in ranked[:k]]


def _filter_nearest_k(enroll, test, trials, k):
    test_speakers = {}
    for utt_id, embedding in test.items():
        test_speakers.setdefault(speaker_of(utt_id), []).append(embedding)
    speaker_level = {
        spk: mean_embedding(members, new_id=spk) for spk, members in test_speakers.items()
    }
    kept = []
    cache = {}
    for trial in trials:
        if trial.label == "target":
            kept.append(trial)
            continue
        if trial.enroll_id not in cache:
            candidates = [emb for spk, emb in speaker_level.items() if spk != trial.enroll_id]
            cache[trial.enroll_id] = set(_nearest_ids(enroll[trial.enroll_id], candidates, k))
        if speaker_of(trial.test_id) in cache[trial.enroll_id]:
            kept.append(trial)
    return kept


def _eer_partitions(scored, enroll, test, gender_partition):
    def gender_of(embedding):
        return embedding.gender if embedding is not None else None

    def eer_for(gender):
        tar = [
            s for t, s in scored
            if t.label == "target"
            and (gender is None or gender_of(enroll.get(t.enroll_id)) == gender)
        ]
        non = [
            s for t, s in scored
            if t.label == "nontarget"
            and (
                gender is None
                or (
                    gender_of(enroll.get(t.enroll_id)) == gender
                    and gender_of(test.get(t.test_id)) == gender
                )
            )
        ]
        return compute_eer(tar, non) if tar and non else None

    partitions = [("pooled", eer_for(None))]
    if gender_partition:
        genders = sorted({g for e in enroll.values() if (g := gender_of(e)) is not None})
        partitions.extend((gender, eer_for(gender)) for gender in genders)
    return [(name, result) for name, result in partitions if result is not None]


def evaluate_eers(enroll, test, trials, k, gender_partition):
    """Partition name -> EerResult of an `evaluate` run, pair by pair.

    Nearest-K keeps, per enrolled speaker, the non-target trials whose test
    speaker (mean of its utterances) is among the K most similar.
    """
    if k is not None:
        trials = _filter_nearest_k(enroll, test, trials, k)
    scored = [(t, cosine_similarity(enroll[t.enroll_id], test[t.test_id])) for t in trials]
    return dict(_eer_partitions(scored, enroll, test, gender_partition))


def _build_blocks(targets, nontargets, nearest_k):
    blocks = []
    for target in targets:
        others = [s for s in nontargets if s.id != target.id]
        if not others:
            raise ValueError(f"no non-target speakers available for {target.id!r}")
        if nearest_k is not None:
            kept_ids = set(_nearest_ids(target.enroll, [o.enroll for o in others], nearest_k))
            others = [o for o in others if o.id in kept_ids]
        tar_scores = np.array([cosine_similarity(target.enroll, utt) for utt in target.tests])
        non_scores, non_genders = [], []
        for other in others:
            for utt in other.tests:
                non_scores.append(cosine_similarity(target.enroll, utt))
                non_genders.append(other.gender)
        blocks.append((target, tar_scores, np.array(non_scores), non_genders))
    return blocks


def _partition_eer(blocks, target_scores, gender):
    tar, non = [], []
    for (speaker, _, non_scores, non_genders), scores in zip(blocks, target_scores):
        if gender is not None and speaker.gender != gender:
            continue
        tar.append(scores)
        if gender is None:
            non.append(non_scores)
        else:
            non.append(non_scores[np.array([g == gender for g in non_genders], dtype=bool)])
    tar, non = np.concatenate(tar), np.concatenate(non)
    # The per-pair code raised on a partition with an empty side.
    return compute_eer(tar, non) if tar.size and non.size else None


def benchmark_eers(targets, nontargets, pool, spec, protocol):
    """Partition name -> (EER before, [EER after per repetition]) of one
    `simulate` condition, pair by pair; None where a side is empty."""
    blocks = _build_blocks(targets, nontargets, protocol.nearest_k)
    parts = [None]
    if protocol.gender_partition:
        parts.extend(sorted({b[0].gender for b in blocks if b[0].gender is not None}))
    before = {p: _partition_eer(blocks, [b[1] for b in blocks], p) for p in parts}
    after = {p: [] for p in parts}
    for rep in range(protocol.repetitions if spec is not None else 0):
        rep_seed = derive_seed(spec.seed, f"rep:{rep}") if spec.strategy == "random" else None
        rep_scores = []
        for speaker, tar_scores, _, _ in blocks:
            rep_spec = spec
            if spec.strategy == "random":
                rep_spec = replace(spec, seed=derive_seed(rep_seed, speaker.id))
            pseudo = apply_spec(pool, rep_spec, original=speaker.enroll)
            rep_scores.append(np.full(len(tar_scores), cosine_similarity(speaker.enroll, pseudo.embedding)))
        for p in parts:
            after[p].append(_partition_eer(blocks, rep_scores, p))
    return {"pooled" if p is None else p: (before[p], after[p]) for p in parts}
