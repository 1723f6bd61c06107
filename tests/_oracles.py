"""Independent reference computations used to check the library.

Everything here deliberately recomputes results by a different route than
the implementation under test: direct counting instead of sorted sweeps,
plain loops instead of vectorized kernels, textbook formulas instead of
shared helpers.
"""

import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from voxanon.cli import speaker_of
from voxanon.embeddings import SpeakerEmbedding, centered_mean, cosine_matrix
from voxanon.errors import DataError, read_lines
from voxanon.features import SAMPLES_PER_FRAME
from voxanon.metrics import compute_eer, rank_by_similarity
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


def eer_threshold_sweep(target_scores, nontarget_scores):
    """(eer, threshold, n_target, n_nontarget) from the full threshold sweep.

    The operating points are every distinct score of either side plus a
    sentinel past each end; FRR and FAR are counted at all of them with two
    full-length ``searchsorted`` passes, and the crossing is interpolated
    between the first point with FRR - FAR >= 0 and the point before it.
    This is ``metrics.compute_eer`` as it was before it found the crossing
    by bisection, kept to pin the current one bit for bit.
    """
    tar = np.asarray(target_scores, dtype=np.float64)
    non = np.asarray(nontarget_scores, dtype=np.float64)
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    values = np.unique(np.concatenate([tar_sorted, non_sorted]))
    thresholds = np.concatenate([[values[0] - 1.0], values, [values[-1] + 1.0]])
    frr = np.searchsorted(tar_sorted, thresholds, side="left") / tar.size
    far = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size

    diff = frr - far
    i = int(np.argmax(diff >= 0.0))  # first crossing; diff[0] is always -1
    if diff[i] == 0.0:
        return float(frr[i]), float(thresholds[i]), tar.size, non.size
    t = (far[i - 1] - frr[i - 1]) / ((frr[i] - frr[i - 1]) + (far[i - 1] - far[i]))
    eer = frr[i - 1] + t * (frr[i] - frr[i - 1])
    threshold = thresholds[i - 1] + t * (thresholds[i] - thresholds[i - 1])
    return float(eer), float(threshold), tar.size, non.size


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


def cosine(a, b) -> float:
    """The cosine similarity of two embeddings, one pair at a time, by the
    package's one cosine."""
    return float(cosine_matrix(a.vector[None, :], b.vector[None, :])[0, 0])


def mean_of(embeddings, new_id="mean"):
    """The embedding whose vector is the package's one mean of ``embeddings``."""
    return SpeakerEmbedding(new_id, centered_mean(np.stack([e.vector for e in embeddings])))


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


def extract_f0_per_lag(samples, sample_rate, threshold=0.45, fmin=50.0, fmax=600.0):
    """F0 contour values, and each frame's correlation at its picked lag,
    from the per-lag tracker the library used before its energies came from
    prefix sums: three products per lag, then a per-frame peak pick. A frame
    whose mean-removed energy is at most eps * L * max x^2 is unvoiced."""
    fs = sample_rate
    frame_len = round(0.025 * fs)
    hop_len = round(0.005 * fs)
    n_frames = (len(samples) - frame_len) // hop_len + 1
    samples = np.asarray(samples, dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(samples, frame_len)
    frames = np.array(windows[: (n_frames - 1) * hop_len + 1 : hop_len])
    peaks = np.max(np.abs(frames), axis=1) ** 2
    frames -= frames.mean(axis=1, keepdims=True)
    energies = np.einsum("ij,ij->i", frames, frames)

    lag_min = max(2, math.ceil(fs / fmax))
    lag_max = min(frame_len - 1, math.floor(fs / fmin))
    lags = np.arange(lag_min, lag_max + 1)

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
    strengths = corr[np.arange(n_frames), best]
    for t in range(n_frames):
        b = int(best[t])
        strength = corr[t, b]
        if strength < threshold or energies[t] <= np.finfo(np.float64).eps * frame_len * peaks[t]:
            continue
        lag = float(lags[b])
        if 0 < b < lags.size - 1:
            left, mid, right = corr[t, b - 1], corr[t, b], corr[t, b + 1]
            denom = left - 2.0 * mid + right
            if denom < 0:
                lag += 0.5 * (left - right) / denom
        f0 = fs / lag
        if fmin <= f0 <= fmax:
            values[t] = f0
    return values, strengths


class _LineTrial(NamedTuple):
    enroll_id: str
    test_id: str
    label: str
    line: int


def read_trial_objects(path) -> list:
    """The trial list parsed one record per line, as the library did before
    it read trial lists into id-coded columns."""
    path = Path(path)
    trials = []
    for lineno, line in enumerate(read_lines(path, "trial file"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("tar", "non"):
            raise DataError(
                f"{path}, line {lineno}: expected 'enroll_id test_id tar|non', got {line!r}"
            )
        label = "target" if parts[2] == "tar" else "nontarget"
        trials.append(_LineTrial(parts[0], parts[1], label, lineno))
    if not trials:
        raise DataError(f"{path}: trial file contains no trials")
    return trials


def trial_object_indices(trials, enroll_ids, test_ids):
    """Row, column and target flag per trial record, checking each trial's
    ids in turn; the first unknown id raises ``DataError`` naming its line."""
    rows = {spk_id: i for i, spk_id in enumerate(enroll_ids)}
    cols = {utt_id: j for j, utt_id in enumerate(test_ids)}
    for trial in trials:
        if trial.enroll_id not in rows or trial.test_id not in cols:
            side, unknown = (
                ("enrollment", trial.enroll_id) if trial.enroll_id not in rows
                else ("test", trial.test_id)
            )
            raise DataError(f"line {trial.line}: trial references unknown {side} id {unknown!r}")
    n = len(trials)
    return (
        np.fromiter((rows[t.enroll_id] for t in trials), np.intp, n),
        np.fromiter((cols[t.test_id] for t in trials), np.intp, n),
        np.fromiter((t.label == "target" for t in trials), bool, n),
    )


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

    ``condition`` is the frame-rate projection. It is expanded here to the
    sample rate: every frame replicated ``SAMPLES_PER_FRAME`` times, a
    zero-padded moving average of ``smooth_width`` samples summed window by
    window, then cut to the excitation's length. Each layer pads the hidden
    state afresh and sums the taps over shifted views, with the
    conditioning projection computed over the whole signal.
    """
    config = weights.config
    prefix = f"filter.block{block}"
    length = excitation.shape[0]
    half = config.smooth_width // 2
    upsampled = np.pad(np.repeat(condition, SAMPLES_PER_FRAME, axis=0), ((half, half), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(upsampled, config.smooth_width, axis=0)
    condition = windows.sum(axis=-1)[:length] / config.smooth_width
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


def _float64(weights, name) -> np.ndarray:
    return np.asarray(weights[name], dtype=np.float64)


def ppg_posteriors(frames, weights) -> np.ndarray:
    """PPG network output in float64, spliced one frame at a time.

    Row t of the spliced input concatenates input rows t - half .. t + half,
    each index clipped into the utterance (edge replication). The sigmoid is
    ``(1 + tanh(x / 2)) / 2``; the softmax divides ``exp(x - max)`` by its
    row sum. Each layer is one float64 GEMM over the stacked rows.
    """
    config = weights.config
    n, half = frames.shape[0], config.context_frames // 2
    h = np.array([
        np.concatenate([frames[min(max(t + d, 0), n - 1)] for d in range(-half, half + 1)])
        for t in range(n)
    ], dtype=np.float64)
    for i in range(1, config.hidden_layers + 1):
        x = h @ _float64(weights, f"hidden{i}.w").T + _float64(weights, f"hidden{i}.b")
        h = 0.5 * (1.0 + np.tanh(0.5 * x))
    logits = h @ _float64(weights, "softmax.w").T + _float64(weights, "softmax.b")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def xvector_embedding_ref(frames, weights) -> np.ndarray:
    """x-vector embedding in float64: each frame layer splices its valid
    output rows one at a time, the statistics are the two-pass mean and
    population standard deviation, and the embedding is the segment6
    affine of their concatenation."""
    offsets = ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,))
    h = np.asarray(frames, dtype=np.float64)
    for i, taps in enumerate(offsets, start=1):
        first, last = -min(taps), h.shape[0] - max(taps)
        spliced = np.array([np.concatenate([h[t + d] for d in taps]) for t in range(first, last)])
        h = np.maximum(spliced @ _float64(weights, f"frame{i}.w").T + _float64(weights, f"frame{i}.b"), 0.0)
    mean = h.sum(axis=0) / h.shape[0]
    std = np.sqrt(np.square(h - mean).sum(axis=0) / h.shape[0])
    pooled = np.concatenate([mean, std])
    return _float64(weights, "segment6.w") @ pooled + _float64(weights, "segment6.b")


def _lstm_gates(z, c, size):
    # Gate order in z: input, forget, cell, output. Returns the new (h, c).
    i = 1.0 / (1.0 + np.exp(-z[:size]))
    f = 1.0 / (1.0 + np.exp(-z[size : 2 * size]))
    g = np.tanh(z[2 * size : 3 * size])
    o = 1.0 / (1.0 + np.exp(-z[3 * size :]))
    c = f * c + i * g
    return o * np.tanh(c), c


def acoustic_frames(frames, weights) -> np.ndarray:
    """Acoustic model forward pass with the full AR input projection per step.

    Every AR step concatenates the recurrent features of that frame with the
    model's own previous mel frame and multiplies the whole vector by the
    input matrix.
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
        prev = out[t]
    return out


# ---------------------------------------------------------------------------
# Verification scoring one cosine call per pair, as `evaluate`
# and `simulate` each did before they shared one scoring engine.


def _nearest_ids(target, candidates, k):
    # Most similar first, ties by ascending id.
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(candidates):
        raise ValueError(f"k {k} exceeds available non-targets ({len(candidates)})")
    ranked = sorted((-cosine(target, c), c.id) for c in candidates)
    return [c_id for _, c_id in ranked[:k]]


def _filter_nearest_k(enroll, test, trials, k):
    test_speakers = {}
    for utt_id, embedding in test.items():
        test_speakers.setdefault(speaker_of(utt_id), []).append(embedding)
    speaker_level = {
        spk: mean_of(members, new_id=spk) for spk, members in test_speakers.items()
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
    scored = [(t, cosine(enroll[t.enroll_id], test[t.test_id])) for t in trials]
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
        tar_scores = np.array([cosine(target.enroll, utt) for utt in target.tests])
        non_scores, non_genders = [], []
        for other in others:
            for utt in other.tests:
                non_scores.append(cosine(target.enroll, utt))
                non_genders.append(other.enroll.gender)
        blocks.append((target, tar_scores, np.array(non_scores), non_genders))
    return blocks


def _partition_eer(blocks, target_scores, gender):
    tar, non = [], []
    for (speaker, _, non_scores, non_genders), scores in zip(blocks, target_scores):
        if gender is not None and speaker.enroll.gender != gender:
            continue
        tar.append(scores)
        if gender is None:
            non.append(non_scores)
        else:
            non.append(non_scores[np.array([g == gender for g in non_genders], dtype=bool)])
    tar, non = np.concatenate(tar), np.concatenate(non)
    # The per-pair code raised on a partition with an empty side.
    return compute_eer(tar, non) if tar.size and non.size else None


def benchmark_eers(speakers, pool, spec, nearest_k, repetitions, gender_partition):
    """Partition name -> (EER before, [EER after per repetition]) of one
    `simulate` condition, pair by pair; None where a side is empty."""
    blocks = _build_blocks(speakers, speakers, nearest_k)
    parts = [None]
    if gender_partition:
        parts.extend(sorted({b[0].enroll.gender for b in blocks} - {None}))
    before = {p: _partition_eer(blocks, [b[1] for b in blocks], p) for p in parts}
    after = {p: [] for p in parts}
    for rep in range(repetitions if spec is not None else 0):
        rep_seed = derive_seed(spec.seed, f"rep:{rep}") if spec.strategy == "random" else None
        rep_scores = []
        for speaker, tar_scores, _, _ in blocks:
            rep_spec = spec
            if spec.strategy == "random":
                rep_spec = replace(spec, seed=derive_seed(rep_seed, speaker.id))
            _, embedding, _ = select_pseudo_speaker(pool, rep_spec, original=speaker.enroll)
            rep_scores.append(np.full(len(tar_scores), cosine(speaker.enroll, embedding)))
        for p in parts:
            after[p].append(_partition_eer(blocks, rep_scores, p))
    return {"pooled" if p is None else p: (before[p], after[p]) for p in parts}


# ---------------------------------------------------------------------------
# Pseudo-speaker selection as three separate strategy bodies with their own
# validation, indexing, averaging and scoring, as it was before
# `anonymize.apply_spec` became the one selection path. The bodies are kept
# as they were, except that each returns (selected_ids, embedding,
# measured dissimilarity) in place of a PseudoSpeaker, the range body has
# lost its seeded `subsample` thinning, the sampler's shuffle keeps only
# the slots it moved, and the bodies score and average through the package's
# one cosine (`cosine_matrix`, over the pool's plain vectors, not its cached
# unit rows) and one mean (`centered_mean`).


def _sample_without_replacement(n, k, seed):
    # One scalar draw per slot. `idx` stores only the slots a swap moved,
    # so n may be far larger than memory.
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = {}
    for i in range(k):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx.get(j, j), idx.get(i, i)
    return [idx.get(i, i) for i in range(k)]


def _mean_of_indices(pool, indices, new_id):
    ordered = sorted(indices)
    return mean_of([pool.get(pool.ids[i]) for i in ordered], new_id=new_id)


def _nearest_neighbors(pool, query, count):
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > len(pool):
        raise ValueError(f"count {count} exceeds pool size {len(pool)}")
    sims = cosine_matrix(query.vector[None, :], pool.vectors)[0]
    ids = pool.ids
    return [(ids[i], float(sims[i])) for i in rank_by_similarity(sims[None, :], ids)[0, :count]]


def _anonymize_random(pool, n_select, seed):
    if n_select < 1:
        raise ValueError("n_select must be at least 1")
    if n_select > len(pool):
        raise ValueError(f"n_select {n_select} exceeds pool size {len(pool)}")
    indices = _sample_without_replacement(len(pool), n_select, seed)
    indices.sort()
    embedding = _mean_of_indices(
        pool, indices, new_id=f"pseudo:random:n={n_select}:seed={seed}"
    )
    selected = tuple(pool.ids[i] for i in indices)
    return selected, embedding, None


def _anonymize_range(pool, original, target_similarity, half_width):
    sims = cosine_matrix(original.vector[None, :], pool.vectors)[0]
    lo = target_similarity - half_width
    hi = target_similarity + half_width
    candidates = np.flatnonzero((sims >= lo) & (sims <= hi))
    if candidates.size == 0:
        closest = float(sims[int(np.argmin(np.abs(sims - target_similarity)))])
        raise ValueError(
            f"no pool candidates with similarity in [{lo:.6f}, {hi:.6f}] "
            f"(target_similarity={target_similarity}, half_width={half_width}); "
            f"closest achievable similarity is {closest:.6f}; widen half_width"
        )
    indices = [int(i) for i in candidates]
    embedding = _mean_of_indices(
        pool,
        indices,
        new_id=f"pseudo:range:s={target_similarity}:eps={half_width}:of={original.id}",
    )
    selected = tuple(pool.ids[i] for i in indices)
    measured = 1.0 - cosine(original, embedding)
    return selected, embedding, measured


def _anonymize_nearest(pool, original, n_select):
    ranked = _nearest_neighbors(pool, original, n_select)
    selected = tuple(entry_id for entry_id, _ in ranked)
    indices = [pool.index_of(entry_id) for entry_id in selected]
    embedding = _mean_of_indices(
        pool, indices, new_id=f"pseudo:nearest:n={n_select}:of={original.id}"
    )
    measured = 1.0 - cosine(original, embedding)
    return selected, embedding, measured


def select_pseudo_speaker(pool, spec, original):
    """(selected_ids, embedding, measured dissimilarity) of ``spec``, by the
    strategy body it names."""
    if spec.strategy == "random":
        selected, embedding, _ = _anonymize_random(pool, spec.n_select, spec.seed)
        return selected, embedding, 1.0 - cosine(original, embedding)
    if spec.strategy == "range":
        return _anonymize_range(pool, original, spec.target_similarity, spec.half_width)
    return _anonymize_nearest(pool, original, spec.n_select)
