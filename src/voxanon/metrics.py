"""Speaker-verification trial scoring, EER, and word error rate.

Scoring uses cosine similarity between enrollment and test embeddings
(higher means more target-like; the accept rule is score >= threshold).
Every protocol shares one engine: a cosine matrix, a nearest-K mask over
speaker-level candidates, and per-gender masks over flat trial arrays.
The equal error rate is located by linearly interpolating the false
rejection and false acceptance rates between adjacent operating points of
the threshold sweep, so the value is invariant to any strictly increasing
transform of the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, read_lines

TRIAL_LABELS = ("target", "nontarget")


@dataclass(frozen=True)
class Trial:
    """One verification trial: does ``test_id``'s speech come from ``enroll_id``?"""

    enroll_id: str
    test_id: str
    label: str

    def __post_init__(self):
        if self.label not in TRIAL_LABELS:
            raise ValueError(
                f"trial label must be one of {TRIAL_LABELS}, got {self.label!r}"
            )


@dataclass(frozen=True)
class EerResult:
    """Equal error rate with the threshold at the crossing.

    At the reported threshold the stepwise false rejection and false
    acceptance rates bracket ``eer`` (they equal it when the crossing
    lands exactly on an operating point).
    """

    eer: float
    threshold: float
    n_target: int
    n_nontarget: int


@dataclass(frozen=True)
class WerResult:
    """Edit-distance word error counts against a reference."""

    substitutions: int
    deletions: int
    insertions: int
    n_ref_words: int

    @property
    def n_errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        # May exceed 1 when the hypothesis is much longer than the reference.
        return self.n_errors / self.n_ref_words


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) cosine similarities of the rows of ``a`` (n, d) and ``b`` (m, d),
    clipped to [-1, 1] against rounding."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    return np.clip(a @ b.T, -1.0, 1.0)


def rank_by_similarity(sims: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """Column indices of each row of ``sims`` (n, m), most similar first.

    ``ids`` names the m columns; equal similarities rank by ascending id.
    """
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return np.lexsort((np.broadcast_to(id_rank, sims.shape), -sims), axis=-1)


def nearest_k_mask(
    sims: np.ndarray, row_ids: Sequence[str], col_ids: Sequence[str], k: int | None
) -> np.ndarray:
    """Per enrolled row, the ``k`` most similar candidate columns, as a mask.

    ``sims`` (n, m) scores each enrolled speaker against the speaker-level
    candidates named by ``col_ids``. The column whose id equals the row's
    own id is never selected; ``k=None`` selects every other column.
    Restricting non-target trials to the nearest speakers keeps far-away
    speakers from deflating the error rate. Ties rank by ascending id.
    """
    others = np.asarray(row_ids, dtype=str)[:, None] != np.asarray(col_ids, dtype=str)[None, :]
    for row_id, available in zip(row_ids, others.sum(axis=1)):
        if available == 0:
            raise ValueError(f"no non-target speakers available for {row_id!r}")
        if k is not None and k > available:
            raise ValueError(f"k {k} exceeds available non-targets ({available})")
    if k is None:
        return others
    if k < 1:
        raise ValueError("k must be at least 1")
    ranked = rank_by_similarity(np.where(others, sims, -np.inf), col_ids)
    mask = np.zeros_like(others)
    np.put_along_axis(mask, ranked[:, :k], True, axis=1)
    return mask


def trial_indices(
    trials: Sequence[Trial], enroll_ids: Sequence[str], test_ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enrollment row, test column and target flag of every trial, in order."""
    rows = {spk_id: i for i, spk_id in enumerate(enroll_ids)}
    cols = {utt_id: j for j, utt_id in enumerate(test_ids)}
    for trial in trials:
        if trial.enroll_id not in rows:
            raise DataError(f"trial references unknown enrollment id {trial.enroll_id!r}")
        if trial.test_id not in cols:
            raise DataError(f"trial references unknown test id {trial.test_id!r}")
    n = len(trials)
    return (
        np.fromiter((rows[t.enroll_id] for t in trials), np.intp, n),
        np.fromiter((cols[t.test_id] for t in trials), np.intp, n),
        np.fromiter((t.label == "target" for t in trials), bool, n),
    )


def partition_masks(
    rows: np.ndarray,
    cols: np.ndarray,
    is_target: np.ndarray,
    row_genders: Sequence[str | None],
    col_genders: Sequence[str | None],
    by_gender: bool,
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Target and non-target trial masks of the pooled partition and, with
    ``by_gender``, of each enrollment gender (sorted).

    A gender partition keeps the target trials of enrollees of that gender
    and the non-target trials where enrollee and test side both have it.
    A partition without target or without non-target trials is left out.
    """
    is_non = ~is_target
    parts = [("pooled", is_target, is_non)]
    if by_gender:
        for gender in sorted({g for g in row_genders if g is not None}):
            row_match = np.array([g == gender for g in row_genders], dtype=bool)[rows]
            col_match = np.array([g == gender for g in col_genders], dtype=bool)[cols]
            parts.append((gender, is_target & row_match, is_non & row_match & col_match))
    return [(name, tar, non) for name, tar, non in parts if tar.any() and non.any()]


def compute_eer(
    target_scores: Sequence[float], nontarget_scores: Sequence[float]
) -> EerResult:
    """Equal error rate of a score distribution pair.

    With the accept rule score >= threshold, the false rejection rate
    FRR(t) = P(target < t) is non-decreasing in t and the false acceptance
    rate FAR(t) = P(nontarget >= t) is non-increasing, so FRR - FAR crosses
    zero exactly once. Operating points are evaluated at every distinct
    score (plus sentinels past both ends) and the crossing is located by
    linear interpolation between the two bracketing points.
    """
    tar = np.asarray(target_scores, dtype=np.float64)
    non = np.asarray(nontarget_scores, dtype=np.float64)
    if tar.size == 0:
        raise ValueError("target score list is empty")
    if non.size == 0:
        raise ValueError("nontarget score list is empty")
    if not (np.all(np.isfinite(tar)) and np.all(np.isfinite(non))):
        raise ValueError("scores must be finite")

    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    values = np.unique(np.concatenate([tar_sorted, non_sorted]))
    thresholds = np.concatenate([[values[0] - 1.0], values, [values[-1] + 1.0]])
    frr = np.searchsorted(tar_sorted, thresholds, side="left") / tar.size
    far = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size

    diff = frr - far
    i = int(np.argmax(diff >= 0.0))  # first crossing; diff[0] is always -1
    if diff[i] == 0.0:
        return EerResult(float(frr[i]), float(thresholds[i]), tar.size, non.size)
    t = (far[i - 1] - frr[i - 1]) / ((frr[i] - frr[i - 1]) + (far[i - 1] - far[i]))
    eer = frr[i - 1] + t * (frr[i] - frr[i - 1])
    threshold = thresholds[i - 1] + t * (thresholds[i] - thresholds[i - 1])
    return EerResult(float(eer), float(threshold), tar.size, non.size)


def wer(ref: Sequence[str], hyp: Sequence[str]) -> WerResult:
    """Word error counts from a minimal edit alignment with unit costs.

    Alignment ties are resolved preferring substitution over deletion over
    insertion: among all minimal-cost alignments the one with the most
    aligned (match or substitution) steps is chosen, then deletions beat
    insertions in the residual order. Because every alignment of an
    (n, m) pair satisfies D - I = n - m, this pins the count split
    uniquely, so it is deterministic and swaps D with I exactly when the
    roles of the two sequences swap.
    """
    ref = list(ref)
    hyp = list(hyp)
    if not ref:
        raise ValueError("reference word sequence is empty")
    n, m = len(ref), len(hyp)
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    aligned = np.zeros((n + 1, m + 1), dtype=np.int64)  # max diagonal steps
    cost[:, 0] = np.arange(n + 1)
    cost[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = cost[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = cost[i - 1, j] + 1
            ins = cost[i, j - 1] + 1
            best = min(sub, dele, ins)
            steps = -1
            if sub == best:
                steps = aligned[i - 1, j - 1] + 1
            if dele == best:
                steps = max(steps, aligned[i - 1, j])
            if ins == best:
                steps = max(steps, aligned[i, j - 1])
            cost[i, j] = best
            aligned[i, j] = steps

    subs = dels = inss = 0
    i, j = n, m
    while i > 0 or j > 0:
        if (
            i > 0 and j > 0
            and cost[i, j] == cost[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            and aligned[i, j] == aligned[i - 1, j - 1] + 1
        ):
            subs += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif (
            i > 0
            and cost[i, j] == cost[i - 1, j] + 1
            and aligned[i, j] == aligned[i - 1, j]
        ):
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1
    return WerResult(int(subs), int(dels), int(inss), n)


def read_trials(path) -> list[Trial]:
    """Parse a trial list file: one ``enroll_id test_id {tar|non}`` per line."""
    path = Path(path)
    lines = read_lines(path, "trial file")
    trials = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("tar", "non"):
            raise DataError(
                f"{path}, line {lineno}: expected 'enroll_id test_id tar|non', got {line!r}"
            )
        label = "target" if parts[2] == "tar" else "nontarget"
        trials.append(Trial(parts[0], parts[1], label))
    if not trials:
        raise DataError(f"{path}: trial file contains no trials")
    return trials


def write_trials(path, trials: Sequence[Trial]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for trial in trials:
            tag = "tar" if trial.label == "target" else "non"
            fh.write(f"{trial.enroll_id} {trial.test_id} {tag}\n")
