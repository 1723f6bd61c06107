"""Speaker-verification trial lists, trial scoring, EER, and word error rate.

A trial list file is read into id-coded columns (``TrialList``), with no
object per trial; ``Trial`` is only the record ``write_trials`` writes.

Scoring uses cosine similarity between enrollment and test embeddings
(higher means more target-like; the accept rule is score >= threshold).
``evaluate`` (trials from a list file) and ``simulate`` (the full enroll x
test grid) both score through ``score_trials``: a nearest-K mask over the
test speakers' mean embeddings, one cosine matrix read per trial, and
per-gender masks over the flat trial arrays.
The equal error rate is located by linearly interpolating the false
rejection and false acceptance rates between adjacent operating points of
the threshold sweep, so the value is invariant to any strictly increasing
transform of the scores.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingPool, speaker_means, speaker_of
from .errors import DataError, read_lines

TRIAL_LABELS = ("target", "nontarget")


@dataclass(frozen=True, slots=True)
class Trial:
    """One verification trial to write: does ``test_id``'s speech come from ``enroll_id``?"""

    enroll_id: str
    test_id: str
    label: str

    def __post_init__(self):
        if self.label not in TRIAL_LABELS:
            raise ValueError(f"trial label must be one of {TRIAL_LABELS}, got {self.label!r}")


@dataclass(frozen=True)
class TrialList:
    """A trial list in file order: per-trial codes ``enroll``/``test`` into the
    distinct ids (first-seen order), target flags and line numbers."""

    enroll_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    enroll: np.ndarray
    test: np.ndarray
    is_target: np.ndarray
    lines: np.ndarray


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
    trials: TrialList, enroll_ids: Sequence[str], test_ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enrollment row, test column and target flag of every trial, one lookup per
    distinct id; an unknown id raises ``DataError`` naming its first trial's line."""
    rows = {spk_id: i for i, spk_id in enumerate(enroll_ids)}
    cols = {utt_id: j for j, utt_id in enumerate(test_ids)}
    row = np.array([rows.get(i, -1) for i in trials.enroll_ids], dtype=np.intp)[trials.enroll]
    col = np.array([cols.get(i, -1) for i in trials.test_ids], dtype=np.intp)[trials.test]
    unknown = (row < 0) | (col < 0)
    if unknown.any():
        first = int(np.argmax(unknown))
        side, ids, codes = (("enrollment", trials.enroll_ids, trials.enroll) if row[first] < 0
                            else ("test", trials.test_ids, trials.test))
        raise DataError(f"line {trials.lines[first]}: trial references unknown "
                        f"{side} id {ids[codes[first]]!r}")
    return row, col, trials.is_target


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


@dataclass(frozen=True)
class ScoredTrials:
    """Trials in order: enrollment row, test column, target flag and cosine
    score, plus the (partition name, target mask, non-target mask) triples
    of ``partition_masks``."""

    rows: np.ndarray
    cols: np.ndarray
    is_target: np.ndarray
    scores: np.ndarray
    parts: tuple[tuple[str, np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.rows)


def score_trials(
    enroll: EmbeddingPool, test: EmbeddingPool, rows: np.ndarray, cols: np.ndarray,
    is_target: np.ndarray, k: int | None, by_gender: bool,
) -> ScoredTrials:
    """Score the trials (``rows``, ``cols``, ``is_target``) of ``enroll`` against ``test``.

    With ``k``, a non-target trial is kept only if its test speaker (the
    mean of that speaker's utterances, grouped by ``speaker_of``) is among
    the K test speakers most similar to the enrollee; a test speaker with
    the enrollee's own id is never among them. ``k=None`` keeps every trial.
    """
    if k is not None:
        speakers = EmbeddingPool(speaker_means(test))
        nearest = nearest_k_mask(
            cosine_matrix(enroll.vectors, speakers.vectors), enroll.ids, speakers.ids, k
        )
        speaker_col = np.array([speakers.index_of(speaker_of(utt_id)) for utt_id in test.ids])
        keep = is_target | nearest[rows, speaker_col[cols]]
        rows, cols, is_target = rows[keep], cols[keep], is_target[keep]
    scores = cosine_matrix(enroll.vectors, test.vectors)[rows, cols]
    parts = partition_masks(
        rows, cols, is_target, [e.gender for e in enroll], [t.gender for t in test], by_gender
    )
    return ScoredTrials(rows, cols, is_target, scores, tuple(parts))


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
    # key = cost * big - aligned steps, so the smallest key is a minimal-cost
    # alignment with the most aligned steps (aligned < big).
    big = n + m + 1
    key = np.zeros((n + 1, m + 1), dtype=np.int64)
    key[:, 0] = np.arange(n + 1) * big
    key[0, :] = np.arange(m + 1) * big
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            key[i, j] = min(key[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]) * big - 1,
                            key[i - 1, j] + big, key[i, j - 1] + big)

    subs = dels = inss = 0
    i, j = n, m
    while i > 0 or j > 0:
        sub = i > 0 and j > 0 and ref[i - 1] != hyp[j - 1]
        if i > 0 and j > 0 and key[i, j] == key[i - 1, j - 1] + sub * big - 1:
            subs += sub
            i -= 1
            j -= 1
        elif i > 0 and key[i, j] == key[i - 1, j] + big:
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1
    return WerResult(int(subs), int(dels), int(inss), n)


def read_trials(path) -> TrialList:
    """Parse a trial list file, one ``enroll_id test_id {tar|non}`` per line,
    into ``TrialList`` columns coded as it reads: no object and no id string
    is kept per trial, only one string per distinct id."""
    path = Path(path)
    enroll_codes, test_codes = {}, {}
    enroll, test, lines = array("q"), array("q"), array("q")
    is_target = bytearray()
    for lineno, line in enumerate(read_lines(path, "trial file"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3 or parts[2] not in ("tar", "non"):
            raise DataError(
                f"{path}, line {lineno}: expected 'enroll_id test_id tar|non', got {line!r}"
            )
        enroll.append(enroll_codes.setdefault(parts[0], len(enroll_codes)))
        test.append(test_codes.setdefault(parts[1], len(test_codes)))
        is_target.append(parts[2] == "tar")
        lines.append(lineno)
    if not lines:
        raise DataError(f"{path}: trial file contains no trials")
    return TrialList(tuple(enroll_codes), tuple(test_codes), np.frombuffer(enroll, np.int64),
                     np.frombuffer(test, np.int64), np.frombuffer(is_target, bool),
                     np.frombuffer(lines, np.int64))


def write_trials(path, trials: Sequence[Trial]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for trial in trials:
            tag = "tar" if trial.label == "target" else "non"
            fh.write(f"{trial.enroll_id} {trial.test_id} {tag}\n")
