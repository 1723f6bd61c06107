"""Speaker-verification trial lists, trial scoring, EER, and word error rate.

``read_trials`` reads a trial list file straight into each trial's pool
row, pool column and target flag, with no object per trial; ``Trial`` is
only the record ``write_trials`` writes.

Scoring uses cosine similarity between enrollment and test embeddings
(higher means more target-like; the accept rule is score >= threshold).
``evaluate`` (trials from a list file) and ``simulate`` (the full enroll x
test grid) both score through ``score_trials``: a nearest-K mask over the
test speakers' mean embeddings, one cosine matrix read per trial, and
per-gender masks over the flat trial arrays. Both then pass the
``ScoredTrials`` to ``benchmark.verify``, which checks that target and
non-target trials remain and runs ``compute_eer`` once per partition.
The equal error rate is located by linearly interpolating the false
rejection and false acceptance rates between the two operating points
that bracket their crossing, so the value is invariant to any strictly
increasing transform of the scores. Both score sides are sorted once and
the crossing is found by bisection, with O(log n) count queries.
"""

from __future__ import annotations

from array import array
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingPool, cosine_matrix, speaker_means, speaker_of
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

    def __add__(self, other: WerResult) -> WerResult:
        """The counts of both, as of one corpus."""
        return WerResult(*(a + b for a, b in zip(astuple(self), astuple(other))))


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
        speakers = speaker_means(test)
        nearest = nearest_k_mask(cosine_matrix(enroll, speakers), enroll.ids, speakers.ids, k)
        speaker_col = np.array([speakers.index_of(speaker_of(utt_id)) for utt_id in test.ids])
        keep = is_target | nearest[rows, speaker_col[cols]]
        rows, cols, is_target = rows[keep], cols[keep], is_target[keep]
    scores = cosine_matrix(enroll, test)[rows, cols]
    parts = partition_masks(rows, cols, is_target, enroll.genders, test.genders, by_gender)
    return ScoredTrials(rows, cols, is_target, scores, tuple(parts))


def compute_eer(
    target_scores: Sequence[float], nontarget_scores: Sequence[float]
) -> EerResult:
    """Equal error rate of a score distribution pair.

    With the accept rule score >= threshold, the false rejection rate
    FRR(t) = P(target < t) is non-decreasing in t and the false acceptance
    rate FAR(t) = P(nontarget >= t) is non-increasing, so FRR - FAR crosses
    zero exactly once. Operating points sit at every distinct score (plus a
    sentinel past the top). The first one with FRR - FAR >= 0 is found
    by bisection over each sorted side, and the crossing is located by
    linear interpolation between it and the operating point just below.
    """
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size == 0:
        raise ValueError("target score list is empty")
    if non.size == 0:
        raise ValueError("nontarget score list is empty")
    if not (np.isfinite(tar[[0, -1]]).all() and np.isfinite(non[[0, -1]]).all()):
        raise ValueError("scores must be finite")

    def rates(threshold: float) -> tuple[float, float]:
        return (int(tar.searchsorted(threshold)) / tar.size,
                (non.size - int(non.searchsorted(threshold))) / non.size)

    def first_crossing(side: np.ndarray) -> float:
        # The smallest score of ``side`` where FRR - FAR >= 0, or +inf; the
        # difference never decreases along the sorted scores.
        lo, hi = 0, side.size
        while lo < hi:
            mid = (lo + hi) // 2
            frr, far = rates(side[mid])
            if frr - far >= 0.0:
                hi = mid
            else:
                lo = mid + 1
        return float(side[lo]) if lo < side.size else np.inf

    hi_t = min(first_crossing(tar), first_crossing(non), float(max(tar[-1], non[-1])) + 1.0)
    frr_hi, far_hi = rates(hi_t)
    if frr_hi - far_hi == 0.0:
        return EerResult(frr_hi, hi_t, tar.size, non.size)
    # The operating point below is the largest score under hi_t. One exists,
    # as FRR - FAR is -1 at the lowest score, so the low sentinel never brackets.
    lo_t = max(float(side[n - 1]) for side in (tar, non) if (n := int(side.searchsorted(hi_t))))
    frr_lo, far_lo = rates(lo_t)
    t = (far_lo - frr_lo) / ((frr_hi - frr_lo) + (far_lo - far_hi))
    eer = frr_lo + t * (frr_hi - frr_lo)
    threshold = lo_t + t * (hi_t - lo_t)
    return EerResult(eer, threshold, tar.size, non.size)


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


def read_trials(
    path, enroll_ids: Sequence[str], test_ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The enrollment row (in ``enroll_ids``), test column (in ``test_ids``)
    and target flag of every trial of a trial list file, one ``enroll_id
    test_id {tar|non}`` per line. Ids are looked up as the file is read, so
    no object and no id string is kept per trial.

    A malformed line raises ``DataError`` at once. An id its pool lacks
    raises after the whole file has parsed, naming the first such trial's
    line (its enrollment id before its test id), so a malformed line
    anywhere wins.
    """
    path = Path(path)
    row_of = {spk_id: i for i, spk_id in enumerate(enroll_ids)}
    col_of = {utt_id: j for j, utt_id in enumerate(test_ids)}
    rows, cols = array("q"), array("q")
    is_target = bytearray()
    unknown = None
    for lineno, line in enumerate(read_lines(path, "trial file"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3 or parts[2] not in ("tar", "non"):
            raise DataError(
                f"{path}, line {lineno}: expected 'enroll_id test_id tar|non', got {line!r}"
            )
        row, col = row_of.get(parts[0], -1), col_of.get(parts[1], -1)
        if unknown is None and (row < 0 or col < 0):
            side, name = ("enrollment", parts[0]) if row < 0 else ("test", parts[1])
            unknown = f"{path}, line {lineno}: trial references unknown {side} id {name!r}"
        rows.append(row)
        cols.append(col)
        is_target.append(parts[2] == "tar")
    if not is_target:
        raise DataError(f"{path}: trial file contains no trials")
    if unknown is not None:
        raise DataError(unknown)
    return (np.frombuffer(rows, np.int64).astype(np.intp, copy=False),
            np.frombuffer(cols, np.int64).astype(np.intp, copy=False),
            np.frombuffer(is_target, bool))


def write_trials(path, trials: Sequence[Trial]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for trial in trials:
            tag = "tar" if trial.label == "target" else "non"
            fh.write(f"{trial.enroll_id} {trial.test_id} {tag}\n")
