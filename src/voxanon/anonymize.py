"""Pseudo-speaker composition from an embedding pool.

A pseudo speaker is the mean of a subset of pool embeddings, and
:func:`apply_spec` is the one path that builds it. It picks pool indices
as the spec's strategy says, averages the picked entries in pool order,
and measures the cosine similarity of the result to the original speaker
once. The strategies differ only in how they pick:

``random``
    A seed-determined uniform draw of ``n_select`` distinct entries. Does
    not depend on any original speaker.
``range``
    All entries whose cosine similarity to the original speaker falls in
    ``[target_similarity - half_width, target_similarity + half_width]``,
    which places the pseudo speaker at a controllable distance from the
    original.
``nearest``
    The ``n_select`` entries most similar to the original speaker, ranked
    by :func:`~voxanon.metrics.rank_by_similarity` (ties by ascending id).

Selection is a pure function of an immutable pool. Randomness is confined
to the explicit seed: the random draw is a partial Fisher-Yates shuffle
driven by a PCG64 stream (algorithm id below), so selections replay
exactly across platforms. Averaging always runs in pool order, so a full
selection equals the pool mean bit for bit regardless of strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import (
    EmbeddingPool,
    SpeakerEmbedding,
    cosine_similarity,
    mean_embedding,
    pool_similarities,
)
from .metrics import rank_by_similarity

SELECTION_ALGORITHM = "pcg64-fisher-yates-v1"

STRATEGIES = ("random", "range", "nearest")


@dataclass(frozen=True)
class AnonymizationSpec:
    """Parameters of one anonymization strategy.

    ``n_select`` is required for the random and nearest strategies;
    ``target_similarity`` and ``half_width`` for the range strategy. The
    random strategy additionally requires ``seed`` so its draw is
    replayable.
    """

    strategy: str
    n_select: int | None = None
    target_similarity: float | None = None
    half_width: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.strategy in ("random", "nearest"):
            if self.n_select is None or self.n_select < 1:
                raise ValueError(f"strategy {self.strategy!r} requires n_select >= 1")
        if self.strategy == "random" and self.seed is None:
            raise ValueError("strategy 'random' requires a seed")
        if self.strategy == "range":
            if self.target_similarity is None or not -1.0 <= self.target_similarity <= 1.0:
                raise ValueError("strategy 'range' requires target_similarity in [-1, 1]")
            if self.half_width is None or not self.half_width > 0.0:
                raise ValueError("strategy 'range' requires half_width > 0")


@dataclass(frozen=True)
class PseudoSpeaker:
    """An anonymized pseudo-speaker embedding with its selection provenance.

    ``embedding`` always equals the mean of the pool entries named in
    ``selected_ids``. ``similarity`` is the cosine similarity of the
    original speaker to ``embedding``, filled whenever an original speaker
    was supplied to the selection.
    """

    embedding: SpeakerEmbedding
    selected_ids: tuple[str, ...]
    spec: AnonymizationSpec
    similarity: float | None = None

    @property
    def measured_dissimilarity(self) -> float | None:
        """One minus ``similarity``, as :func:`~voxanon.embeddings.dissimilarity`."""
        return None if self.similarity is None else 1.0 - self.similarity


def _sample_without_replacement(n: int, k: int, seed: int) -> list[int]:
    # Partial Fisher-Yates over 0..n-1 using PCG64 integer draws; the first
    # k slots after the partial shuffle are a uniform k-subset.
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = np.arange(n)
    for i in range(k):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    return [int(v) for v in idx[:k]]


def apply_spec(
    pool: EmbeddingPool,
    spec: AnonymizationSpec,
    original: SpeakerEmbedding | None = None,
) -> PseudoSpeaker:
    """The pseudo speaker that ``spec`` selects from ``pool``.

    ``original`` is required for the range and nearest strategies. For the
    random strategy it is optional and only used to measure the similarity.
    ``selected_ids`` lists nearest picks most similar first and the picks
    of the other strategies in pool order; the same draw with the same
    arguments always returns the same selection and embedding bits.

    An empty range window is a hard error: silently widening it would
    misreport the achieved similarity. The error names the window and the
    closest achievable similarity so the caller can retry with a wider
    ``half_width``.
    """
    if spec.strategy != "random" and original is None:
        raise ValueError(f"strategy {spec.strategy!r} requires an original speaker")
    if spec.strategy == "range":
        sims = pool_similarities(pool, original)
        s, eps = spec.target_similarity, spec.half_width
        picks = [int(i) for i in np.flatnonzero((sims >= s - eps) & (sims <= s + eps))]
        if not picks:
            closest = float(sims[int(np.argmin(np.abs(sims - s)))])
            raise ValueError(
                f"no pool candidates with similarity in [{s - eps:.6f}, {s + eps:.6f}] "
                f"(target_similarity={s}, half_width={eps}); "
                f"closest achievable similarity is {closest:.6f}; widen half_width"
            )
        new_id = f"pseudo:range:s={s}:eps={eps}:of={original.id}"
    elif spec.n_select > len(pool):
        raise ValueError(f"n_select {spec.n_select} exceeds pool size {len(pool)}")
    elif spec.strategy == "random":
        picks = sorted(_sample_without_replacement(len(pool), spec.n_select, spec.seed))
        new_id = f"pseudo:random:n={spec.n_select}:seed={spec.seed}"
    else:
        ranked = rank_by_similarity(pool_similarities(pool, original)[None, :], pool.ids)
        picks = [int(i) for i in ranked[0, : spec.n_select]]
        new_id = f"pseudo:nearest:n={spec.n_select}:of={original.id}"
    embedding = mean_embedding([pool.entries[i] for i in sorted(picks)], new_id=new_id)
    similarity = None if original is None else cosine_similarity(original, embedding)
    return PseudoSpeaker(embedding, tuple(pool.entries[i].id for i in picks), spec, similarity)
