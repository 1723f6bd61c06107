"""Pseudo-speaker composition from an embedding pool.

A pseudo speaker is the mean of a subset of pool embeddings, and
:func:`apply_spec` is the one path that builds it. It picks pool indices
as the spec's strategy says, averages the picked rows in pool order with
:func:`~voxanon.embeddings.centered_mean`, and measures the cosine
similarity of the result to the original speaker once. Ranking the pool
and that measurement both use :func:`~voxanon.embeddings.cosine_matrix`,
the ranking against the pool's cached unit rows, so a selection is one
matrix-vector product. The strategies differ only in how they pick:

``random``
    A seed-determined uniform draw of ``n_select`` distinct entries. Its
    picks do not depend on the original speaker.
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

:class:`AnonymizationSpec` owns the strategy policy every command shares:
which parameters a strategy reads (``of``), how per-item seeds derive from
its seed (``derived``), its label, and its provenance fields (``record``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingPool, SpeakerEmbedding, centered_mean, cosine_matrix
from .metrics import rank_by_similarity
from .seeding import derive_seed

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

    @classmethod
    def of(cls, strategy, n_select=None, target_similarity=None, half_width=None, seed=None):
        """The spec of ``strategy`` keeping only the parameters it reads, so
        its label and record name no setting (nor seed) that did not shape
        the selection."""
        if strategy == "range":
            return cls(strategy, target_similarity=target_similarity, half_width=half_width)
        return cls(strategy, n_select=n_select, seed=seed if strategy == "random" else None)

    def derived(self, label: str) -> AnonymizationSpec:
        """This spec with its seed derived for ``label`` by
        :func:`~voxanon.seeding.derive_seed`; an unseeded spec is itself."""
        return self if self.seed is None else replace(self, seed=derive_seed(self.seed, label))

    @property
    def label(self) -> str:
        if self.strategy == "range":
            return f"range(s={self.target_similarity:g},eps={self.half_width:g})"
        return f"{self.strategy}(m={self.n_select})"

    def record(self) -> dict:
        """The provenance fields; a seeded draw names its algorithm id."""
        algorithm = None if self.seed is None else SELECTION_ALGORITHM
        return {"strategy": self.strategy, "m": self.n_select, "s": self.target_similarity,
                "eps": self.half_width, "seed": self.seed, "algorithm": algorithm}


@dataclass(frozen=True)
class PseudoSpeaker:
    """An anonymized pseudo-speaker vector with its selection provenance.

    ``vector`` always equals the mean of the pool entries named in
    ``selected_ids``. ``similarity`` is the cosine similarity of the
    original speaker to ``vector``.
    """

    vector: np.ndarray
    selected_ids: tuple[str, ...]
    spec: AnonymizationSpec
    similarity: float

    @property
    def measured_dissimilarity(self) -> float:
        """One minus ``similarity``: 0 for the original's own direction, 2 for
        the opposite one. ``anonymize`` and ``simulate`` record it."""
        return 1.0 - self.similarity


def _sample_without_replacement(n: int, k: int, seed: int) -> list[int]:
    # Partial Fisher-Yates over 0..n-1 using PCG64 integer draws; the first
    # k slots after the partial shuffle are a uniform k-subset. Slot i swaps
    # with slot j_i drawn from [i, n). One call draws all k targets: a
    # broadcast low consumes the PCG64 stream exactly as k scalar
    # `rng.integers(i, n)` calls do. `slots` keeps only the moved entries.
    swaps = np.random.Generator(np.random.PCG64(seed)).integers(np.arange(k), n).tolist()
    slots: dict[int, int] = {}
    for i, j in enumerate(swaps):
        slots[i], slots[j] = slots.get(j, j), slots.get(i, i)
    return [slots.get(i, i) for i in range(k)]


def apply_spec(
    pool: EmbeddingPool,
    spec: AnonymizationSpec,
    original: SpeakerEmbedding,
) -> PseudoSpeaker:
    """The pseudo speaker that ``spec`` selects from ``pool`` for ``original``.

    The range and nearest strategies pick by similarity to ``original``;
    every strategy measures the pseudo speaker's similarity to it.
    ``selected_ids`` lists nearest picks most similar first and the picks
    of the other strategies in pool order; the same draw with the same
    arguments always returns the same selection and vector bits.

    An empty range window is a hard error: silently widening it would
    misreport the achieved similarity. The error names the window and the
    closest achievable similarity so the caller can retry with a wider
    ``half_width``.
    """
    query = original.vector[None, :]
    if spec.strategy == "range":
        sims = cosine_matrix(query, pool)[0]
        s, eps = spec.target_similarity, spec.half_width
        picks = [int(i) for i in np.flatnonzero((sims >= s - eps) & (sims <= s + eps))]
        if not picks:
            closest = float(sims[int(np.argmin(np.abs(sims - s)))])
            raise ValueError(
                f"no pool candidates with similarity in [{s - eps:.6f}, {s + eps:.6f}] "
                f"(target_similarity={s}, half_width={eps}); "
                f"closest achievable similarity is {closest:.6f}; widen half_width"
            )
    elif spec.n_select > len(pool):
        raise ValueError(f"n_select {spec.n_select} exceeds pool size {len(pool)}")
    elif spec.strategy == "random":
        picks = sorted(_sample_without_replacement(len(pool), spec.n_select, spec.seed))
    else:
        ranked = rank_by_similarity(cosine_matrix(query, pool), pool.ids)
        picks = [int(i) for i in ranked[0, : spec.n_select]]
    vector = centered_mean(pool.vectors[sorted(picks)])
    vector.setflags(write=False)
    similarity = float(cosine_matrix(query, vector[None, :])[0, 0])
    return PseudoSpeaker(vector, tuple(pool.ids[i] for i in picks), spec, similarity)
