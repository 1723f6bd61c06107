"""Anonymization-strength benchmark on embedding-level speaker data.

The benchmark mirrors the verification protocol used to evaluate
anonymization: each target speaker enrolls with their speaker-level
embedding, target trials score the speaker's own test utterances, and
non-target trials score other speakers' utterances (optionally restricted
to the K most similar non-target speakers). Anonymization is
speaker-level: each target speaker gets one pseudo speaker composed from
the pool, and every target trial of that speaker scores the single
enrollment-versus-pseudo-speaker similarity in place of its utterance
score. Non-target speech stays untouched. A working anonymizer therefore
drives the equal error rate up from its baseline.

Everything here is a pure function of (inputs, seeds): repetition seeds
derive from the strategy seed, and per-speaker seeds derive from the
repetition seed, so adding a speaker never perturbs the draws of others.

The module also provides the synthetic data generators used by the
simulation command and the test suites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .anonymize import AnonymizationSpec, PseudoSpeaker, apply_spec
from .embeddings import EmbeddingPool, SpeakerEmbedding, mean_embedding
from .metrics import EerResult, compute_eer, cosine_matrix, nearest_k_mask, partition_masks
from .seeding import derive_seed


@dataclass(frozen=True)
class EvalSpeaker:
    """One speaker in the benchmark: a speaker-level enrollment embedding
    plus per-utterance test embeddings."""

    id: str
    enroll: SpeakerEmbedding
    tests: tuple[SpeakerEmbedding, ...]

    @property
    def gender(self) -> str | None:
        return self.enroll.gender


@dataclass(frozen=True)
class EvalProtocol:
    """Evaluation protocol knobs.

    ``nearest_k`` restricts each target's non-target trials to its K most
    similar non-target speakers (None means all). ``repetitions`` controls
    how many anonymization draws are averaged for seeded strategies.
    """

    nearest_k: int | None = None
    repetitions: int = 1
    gender_partition: bool = False

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.nearest_k is not None and self.nearest_k < 1:
            raise ValueError("nearest_k must be at least 1 (or None for all)")


@dataclass(frozen=True)
class AnonymizationEvent:
    """Provenance of one pseudo-speaker draw inside the benchmark."""

    repetition: int
    speaker_id: str
    seed: int | None
    selected_ids: tuple[str, ...]
    dissimilarity: float


@dataclass(frozen=True)
class PartitionEer:
    partition: str
    before: EerResult
    after: tuple[EerResult, ...]

    @property
    def mean_after(self) -> float:
        return float(np.mean([r.eer for r in self.after]))


@dataclass(frozen=True)
class ConditionResult:
    """Benchmark outcome for one anonymization condition."""

    label: str
    spec: AnonymizationSpec | None
    nearest_k: int | None
    repetitions: int
    rep_seeds: tuple[int | None, ...]
    partitions: tuple[PartitionEer, ...]
    events: tuple[AnonymizationEvent, ...]

    @property
    def pooled(self) -> PartitionEer:
        return next(p for p in self.partitions if p.partition == "pooled")

    @property
    def dissimilarity_range(self) -> tuple[float, float] | None:
        """Min and max measured dissimilarity across all draws."""
        if not self.events:
            return None
        values = [event.dissimilarity for event in self.events]
        return (min(values), max(values))

    def to_records(self) -> list[dict]:
        dis = self.dissimilarity_range
        records = []
        for part in self.partitions:
            records.append(
                {
                    "condition": self.label,
                    "k": self.nearest_k if self.nearest_k is not None else "all",
                    "m": self.spec.n_select if self.spec else None,
                    "s": self.spec.target_similarity if self.spec else None,
                    "partition": part.partition,
                    "eer_before": part.before.eer,
                    "eer_after": part.mean_after,
                    "eer_after_reps": [r.eer for r in part.after],
                    "dis_min": dis[0] if dis else None,
                    "dis_max": dis[1] if dis else None,
                    "seeds": [s for s in self.rep_seeds if s is not None],
                }
            )
        return records


@dataclass
class BenchmarkReport:
    """A stack of condition results plus the configuration echo."""

    conditions: list[ConditionResult]
    config_echo: dict = field(default_factory=dict)

    def to_record_lines(self) -> list[str]:
        lines = [json.dumps({"config": self.config_echo}, sort_keys=True)]
        for condition in self.conditions:
            for record in condition.to_records():
                lines.append(json.dumps(record, sort_keys=True))
        return lines

    def to_table(self) -> str:
        header = (
            f"{'condition':<24} {'K':>4} {'part':>8} {'EER before':>11} "
            f"{'EER after':>10} {'dis range':>15}"
        )
        rows = [header, "-" * len(header)]
        for condition in self.conditions:
            dis = condition.dissimilarity_range
            dis_text = f"{dis[0]:.3f}-{dis[1]:.3f}" if dis else "-"
            k_text = str(condition.nearest_k) if condition.nearest_k else "all"
            for part in condition.partitions:
                rows.append(
                    f"{condition.label:<24} {k_text:>4} {part.partition:>8} "
                    f"{part.before.eer:>10.2%} {part.mean_after:>9.2%} {dis_text:>15}"
                )
        return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class ProtocolTrials:
    """The trials of one protocol and their EERs before anonymization.

    ``rows`` is each trial's target index, ``is_target`` its target flag and
    ``scores`` its original score; ``parts`` holds (partition name, target
    mask, non-target mask) triples, and ``before`` each partition's EER.
    """

    rows: np.ndarray
    is_target: np.ndarray
    scores: np.ndarray
    parts: tuple[tuple[str, np.ndarray, np.ndarray], ...]
    before: dict[str, EerResult]


def protocol_trials(
    targets: Sequence[EvalSpeaker],
    nontargets: Sequence[EvalSpeaker],
    protocol: EvalProtocol,
) -> ProtocolTrials:
    """Score every trial of ``protocol`` and compute the "before" EERs.

    Score-grid rows are the targets' enrollments; columns are the test
    utterances of every target, then of every non-target. A target's trials
    are its own columns and those of its chosen non-target speakers. A
    gender partition without target or non-target trials is left out.
    """
    if not targets:
        raise ValueError("no target speakers supplied")
    if not nontargets:
        raise ValueError("no non-target speakers supplied")
    speakers = list(targets) + list(nontargets)
    owner = np.repeat(np.arange(len(speakers)), [len(s.tests) for s in speakers])
    enroll = np.stack([t.enroll.vector for t in targets])
    grid = cosine_matrix(enroll, np.stack([u.vector for s in speakers for u in s.tests]))
    candidates = cosine_matrix(enroll, np.stack([s.enroll.vector for s in nontargets]))
    chosen = nearest_k_mask(
        candidates, [t.id for t in targets], [s.id for s in nontargets], protocol.nearest_k
    )
    scored = np.hstack([np.eye(len(targets), dtype=bool), chosen])[:, owner]
    rows, cols = np.nonzero(scored)
    is_target = owner[cols] < len(targets)
    parts = partition_masks(
        rows, owner[cols], is_target,
        [t.gender for t in targets], [s.gender for s in speakers],
        protocol.gender_partition,
    )
    scores = grid[rows, cols]
    before = {name: compute_eer(scores[tar], scores[non]) for name, tar, non in parts}
    return ProtocolTrials(rows, is_target, scores, tuple(parts), before)


@dataclass(frozen=True)
class PseudoDraws:
    """The pseudo speakers of one strategy: per repetition, its seed (None
    for a deterministic strategy) and one selection per target speaker."""

    spec: AnonymizationSpec
    rep_seeds: tuple[int | None, ...]
    pseudos: tuple[tuple[PseudoSpeaker, ...], ...]
    events: tuple[AnonymizationEvent, ...]


def draw_pseudo_speakers(
    targets: Sequence[EvalSpeaker],
    pool: EmbeddingPool,
    spec: AnonymizationSpec,
    repetitions: int,
) -> PseudoDraws:
    """Draw every repetition's pseudo speakers for ``spec``.

    The deterministic strategies draw their pseudo speakers once and reuse
    them in every repetition; each repetition still records its events.
    For the random strategy the seed in ``spec`` is the condition master
    seed; every repetition r uses ``derive_seed(seed, "rep:r")`` and every
    speaker within it a further per-id derivation. The draws do not depend
    on the trial protocol, so one set serves every nearest-K setting.
    """
    seeded = spec.strategy == "random"
    fixed = None if seeded else tuple(apply_spec(pool, spec, original=t.enroll) for t in targets)
    rep_seeds = []
    pseudos = []
    events = []
    for rep in range(repetitions):
        rep_seed = derive_seed(spec.seed, f"rep:{rep}") if seeded else None
        drawn = fixed if not seeded else tuple(
            apply_spec(
                pool, replace(spec, seed=derive_seed(rep_seed, t.id)), original=t.enroll
            )
            for t in targets
        )
        rep_seeds.append(rep_seed)
        pseudos.append(drawn)
        events.extend(
            AnonymizationEvent(
                rep,
                speaker.id,
                pseudo.spec.seed if seeded else None,
                pseudo.selected_ids,
                pseudo.measured_dissimilarity,
            )
            for speaker, pseudo in zip(targets, drawn)
        )
    return PseudoDraws(spec, tuple(rep_seeds), tuple(pseudos), tuple(events))


def run_anonymization_benchmark(
    targets: Sequence[EvalSpeaker],
    nontargets: Sequence[EvalSpeaker],
    pool: EmbeddingPool | None,
    spec: AnonymizationSpec | None,
    protocol: EvalProtocol,
    *,
    trials: ProtocolTrials | None = None,
    draws: PseudoDraws | None = None,
) -> ConditionResult:
    """Measure the EER before and after anonymizing the target test sides.

    Anonymization is speaker-level: per repetition, each target speaker
    gets one pseudo speaker, and all of that speaker's target trials get
    the same enroll-vs-pseudo score; non-target trials keep their scores.
    See ``protocol_trials`` for the trials and ``draw_pseudo_speakers`` for
    the draws; a caller running several conditions over the same speakers
    passes each in once computed (``trials`` for this ``protocol``,
    ``draws`` for this ``spec`` and ``protocol.repetitions``).

    ``spec=None`` is the identity condition (before equals after).
    """
    if trials is None:
        trials = protocol_trials(targets, nontargets, protocol)
    before = trials.before

    if spec is None:
        partitions = tuple(PartitionEer(name, before[name], (before[name],)) for name in before)
        return ConditionResult(
            "none", None, protocol.nearest_k, 1, (None,), partitions, ()
        )

    if draws is None:
        if pool is None:
            raise ValueError("an embedding pool is required when a strategy is set")
        draws = draw_pseudo_speakers(targets, pool, spec, protocol.repetitions)
    elif draws.spec != spec or len(draws.pseudos) != protocol.repetitions:
        raise ValueError("pseudo-speaker draws do not match the spec and repetitions")

    after: dict[str, list[EerResult]] = {name: [] for name in before}
    for pseudos in draws.pseudos:
        pseudo_scores = np.array([pseudo.similarity for pseudo in pseudos])
        scores = np.where(trials.is_target, pseudo_scores[trials.rows], trials.scores)
        for name, tar, non in trials.parts:
            after[name].append(compute_eer(scores[tar], scores[non]))

    partitions = tuple(
        PartitionEer(name, before[name], tuple(after[name])) for name in before
    )
    return ConditionResult(
        _condition_label(spec),
        spec,
        protocol.nearest_k,
        protocol.repetitions,
        draws.rep_seeds,
        partitions,
        draws.events,
    )


def _condition_label(spec: AnonymizationSpec) -> str:
    if spec.strategy == "random":
        return f"random(m={spec.n_select})"
    if spec.strategy == "nearest":
        return f"nearest(m={spec.n_select})"
    return f"range(s={spec.target_similarity:g},eps={spec.half_width:g})"


# ---------------------------------------------------------------------------
# Synthetic data generators


def make_cluster_speakers(
    n_speakers: int,
    utterances_per_speaker: int,
    dim: int,
    cluster_std: float,
    seed: int,
) -> list[EvalSpeaker]:
    """Synthetic speakers as Gaussian clusters around unit-norm means.

    Utterance embeddings are the cluster mean plus isotropic noise of the
    given standard deviation; the enrollment embedding is the mean of the
    utterances (the speaker-level embedding the pipeline would compute).
    Genders alternate so gender-partitioned protocols are exercisable.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    speakers = []
    for i in range(n_speakers):
        center = rng.standard_normal(dim)
        center /= np.linalg.norm(center)
        gender = "female" if i % 2 == 0 else "male"
        spk_id = f"spk{i:03d}"
        utterances = center + cluster_std * rng.standard_normal(
            (utterances_per_speaker, dim)
        )
        tests = tuple(
            SpeakerEmbedding(f"{spk_id}_u{j:03d}", utterances[j], {"gender": gender})
            for j in range(utterances_per_speaker)
        )
        enroll = mean_embedding(tests, new_id=spk_id)
        enroll = SpeakerEmbedding(spk_id, enroll.vector, {"gender": gender})
        speakers.append(EvalSpeaker(spk_id, enroll, tests))
    return speakers


def make_random_pool(size: int, dim: int, seed: int) -> EmbeddingPool:
    """A pool of unit-norm random embeddings standing in for external speakers."""
    rng = np.random.Generator(np.random.PCG64(seed))
    entries = []
    for i in range(size):
        vec = rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        gender = "female" if i % 2 == 0 else "male"
        entries.append(SpeakerEmbedding(f"pool{i:04d}", vec, {"gender": gender}))
    return EmbeddingPool(entries)


def make_similarity_ladder_pool(
    original: SpeakerEmbedding,
    size: int,
    sim_low: float,
    sim_high: float,
) -> EmbeddingPool:
    """A pool of unit vectors whose similarities to ``original`` sweep a range.

    Entries lie in a fixed half-plane spanned by the original's direction
    and one deterministic orthogonal direction, at similarities evenly
    covering [sim_low, sim_high]. Because all entries sit on the same side,
    averaging a similarity window lands near the window's center instead of
    collapsing onto the original's axis, which is what range-selection
    experiments need.
    """
    if not -1.0 <= sim_low < sim_high <= 1.0:
        raise ValueError("need -1 <= sim_low < sim_high <= 1")
    if size < 2:
        raise ValueError("ladder pool needs at least two entries")
    if original.dim < 2:
        raise ValueError("ladder pool requires an embedding dimension of at least 2")
    axis = original.vector / np.linalg.norm(original.vector)
    # Deterministic orthogonal direction: the basis vector least aligned
    # with the axis, Gram-Schmidt orthogonalized.
    pivot = int(np.argmin(np.abs(axis)))
    basis = np.zeros(original.dim)
    basis[pivot] = 1.0
    ortho = basis - np.dot(basis, axis) * axis
    ortho /= np.linalg.norm(ortho)
    entries = []
    for i, s in enumerate(np.linspace(sim_low, sim_high, size)):
        vec = s * axis + np.sqrt(1.0 - s * s) * ortho
        entries.append(SpeakerEmbedding(f"ladder{i:04d}", vec))
    return EmbeddingPool(entries)
