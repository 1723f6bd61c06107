"""Anonymization-strength benchmark on embedding-level speaker data.

The benchmark takes one list of speakers, each with a speaker-level
enrollment embedding and per-utterance test embeddings. Its trials are the
full enroll x test grid of that list, scored by ``metrics.score_trials``:
a trial is a target trial when the test utterance belongs to the enrolled
speaker, and non-target trials can be restricted to the K most similar
other speakers. Anonymization is speaker-level: each speaker gets one
pseudo speaker composed from the pool, and every target trial of that
speaker scores the single enrollment-versus-pseudo-speaker similarity in
place of its utterance score. Non-target speech stays untouched. A working
anonymizer therefore drives the equal error rate up from its baseline.

Everything here is a pure function of (inputs, seeds): repetition seeds
derive from the strategy seed, and per-speaker seeds derive from the
repetition seed, both through ``AnonymizationSpec.derived``, so adding a
speaker never perturbs the draws of others.

The module also provides the synthetic data generators used by the
simulation command and the test suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .anonymize import AnonymizationSpec, PseudoSpeaker, apply_spec
from .embeddings import EmbeddingPool, SpeakerEmbedding, centered_mean, speaker_of
from .metrics import EerResult, ScoredTrials, compute_eer, score_trials


@dataclass(frozen=True)
class EvalSpeaker:
    """One speaker in the benchmark: a speaker-level enrollment embedding
    plus per-utterance test embeddings, whose ids name the speaker
    (``speaker_of``)."""

    id: str
    enroll: SpeakerEmbedding
    tests: tuple[SpeakerEmbedding, ...]

    def __post_init__(self):
        for utt in self.tests:
            if speaker_of(utt.id) != self.id:
                raise ValueError(f"utterance id {utt.id!r} does not name speaker {self.id!r}")

    @property
    def gender(self) -> str | None:
        return self.enroll.gender


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

    def to_records(self) -> list[dict]:
        return [{"config": self.config_echo}] + [
            record for condition in self.conditions for record in condition.to_records()
        ]

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
    """The scored trials of one nearest-K setting and, per partition, their
    EER before anonymization."""

    nearest_k: int | None
    scored: ScoredTrials
    before: dict[str, EerResult]


def protocol_trials(
    speakers: Sequence[EvalSpeaker], nearest_k: int | None, gender_partition: bool
) -> ProtocolTrials:
    """Score the full enroll x test grid of ``speakers`` and compute the
    "before" EERs.

    Rows are the speakers' enrollments and columns every speaker's test
    utterances; a trial is a target trial when the utterance belongs to the
    row's speaker. ``score_trials`` applies ``nearest_k`` and the gender
    partitions.
    """
    if len(speakers) < 2:
        raise ValueError("the benchmark needs at least two speakers")
    enroll = EmbeddingPool(s.enroll for s in speakers)
    test = EmbeddingPool(utt for s in speakers for utt in s.tests)
    owner = np.repeat(np.arange(len(speakers)), [len(s.tests) for s in speakers])
    rows, cols = np.divmod(np.arange(len(enroll) * len(test)), len(test))
    scored = score_trials(
        enroll, test, rows, cols, owner[cols] == rows, nearest_k, gender_partition
    )
    scores = scored.scores
    before = {name: compute_eer(scores[tar], scores[non]) for name, tar, non in scored.parts}
    return ProtocolTrials(nearest_k, scored, before)


@dataclass(frozen=True)
class PseudoDraws:
    """The pseudo speakers of one strategy: per repetition, its seed (None
    for a deterministic strategy) and one selection per speaker."""

    spec: AnonymizationSpec
    rep_seeds: tuple[int | None, ...]
    pseudos: tuple[tuple[PseudoSpeaker, ...], ...]
    events: tuple[AnonymizationEvent, ...]


def draw_pseudo_speakers(
    speakers: Sequence[EvalSpeaker],
    pool: EmbeddingPool,
    spec: AnonymizationSpec,
    repetitions: int,
) -> PseudoDraws:
    """Draw every repetition's pseudo speakers for ``spec``.

    A seeded ``spec`` holds the condition master seed: repetition r draws
    with ``spec.derived(f"rep:{r}")`` and every speaker within it with a
    further ``derived(speaker.id)``. An unseeded (deterministic) spec
    derives to itself, so its pseudo speakers are drawn once and reused in
    every repetition; each repetition still records its events. The draws
    do not depend on the trials, so one set serves every nearest-K setting.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rep_seeds = []
    pseudos = []
    events = []
    drawn = None
    for rep in range(repetitions):
        rep_spec = spec.derived(f"rep:{rep}")
        if drawn is None or rep_spec is not spec:
            drawn = tuple(
                apply_spec(pool, rep_spec.derived(s.id), original=s.enroll) for s in speakers
            )
        rep_seeds.append(rep_spec.seed)
        pseudos.append(drawn)
        events.extend(
            AnonymizationEvent(
                rep, speaker.id, pseudo.spec.seed, pseudo.selected_ids,
                pseudo.measured_dissimilarity,
            )
            for speaker, pseudo in zip(speakers, drawn)
        )
    return PseudoDraws(spec, tuple(rep_seeds), tuple(pseudos), tuple(events))


def run_anonymization_benchmark(
    trials: ProtocolTrials, draws: PseudoDraws | None = None
) -> ConditionResult:
    """Measure the EER before and after anonymizing the target test sides.

    ``trials`` and ``draws`` must come from the same speaker list. Per
    repetition of ``draws``, every target trial of a speaker scores that
    speaker's enroll-vs-pseudo similarity; non-target trials keep their
    scores. The EERs of a draw that several repetitions share (the
    deterministic strategies reuse one) are computed once and repeated, so
    ``after`` still holds one result per repetition. ``draws=None`` is the
    identity condition (after equals before).
    """
    before = trials.before
    if draws is None:
        partitions = tuple(PartitionEer(name, eer, (eer,)) for name, eer in before.items())
        return ConditionResult("none", None, trials.nearest_k, (None,), partitions, ())

    scored = trials.scored
    after_of: dict[int, dict[str, EerResult]] = {}  # by id of the draw's tuple
    for pseudos in draws.pseudos:
        if id(pseudos) not in after_of:
            pseudo_scores = np.array([pseudo.similarity for pseudo in pseudos])
            scores = np.where(scored.is_target, pseudo_scores[scored.rows], scored.scores)
            after_of[id(pseudos)] = {
                name: compute_eer(scores[tar], scores[non]) for name, tar, non in scored.parts
            }

    partitions = tuple(
        PartitionEer(name, before[name],
                     tuple(after_of[id(pseudos)][name] for pseudos in draws.pseudos))
        for name in before
    )
    return ConditionResult(
        draws.spec.label, draws.spec, trials.nearest_k, draws.rep_seeds,
        partitions, draws.events,
    )


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
            SpeakerEmbedding(f"{spk_id}_u{j:03d}", utterances[j], gender)
            for j in range(utterances_per_speaker)
        )
        enroll = SpeakerEmbedding(spk_id, centered_mean(utterances), gender)
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
        entries.append(SpeakerEmbedding(f"pool{i:04d}", vec, gender))
    return EmbeddingPool(entries)

