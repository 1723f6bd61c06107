"""Verification protocol and anonymization-strength benchmark.

``verify`` is the one step from scored trials to a verification result:
it takes the ``ScoredTrials`` of ``metrics.score_trials``, rejects a set
with no target or no non-target trial, and computes the per-partition
"before" EERs into a ``ProtocolTrials``. ``evaluate`` passes it the trials
of a trial list file; ``simulate`` passes it, through ``protocol_trials``,
the full enroll x test grid of two pools, where a trial is a target trial
when ``speaker_of`` the test utterance id is the enrollment id and
non-target trials can be restricted to the K most similar other speakers.

Anonymization is speaker-level: each enrollment gets one pseudo speaker
composed from the pool, and every target trial of that speaker scores the
single enrollment-versus-pseudo-speaker similarity in place of its
utterance score. Non-target speech stays untouched. A working anonymizer
therefore drives the equal error rate up from its baseline.

A run is three types: ``ProtocolTrials`` (one nearest-K setting's scored
trials and "before" EERs), ``PseudoDraws`` (one strategy's distinct draws,
each pseudo speaker its own provenance) and ``ConditionResult`` (per
partition, the EER before and one per repetition after). ``report_table``,
``report_records`` and ``report_provenance`` lay out ``simulate``'s files.

Everything here is a pure function of (inputs, seeds): repetition seeds
derive from the strategy seed, and per-speaker seeds derive from the
repetition seed, both through ``AnonymizationSpec.derived``, so adding a
speaker never perturbs the draws of others. The synthetic data generators
at the end serve the simulation command and the test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .anonymize import AnonymizationSpec, PseudoSpeaker, apply_spec
from .embeddings import EmbeddingPool, SpeakerEmbedding, centered_mean, speaker_of
from .metrics import EerResult, ScoredTrials, compute_eer, score_trials


@dataclass(frozen=True)
class EvalSpeaker:
    """One generated speaker: a speaker-level enrollment embedding plus
    per-utterance test embeddings, whose ids name the speaker
    (``speaker_of``)."""

    id: str
    enroll: SpeakerEmbedding
    tests: tuple[SpeakerEmbedding, ...]

    def __post_init__(self):
        for utt in self.tests:
            if speaker_of(utt.id) != self.id:
                raise ValueError(f"utterance id {utt.id!r} does not name speaker {self.id!r}")


@dataclass(frozen=True)
class ProtocolTrials:
    """The scored trials of one nearest-K setting and, per partition, their
    EER before anonymization."""

    nearest_k: int | None
    scored: ScoredTrials
    before: dict[str, EerResult]


def _partition_eers(scored: ScoredTrials, scores: np.ndarray) -> dict[str, EerResult]:
    """Partition name -> EER of ``scores``, one score per trial of ``scored``."""
    return {name: compute_eer(scores[tar], scores[non]) for name, tar, non in scored.parts}


def verify(scored: ScoredTrials, nearest_k: int | None) -> ProtocolTrials:
    """The "before" EERs of ``scored``, the trials ``score_trials`` kept
    for ``nearest_k``. Raises ``ValueError`` when no target or no
    non-target trial is left to score."""
    for side, present in (("target", scored.is_target), ("non-target", ~scored.is_target)):
        if not present.any():
            raise ValueError(f"no {side} trials to score")
    return ProtocolTrials(nearest_k, scored, _partition_eers(scored, scored.scores))


def protocol_trials(
    enroll: EmbeddingPool, test: EmbeddingPool, nearest_k: int | None, gender_partition: bool
) -> ProtocolTrials:
    """Score the full enroll x test grid and compute the "before" EERs.

    Rows are the enrollments and columns the test utterances; a trial is a
    target trial when ``speaker_of`` the utterance id is the row's id.
    ``score_trials`` applies ``nearest_k`` and the gender partitions.
    """
    if len(enroll) < 2:
        raise ValueError("the benchmark needs at least two speakers")
    test_speakers = np.array([speaker_of(utt_id) for utt_id in test.ids])
    rows, cols = np.divmod(np.arange(len(enroll) * len(test)), len(test))
    is_target = (np.array(enroll.ids)[:, None] == test_speakers).ravel()
    scored = score_trials(enroll, test, rows, cols, is_target, nearest_k, gender_partition)
    return verify(scored, nearest_k)


@dataclass(frozen=True)
class PseudoDraws:
    """The pseudo speakers of one strategy: each repetition's seed (None
    for a deterministic strategy) and the distinct draws, one pseudo
    speaker per speaker in each. A seeded spec draws per repetition and a
    deterministic one once; repetition r uses ``draws[r % len(draws)]``."""

    spec: AnonymizationSpec
    speaker_ids: tuple[str, ...]
    rep_seeds: tuple[int | None, ...]
    draws: tuple[tuple[PseudoSpeaker, ...], ...]

    def events(self) -> Iterator[tuple[int, str, PseudoSpeaker]]:
        """(repetition, speaker id, pseudo speaker), repetition-major."""
        for rep in range(len(self.rep_seeds)):
            pseudos = self.draws[rep % len(self.draws)]
            yield from ((rep, sid, pseudo) for sid, pseudo in zip(self.speaker_ids, pseudos))


def draw_pseudo_speakers(
    enroll: EmbeddingPool,
    pool: EmbeddingPool,
    spec: AnonymizationSpec,
    repetitions: int,
) -> PseudoDraws:
    """Draw every repetition's pseudo speakers for ``spec``, one per
    enrollment of ``enroll``.

    A seeded ``spec`` holds the condition master seed: repetition r draws
    with ``spec.derived(f"rep:{r}")`` and every speaker within it with a
    further ``derived(speaker id)``. An unseeded (deterministic) spec
    derives to itself, so its pseudo speakers are drawn once and serve
    every repetition. The draws do not depend on the trials, so one set
    serves every nearest-K setting.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rep_specs = [spec.derived(f"rep:{rep}") for rep in range(repetitions)]
    distinct = rep_specs if spec.seed is not None else rep_specs[:1]
    draws = tuple(
        tuple(apply_spec(pool, rep_spec.derived(entry.id), original=entry) for entry in enroll)
        for rep_spec in distinct
    )
    return PseudoDraws(spec, enroll.ids, tuple(r.seed for r in rep_specs), draws)


@dataclass(frozen=True)
class ConditionResult:
    """Benchmark outcome for one anonymization condition: per partition,
    the EER before and, per repetition, the EER after. ``draws`` None is
    the identity condition."""

    nearest_k: int | None
    draws: PseudoDraws | None
    before: dict[str, EerResult]
    after: dict[str, tuple[EerResult, ...]]

    @property
    def label(self) -> str:
        return "none" if self.draws is None else self.draws.spec.label

    def mean_after(self, partition: str) -> float:
        return float(np.mean([r.eer for r in self.after[partition]]))

    @property
    def dissimilarity_range(self) -> tuple[float, float] | None:
        """Min and max measured dissimilarity across all draws."""
        draws = self.draws.draws if self.draws else ()
        values = [pseudo.measured_dissimilarity for pseudos in draws for pseudo in pseudos]
        return (min(values), max(values)) if values else None


def run_anonymization_benchmark(
    trials: ProtocolTrials, draws: PseudoDraws | None = None
) -> ConditionResult:
    """Measure the EER before and after anonymizing the target test sides.

    ``trials`` and ``draws`` must come from the same enrollment pool. In each
    distinct draw, every target trial of a speaker scores that speaker's
    enroll-vs-pseudo similarity; non-target trials keep their scores. Each
    draw is scored once, and each repetition takes its draw's EERs.
    ``draws=None`` is the identity condition (after equals before).
    """
    before = trials.before
    if draws is None:
        return ConditionResult(trials.nearest_k, None, before,
                               {name: (eer,) for name, eer in before.items()})
    scored = trials.scored
    per_draw = []
    for pseudos in draws.draws:
        pseudo_scores = np.array([pseudo.similarity for pseudo in pseudos])
        scores = np.where(scored.is_target, pseudo_scores[scored.rows], scored.scores)
        per_draw.append(_partition_eers(scored, scores))
    reps = range(len(draws.rep_seeds))
    after = {name: tuple(per_draw[r % len(per_draw)][name] for r in reps) for name in before}
    return ConditionResult(trials.nearest_k, draws, before, after)


# ---------------------------------------------------------------------------
# Reports


def _rows(conditions: Sequence[ConditionResult]) -> Iterator[dict]:
    """One record per condition, nearest-K and partition: the rows of both reports."""
    for c in conditions:
        spec = c.draws.spec if c.draws else None
        dis_min, dis_max = c.dissimilarity_range or (None, None)
        for name, before in c.before.items():
            yield {
                "condition": c.label,
                "k": c.nearest_k if c.nearest_k is not None else "all",
                "m": spec.n_select if spec else None,
                "s": spec.target_similarity if spec else None,
                "partition": name,
                "eer_before": before.eer,
                "eer_after": c.mean_after(name),
                "eer_after_reps": [r.eer for r in c.after[name]],
                "dis_min": dis_min,
                "dis_max": dis_max,
                "seeds": [s for s in c.draws.rep_seeds if s is not None] if c.draws else [],
            }


def report_table(conditions: Sequence[ConditionResult]) -> str:
    """The text report: one line per row of ``_rows``."""
    header = (
        f"{'condition':<24} {'K':>4} {'part':>8} {'EER before':>11} "
        f"{'EER after':>10} {'dis range':>15}"
    )
    lines = [header, "-" * len(header)]
    for row in _rows(conditions):
        dis = "-" if row["dis_min"] is None else f"{row['dis_min']:.3f}-{row['dis_max']:.3f}"
        lines.append(
            f"{row['condition']:<24} {row['k']!s:>4} {row['partition']:>8} "
            f"{row['eer_before']:>10.2%} {row['eer_after']:>9.2%} {dis:>15}"
        )
    return "\n".join(lines) + "\n"


def report_records(conditions: Sequence[ConditionResult], echo: dict) -> list[dict]:
    """The JSON-lines report: the config echo, then the rows of ``_rows``."""
    return [{"config": echo}, *_rows(conditions)]


def report_provenance(conditions: Sequence[ConditionResult]) -> Iterator[dict]:
    """The provenance records: one per anonymized condition, repetition and
    speaker, naming the pool entries its pseudo speaker averages."""
    for c in conditions:
        for rep, speaker_id, pseudo in c.draws.events() if c.draws else ():
            yield {
                "condition": c.label,
                "k": c.nearest_k,
                "repetition": rep,
                "speaker_id": speaker_id,
                "seed": pseudo.spec.seed,
                "selected_ids": list(pseudo.selected_ids),
                "dissimilarity": pseudo.measured_dissimilarity,
            }


# ---------------------------------------------------------------------------
# Synthetic data generators


def make_cluster_speakers(
    n_speakers: int, utterances_per_speaker: int, dim: int, cluster_std: float, seed: int
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
        utterances = center + cluster_std * rng.standard_normal((utterances_per_speaker, dim))
        tests = tuple(
            SpeakerEmbedding(f"{spk_id}_u{j:03d}", utt, gender) for j, utt in enumerate(utterances)
        )
        enroll = SpeakerEmbedding(spk_id, centered_mean(utterances), gender)
        speakers.append(EvalSpeaker(spk_id, enroll, tests))
    return speakers


def make_random_pool(size: int, dim: int, seed: int) -> EmbeddingPool:
    """A pool of unit-norm random embeddings standing in for external speakers."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = [rng.standard_normal(dim) for _ in range(size)]
    vectors = np.stack([row / np.linalg.norm(row) for row in rows])
    genders = ["female" if i % 2 == 0 else "male" for i in range(size)]
    return EmbeddingPool.from_columns([f"pool{i:04d}" for i in range(size)], genders, vectors)
