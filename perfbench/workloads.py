"""Workload definitions: seeded inputs, command chains and output checks.

Each workload writes its inputs into a work directory from the workload
seed alone, names the ``voxanon`` commands that run on them (with paths
relative to the work directory, so outputs do not depend on where the
checkout lives), and checks the outputs those commands leave behind.

Outputs are located only through the command line: the out dir passed to
each command, plus the pool and report files the commands document. The
benchmark never looks for feature files, so a change of feature format
does not break it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voxanon import (
    EmbeddingPool,
    Trial,
    Waveform,
    derive_seed,
    make_cluster_speakers,
    make_random_pool,
    read_wav,
    save_pool,
    write_trials,
    write_wav,
)
from voxanon.nnet import AcousticConfig, NsfConfig, PpgConfig, XVectorConfig, init_weights, save_weights

SAMPLE_RATE = 16000
FRAME_LEN = 400  # 25 ms analysis frames
CONTENT_HOP = 160  # 10 ms PPG frames
SYNTH_HOP = 80  # 5 ms F0 frames, also the NSF samples per frame
XVEC_DIM = 512
EER_TOLERANCE = 1e-9

WEIGHT_CONFIGS = {
    "xvector": XVectorConfig,
    "ppg": PpgConfig,
    "acoustic": AcousticConfig,
    "nsf": NsfConfig,
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass; ``items`` counts its operations."""

    name: str
    args: tuple[str, ...]
    items: int


@dataclass
class Inputs:
    """What a workload generated, with the sizes reported in every result."""

    utterances: dict[str, int] = field(default_factory=dict)  # utt -> samples
    trials: int = 0
    nearest_k: int | None = None
    setup_files: tuple[str, ...] = ()  # weight or pool files the commands load

    @property
    def audio_seconds(self) -> float:
        return sum(self.utterances.values()) / SAMPLE_RATE

    def sizes(self) -> dict:
        return {
            "audio_seconds": self.audio_seconds,
            "utterances": len(self.utterances),
            "trials": self.trials,
        }


def speaker_of(utt: str) -> str:
    return utt.split("_", 1)[0]


def synthetic_wav(rng: np.random.Generator, seconds: float, base_f0: float) -> Waveform:
    """Alternating voiced (harmonic, drifting F0) and unvoiced (noise) segments."""
    n = int(round(seconds * SAMPLE_RATE))
    samples = np.zeros(n)
    pos = 0
    voiced = True
    phase = 0.0
    while pos < n:
        length = int(SAMPLE_RATE * (rng.uniform(0.15, 0.4) if voiced else rng.uniform(0.05, 0.15)))
        end = min(n, pos + length)
        span = end - pos
        if voiced:
            drift = base_f0 * (1.0 + 0.1 * np.sin(np.linspace(0.0, rng.uniform(1, 4), span)))
            phases = phase + 2.0 * np.pi * np.cumsum(drift) / SAMPLE_RATE
            phase = float(phases[-1])
            wave = sum(np.sin(k * phases) / k for k in range(1, 9))
            samples[pos:end] = 0.25 * wave * np.hanning(span)
        else:
            samples[pos:end] = 0.05 * rng.standard_normal(span)
        pos = end
        voiced = not voiced
    samples += 0.002 * rng.standard_normal(n)
    return Waveform(np.clip(samples, -0.99, 0.99), SAMPLE_RATE)


def write_utterances(work: Path, seed: int, speakers: int, per_speaker: int, seconds: float) -> dict[str, int]:
    (work / "wav").mkdir(parents=True, exist_ok=True)
    utterances = {}
    for s in range(1, speakers + 1):
        spk_rng = np.random.default_rng(derive_seed(seed, f"speaker:{s}"))
        base_f0 = spk_rng.uniform(90.0, 240.0)
        for u in range(1, per_speaker + 1):
            utt = f"spk{s:02d}_utt{u:02d}"
            rng = np.random.default_rng(derive_seed(seed, f"wav:{utt}"))
            wav = synthetic_wav(rng, seconds, base_f0)
            write_wav(work / "wav" / f"{utt}.wav", wav)
            utterances[utt] = len(wav)
    return utterances


def write_weights(work: Path, seed: int, components: tuple[str, ...]) -> tuple[str, ...]:
    (work / "weights").mkdir(parents=True, exist_ok=True)
    paths = []
    for component in components:
        weights = init_weights(component, WEIGHT_CONFIGS[component](), derive_seed(seed, f"weights:{component}"))
        path = f"weights/{component}.weights"
        save_weights(work / path, weights)
        paths.append(path)
    return tuple(paths)


def tree_digest(root: Path) -> str:
    """BLAKE2b over every file under ``root``: relative path, then bytes."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# output checks shared by the audio workloads


def read_pool_file(path: Path) -> dict[str, tuple[np.ndarray, str | None]]:
    """Parse a pool file without the library: id -> (vector, gender)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    entries = {}
    for line in lines[1:]:
        if line.strip():
            record = json.loads(line)
            entries[record["id"]] = (np.asarray(record["vec"], dtype=np.float64), record.get("gender"))
    return entries


def check_pool(path: Path, expected_ids, dim: int) -> list[str]:
    try:
        entries = read_pool_file(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    if sorted(entries) != sorted(expected_ids):
        problems.append(f"{path.name}: ids {sorted(entries)} != expected {sorted(expected_ids)}")
    for entry_id, (vec, _) in entries.items():
        if vec.shape != (dim,) or not np.all(np.isfinite(vec)):
            problems.append(f"{path.name}: entry {entry_id!r} is not a finite {dim}-d vector")
    return problems


def expected_wav_samples(n_input: int) -> int:
    """NSF output length: 80 samples per aligned 5 ms frame."""
    content_frames = (n_input - FRAME_LEN) // CONTENT_HOP + 1
    f0_frames = (n_input - FRAME_LEN) // SYNTH_HOP + 1
    return SYNTH_HOP * min(2 * content_frames, f0_frames)


def check_wav(path: Path, n_input: int) -> list[str]:
    try:
        wav = read_wav(path, expected_rate=SAMPLE_RATE)
    except Exception as exc:  # any read failure fails the gate
        return [f"{path.name}: unreadable ({type(exc).__name__}: {exc})"]
    problems = []
    expected = expected_wav_samples(n_input)
    if len(wav) != expected:
        problems.append(f"{path.name}: {len(wav)} samples, expected {expected}")
    if not np.all(np.isfinite(wav.samples)) or np.max(np.abs(wav.samples)) > 1.0:
        problems.append(f"{path.name}: samples not finite or outside [-1, 1]")
    return problems


def check_extract_outputs(out: Path, inputs: Inputs) -> list[str]:
    speakers = {speaker_of(u) for u in inputs.utterances}
    return check_pool(out / "utterance_xvectors.jsonl", inputs.utterances, XVEC_DIM) + check_pool(
        out / "speaker_xvectors.jsonl", speakers, XVEC_DIM
    )


# ---------------------------------------------------------------------------
# workloads


class Synth:
    """extract -> anonymize (random) -> synthesize on two ~3 s utterances."""

    name = "synth"
    sizes = {"full": dict(speakers=2, seconds=3.0), "tiny": dict(speakers=2, seconds=0.25)}

    def prepare(self, work: Path, seed: int, size: str) -> Inputs:
        p = self.sizes[size]
        utterances = write_utterances(work, seed, p["speakers"], 1, p["seconds"])
        weights = write_weights(work, seed, ("xvector", "ppg", "acoustic", "nsf"))
        save_pool(work / "pool.jsonl", make_random_pool(200, XVEC_DIM, derive_seed(seed, "pool")))
        (work / "synth.ini").write_text(
            "[paths]\npool = pool.jsonl\nweights = weights\n[anonymize]\nstrategy = random\nm = 20\n"
        )
        return Inputs(utterances=utterances, setup_files=weights)

    def commands(self, inputs: Inputs, seed: int, jobs: int) -> list[Command]:
        common = ("--config", "synth.ini", "--seed", str(seed), "--out-dir", "out")
        n_utt = len(inputs.utterances)
        n_spk = len({speaker_of(u) for u in inputs.utterances})
        wavs = tuple(f"wav/{u}.wav" for u in inputs.utterances)
        return [
            Command("extract", ("extract",) + common + wavs, n_utt),
            Command("anonymize", ("anonymize",) + common + ("--inputs", "out/speaker_xvectors.jsonl"), n_spk),
            Command("synthesize", ("synthesize",) + common + ("--pseudo", "out/pseudo_xvectors.jsonl"), n_utt),
        ]

    def check(self, work: Path, inputs: Inputs) -> list[str]:
        out = work / "out"
        speakers = {speaker_of(u) for u in inputs.utterances}
        problems = check_extract_outputs(out, inputs)
        problems += check_pool(out / "pseudo_xvectors.jsonl", speakers, XVEC_DIM)
        for utt, n_input in inputs.utterances.items():
            problems += check_wav(out / "wav" / f"{utt}.wav", n_input)
        return problems


class Extract:
    """extract only, on about a dozen ~1 s utterances with --jobs 2."""

    name = "extract"
    sizes = {"full": dict(speakers=3, per_speaker=4, seconds=1.0), "tiny": dict(speakers=2, per_speaker=2, seconds=0.25)}

    def prepare(self, work: Path, seed: int, size: str) -> Inputs:
        p = self.sizes[size]
        utterances = write_utterances(work, seed, p["speakers"], p["per_speaker"], p["seconds"])
        weights = write_weights(work, seed, ("xvector", "ppg"))
        (work / "extract.ini").write_text("[paths]\nweights = weights\n")
        return Inputs(utterances=utterances, setup_files=weights)

    def commands(self, inputs: Inputs, seed: int, jobs: int) -> list[Command]:
        wavs = tuple(f"wav/{u}.wav" for u in inputs.utterances)
        args = ("extract", "--config", "extract.ini", "--seed", str(seed), "--jobs", str(jobs), "--out-dir", "out")
        return [Command("extract", args + wavs, len(inputs.utterances))]

    def check(self, work: Path, inputs: Inputs) -> list[str]:
        return check_extract_outputs(work / "out", inputs)


class Score:
    """simulate over a strategy grid, then evaluate a full trial list twice."""

    name = "score"
    sizes = {
        "full": dict(n_speakers=60, utts=20, dim=64, std=0.25, pool=300, m_grid="10, 50", s_grid="0.0, 0.2", eps=0.1, k=5, reps=2),
        "tiny": dict(n_speakers=8, utts=4, dim=16, std=0.3, pool=60, m_grid="3", s_grid="0.0", eps=0.3, k=3, reps=1),
    }

    def prepare(self, work: Path, seed: int, size: str) -> Inputs:
        p = self.sizes[size]
        # The same generator and sub-seed that ``simulate`` uses for its
        # speakers, so evaluate's baseline must equal simulate's "none" rows.
        speakers = make_cluster_speakers(p["n_speakers"], p["utts"], p["dim"], p["std"], derive_seed(seed, "speakers"))
        save_pool(work / "enroll.jsonl", EmbeddingPool([s.enroll for s in speakers]))
        tests = [utt for s in speakers for utt in s.tests]
        save_pool(work / "test.jsonl", EmbeddingPool(tests))
        trials = [
            Trial(s.id, utt.id, "target" if speaker_of(utt.id) == s.id else "nontarget")
            for s in speakers
            for utt in tests
        ]
        write_trials(work / "trials.txt", trials)
        (work / "simulate.ini").write_text(
            "[evaluate]\ngender_partition = true\n"
            f"[simulate]\nn_speakers = {p['n_speakers']}\nutterances_per_speaker = {p['utts']}\n"
            f"dim = {p['dim']}\ncluster_std = {p['std']}\npool_size = {p['pool']}\n"
            "strategies = random, nearest, range\n"
            f"m_grid = {p['m_grid']}\ns_grid = {p['s_grid']}\neps = {p['eps']}\n"
            f"k_grid = all, {p['k']}\nrepetitions = {p['reps']}\ninclude_baseline = true\n"
        )
        for label, k in (("all", "all"), ("k", p["k"])):
            (work / f"evaluate_{label}.ini").write_text(f"[evaluate]\nk = {k}\ngender_partition = true\n")
        return Inputs(trials=len(trials), nearest_k=p["k"], setup_files=("enroll.jsonl", "test.jsonl"))

    def commands(self, inputs: Inputs, seed: int, jobs: int) -> list[Command]:
        seed_args = ("--seed", str(seed))
        evaluate = ("--enroll", "enroll.jsonl", "--test", "test.jsonl", "--trials", "trials.txt")
        return [
            Command("simulate", ("simulate", "--config", "simulate.ini", "--out-dir", "out/sim") + seed_args, 1),
            Command(
                "evaluate",
                ("evaluate", "--config", "evaluate_all.ini", "--out-dir", "out/eval_all") + seed_args + evaluate,
                1,
            ),
            Command(
                "evaluate",
                ("evaluate", "--config", "evaluate_k.ini", "--out-dir", "out/eval_k") + seed_args + evaluate,
                1,
            ),
        ]

    def check(self, work: Path, inputs: Inputs) -> list[str]:
        problems = []
        try:
            reference = reference_eers(work / "enroll.jsonl", work / "test.jsonl", work / "trials.txt", inputs.nearest_k)
            sim = [json.loads(line) for line in (work / "out/sim/benchmark_report.jsonl").read_text().splitlines()]
            evals = {
                label: [json.loads(line) for line in (work / f"out/eval_{label}/evaluation_report.jsonl").read_text().splitlines()]
                for label in ("all", "k")
            }
        except (OSError, ValueError, KeyError) as exc:
            return [f"score outputs unreadable ({type(exc).__name__}: {exc})"]

        rows = [r for r in sim if "condition" in r]
        for row in rows:
            values = [row["eer_before"], row["eer_after"], *row["eer_after_reps"]]
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"simulate row {row['condition']} k={row['k']}: EER outside [0, 1]")
        if not rows:
            problems.append("simulate report has no condition rows")
        for label, k in (("all", "all"), ("k", inputs.nearest_k)):
            eers = {r["partition"]: r["eer"] for r in evals[label] if r.get("kind") == "eer"}
            baseline = {r["partition"]: r["eer_before"] for r in rows if r["condition"] == "none" and r["k"] == k}
            for partition, expected in reference[label].items():
                for source, got in (("evaluate", eers.get(partition)), ("simulate baseline", baseline.get(partition))):
                    if got is None or not 0.0 <= got <= 1.0 or abs(got - expected) > EER_TOLERANCE:
                        problems.append(
                            f"{source} K={k} {partition}: EER {got!r} differs from reference {expected!r}"
                        )
        return problems


WORKLOADS = {w.name: w for w in (Synth(), Extract(), Score())}


# ---------------------------------------------------------------------------
# independent EER reference for the score workload


def reference_eer(target: np.ndarray, nontarget: np.ndarray) -> float:
    """EER with thresholds at the midpoints between distinct scores.

    The false rejection and acceptance rates are counted at each midpoint
    (plus sentinels past both ends) and the crossing of the two rate
    curves is interpolated linearly between the bracketing points.
    """
    tar = np.sort(target)
    non = np.sort(nontarget)
    pooled = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate([[pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2.0, [pooled[-1] + 1.0]])
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size
    far = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    diff = frr - far
    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0:
        return float(frr[i])
    t = (far[i - 1] - frr[i - 1]) / ((frr[i] - frr[i - 1]) + (far[i - 1] - far[i]))
    return float(frr[i - 1] + t * (frr[i] - frr[i - 1]))


def reference_eers(enroll_path: Path, test_path: Path, trials_path: Path, k: int) -> dict[str, dict[str, float]]:
    """Pooled and per-gender EER for all non-targets and for nearest-K.

    Scores come from one matrix product of row-normalised embeddings.
    Nearest-K keeps, per enrolled speaker, the non-target trials whose test
    speaker's mean embedding ranks among the K most similar (ties by id).
    """
    enroll = read_pool_file(enroll_path)
    test = read_pool_file(test_path)
    e_ids = list(enroll)
    t_ids = list(test)
    e_index = {e: i for i, e in enumerate(e_ids)}
    t_index = {t: i for i, t in enumerate(t_ids)}
    e_mat = np.stack([enroll[e][0] for e in e_ids])
    t_mat = np.stack([test[t][0] for t in t_ids])
    scores = (e_mat / np.linalg.norm(e_mat, axis=1, keepdims=True)) @ (
        t_mat / np.linalg.norm(t_mat, axis=1, keepdims=True)
    ).T

    rows, cols, is_target = [], [], []
    for line in trials_path.read_text().splitlines():
        e, t, tag = line.split()
        rows.append(e_index[e])
        cols.append(t_index[t])
        is_target.append(tag == "tar")
    rows, cols, is_target = np.array(rows), np.array(cols), np.array(is_target)
    trial_scores = scores[rows, cols]

    t_speakers = sorted({speaker_of(t) for t in t_ids})
    t_spk = np.array([t_speakers.index(speaker_of(t)) for t in t_ids])
    spk_means = np.stack([t_mat[t_spk == j].mean(axis=0) for j in range(len(t_speakers))])
    spk_scores = (e_mat / np.linalg.norm(e_mat, axis=1, keepdims=True)) @ (
        spk_means / np.linalg.norm(spk_means, axis=1, keepdims=True)
    ).T
    nearest = np.zeros((len(e_ids), len(t_speakers)), dtype=bool)
    for i, e in enumerate(e_ids):
        ranked = sorted((-spk_scores[i, j], name) for j, name in enumerate(t_speakers) if name != e)
        for _, name in ranked[:k]:
            nearest[i, t_speakers.index(name)] = True
    in_nearest = is_target | nearest[rows, t_spk[cols]]

    e_gender = np.array([enroll[e][1] for e in e_ids], dtype=object)[rows]
    t_gender = np.array([test[t][1] for t in t_ids], dtype=object)[cols]
    result = {}
    for label, keep in (("all", np.ones(rows.size, dtype=bool)), ("k", in_nearest)):
        parts = {"pooled": (keep & is_target, keep & ~is_target)}
        for g in sorted({g for g in e_gender if g is not None}):
            parts[g] = (keep & is_target & (e_gender == g), keep & ~is_target & (e_gender == g) & (t_gender == g))
        result[label] = {
            name: reference_eer(trial_scores[tar], trial_scores[non])
            for name, (tar, non) in parts.items()
            if tar.any() and non.any()
        }
    return result
