"""Batch pipeline driver.

Subcommands mirror the pipeline stages: ``extract`` (waveforms to
embeddings and features), ``anonymize`` (embeddings to pseudo speakers),
``synthesize`` (features plus a pseudo speaker to waveforms), ``evaluate``
(verification and content metrics), and ``simulate`` (the synthetic
cluster benchmark). Intermediate artifacts live on disk between stages so
every step is inspectable and resumable.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation. All randomness derives from the master seed through
per-item sub-seeds, so outputs are bitwise reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .anonymize import STRATEGIES, apply_spec
from .audio import Waveform, read_wav, write_wav
from .benchmark import (
    BenchmarkReport,
    draw_pseudo_speakers,
    make_cluster_speakers,
    make_random_pool,
    protocol_trials,
    run_anonymization_benchmark,
)
from .config import RunConfig, load_config
from .embeddings import (
    EmbeddingPool,
    SpeakerEmbedding,
    load_pool,
    mean_embedding,
    save_pool,
    speaker_means,
    speaker_of,
)
from .errors import ConfigError, DataError, read_lines, write_jsonl
from .features import (
    F0Contour,
    align_streams,
    extract_f0,
    load_f0,
    load_features,
    mel_features,
    save_f0,
    save_features,
)
from .metrics import compute_eer, read_trials, score_trials, trial_indices, wer
from .seeding import derive_seed

FBANK_HOP = 0.010
SYNTH_HOP = 0.005


def _require_file(path: str | None, what: str) -> Path:
    if path is None:
        raise ConfigError(f"no {what} configured")
    resolved = Path(path)
    if not resolved.exists():
        raise ConfigError(f"{what} not found at {resolved}")
    return resolved


def _weights_path(cfg: RunConfig, component: str) -> Path:
    if cfg.weights_dir is None:
        raise ConfigError(f"paths.weights is not set ({component} weights needed)")
    path = Path(cfg.weights_dir) / f"{component}.weights"
    if not path.exists():
        raise ConfigError(f"{component} weights not found at {path}")
    return path


# ---------------------------------------------------------------------------
# extract


def cmd_extract(cfg: RunConfig, wav_paths: list[str]) -> int:
    from . import nnet

    if not wav_paths:
        raise DataError("no inputs")
    xvec_weights = nnet.load_weights(_weights_path(cfg, "xvector"))
    ppg_weights = nnet.load_weights(_weights_path(cfg, "ppg"))
    out_dir = Path(cfg.out_dir)
    feature_dir = out_dir / "features"
    feature_dir.mkdir(parents=True, exist_ok=True)

    def process(path_text: str):
        path = Path(path_text)
        utt = path.stem
        wav = read_wav(path, expected_rate=cfg.features.sample_rate)
        fbank = mel_features(wav, 24, FBANK_HOP)
        mel40 = mel_features(wav, 40, FBANK_HOP)
        mel80 = mel_features(wav, 80, SYNTH_HOP)
        f0 = extract_f0(wav, threshold=cfg.features.f0_threshold)
        xvec = nnet.xvector_forward(fbank, xvec_weights, embedding_id=utt)
        ppg = nnet.ppg_forward(mel40, ppg_weights, tap=cfg.models.ppg_tap)
        return utt, xvec, ppg, f0, mel80

    results = []
    failures = []
    for path_text in wav_paths:
        try:
            results.append(process(path_text))
        except (DataError, ValueError, OSError) as exc:
            failures.append((path_text, str(exc)))
    for path_text, message in failures:
        print(f"extract failed for {path_text}: {message}", file=sys.stderr)
    if failures:
        return 3

    utterance_embeddings = []
    for utt, xvec, ppg, f0, mel80 in results:
        save_features(feature_dir / f"{utt}.ppg.npz", ppg)
        save_features(feature_dir / f"{utt}.mel.npz", mel80)
        save_f0(feature_dir / f"{utt}.f0.npz", f0)
        utterance_embeddings.append(xvec)
    save_pool(out_dir / "utterance_xvectors.jsonl", EmbeddingPool(utterance_embeddings))
    speakers = speaker_means(utterance_embeddings)
    save_pool(out_dir / "speaker_xvectors.jsonl", EmbeddingPool(speakers))
    print(
        f"extracted {len(results)} utterances, {len(speakers)} speakers -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# anonymize


def cmd_anonymize(cfg: RunConfig, inputs_path: str) -> int:
    pool = load_pool(_require_file(cfg.pool_path, "embedding pool"))
    inputs = load_pool(_require_file(inputs_path, "input embeddings"))
    a = cfg.anonymize
    spec = a.spec(cfg.seed)
    if spec is None:
        raise ConfigError("anonymize.strategy is 'none'; nothing to do")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    shared = None
    if a.shared:
        # One pseudo speaker reused for every input. Range/nearest still
        # need an original; the mean of the inputs serves as the shared one.
        original = mean_embedding(list(inputs), new_id="shared-original")
        shared = apply_spec(pool, spec.derived("anon:shared"), original=original)
    entries = []
    records = []
    for entry in inputs:
        pseudo = shared or apply_spec(pool, spec.derived(f"anon:{entry.id}"), original=entry)
        entries.append(SpeakerEmbedding(entry.id, pseudo.embedding.vector))
        records.append({
            "input_id": entry.id,
            **pseudo.spec.record(),
            "selected_ids": list(pseudo.selected_ids),
            "measured_dissimilarity": pseudo.measured_dissimilarity,
        })

    save_pool(out_dir / "pseudo_xvectors.jsonl", EmbeddingPool(entries))
    write_jsonl(out_dir / "anonymize_provenance.jsonl", records)
    print(f"anonymized {len(entries)} embeddings -> {out_dir / 'pseudo_xvectors.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# synthesize

# Audio seconds each synthesize worker must have to earn its start. On
# 2 vCPUs with full-size weights, a worker start (a spawned interpreter
# importing numpy and voxanon, then loading the acoustic and NSF weights)
# took 0.31 s. Two workers lost to the in-process run on two 1.5 s
# utterances (1.72 against 1.62 s) and won on two 2 s ones (1.89 against
# 2.16 s), so a worker breaks even at 1.5-2 s of audio.
_SECONDS_PER_WORKER = 1.75
# Each worker runs its BLAS on one thread: the CPUs are already split among
# the workers. The first variable serves OpenBLAS, the others OpenMP and MKL.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cmd_synthesize(
    cfg: RunConfig, features_dir: str | None, pseudo_path: str, utts: list[str] | None
) -> int:
    from . import nnet

    weight_paths = (_weights_path(cfg, "acoustic"), _weights_path(cfg, "nsf"))
    feature_dir = Path(features_dir) if features_dir else Path(cfg.out_dir) / "features"
    if not feature_dir.is_dir():
        raise ConfigError(f"feature directory not found at {feature_dir}")
    pseudo = load_pool(_require_file(pseudo_path, "pseudo-speaker pool"))
    if utts is None:
        utts = sorted(p.name[: -len(".ppg.npz")] for p in feature_dir.glob("*.ppg.npz"))
    if not utts:
        raise DataError("no inputs")
    wav_dir = Path(cfg.out_dir) / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    master = cfg.seed or 0

    def embedding_for(utt: str) -> SpeakerEmbedding:
        for key in (utt, speaker_of(utt)):
            if key in pseudo:
                return pseudo.get(key)
        if len(pseudo) == 1:
            return pseudo.entries[0]
        raise DataError(
            f"no pseudo embedding for utterance {utt!r} "
            f"(looked for ids {utt!r} and {speaker_of(utt)!r})"
        )

    # The F0 contours are small, and their lengths set the worker count.
    tasks = [
        (feature_dir / f"{utt}.ppg.npz", load_f0(feature_dir / f"{utt}.f0.npz"),
         embedding_for(utt), derive_seed(master, f"nsf:{utt}"))
        for utt in utts
    ]
    seconds = sum(f0.n_frames * f0.hop for _, f0, _, _ in tasks)
    workers = min(cfg.jobs or _cpu_count(), len(tasks), int(seconds // _SECONDS_PER_WORKER))
    if workers <= 1:
        weights = [nnet.load_weights(path) for path in weight_paths]
        waveforms = [_synthesize_utterance(task, *weights) for task in tasks]
    else:
        waveforms = _synthesize_in_workers(tasks, weight_paths, workers)
    for utt, waveform in zip(utts, waveforms):
        write_wav(wav_dir / f"{utt}.wav", waveform)
    print(f"synthesized {len(utts)} utterances -> {wav_dir}")
    return 0


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _synthesize_utterance(task, acoustic_weights, nsf_weights) -> Waveform:
    """The waveform of one ``(ppg_path, f0, pseudo_speaker, seed)`` task."""
    from . import nnet

    ppg_path, f0, xvec, seed = task
    aligned = align_streams(load_features(ppg_path), f0, xvec)
    mel = nnet.acoustic_forward(aligned, acoustic_weights, mode="free")
    f0_trimmed = F0Contour(f0.values[: aligned.n_frames], hop=f0.hop)
    return nnet.nsf_forward(mel, f0_trimmed, xvec, nsf_weights, seed)


def _synthesize_in_workers(tasks, weight_paths, workers: int) -> list[Waveform]:
    """The waveforms of ``tasks``, in input order, from ``workers`` spawned
    processes with one BLAS thread each. A task's exception is raised here
    unchanged; every worker has exited when this returns or raises."""
    import multiprocessing  # with the executor, 14 ms of every command's start
    from concurrent.futures import ProcessPoolExecutor

    with _worker_environment(), ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("spawn")
    ) as executor:
        futures = [executor.submit(_synthesize_in_worker, weight_paths, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:  # after a failure, start no further task
                future.cancel()


@contextlib.contextmanager
def _worker_environment():
    # Workers start, and read their BLAS thread count, inside this block;
    # the parent's own BLAS is already loaded and keeps its threads.
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _synthesize_in_worker(weight_paths, task) -> Waveform:
    return _synthesize_utterance(task, *_worker_weights(*weight_paths))


@functools.cache
def _worker_weights(acoustic_path: Path, nsf_path: Path):
    # Called in worker processes only: each loads the weights on its first
    # task and keeps them for the next. A failed load is not cached, so every
    # task it meets raises the same DataError. (A pool initializer that
    # raised would break the pool and lose that error.)
    from . import nnet

    return nnet.load_weights(acoustic_path), nnet.load_weights(nsf_path)


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(
    cfg: RunConfig,
    enroll_path: str,
    test_path: str,
    trials_path: str,
    ref_path: str | None,
    hyp_path: str | None,
) -> int:
    if (ref_path is None) != (hyp_path is None):
        raise ConfigError("supply both --ref-trn and --hyp-trn, or neither")
    enroll_pool = load_pool(_require_file(enroll_path, "enrollment embeddings"))
    test_pool = load_pool(_require_file(test_path, "test embeddings"))
    trials_file = _require_file(trials_path, "trial list")
    trials = read_trials(trials_file)
    k = cfg.evaluate.nearest_k

    try:
        indices = trial_indices(trials, enroll_pool.ids, test_pool.ids)
    except DataError as exc:
        raise DataError(f"{trials_file}, {exc}") from None
    scored = score_trials(enroll_pool, test_pool, *indices, k, cfg.evaluate.gender_partition)
    for side, present in (("target", scored.is_target), ("non-target", ~scored.is_target)):
        if not present.any():
            with_k = "" if k is None else f" with k = {k}"
            raise DataError(f"{trials_file}: no {side} trials to score{with_k}")

    records = [{"config": cfg.echo()}]
    lines = ["EER report"]
    k_text = k if k is not None else "all"
    scores = scored.scores
    for partition, tar, non in scored.parts:
        result = compute_eer(scores[tar], scores[non])
        lines.append(
            f"  {partition:<8} K={k_text:<4} EER={result.eer:.4f} "
            f"threshold={result.threshold:.4f} "
            f"(targets={result.n_target}, nontargets={result.n_nontarget})"
        )
        records.append(
            {
                "kind": "eer",
                "partition": partition,
                "k": k_text,
                "eer": result.eer,
                "threshold": result.threshold,
                "n_target": result.n_target,
                "n_nontarget": result.n_nontarget,
            }
        )

    if ref_path is not None:
        refs = _read_transcripts(ref_path)
        hyps = _read_transcripts(hyp_path)
        totals = np.zeros(4, dtype=np.int64)  # S, D, I, N
        for utt, ref_words in sorted(refs.items()):
            if utt not in hyps:
                raise DataError(f"transcript {utt!r} missing from hypothesis file")
            result = wer(ref_words, hyps[utt])
            totals += (
                result.substitutions, result.deletions,
                result.insertions, result.n_ref_words,
            )
        rate = float((totals[0] + totals[1] + totals[2]) / totals[3])
        lines.append(
            f"WER: {rate:.4f} (S={totals[0]}, D={totals[1]}, I={totals[2]}, N={totals[3]})"
        )
        records.append(
            {
                "kind": "wer",
                "rate": rate,
                "substitutions": int(totals[0]),
                "deletions": int(totals[1]),
                "insertions": int(totals[2]),
                "n_ref_words": int(totals[3]),
            }
        )

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_text = "\n".join(lines) + "\n"
    (out_dir / "evaluation_report.txt").write_text(report_text, encoding="utf-8")
    write_jsonl(out_dir / "evaluation_report.jsonl", records)
    print(report_text, end="")
    return 0


def _read_transcripts(path) -> dict[str, list[str]]:
    path = _require_file(path, "transcript file")
    transcripts = {}
    for lineno, line in enumerate(read_lines(path, "transcript file"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            raise DataError(f"{path}, line {lineno}: expected 'utt_id words...'")
        transcripts[parts[0]] = parts[1:]
    if not transcripts:
        raise DataError(f"{path}: no transcripts found")
    return transcripts


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: RunConfig, config_path: str | None) -> int:
    sim = cfg.simulate
    if "random" in sim.strategies and cfg.seed is None:
        raise ConfigError(
            "simulate.strategies includes 'random', which needs a master seed "
            "(set run.seed or pass --seed)"
        )
    master = cfg.seed or 0
    speakers = make_cluster_speakers(
        sim.n_speakers,
        sim.utterances_per_speaker,
        sim.dim,
        sim.cluster_std,
        seed=derive_seed(master, "speakers"),
    )
    pool = make_random_pool(sim.pool_size, sim.dim, seed=derive_seed(master, "pool"))

    draws = []
    for spec in sim.specs(master):
        try:
            draws.append(draw_pseudo_speakers(speakers, pool, spec, sim.repetitions))
        except ValueError as exc:  # a range window with no candidate in the generated pool
            if spec.strategy != "range":
                raise
            where = sim.where("range", spec.target_similarity)
            if config_path is not None:  # as load_config names it for the checks it runs
                where = f"{config_path}: {where}"
            raise ConfigError(f"{where}: {exc}") from None
    conditions = []
    for k in sim.k_grid:
        trials = protocol_trials(speakers, k, cfg.evaluate.gender_partition)
        if sim.include_baseline:
            conditions.append(run_anonymization_benchmark(trials))
        conditions.extend(run_anonymization_benchmark(trials, drawn) for drawn in draws)

    report = BenchmarkReport(conditions, config_echo=cfg.echo())
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "benchmark_report.txt").write_text(report.to_table(), encoding="utf-8")
    write_jsonl(out_dir / "benchmark_report.jsonl", report.to_records())
    write_jsonl(
        out_dir / "benchmark_provenance.jsonl",
        (
            {
                "condition": condition.label,
                "k": condition.nearest_k,
                "repetition": event.repetition,
                "speaker_id": event.speaker_id,
                "seed": event.seed,
                "selected_ids": list(event.selected_ids),
                "dissimilarity": event.dissimilarity,
            }
            for condition in conditions
            for event in condition.events
        ),
    )
    print(report.to_table(), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (INI sections)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument(
        "--jobs", type=int,
        help="cap on synthesize's worker processes (default run.jobs = auto: one per CPU; "
        "extract ignores it)",
    )
    common.add_argument("--out-dir", help="output directory override")

    parser = argparse.ArgumentParser(
        prog="voxanon",
        description="Speaker anonymization pipeline: extract, anonymize, "
        "synthesize, evaluate, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[common], help="WAVs to embeddings and features")
    p.add_argument("wavs", nargs="*", help="input WAV files (PCM16 mono)")

    p = sub.add_parser("anonymize", parents=[common], help="embeddings to pseudo speakers")
    p.add_argument("--inputs", required=True, help="embedding pool file to anonymize")
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--m", type=int, help="selection count (random/nearest)")
    p.add_argument("--sim", type=float, help="target similarity (range)")
    p.add_argument("--eps", type=float, help="similarity half-width (range)")
    p.add_argument(
        "--shared", action="store_true", default=None,
        help="compose one pseudo speaker and reuse it for every input "
        "(overrides anonymize.shared)",
    )

    p = sub.add_parser("synthesize", parents=[common], help="features to waveforms")
    p.add_argument("--features-dir", help="directory with the <utt>.{ppg,f0}.npz files extract wrote")
    p.add_argument("--pseudo", required=True, help="pseudo-speaker pool file")
    p.add_argument("--utts", help="comma-separated utterance ids (default: all found)")

    p = sub.add_parser("evaluate", parents=[common], help="verification and content metrics")
    p.add_argument("--enroll", required=True, help="enrollment embedding pool")
    p.add_argument("--test", required=True, help="test embedding pool")
    p.add_argument("--trials", required=True, help="trial list file")
    p.add_argument("--ref-trn", help="reference transcripts (utt_id words...)")
    p.add_argument("--hyp-trn", help="hypothesis transcripts (utt_id words...)")

    sub.add_parser("simulate", parents=[common], help="synthetic cluster benchmark")
    return parser


# argparse dest -> the INI key it overrides; see the voxanon.config docstring.
_FLAG_KEYS = {
    "seed": "run.seed",
    "jobs": "run.jobs",
    "out_dir": "paths.out_dir",
    "strategy": "anonymize.strategy",
    "m": "anonymize.m",
    "sim": "anonymize.sim",
    "eps": "anonymize.eps",
    "shared": "anonymize.shared",
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config, {key: getattr(args, dest, None) for dest, key in _FLAG_KEYS.items()}
        )
        if args.command == "extract":
            return cmd_extract(cfg, args.wavs)
        if args.command == "anonymize":
            return cmd_anonymize(cfg, args.inputs)
        if args.command == "synthesize":
            utts = args.utts.split(",") if args.utts else None
            return cmd_synthesize(cfg, args.features_dir, args.pseudo, utts)
        if args.command == "evaluate":
            return cmd_evaluate(
                cfg, args.enroll, args.test, args.trials, args.ref_trn, args.hyp_trn
            )
        if args.command == "simulate":
            return cmd_simulate(cfg, args.config)
        raise RuntimeError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())
