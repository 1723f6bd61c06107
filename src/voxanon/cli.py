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
import functools
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .anonymize import STRATEGIES, apply_spec
from .audio import Waveform, read_wav, write_wav
from .benchmark import (
    draw_pseudo_speakers,
    make_cluster_speakers,
    make_random_pool,
    protocol_trials,
    report_provenance,
    report_records,
    report_table,
    run_anonymization_benchmark,
    verify,
)
from .config import RunConfig, load_config
from .embeddings import (
    EmbeddingPool,
    SpeakerEmbedding,
    centered_mean,
    load_pool,
    save_pool,
    speaker_means,
    speaker_of,
)
from .errors import ConfigError, DataError, read_lines, write_jsonl
from .features import (
    F0_HOP_SECONDS,
    PPG,
    SAMPLE_RATE,
    F0Contour,
    align_streams,
    check_speaker_width,
    extract_f0,
    load_f0,
    load_features,
    mel_features,
    save_f0,
    save_features,
)
from .metrics import WerResult, read_trials, score_trials, wer
from .seeding import derive_seed


def _weights_path(cfg: RunConfig, component: str) -> Path:
    if cfg.paths.weights is None:
        raise ConfigError(f"paths.weights is not set ({component} weights needed)")
    path = Path(cfg.paths.weights) / f"{component}.weights"
    if not path.exists():
        raise ConfigError(f"{component} weights not found at {path}")
    return path


def _load_weights(path: Path, component: str):
    """The weights in ``path``, which must hold ``component``'s; another
    component's raises ``DataError`` naming the file."""
    from . import nnet

    weights = nnet.load_weights(path)
    if weights.component != component:
        raise DataError(f"{path}: holds {weights.component} weights, not {component} weights")
    return weights


def _load_speakers(path) -> EmbeddingPool:
    """The pool in ``path``; a width the networks cannot take raises ``DataError``."""
    pool = load_pool(path)
    try:
        check_speaker_width(pool.dim)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return pool


# ---------------------------------------------------------------------------
# extract


def cmd_extract(cfg: RunConfig, wav_paths: list[str]) -> int:
    from . import nnet

    if not wav_paths:
        raise DataError("no inputs")
    first_paths = {}
    for path_text in wav_paths:
        utt = Path(path_text).stem
        if utt in first_paths:  # both would write features/{utt}.*
            raise DataError(f"{first_paths[utt]} and {path_text}: both hold utterance id {utt!r}")
        first_paths[utt] = path_text
    xvec_weights = _load_weights(_weights_path(cfg, "xvector"), "xvector")
    ppg_weights = _load_weights(_weights_path(cfg, "ppg"), "ppg")
    front_ends = (nnet.xvector.INPUT, nnet.ppg.INPUT)

    def process(path_text: str):
        path = Path(path_text)
        utt = path.stem
        wav = read_wav(path, expected_rate=SAMPLE_RATE)
        fbank, mel40 = (mel_features(wav, stream) for stream in front_ends)
        f0 = extract_f0(wav)
        xvec = nnet.xvector_forward(fbank, xvec_weights, embedding_id=utt)
        ppg = nnet.ppg_forward(mel40, ppg_weights)
        return utt, xvec, ppg, f0

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

    out_dir = Path(cfg.paths.out_dir)
    feature_dir = out_dir / "features"
    feature_dir.mkdir(parents=True, exist_ok=True)
    for utt, _, ppg, f0 in results:
        save_features(feature_dir / f"{utt}.ppg.npz", ppg)
        save_f0(feature_dir / f"{utt}.f0.npz", f0)
    utterances = EmbeddingPool(xvec for _, xvec, _, _ in results)
    save_pool(out_dir / "utterance_xvectors.jsonl", utterances)
    speakers = speaker_means(utterances)
    save_pool(out_dir / "speaker_xvectors.jsonl", speakers)
    print(
        f"extracted {len(results)} utterances, {len(speakers)} speakers -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# anonymize


def cmd_anonymize(cfg: RunConfig, inputs_path: str) -> int:
    if cfg.paths.pool is None:
        raise ConfigError("no embedding pool configured")
    if not Path(cfg.paths.pool).exists():
        raise ConfigError(f"embedding pool not found at {cfg.paths.pool}")
    pool = _load_speakers(cfg.paths.pool)
    inputs = load_pool(inputs_path)
    if inputs.dim != pool.dim:
        raise DataError(f"dimension mismatch: {inputs_path} holds {inputs.dim}-dim "
                        f"embeddings, the pool {cfg.paths.pool} {pool.dim}-dim")
    a = cfg.anonymize
    spec = a.spec(cfg.run.seed)
    if spec is None:
        raise ConfigError("anonymize.strategy is 'none'; nothing to do")

    def pseudo_for(label: str, original: SpeakerEmbedding):
        try:
            return apply_spec(pool, spec.derived(label), original=original)
        except ValueError as exc:  # m beyond the pool, or a range window with no candidate
            raise DataError(f"{a.where()} with the pool {cfg.paths.pool}: {exc}") from None

    shared = None
    if a.shared:
        # One pseudo speaker reused for every input. Range/nearest still
        # need an original; the mean of the inputs serves as the shared one.
        original = SpeakerEmbedding("shared-original", centered_mean(inputs.vectors))
        shared = pseudo_for("anon:shared", original)
    entries = []
    records = []
    for entry in inputs:
        pseudo = shared or pseudo_for(f"anon:{entry.id}", entry)
        entries.append(SpeakerEmbedding(entry.id, pseudo.vector))
        records.append({
            "input_id": entry.id,
            **pseudo.spec.record(),
            "selected_ids": list(pseudo.selected_ids),
            "measured_dissimilarity": pseudo.measured_dissimilarity,
        })

    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_pool(out_dir / "pseudo_xvectors.jsonl", EmbeddingPool(entries))
    write_jsonl(out_dir / "anonymize_provenance.jsonl", records)
    print(f"anonymized {len(entries)} embeddings -> {out_dir / 'pseudo_xvectors.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# synthesize

# Audio seconds each synthesize worker must have to earn its start. On
# 2 vCPUs with full-size weights, workers are forked from a parent that has
# loaded the weights, so a start costs little; two workers against the
# in-process run, alternating, won 19 of 20 runs on two 0.73 s utterances
# and every run from 0.98 s up, but only 25 of 36 on two 0.48 s ones and
# 35 of 48 on two 0.23 s ones, with medians that crossed between rounds.
# The bar lies between those loads.
_SECONDS_PER_WORKER = 0.6
# OpenBLAS's thread-count functions as its builds name them:
# ``{prefix}_get_num_threads{suffix}`` and ``{prefix}_set_num_threads{suffix}``.
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_"))


def cmd_synthesize(
    cfg: RunConfig, features_dir: str | None, pseudo_path: str, utts: list[str] | None
) -> int:
    if utts is not None:
        _check_utts(utts)
    if features_dir == "":
        raise DataError("--features-dir is empty")
    weight_paths = {component: _weights_path(cfg, component) for component in ("acoustic", "nsf")}
    feature_dir = Path(cfg.paths.out_dir) / "features" if features_dir is None else Path(features_dir)
    if not feature_dir.is_dir():
        raise DataError(f"feature directory not found at {feature_dir}")
    pseudo = _load_speakers(pseudo_path)
    if utts is None:
        utts = sorted(p.name[: -len(".ppg.npz")] for p in feature_dir.glob("*.ppg.npz"))
    if not utts:
        raise DataError("no inputs")
    master = cfg.run.seed or 0

    def embedding_for(utt: str) -> SpeakerEmbedding:
        for key in (utt, speaker_of(utt)):
            if key in pseudo:
                return pseudo.get(key)
        if len(pseudo) == 1:
            return pseudo.get(pseudo.ids[0])
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
    seconds = sum(f0.n_frames * F0_HOP_SECONDS for _, f0, _, _ in tasks)
    workers = min(cfg.run.jobs or _cpu_count(), len(tasks), int(seconds // _SECONDS_PER_WORKER))
    threads = _openblas_threads() if workers > 1 and hasattr(os, "fork") else None
    global _synthesis_weights
    try:
        _synthesis_weights = tuple(_load_weights(path, name) for name, path in weight_paths.items())
        if threads is None:  # one worker, or no way to give a worker one BLAS thread
            waveforms = list(map(_synthesize_utterance, tasks))
        else:
            waveforms = _synthesize_in_workers(tasks, workers, *threads)
    finally:
        _synthesis_weights = ()
    wav_dir = Path(cfg.paths.out_dir) / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    for utt, waveform in zip(utts, waveforms):
        write_wav(wav_dir / f"{utt}.wav", waveform)
    print(f"synthesized {len(utts)} utterances -> {wav_dir}")
    return 0


def _check_utts(utts: list[str]) -> None:
    """Reject a ``--utts`` id that cannot name one utterance's files
    ``{utt}.ppg.npz``, ``{utt}.f0.npz`` and ``wav/{utt}.wav``."""
    seen = set()
    for utt in utts:
        if not utt:
            problem = "is empty"
        elif utt in seen:
            problem = "is repeated"
        elif os.sep in utt or (os.altsep and os.altsep in utt):
            problem = "holds a path separator"
        else:
            seen.add(utt)
            continue
        raise DataError(f"--utts: utterance id {utt!r} {problem}")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """OpenBLAS's ``(get, set)`` thread-count functions in the library numpy
    calls, or None where numpy's BLAS is not OpenBLAS.

    They are looked up through numpy's ``_multiarray_umath`` extension,
    because ``dlsym`` on a module also searches the libraries it links."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in _OPENBLAS_NAMES:
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# The acoustic and NSF weights, filled only while cmd_synthesize runs.
_synthesis_weights = ()


def _synthesize_utterance(task) -> Waveform:
    """The waveform of one ``(ppg_path, f0, pseudo_speaker, seed)`` task,
    made with the acoustic and NSF weights in ``_synthesis_weights``.
    Inputs the networks cannot take (a PPG of another width, say) raise a
    ``DataError`` naming the utterance's PPG file."""
    from . import nnet

    ppg_path, f0, xvec, seed = task
    acoustic_weights, nsf_weights = _synthesis_weights
    try:
        aligned = align_streams(load_features(ppg_path, PPG), f0, xvec)
        mel = nnet.acoustic_forward(aligned, acoustic_weights)
        f0_trimmed = F0Contour(f0.values[: aligned.n_frames])
        return nnet.nsf_forward(mel, f0_trimmed, xvec, nsf_weights, seed)
    except ValueError as exc:
        raise DataError(f"{ppg_path}: {exc}") from None


def _synthesize_in_workers(tasks, workers: int, get_threads, set_threads) -> list[Waveform]:
    """``_synthesize_utterance`` mapped over ``tasks`` by ``workers``
    processes forked from this one. They inherit the filled
    ``_synthesis_weights`` and OpenBLAS's thread count, which is 1 while
    the pool runs and restored after. ``Executor.map`` returns the
    waveforms in input order, raises the first failing task's exception
    (in input order) unchanged, and cancels every task not yet started;
    every worker has exited when this returns or raises.

    Forking is safe while no other thread holds a lock: the executor forks
    every worker before it starts its own thread, the CLI starts none, and
    OpenBLAS stops its threads in a fork handler."""
    import multiprocessing  # with the executor, 14 ms of every command's start
    from concurrent.futures import ProcessPoolExecutor

    threads = get_threads()
    set_threads(1)  # the workers split the CPUs; this process only waits
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as executor:
            return list(executor.map(_synthesize_utterance, tasks))
    finally:
        set_threads(threads)


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
    enroll_pool = load_pool(enroll_path)
    test_pool = load_pool(test_path)
    if enroll_pool.dim != test_pool.dim:
        raise DataError(f"dimension mismatch: {enroll_path} holds {enroll_pool.dim}-dim "
                        f"embeddings, {test_path} {test_pool.dim}-dim")
    trials = read_trials(trials_path, enroll_pool.ids, test_pool.ids)
    k = cfg.evaluate.k

    try:
        scored = score_trials(enroll_pool, test_pool, *trials, k, cfg.evaluate.gender_partition)
    except ValueError as exc:  # too few non-target speakers for the nearest-K filter
        raise DataError(f"evaluate.k = {k} with test speakers from {test_path}: {exc}") from None
    try:
        before = verify(scored, k).before
    except ValueError as exc:  # no target or no non-target trial
        with_k = "" if k is None else f" with k = {k}"
        raise DataError(f"{trials_path}: {exc}{with_k}") from None

    records = [{"config": cfg.echo()}]
    lines = ["EER report"]
    k_text = k if k is not None else "all"
    for partition, result in before.items():
        lines.append(
            f"  {partition:<8} K={k_text:<4} EER={result.eer:.4f} "
            f"threshold={result.threshold:.4f} "
            f"(targets={result.n_target}, nontargets={result.n_nontarget})"
        )
        records.append({"kind": "eer", "partition": partition, "k": k_text, **asdict(result)})

    if ref_path is not None:
        refs = _read_transcripts(ref_path)
        hyps = _read_transcripts(hyp_path)
        unscored = sorted(hyps.keys() - refs.keys())
        if unscored:
            raise DataError(
                f"{hyp_path}: transcript of {unscored[0]!r}, which {ref_path} does not hold"
            )
        total = WerResult(0, 0, 0, 0)
        for utt, ref_words in sorted(refs.items()):
            if not ref_words:  # it would add nothing to the WER denominator
                raise DataError(f"{ref_path}: reference utterance {utt!r} has no words")
            if utt not in hyps:
                raise DataError(f"{hyp_path}: no transcript of {utt!r}, which {ref_path} holds")
            total += wer(ref_words, hyps[utt])
        lines.append(
            f"WER: {total.rate:.4f} (S={total.substitutions}, D={total.deletions}, "
            f"I={total.insertions}, N={total.n_ref_words})"
        )
        records.append({"kind": "wer", "rate": total.rate, **asdict(total)})

    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_text = "\n".join(lines) + "\n"
    (out_dir / "evaluation_report.txt").write_text(report_text, encoding="utf-8")
    write_jsonl(out_dir / "evaluation_report.jsonl", records)
    print(report_text, end="")
    return 0


def _read_transcripts(path) -> dict[str, list[str]]:
    """Utterance id -> words, one ``utt_id words...`` per line. A line that
    holds only an id is an utterance with no words: an empty recognition
    result, which WER counts as all deletions."""
    path = Path(path)
    transcripts, first_lines = {}, {}
    for lineno, line in enumerate(read_lines(path, "transcript file"), start=1):
        parts = line.split()
        if not parts:
            continue
        utt = parts[0]
        if utt in first_lines:
            raise DataError(f"{path}, lines {first_lines[utt]} and {lineno}: utterance {utt!r} repeated")
        first_lines[utt] = lineno
        transcripts[utt] = parts[1:]
    if not transcripts:
        raise DataError(f"{path}: no transcripts found")
    return transcripts


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: RunConfig) -> int:
    sim = cfg.simulate
    if "random" in sim.strategies and cfg.run.seed is None:
        raise ConfigError(
            "simulate.strategies includes 'random', which needs a master seed "
            "(set run.seed or pass --seed)"
        )
    master = cfg.run.seed or 0
    speakers = make_cluster_speakers(
        sim.n_speakers, sim.utterances_per_speaker, sim.dim, sim.cluster_std,
        seed=derive_seed(master, "speakers"),
    )
    enroll = EmbeddingPool(s.enroll for s in speakers)
    test = EmbeddingPool(utt for s in speakers for utt in s.tests)
    pool = make_random_pool(sim.pool_size, sim.dim, seed=derive_seed(master, "pool"))

    draws = []
    for spec in sim.specs(master):
        try:
            draws.append(draw_pseudo_speakers(enroll, pool, spec, sim.repetitions))
        except ValueError as exc:  # a range window with no candidate in the generated pool
            if spec.strategy != "range":
                raise
            raise ConfigError(f"{sim.where('range', spec.target_similarity)}: {exc}") from None
    conditions = []
    for k in sim.k_grid:
        trials = protocol_trials(enroll, test, k, cfg.evaluate.gender_partition)
        if sim.include_baseline:
            conditions.append(run_anonymization_benchmark(trials))
        conditions.extend(run_anonymization_benchmark(trials, drawn) for drawn in draws)

    table = report_table(conditions)
    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "benchmark_report.txt").write_text(table, encoding="utf-8")
    write_jsonl(out_dir / "benchmark_report.jsonl", report_records(conditions, cfg.echo()))
    write_jsonl(out_dir / "benchmark_provenance.jsonl", report_provenance(conditions))
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (INI sections)")
    common.add_argument("--seed", dest="run.seed", type=int, help="master seed override")
    common.add_argument(
        "--jobs", dest="run.jobs",
        help="cap on synthesize's worker processes, a count or auto (default run.jobs = auto: "
        "one per CPU; extract ignores it)",
    )
    common.add_argument("--out-dir", dest="paths.out_dir", help="output directory override")

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
    p.add_argument("--strategy", dest="anonymize.strategy", choices=STRATEGIES)
    p.add_argument("--m", dest="anonymize.m", type=int, help="selection count (random/nearest)")
    p.add_argument("--sim", dest="anonymize.sim", type=float, help="target similarity (range)")
    p.add_argument("--eps", dest="anonymize.eps", type=float, help="similarity half-width (range)")
    p.add_argument(
        "--shared", dest="anonymize.shared", action="store_true", default=None,
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = None
    try:
        if args.command == "evaluate" and (args.ref_trn is None) != (args.hyp_trn is None):
            raise ConfigError("supply both --ref-trn and --hyp-trn, or neither")
        # An override flag's dest is the INI key it sets, e.g. "anonymize.m".
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if "." in k})
        if args.command == "extract":
            return cmd_extract(cfg, args.wavs)
        if args.command == "anonymize":
            return cmd_anonymize(cfg, args.inputs)
        if args.command == "synthesize":
            utts = args.utts.split(",") if args.utts is not None else None
            return cmd_synthesize(cfg, args.features_dir, args.pseudo, utts)
        if args.command == "evaluate":
            return cmd_evaluate(
                cfg, args.enroll, args.test, args.trials, args.ref_trn, args.hyp_trn
            )
        if args.command == "simulate":
            return cmd_simulate(cfg)
        raise RuntimeError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        # load_config names the file in its own errors, and the transcript
        # flag check before it concerns no file; a command's errors do not.
        where = f"{args.config}: " if cfg is not None and args.config is not None else ""
        print(f"config error: {where}{exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())
