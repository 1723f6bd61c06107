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
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import nnet
from .anonymize import SELECTION_ALGORITHM, STRATEGIES, AnonymizationSpec, apply_spec
from .audio import read_wav, write_wav
from .benchmark import (
    BenchmarkReport,
    EvalProtocol,
    draw_pseudo_speakers,
    make_cluster_speakers,
    make_random_pool,
    protocol_trials,
    run_anonymization_benchmark,
)
from .config import RunConfig, load_config
from .embeddings import EmbeddingPool, SpeakerEmbedding, load_pool, mean_embedding, save_pool
from .errors import ConfigError, DataError, read_lines
from .features import align_streams, extract_f0, load_f0, load_features, mel_features, save_f0, save_features
from .metrics import compute_eer, cosine_matrix, nearest_k_mask, partition_masks, read_trials, trial_indices, wer
from .seeding import derive_seed

FBANK_HOP = 0.010
SYNTH_HOP = 0.005


def speaker_of(utterance_id: str) -> str:
    """Speaker grouping convention: the stem up to the first underscore."""
    return utterance_id.split("_", 1)[0]


def _speaker_means(utterances) -> list[SpeakerEmbedding]:
    """One embedding per speaker, the mean of its utterances, in first-seen order."""
    members: dict[str, list[SpeakerEmbedding]] = {}
    for utt in utterances:
        members.setdefault(speaker_of(utt.id), []).append(utt)
    return [mean_embedding(m, new_id=spk) for spk, m in members.items()]


def _ordered_map(fn, items, jobs: int):
    # Output order always equals input order, never completion order.
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


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


def _master_seed(cfg: RunConfig) -> int:
    return cfg.seed if cfg.seed is not None else 0


# ---------------------------------------------------------------------------
# extract


def cmd_extract(cfg: RunConfig, wav_paths: list[str]) -> int:
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
    speakers = _speaker_means(utterance_embeddings)
    save_pool(out_dir / "speaker_xvectors.jsonl", EmbeddingPool(speakers))
    print(
        f"extracted {len(results)} utterances, {len(speakers)} speakers -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# anonymize


def _spec_from_config(cfg: RunConfig) -> AnonymizationSpec:
    # The spec holds only what its strategy reads, so the provenance
    # records no setting (nor seed) that did not shape the selection.
    a = cfg.anonymize
    if a.strategy == "none":
        raise ConfigError("anonymize.strategy is 'none'; nothing to do")
    if a.strategy == "range":
        params = {"target_similarity": a.target_similarity, "half_width": a.half_width}
    else:
        params = {"n_select": a.n_select}
    if a.strategy == "random":
        params["seed"] = cfg.seed
    try:
        return AnonymizationSpec(a.strategy, **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_anonymize(cfg: RunConfig, inputs_path: str) -> int:
    pool = load_pool(_require_file(cfg.pool_path, "embedding pool"))
    inputs = load_pool(_require_file(inputs_path, "input embeddings"))
    master = _master_seed(cfg)
    base_spec = _spec_from_config(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def pseudo_for(original: SpeakerEmbedding, label: str):
        spec = base_spec
        if base_spec.strategy == "random":
            spec = replace(base_spec, seed=derive_seed(master, f"anon:{label}"))
        return apply_spec(pool, spec, original=original)

    records = []
    entries = []
    if cfg.anonymize.shared:
        # One pseudo speaker reused for every input. Range/nearest still
        # need an original; the mean of the inputs serves as the shared one.
        original = mean_embedding(list(inputs), new_id="shared-original")
        pseudo = pseudo_for(original, "shared")
        for entry in inputs:
            entries.append(SpeakerEmbedding(entry.id, pseudo.embedding.vector))
            records.append(_provenance_record(entry.id, pseudo))
    else:
        for entry in inputs:
            pseudo = pseudo_for(entry, entry.id)
            entries.append(SpeakerEmbedding(entry.id, pseudo.embedding.vector))
            records.append(_provenance_record(entry.id, pseudo))

    save_pool(out_dir / "pseudo_xvectors.jsonl", EmbeddingPool(entries))
    with (out_dir / "anonymize_provenance.jsonl").open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"anonymized {len(entries)} embeddings -> {out_dir / 'pseudo_xvectors.jsonl'}")
    return 0


def _provenance_record(input_id: str, pseudo) -> dict:
    spec = pseudo.spec
    return {
        "input_id": input_id,
        "strategy": spec.strategy,
        "m": spec.n_select,
        "s": spec.target_similarity,
        "eps": spec.half_width,
        "seed": spec.seed,
        "algorithm": SELECTION_ALGORITHM if spec.strategy == "random" else None,
        "selected_ids": list(pseudo.selected_ids),
        "measured_dissimilarity": pseudo.measured_dissimilarity,
    }


# ---------------------------------------------------------------------------
# synthesize


def cmd_synthesize(
    cfg: RunConfig, features_dir: str | None, pseudo_path: str, utts: list[str] | None
) -> int:
    acoustic_weights = nnet.load_weights(_weights_path(cfg, "acoustic"))
    nsf_weights = nnet.load_weights(_weights_path(cfg, "nsf"))
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
    master = _master_seed(cfg)

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

    def process(utt: str) -> tuple[str, object]:
        ppg = load_features(feature_dir / f"{utt}.ppg.npz")
        f0 = load_f0(feature_dir / f"{utt}.f0.npz")
        xvec = embedding_for(utt)
        aligned = align_streams(ppg, f0, xvec)
        mel = nnet.acoustic_forward(aligned, acoustic_weights, mode="free")
        f0_trimmed = type(f0)(f0.values[: aligned.n_frames], hop=f0.hop)
        seed = derive_seed(master, f"nsf:{utt}")
        return utt, nnet.nsf_forward(mel, f0_trimmed, xvec, nsf_weights, seed)

    for utt, waveform in _ordered_map(process, utts, cfg.jobs):
        write_wav(wav_dir / f"{utt}.wav", waveform)
    print(f"synthesized {len(utts)} utterances -> {wav_dir}")
    return 0


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
    enroll_pool = load_pool(_require_file(enroll_path, "enrollment embeddings"))
    test_pool = load_pool(_require_file(test_path, "test embeddings"))
    trials_file = _require_file(trials_path, "trial list")
    trials = read_trials(trials_file)
    k = cfg.evaluate.nearest_k

    rows, cols, is_target = trial_indices(trials, enroll_pool.ids, test_pool.ids)
    if k is not None:
        keep = is_target | _nearest_k_grid(enroll_pool, test_pool, k)[rows, cols]
        rows, cols, is_target = rows[keep], cols[keep], is_target[keep]
    for side, present in (("target", is_target), ("non-target", ~is_target)):
        if not present.any():
            with_k = "" if k is None else f" with k = {k}"
            raise DataError(f"{trials_file}: no {side} trials to score{with_k}")
    scores = cosine_matrix(enroll_pool.vectors, test_pool.vectors)[rows, cols]
    parts = partition_masks(
        rows, cols, is_target,
        [e.gender for e in enroll_pool], [t.gender for t in test_pool],
        cfg.evaluate.gender_partition,
    )

    records = [{"config": cfg.echo()}]
    lines = ["EER report"]
    k_text = k if k is not None else "all"
    for partition, tar, non in parts:
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

    if (ref_path is None) != (hyp_path is None):
        raise ConfigError("supply both --ref-trn and --hyp-trn, or neither")
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
    with (out_dir / "evaluation_report.jsonl").open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(report_text, end="")
    return 0


def _nearest_k_grid(enroll_pool, test_pool, k: int) -> np.ndarray:
    # (enrollee, test utterance): is the utterance's speaker among the K
    # test speakers most similar to the enrollee?
    speakers = EmbeddingPool(_speaker_means(test_pool))
    nearest = nearest_k_mask(
        cosine_matrix(enroll_pool.vectors, speakers.vectors), enroll_pool.ids, speakers.ids, k
    )
    return nearest[:, [speakers.index_of(speaker_of(utt_id)) for utt_id in test_pool.ids]]


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


def cmd_simulate(cfg: RunConfig) -> int:
    sim = cfg.simulate
    if "random" in sim.strategies and cfg.seed is None:
        raise ConfigError(
            "simulate.strategies includes 'random', which needs a master seed "
            "(set run.seed or pass --seed)"
        )
    master = _master_seed(cfg)
    speakers = make_cluster_speakers(
        sim.n_speakers,
        sim.utterances_per_speaker,
        sim.dim,
        sim.cluster_std,
        seed=derive_seed(master, "speakers"),
    )
    pool = make_random_pool(sim.pool_size, sim.dim, seed=derive_seed(master, "pool"))

    specs = [spec for strategy in sim.strategies for spec in _simulate_specs(sim, strategy, master)]
    draws = [draw_pseudo_speakers(speakers, pool, spec, sim.repetitions) for spec in specs]
    conditions = []
    for k in sim.k_grid:
        protocol = EvalProtocol(
            nearest_k=k,
            repetitions=sim.repetitions,
            gender_partition=cfg.evaluate.gender_partition,
        )
        trials = protocol_trials(speakers, speakers, protocol)
        if sim.include_baseline:
            conditions.append(
                run_anonymization_benchmark(speakers, speakers, None, None, protocol, trials=trials)
            )
        for spec, drawn in zip(specs, draws):
            conditions.append(
                run_anonymization_benchmark(
                    speakers, speakers, pool, spec, protocol, trials=trials, draws=drawn
                )
            )

    report = BenchmarkReport(conditions, config_echo=cfg.echo())
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "benchmark_report.txt").write_text(report.to_table(), encoding="utf-8")
    with (out_dir / "benchmark_report.jsonl").open("w", encoding="utf-8") as fh:
        for line in report.to_record_lines():
            fh.write(line + "\n")
    with (out_dir / "benchmark_provenance.jsonl").open("w", encoding="utf-8") as fh:
        for condition in conditions:
            for event in condition.events:
                fh.write(
                    json.dumps(
                        {
                            "condition": condition.label,
                            "k": condition.nearest_k,
                            "repetition": event.repetition,
                            "speaker_id": event.speaker_id,
                            "seed": event.seed,
                            "selected_ids": list(event.selected_ids),
                            "dissimilarity": event.dissimilarity,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    print(report.to_table(), end="")
    return 0


def _simulate_specs(sim, strategy: str, master: int):
    if strategy == "random":
        for m in sim.m_grid:
            yield AnonymizationSpec(
                "random", n_select=m, seed=derive_seed(master, f"random:m={m}")
            )
    elif strategy == "nearest":
        for m in sim.m_grid:
            yield AnonymizationSpec("nearest", n_select=m)
    elif strategy == "range":
        for s in sim.s_grid:
            yield AnonymizationSpec(
                "range", target_similarity=s, half_width=sim.half_width
            )


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (INI sections)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--jobs", type=int, help="parallel worker bound (used by synthesize only)")
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
            return cmd_simulate(cfg)
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
