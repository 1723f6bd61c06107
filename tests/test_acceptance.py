"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from voxanon import (
    AnonymizationSpec,
    EvalProtocol,
    F0Contour,
    FeatureMatrix,
    SpeakerEmbedding,
    Waveform,
    align_streams,
    anonymize_range,
    compute_eer,
    cosine_similarity,
    dissimilarity,
    extract_f0,
    make_cluster_speakers,
    make_random_pool,
    make_similarity_ladder_pool,
    mean_embedding,
    mel_features,
    run_anonymization_benchmark,
    wer,
)
from voxanon.cli import main
from voxanon.nnet import (
    AcousticConfig,
    NsfConfig,
    PpgConfig,
    XVectorConfig,
    acoustic_forward,
    filter_block_forward,
    init_weights,
    nsf_forward,
    ppg_forward,
    save_weights,
    spectral_loss,
    xvector_forward,
)

from _oracles import edit_distance, eer_midpoint_sweep, fft_peak_hz
from conftest import make_tone


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_eer_oracle_equivalence():
    with criterion(1, "EER matches brute-force midpoint sweep on 1000 random sets"):
        rng = np.random.default_rng(20240101)
        start = time.perf_counter()
        worst = 0.0
        for i in range(1000):
            n_tar = int(rng.integers(1, 201))
            n_non = int(rng.integers(1, 201))
            tar = rng.normal(0.5, 0.5, n_tar)
            non = rng.normal(0.0, 0.5, n_non)
            if i % 3 == 0:
                tar = np.round(tar, 1)  # tied scores
                non = np.round(non, 1)
            got = compute_eer(tar, non).eer
            expected = eer_midpoint_sweep(tar, non)
            worst = max(worst, abs(got - expected))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst |diff| = {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_synthetic_anonymization_direction():
    with criterion(2, "random-selection anonymization lifts EER from <=5% to >=25%"):
        start = time.perf_counter()
        master = 424242
        speakers = make_cluster_speakers(30, 20, 64, 0.05, seed=master)
        pool = make_random_pool(500, 64, seed=master + 1)
        protocol = EvalProtocol(repetitions=5)
        baseline = run_anonymization_benchmark(
            speakers, speakers, None, None, protocol
        )
        assert baseline.pooled.before.eer <= 0.05
        for m in (10, 50, 100, 200):
            spec = AnonymizationSpec("random", n_select=m, seed=master + m)
            result = run_anonymization_benchmark(
                speakers, speakers, pool, spec, protocol
            )
            assert result.pooled.before.eer <= 0.05
            assert result.pooled.mean_after >= 0.25, (m, result.pooled.mean_after)
        assert time.perf_counter() - start < 60.0


def test_criterion_3_range_selection_monotonicity():
    with criterion(3, "range-selection dissimilarity is monotone and window-exact"):
        original = SpeakerEmbedding("orig", [1.0, 0.0, 0.0, 0.0])
        pool = make_similarity_ladder_pool(original, 500, 0.0, 0.95)
        half_width = 0.05
        measured = []
        for requested in (0.1, 0.2, 0.4, 0.6):
            s = 1.0 - requested
            result = anonymize_range(pool, original, s, half_width)
            for selected in result.selected_ids:
                sim = cosine_similarity(original, pool.get(selected))
                assert s - half_width <= sim <= s + half_width
            measured.append(result.measured_dissimilarity)
        assert all(measured[i] <= measured[i + 1] for i in range(len(measured) - 1)), (
            measured
        )


def test_criterion_4_dissimilarity_range_from_provenance():
    with criterion(4, "reported dissimilarity range equals provenance recomputation"):
        speakers = make_cluster_speakers(12, 8, 32, 0.05, seed=7)
        pool = make_random_pool(150, 32, seed=8)
        spec = AnonymizationSpec("random", n_select=20, seed=4321)
        result = run_anonymization_benchmark(
            speakers, speakers, pool, spec, EvalProtocol(repetitions=5)
        )
        by_id = {s.id: s for s in speakers}
        values = []
        for event in result.events:
            members = [pool.get(i) for i in sorted(event.selected_ids)]
            pseudo = mean_embedding(members)
            value = dissimilarity(by_id[event.speaker_id].enroll, pseudo)
            assert value == event.dissimilarity
            values.append(value)
        assert result.dissimilarity_range == (min(values), max(values))
        record = result.to_records()[0]
        assert record["dis_min"] == min(values)
        assert record["dis_max"] == max(values)


def test_criterion_5_architecture_shapes():
    with criterion(5, "architecture shape contracts hold at full size"):
        # Embedding network: 512-d output for any T >= 15, declared dims.
        xconfig = XVectorConfig(n_train_speakers=64)
        shapes = xconfig.tensor_shapes()
        assert shapes["frame1.w"] == (512, 120)
        assert shapes["frame2.w"] == (512, 1536)
        assert shapes["frame3.w"] == (512, 1536)
        assert shapes["frame4.w"] == (512, 512)
        assert shapes["frame5.w"] == (1500, 512)
        assert shapes["segment6.w"] == (512, 3000)
        assert shapes["segment7.w"] == (512, 512)
        assert shapes["softmax.w"] == (64, 512)
        xweights = init_weights("xvector", xconfig, seed=1)
        for n_frames in (15, 23, 61, 200):
            frames = FeatureMatrix(
                np.random.default_rng(n_frames).standard_normal((n_frames, 24)),
                hop=0.010, kind="fbank24",
            )
            assert xvector_forward(frames, xweights).dim == 512

        # Posterior network: width 1944, rows sum to one.
        pweights = init_weights("ppg", PpgConfig(), seed=2)
        mel40 = FeatureMatrix(
            np.random.default_rng(0).standard_normal((40, 40)), hop=0.010, kind="mel40"
        )
        posteriors = ppg_forward(mel40, pweights, tap="softmax")
        assert posteriors.dim == 1944
        assert np.max(np.abs(posteriors.frames.sum(axis=1) - 1.0)) <= 1e-9

        # Acoustic model: (T, 80) output.
        aconfig = AcousticConfig(content_dim=1944, xvec_dim=512)
        aweights = init_weights("acoustic", aconfig, seed=3)
        aligned = FeatureMatrix(
            np.random.default_rng(1).standard_normal((21, aconfig.input_dim)),
            hop=0.005, kind="aligned",
        )
        mel = acoustic_forward(aligned, aweights)
        assert mel.frames.shape == (21, 80)

        # Waveform model: dilation schedule, length law, receptive field.
        nconfig = NsfConfig()
        assert nconfig.dilations == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
        assert nconfig.blocks == 5
        nweights = init_weights("nsf", nconfig, seed=4)
        n_frames = 21
        f0 = F0Contour(np.where(np.arange(n_frames) % 2 == 0, 120.0, 0.0))
        xvec = SpeakerEmbedding("x", np.random.default_rng(2).standard_normal(512))
        out = nsf_forward(mel, f0, xvec, nweights, seed=5)
        assert len(out) == 80 * n_frames

        length = 6000
        center = length // 2
        condition = np.tile(
            np.random.default_rng(3).standard_normal(nconfig.channels), (length, 1)
        )
        impulse = np.zeros(length)
        impulse[center] = 1.0
        response = filter_block_forward(impulse, condition, nweights, block=1)
        baseline = filter_block_forward(np.zeros(length), condition, nweights, block=1)
        support = np.flatnonzero(response != baseline)
        assert support.size > 0
        assert support.max() - support.min() + 1 <= 2047


def test_criterion_6_dsp_suite():
    with criterion(6, "F0 tracks a 220 Hz tone, alignment replicates and broadcasts"):
        wav = make_tone(220.0, seconds=1.0)
        contour = extract_f0(wav)
        interior = contour.values[3:-3]
        voiced = interior > 0
        assert voiced.mean() >= 0.95
        assert np.all(np.abs(interior[voiced] - 220.0) <= 2.0)
        frames = np.lib.stride_tricks.sliding_window_view(wav.samples, 400)[::80]
        oracle = np.array([fft_peak_hz(f, 16000) for f in frames[3:-3]])
        assert np.all(np.abs(interior[voiced] - oracle[voiced]) <= 2.0)

        rng = np.random.default_rng(11)
        ppg = FeatureMatrix(rng.uniform(0, 1, (100, 9)), hop=0.010, kind="ppg")
        f0 = F0Contour(np.where(rng.random(200) < 0.5, 150.0, 0.0))
        xvec = SpeakerEmbedding("x", rng.standard_normal(24))
        aligned = align_streams(ppg, f0, xvec)
        assert aligned.n_frames == 200
        for k in range(100):
            assert np.array_equal(aligned.frames[2 * k, :9], ppg.frames[k])
            assert np.array_equal(aligned.frames[2 * k + 1, :9], ppg.frames[k])
        for row in aligned.frames[:, -24:]:
            assert np.array_equal(row, xvec.vector)

        one_second = make_tone(300.0, seconds=1.0)
        assert mel_features(one_second, 24, 0.005).n_frames == 196
        assert mel_features(one_second, 24, 0.010).n_frames == 98


def test_criterion_7_wer_oracle_equivalence():
    with criterion(7, "WER agrees with exhaustive DP on 10000 random pairs"):
        rng = np.random.default_rng(777)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(10_000):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(0, 13))
            ref = [alphabet[i] for i in rng.integers(0, 4, n)]
            hyp = [alphabet[i] for i in rng.integers(0, 4, m)]
            result = wer(ref, hyp)
            assert result.n_errors == edit_distance(ref, hyp)
            assert result.rate == result.n_errors / n


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "simulate and synthesize are byte-identical on rerun"):
        out = tmp_path / "sim"
        sim_config = tmp_path / "sim.ini"
        sim_config.write_text(
            "[run]\nseed = 31\n"
            f"[paths]\nout_dir = {out}\n"
            "[simulate]\nn_speakers = 8\nutterances_per_speaker = 5\ndim = 32\n"
            "pool_size = 60\nm_grid = 6,12\nrepetitions = 3\n"
        )
        names = ("benchmark_report.txt", "benchmark_report.jsonl",
                 "benchmark_provenance.jsonl")
        assert main(["simulate", "--config", str(sim_config)]) == 0
        snapshots = {name: (out / name).read_bytes() for name in names}
        assert main(["simulate", "--config", str(sim_config)]) == 0
        for name in names:
            assert (out / name).read_bytes() == snapshots[name]

        # Synthesis rerun, bit for bit, through the real command.
        rng = np.random.default_rng(5)
        ppg_weights = init_weights("ppg", PpgConfig(tap="sigmoid6"), seed=50)
        acoustic = init_weights(
            "acoustic",
            AcousticConfig(content_dim=1024, xvec_dim=512,
                           ff_size=64, blstm_size=32, ar_size=64),
            seed=51,
        )
        nsf = init_weights("nsf", NsfConfig(channels=16, blocks=2), seed=52)
        weights_dir = tmp_path / "weights"
        weights_dir.mkdir()
        save_weights(weights_dir / "ppg.weights", ppg_weights)
        save_weights(weights_dir / "acoustic.weights", acoustic)
        save_weights(weights_dir / "nsf.weights", nsf)

        from voxanon import EmbeddingPool, save_f0, save_features, save_pool

        features_dir = tmp_path / "features"
        features_dir.mkdir()
        mel40 = FeatureMatrix(rng.standard_normal((20, 40)), hop=0.010, kind="mel40")
        ppg = ppg_forward(mel40, ppg_weights, tap="sigmoid6")
        f0 = F0Contour(np.where(rng.random(40) < 0.6, 180.0, 0.0))
        save_features(features_dir / "u_1.ppg.npz", ppg)
        save_f0(features_dir / "u_1.f0.npz", f0)
        xvec = SpeakerEmbedding("u", rng.standard_normal(512))
        save_pool(tmp_path / "pseudo.jsonl", EmbeddingPool([xvec]))

        wav_out = tmp_path / "synth"
        synth_config = tmp_path / "synth.ini"
        synth_config.write_text(
            "[run]\nseed = 9\n"
            f"[paths]\nweights = {weights_dir}\nout_dir = {wav_out}\n"
        )
        args = [
            "synthesize", "--config", str(synth_config),
            "--features-dir", str(features_dir),
            "--pseudo", str(tmp_path / "pseudo.jsonl"),
        ]
        assert main(args) == 0
        first = (wav_out / "wav" / "u_1.wav").read_bytes()
        assert main(args) == 0
        assert (wav_out / "wav" / "u_1.wav").read_bytes() == first


def test_criterion_9_spectral_loss_contract():
    with criterion(9, "spectral loss: zero, (ln 2)^2 scaling response, symmetric"):
        rng = np.random.default_rng(99)
        samples = 0.1 * rng.standard_normal(16000)
        a = Waveform(samples)
        doubled = Waveform(2.0 * samples)
        other = Waveform(0.1 * rng.standard_normal(16000))
        assert spectral_loss(a, a) == 0.0
        assert abs(spectral_loss(a, doubled) - float(np.log(2.0) ** 2)) <= 1e-6
        assert spectral_loss(a, other) == spectral_loss(other, a)
