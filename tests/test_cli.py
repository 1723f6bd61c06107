import json
from pathlib import Path

import numpy as np
import pytest

from voxanon import (
    Waveform,
    load_pool,
    make_random_pool,
    read_wav,
    save_pool,
    write_wav,
)
from voxanon.cli import main, speaker_of
from voxanon.config import load_config
from voxanon.errors import ConfigError
from voxanon.nnet import AcousticConfig, NsfConfig, PpgConfig, XVectorConfig, init_weights, save_weights


@pytest.fixture(scope="session")
def site(tmp_path_factory):
    """A tiny on-disk dataset: three utterances, weights, pool, config."""
    root = tmp_path_factory.mktemp("site")
    fs = 16000
    rng = np.random.default_rng(0)
    for name, freq in [("p01_001", 210.0), ("p01_002", 240.0), ("p02_001", 150.0)]:
        t = np.arange(int(0.2 * fs)) / fs
        x = 0.4 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size)
        write_wav(root / f"{name}.wav", Waveform(np.clip(x, -1, 1), fs))

    weights_dir = root / "weights"
    weights_dir.mkdir()
    components = [
        ("xvector", XVectorConfig(n_train_speakers=40)),
        ("ppg", PpgConfig()),
        ("acoustic", AcousticConfig(content_dim=1944, xvec_dim=512)),
        ("nsf", NsfConfig()),
    ]
    for component, config in components:
        save_weights(
            weights_dir / f"{component}.weights",
            init_weights(component, config, seed=500),
        )
    save_pool(root / "pool.jsonl", make_random_pool(40, 512, seed=3))

    (root / "run.ini").write_text(
        "[run]\nseed = 77\n"
        "[paths]\n"
        f"pool = {root / 'pool.jsonl'}\n"
        f"weights = {weights_dir}\n"
        f"out_dir = {root / 'out'}\n"
        "[anonymize]\nstrategy = random\nm = 8\n"
    )
    return root


@pytest.fixture(scope="session")
def extracted(site):
    wavs = [str(site / f"{n}.wav") for n in ("p01_001", "p01_002", "p02_001")]
    rc = main(["extract", "--config", str(site / "run.ini")] + wavs)
    assert rc == 0
    return site / "out"


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nsede = 3\n")
        with pytest.raises(ConfigError, match="sede"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = sometimes\n")
        with pytest.raises(ConfigError, match="integer"):
            load_config(path)

    def test_random_strategy_requires_seed(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[anonymize]\nstrategy = random\nm = 5\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_evaluate_repetitions_key_rejected(self, tmp_path):
        # simulate.repetitions sets the draw count; evaluate has none.
        path = tmp_path / "c.ini"
        path.write_text("[evaluate]\nrepetitions = 5\n")
        with pytest.raises(ConfigError, match="repetitions"):
            load_config(path)

    def test_k_all_parses_to_none(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 1\n[evaluate]\nk = all\n")
        assert load_config(path).evaluate.nearest_k is None

    def test_echo_contains_everything(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 9\n[simulate]\nm_grid = 2,4\n")
        echo = load_config(path).echo()
        assert echo["run.seed"] == 9
        assert echo["simulate.m_grid"] == [2, 4]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/conf.ini")


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nbogus = 1\n")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_valid_simulate_exits_0(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text(
            "[run]\nseed = 5\n"
            "[simulate]\nn_speakers = 4\nutterances_per_speaker = 3\ndim = 16\n"
            "pool_size = 20\nm_grid = 3\nrepetitions = 2\n"
        )
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0

    def test_simulate_random_without_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "noseed.ini"
        path.write_text("[simulate]\nn_speakers = 4\nstrategies = random\n")
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_evaluate_without_seed_exits_0(self, extracted, tmp_path):
        # The default simulate strategies include random; evaluate draws nothing.
        trials = tmp_path / "trials.txt"
        trials.write_text("p01 p01_001 tar\np01 p02_001 non\n")
        rc = main([
            "evaluate",
            "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(extracted / "utterance_xvectors.jsonl"),
            "--trials", str(trials),
            "--out-dir", str(tmp_path / "report"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("lines", [
        "p01 p01_001 tar\np02 p02_001 tar\n",
        "p01 p02_001 non\np02 p01_001 non\n",
    ])
    def test_one_sided_trial_list_exits_3(self, site, extracted, tmp_path, capsys, lines):
        trials = tmp_path / "one_sided.txt"
        trials.write_text(lines)
        rc = main([
            "evaluate", "--config", str(site / "run.ini"),
            "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(extracted / "utterance_xvectors.jsonl"),
            "--trials", str(trials),
            "--out-dir", str(tmp_path / "report"),
        ])
        assert rc == 3
        assert str(trials) in capsys.readouterr().err
        assert not (tmp_path / "report" / "evaluation_report.txt").exists()

    def test_bad_trial_id_exits_3(self, site, extracted, tmp_path):
        trials = tmp_path / "trials.txt"
        trials.write_text("p01 nosuchutterance tar\np01 p02_001 non\n")
        rc = main([
            "evaluate", "--config", str(site / "run.ini"),
            "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(extracted / "utterance_xvectors.jsonl"),
            "--trials", str(trials),
            "--out-dir", str(tmp_path / "report"),
        ])
        assert rc == 3


class TestExtract:
    def test_speaker_level_is_mean_of_utterances(self, extracted):
        utterances = load_pool(extracted / "utterance_xvectors.jsonl")
        speakers = load_pool(extracted / "speaker_xvectors.jsonl")
        members = [e.vector for e in utterances if speaker_of(e.id) == "p01"]
        assert len(members) == 2
        base = members[0]
        expected = base + np.mean([m - base for m in members], axis=0)
        assert np.allclose(speakers.get("p01").vector, expected, rtol=0, atol=1e-12)

    def test_feature_files_written(self, extracted):
        for utt in ("p01_001", "p01_002", "p02_001"):
            for suffix in ("ppg", "mel", "f0"):
                assert (extracted / "features" / f"{utt}.{suffix}.npz").exists()

    def test_rerun_is_bitwise_identical(self, site, extracted, tmp_path):
        out2 = tmp_path / "again"
        wavs = [str(site / f"{n}.wav") for n in ("p01_001", "p01_002", "p02_001")]
        rc = main(
            ["extract", "--config", str(site / "run.ini"), "--out-dir", str(out2)] + wavs
        )
        assert rc == 0
        for rel in ("utterance_xvectors.jsonl", "speaker_xvectors.jsonl",
                    "features/p01_001.ppg.npz", "features/p02_001.f0.npz"):
            assert (extracted / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_no_inputs_is_an_error(self, site):
        assert main(["extract", "--config", str(site / "run.ini")]) == 3

    def test_unreadable_file_collected_and_nonzero(self, site, tmp_path, capsys):
        bad = tmp_path / "broken.wav"
        bad.write_bytes(b"RIFF....")
        rc = main([
            "extract", "--config", str(site / "run.ini"),
            "--out-dir", str(tmp_path / "o"), str(bad),
        ])
        assert rc == 3
        assert "broken.wav" in capsys.readouterr().err


    @pytest.mark.parametrize("damage", [
        pytest.param(lambda m: m["config"].update(bogus=1), id="unknown-config-key"),
        pytest.param(lambda m: m.pop("config"), id="missing-config"),
        pytest.param(lambda m: m.pop("tensors"), id="missing-tensors"),
        pytest.param(lambda m: m["tensors"][0].pop("name"), id="missing-name"),
        pytest.param(lambda m: m["tensors"][0].pop("shape"), id="missing-shape"),
        pytest.param(lambda m: m["tensors"][0].pop("offset"), id="missing-offset"),
        pytest.param(lambda m: m["tensors"][0].update(offset=-8), id="negative-offset"),
        pytest.param(lambda m: m["tensors"][0].update(offset=8.0), id="float-offset"),
        pytest.param(lambda m: m["tensors"][0].update(shape=[-1]), id="negative-shape"),
    ])
    def test_bad_weight_manifest_exits_3(self, site, tmp_path, capsys, damage):
        # The manifest is checked before any tensor is read, so the broken
        # file carries only its two header lines.
        with (site / "weights" / "xvector.weights").open("rb") as fh:
            magic, manifest = fh.readline(), json.loads(fh.readline())
        damage(manifest)
        weights = tmp_path / "weights"
        weights.mkdir()
        bad = weights / "xvector.weights"
        bad.write_bytes(magic + json.dumps(manifest).encode() + b"\n")
        config = tmp_path / "bad_weights.ini"
        config.write_text(f"[paths]\nweights = {weights}\nout_dir = {tmp_path / 'o'}\n")
        rc = main(["extract", "--config", str(config), str(site / "p01_001.wav")])
        assert rc == 3
        assert str(bad) in capsys.readouterr().err


class TestAnonymize:
    def test_provenance_deterministic(self, site, extracted, tmp_path):
        args = [
            "anonymize", "--config", str(site / "run.ini"),
            "--inputs", str(extracted / "speaker_xvectors.jsonl"),
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "pseudo_xvectors.jsonl").read_bytes() == (
            out2 / "pseudo_xvectors.jsonl"
        ).read_bytes()
        assert (out1 / "anonymize_provenance.jsonl").read_bytes() == (
            out2 / "anonymize_provenance.jsonl"
        ).read_bytes()
        record = json.loads(
            (out1 / "anonymize_provenance.jsonl").read_text().splitlines()[0]
        )
        assert record["strategy"] == "random"
        assert len(record["selected_ids"]) == 8

    def test_shared_pseudo_speaker(self, site, extracted, tmp_path):
        out = tmp_path / "shared"
        rc = main([
            "anonymize", "--config", str(site / "run.ini"),
            "--inputs", str(extracted / "speaker_xvectors.jsonl"),
            "--shared", "--out-dir", str(out),
        ])
        assert rc == 0
        pseudo = load_pool(out / "pseudo_xvectors.jsonl")
        vectors = [e.vector for e in pseudo]
        assert all(np.array_equal(vectors[0], v) for v in vectors[1:])

    def test_unreachable_range_exits_3_with_closest(self, site, extracted, tmp_path, capsys):
        rc = main([
            "anonymize", "--config", str(site / "run.ini"),
            "--inputs", str(extracted / "speaker_xvectors.jsonl"),
            "--strategy", "range", "--sim", "0.999", "--eps", "0.0001",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "closest achievable similarity" in err

    def test_missing_pool_exits_2(self, site, extracted, tmp_path):
        config = tmp_path / "nopool.ini"
        config.write_text(
            "[run]\nseed = 1\n[anonymize]\nstrategy = nearest\nm = 2\n"
        )
        rc = main([
            "anonymize", "--config", str(config),
            "--inputs", str(extracted / "speaker_xvectors.jsonl"),
        ])
        assert rc == 2


@pytest.fixture(scope="session")
def pseudo(site, extracted, tmp_path_factory):
    out = tmp_path_factory.mktemp("pseudo")
    rc = main([
        "anonymize", "--config", str(site / "run.ini"),
        "--inputs", str(extracted / "speaker_xvectors.jsonl"),
        "--out-dir", str(out),
    ])
    assert rc == 0
    return out / "pseudo_xvectors.jsonl"


class TestSynthesize:
    def test_length_law_and_determinism(self, site, extracted, pseudo, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        args = [
            "synthesize", "--config", str(site / "run.ini"),
            "--features-dir", str(extracted / "features"),
            "--pseudo", str(pseudo), "--utts", "p01_001",
        ]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        wav1 = out1 / "wav" / "p01_001.wav"
        assert wav1.read_bytes() == (out2 / "wav" / "p01_001.wav").read_bytes()
        from voxanon import load_f0, load_features

        ppg = load_features(extracted / "features" / "p01_001.ppg.npz")
        f0 = load_f0(extracted / "features" / "p01_001.f0.npz")
        expected = 80 * min(2 * ppg.n_frames, f0.n_frames)
        assert len(read_wav(wav1)) == expected

    def test_adding_an_utterance_never_perturbs_others(
        self, site, extracted, pseudo, tmp_path
    ):
        base = [
            "synthesize", "--config", str(site / "run.ini"),
            "--features-dir", str(extracted / "features"),
            "--pseudo", str(pseudo),
        ]
        pair, trio = tmp_path / "pair", tmp_path / "trio"
        assert main(base + ["--utts", "p01_001,p01_002", "--out-dir", str(pair)]) == 0
        assert main(
            base + ["--utts", "p01_001,p01_002,p02_001", "--out-dir", str(trio), "--jobs", "2"]
        ) == 0
        for utt in ("p01_001", "p01_002"):
            assert (pair / "wav" / f"{utt}.wav").read_bytes() == (
                trio / "wav" / f"{utt}.wav"
            ).read_bytes()

    def test_corrupt_feature_file_exits_3(self, site, extracted, pseudo, tmp_path, capsys):
        features = tmp_path / "features"
        features.mkdir()
        for name in ("p01_001.ppg.npz", "p01_001.f0.npz"):
            (features / name).write_bytes((extracted / "features" / name).read_bytes())
        corrupt = features / "p01_001.ppg.npz"
        corrupt.write_bytes(corrupt.read_bytes()[:-100])
        rc = main([
            "synthesize", "--config", str(site / "run.ini"),
            "--features-dir", str(features), "--pseudo", str(pseudo),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3
        assert str(corrupt) in capsys.readouterr().err

    def test_missing_weights_names_component(self, site, extracted, pseudo, tmp_path, capsys):
        partial = tmp_path / "partial_weights"
        partial.mkdir()
        (partial / "acoustic.weights").write_bytes(
            (site / "weights" / "acoustic.weights").read_bytes()
        )
        config = tmp_path / "partial.ini"
        config.write_text(
            f"[run]\nseed = 1\n[paths]\nweights = {partial}\nout_dir = {tmp_path / 'o'}\n"
        )
        rc = main([
            "synthesize", "--config", str(config),
            "--features-dir", str(extracted / "features"),
            "--pseudo", str(pseudo),
        ])
        assert rc == 2
        assert "nsf" in capsys.readouterr().err


class TestEvaluate:
    def test_full_report(self, site, extracted, tmp_path):
        trials = tmp_path / "trials.txt"
        trials.write_text(
            "p01 p01_001 tar\np01 p01_002 tar\np01 p02_001 non\n"
            "p02 p02_001 tar\np02 p01_001 non\np02 p01_002 non\n"
        )
        refs = tmp_path / "ref.trn"
        hyps = tmp_path / "hyp.trn"
        refs.write_text("p01_001 the quick fox\np01_002 a b\n")
        hyps.write_text("p01_001 the slow fox\np01_002 a b c\n")
        out = tmp_path / "report"
        rc = main([
            "evaluate", "--config", str(site / "run.ini"),
            "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(extracted / "utterance_xvectors.jsonl"),
            "--trials", str(trials),
            "--ref-trn", str(refs), "--hyp-trn", str(hyps),
            "--out-dir", str(out),
        ])
        assert rc == 0
        text = (out / "evaluation_report.txt").read_text()
        assert "EER" in text and "WER" in text
        records = [
            json.loads(line)
            for line in (out / "evaluation_report.jsonl").read_text().splitlines()
        ]
        kinds = {r.get("kind") for r in records}
        assert "eer" in kinds and "wer" in kinds
        wer_record = next(r for r in records if r.get("kind") == "wer")
        # 1 substitution out of 3 words, 1 insertion out of 2 words.
        assert wer_record["substitutions"] == 1
        assert wer_record["insertions"] == 1
        assert wer_record["n_ref_words"] == 5


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        # Identical config (including out_dir, which the report echoes);
        # the first run's files are snapshotted before the rerun.
        out = tmp_path / "r"
        config = tmp_path / "sim.ini"
        config.write_text(
            "[run]\nseed = 13\n"
            f"[paths]\nout_dir = {out}\n"
            "[simulate]\nn_speakers = 6\nutterances_per_speaker = 4\ndim = 16\n"
            "pool_size = 30\nm_grid = 5,10\nrepetitions = 2\n"
        )
        names = ("benchmark_report.txt", "benchmark_report.jsonl",
                 "benchmark_provenance.jsonl")
        assert main(["simulate", "--config", str(config)]) == 0
        snapshots = {name: (out / name).read_bytes() for name in names}
        assert main(["simulate", "--config", str(config)]) == 0
        for name in names:
            assert (out / name).read_bytes() == snapshots[name]

    def test_baseline_row_present_and_identity(self, tmp_path):
        config = tmp_path / "sim.ini"
        config.write_text(
            "[run]\nseed = 3\n"
            "[simulate]\nn_speakers = 4\nutterances_per_speaker = 3\ndim = 16\n"
            "pool_size = 20\nm_grid = 4\nrepetitions = 2\n"
        )
        out = tmp_path / "r"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
        records = [
            json.loads(line)
            for line in (out / "benchmark_report.jsonl").read_text().splitlines()
        ]
        baseline = [r for r in records if r.get("condition") == "none"]
        assert baseline
        for record in baseline:
            assert record["eer_before"] == record["eer_after"]
        assert any(r.get("condition") == "random(m=4)" for r in records)
        assert "config" in records[0]
