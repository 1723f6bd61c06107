import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import voxanon
from voxanon import (
    Waveform,
    load_pool,
    make_random_pool,
    read_wav,
    save_pool,
    write_wav,
)
import voxanon.nnet
from voxanon import cli
from voxanon.cli import main, speaker_of
from voxanon.config import load_config
from voxanon.embeddings import EmbeddingPool, SpeakerEmbedding
from voxanon.errors import ConfigError, DataError, write_npz
from voxanon.features import PPG, F0Contour, FeatureMatrix, load_features, save_f0, save_features
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
        ("acoustic", AcousticConfig()),
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
def long_site(tmp_path_factory):
    """Features for three 2 s utterances, small acoustic and NSF weights and
    a pseudo pool: enough audio for synthesize to start two workers, one of
    which then takes a second utterance."""
    root = tmp_path_factory.mktemp("long_site")
    rng = np.random.default_rng(1)
    features, weights = root / "features", root / "weights"
    features.mkdir()
    weights.mkdir()
    for utt, f0_hz in (("p01_001", 180.0), ("p01_002", 210.0), ("p02_001", 120.0)):
        ppg = rng.dirichlet(np.ones(1944), size=200)
        save_features(features / f"{utt}.ppg.npz", FeatureMatrix(ppg, PPG))
        f0 = np.where(np.arange(400) % 100 < 70, f0_hz, 0.0)  # voiced and unvoiced runs
        save_f0(features / f"{utt}.f0.npz", F0Contour(f0))
    components = [
        ("acoustic", AcousticConfig(ff_size=16, blstm_size=8, ar_size=16)),
        ("nsf", NsfConfig(channels=8, blocks=2, layers_per_block=4)),
    ]
    for component, config in components:
        save_weights(weights / f"{component}.weights", init_weights(component, config, seed=7))
    save_pool(root / "pseudo.jsonl", EmbeddingPool(
        [SpeakerEmbedding(spk, rng.standard_normal(512)) for spk in ("p01", "p02")]
    ))
    (root / "run.ini").write_text(f"[run]\nseed = 5\n[paths]\nweights = {weights}\n")
    return root


@pytest.fixture
def nsf_calls(monkeypatch):
    """The nsf_forward calls made in this process, which workers never add to."""
    calls = []
    original = voxanon.nnet.nsf_forward

    def counted(*args, **kwargs):
        calls.append(args[0].n_frames)
        return original(*args, **kwargs)

    monkeypatch.setattr(voxanon.nnet, "nsf_forward", counted)
    return calls


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count, read as synthesize reads it."""
    functions = cli._openblas_threads()
    return functions[0]() if functions else None


def _name_deleted_field(source, target, key, value, shapes):
    """Copy the weight file ``source`` to ``target`` as a build that still had
    the config field ``key`` would have written it with ``key = value``:
    the manifest names the field, and each tensor in ``shapes`` has the
    shape it set (zero values)."""
    with np.load(source, allow_pickle=False) as archive:
        manifest, values = json.loads(archive["manifest"].tolist()), archive["values"]
    manifest["config"][key] = value
    parts, start = [], 0
    for entry in manifest["tensors"]:
        count = math.prod(entry[1])
        if entry[0] in shapes:
            entry[1] = list(shapes[entry[0]])
            parts.append(np.zeros(math.prod(entry[1]), dtype=np.float32))
        else:
            parts.append(values[start : start + count])
        start += count
    write_npz(target, manifest=np.array(json.dumps(manifest)), values=np.concatenate(parts))


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

    @pytest.mark.parametrize("text, section", [
        ("[mystery]\n", "mystery"),
        ("[run]\nseed = 1\n[mystery]\n", "mystery"),
        ("[DEFAULT]\n", "DEFAULT"),
    ])
    def test_empty_unknown_section_rejected(self, tmp_path, text, section):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]") as info:
            load_config(path)
        assert str(path) in str(info.value)

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
        assert load_config(path).evaluate.k is None

    def test_echo_contains_everything(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 9\n[simulate]\nm_grid = 2,4\n")
        echo = load_config(path).echo()
        assert echo["run.seed"] == 9
        assert echo["simulate.m_grid"] == [2, 4]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/conf.ini")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nbogus = 1\n",
        "[DEFAULT]\nseed = 4\n[run]\n",
    ], ids=["default-only", "default-leak"])
    def test_default_section_rejected(self, tmp_path, text):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]") as info:
            load_config(path)
        assert str(path) in str(info.value)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read") as info:
            load_config(tmp_path)
        assert str(tmp_path) in str(info.value)

    def test_unreadable_file_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 1\n")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        with pytest.raises(ConfigError, match="Permission denied") as info:
            load_config(path)
        assert str(path) in str(info.value)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
        with pytest.raises(ConfigError, match="UTF-8") as info:
            load_config(path)
        assert str(path) in str(info.value)

    def test_overrides_applied_before_validation(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[anonymize]\nstrategy = random\nm = 5\n")
        config = load_config(path, {"run.seed": 3, "anonymize.m": None})
        assert (config.run.seed, config.anonymize.m) == (3, 5)


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

    @pytest.mark.parametrize("jobs, expected", [("auto", None), ("AUTO", None), ("3", 3)])
    def test_jobs_flag_reads_as_the_ini_value(self, tmp_path, monkeypatch, jobs, expected):
        # The flag overrides the file's jobs = 1, auto included.
        path = tmp_path / "jobs.ini"
        path.write_text("[run]\njobs = 1\n")
        seen = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda cfg: seen.append(cfg.run.jobs) or 0)
        assert main(["simulate", "--config", str(path), "--jobs", jobs]) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("jobs, message", [
        ("0", "run.jobs (--jobs) must be at least 1 or 'auto'"),
        ("two", "run.jobs (--jobs): expected an integer, got 'two'"),
        ("1.5", "run.jobs (--jobs): expected an integer, got '1.5'"),
    ])
    def test_bad_jobs_flag_exits_2_naming_flag(self, tmp_path, capsys, jobs, message):
        rc = main(["simulate", "--jobs", jobs, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("simulate", "[simulate]\nrepetitions = 0\n", "simulate.repetitions"),
        ("simulate", "[simulate]\nk_grid = all, 0\n", "simulate.k_grid"),
        ("simulate", "[simulate]\nn_speakers = 1\n", "simulate.n_speakers"),
        ("simulate", "[simulate]\nn_speakers = 3\nk_grid = 5\n", "simulate.k_grid"),
        ("simulate", "[simulate]\nm_grid = 0\n", "simulate.m_grid"),
        ("simulate", "[simulate]\nm_grid = 50\npool_size = 40\n", "simulate.m_grid"),
        ("simulate", "[simulate]\nstrategies = range\ns_grid = 2.0\n", "simulate.s_grid"),
        ("simulate", "[simulate]\nstrategies = range\ns_grid = 0.5\neps = 0\n", "simulate.eps"),
        ("simulate", "[simulate]\npool_size = 0\n", "simulate.pool_size"),
        ("simulate", "[simulate]\ndim = 0\n", "simulate.dim"),
        ("simulate", "[simulate]\nutterances_per_speaker = 0\n", "simulate.utterances_per_speaker"),
        ("simulate", "[simulate]\nstrategies = range\n", "simulate.s_grid"),
        ("simulate", "[simulate]\nstrategies = nearest\nm_grid =\n", "simulate.m_grid"),
        ("simulate", "[simulate]\ncluster_std = nan\n", "simulate.cluster_std"),
        ("simulate", "[simulate]\ncluster_std = inf\n", "simulate.cluster_std"),
        ("simulate", "[simulate]\ncluster_std = 1e308\n", "simulate.cluster_std"),
        ("simulate", "[simulate]\ncluster_std = -0.1\n", "simulate.cluster_std"),
        ("evaluate", "[evaluate]\nk = 0\n", "evaluate.k"),
        ("synthesize --pseudo p.jsonl", "[run]\njobs = 0\n", "run.jobs"),
        ("evaluate", "[simulate]\nstrategies = random, range\n", "simulate.s_grid"),
        ("anonymize --strategy random --m 0 --seed 1", "", "anonymize.m (--m) = 0"),
        ("anonymize --strategy nearest", "", "anonymize.m (--m) = None"),
        ("anonymize", "[anonymize]\nstrategy = nearest\nm = -2\n", "anonymize.m"),
        ("anonymize --strategy range --sim 2.0 --eps 0.05", "", "anonymize.sim (--sim) = 2.0"),
        ("anonymize --strategy range --sim 0.5 --eps 0", "", "anonymize.eps (--eps) = 0.0"),
        ("anonymize", "[anonymize]\nstrategy = range\nsim = 0.5\n", "anonymize.eps (--eps) = None"),
        ("anonymize --strategy random --m 2 --seed 1", "[paths]\npool =\n", "paths.pool"),
        ("extract", "[paths]\nweights =\n", "paths.weights"),
        ("simulate", "[paths]\nout_dir =\n", "paths.out_dir"),
    ])
    def test_zero_count_exits_2_naming_key(self, tmp_path, capsys, command, text, key):
        path = tmp_path / "zero.ini"
        path.write_text(text)
        command, *flags = command.split()
        args = [command, "--config", str(path), "--out-dir", str(tmp_path / "o"), *flags]
        if command == "evaluate":
            args += ["--enroll", "e.jsonl", "--test", "t.jsonl", "--trials", "trials.txt"]
        if command == "anonymize":
            args += ["--inputs", "in.jsonl"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert key in err and str(path) in err

    @pytest.mark.parametrize("text, message", [
        ("k_grid =", "simulate.k_grid is empty"),
        ("strategies =\ninclude_baseline = false",
         "simulate.strategies is empty and simulate.include_baseline is false"),
        ("m_grid = 3, 3\nk_grid = all, all", "simulate.m_grid repeats 3"),
        ("k_grid = all, all", "simulate.k_grid repeats all"),
        ("k_grid = 2, all, 2", "simulate.k_grid repeats 2"),
        ("strategies = range, random, range\ns_grid = 0.5\neps = 0.5",
         "simulate.strategies repeats 'range'"),
        ("strategies = range\ns_grid = 0.5, 0.50\neps = 0.5", "simulate.s_grid repeats 0.5"),
    ])
    def test_empty_or_repeated_grid_exits_2_naming_key(self, tmp_path, capsys, text, message):
        path = tmp_path / "grid.ini"
        path.write_text("[run]\nseed = 5\n[simulate]\nn_speakers = 4\nutterances_per_speaker = 3\n"
                        f"dim = 16\n{text}\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"
        assert not out.exists()

    def test_baseline_alone_exits_0(self, tmp_path):
        path = tmp_path / "baseline.ini"
        path.write_text("[simulate]\nn_speakers = 4\nutterances_per_speaker = 3\ndim = 16\n"
                        "strategies =\nk_grid = all, 2\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        rows = [row.split() for row in (out / "benchmark_report.txt").read_text().splitlines()[2:]]
        assert {row[0] for row in rows} == {"none"} and {row[1] for row in rows} == {"all", "2"}

    @pytest.mark.parametrize("section, text", [
        ("features", "sample_rate = 16000"),
        ("features", "f0_threshold = 0.45"),
        ("models", "ppg_tap = softmax"),
        ("features", "sample_rate = 0"),
        ("features", "sample_rate = 8000"),
        ("features", "sample_rate = 22050"),
        ("features", "sample_rate = 48000"),
        ("features", "f0_threshold = nan"),
        ("features", "f0_threshold = -3"),
        ("features", "f0_threshold = 1.5"),
        ("models", "ppg_tap = sigmoid6"),
    ])
    def test_removed_front_end_key_exits_2(self, site, tmp_path, capsys, section, text):
        # The front end is fixed, so a removed key is refused whatever its
        # value: its old default, one it once accepted or one it rejected.
        path = tmp_path / "front.ini"
        path.write_text(f"[paths]\nweights = {site / 'weights'}\n[{section}]\n{text}\n")
        out = tmp_path / "o"
        args = ["extract", "--config", str(path), "--out-dir", str(out), str(site / "p01_001.wav")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown section [{section}]\n"
        assert not out.exists()

    @pytest.mark.parametrize("with_config", [False, True], ids=["flag", "flag-and-config"])
    def test_empty_out_dir_flag_exits_2(self, tmp_path, capsys, with_config):
        path = tmp_path / "ok.ini"
        path.write_text("[run]\nseed = 5\n")
        config = ["--config", str(path)] if with_config else []
        assert main(["simulate", *config, "--out-dir", ""]) == 2
        err = capsys.readouterr().err
        assert "paths.out_dir" in err
        assert (str(path) in err) == with_config

    def test_empty_range_window_exits_2_naming_keys(self, tmp_path, capsys):
        # The generated pool has no entry within 0.01 of similarity 0.95.
        path = tmp_path / "window.ini"
        path.write_text("[simulate]\nstrategies = range\ns_grid = 0.95\neps = 0.01\n")
        args = ["simulate", "--config", str(path), "--seed", "1", "--out-dir", str(tmp_path / "o")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{path}: simulate.s_grid = 0.95, simulate.eps = 0.01" in err
        assert "closest achievable similarity is 0.273651" in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command, flag, code", [
        ("anonymize", "--inputs", 3), ("synthesize", "--features-dir", 3),
        ("synthesize", "--pseudo", 3), ("evaluate", "--enroll", 3), ("evaluate", "--test", 3),
        ("evaluate", "--trials", 3), ("evaluate", "--ref-trn", 3), ("evaluate", "--hyp-trn", 3),
        ("evaluate", "--ref-trn-alone", 2), ("evaluate", "--hyp-trn-lacking-an-utterance", 3),
        ("evaluate", "--hyp-trn-with-an-extra-utterance", 3),
        ("evaluate", "--ref-trn-repeating-an-utterance", 3),
        ("evaluate", "--hyp-trn-repeating-an-utterance", 3),
        ("evaluate", "--ref-trn-with-a-wordless-utterance", 3),
    ])
    def test_flag_error_names_its_file_not_the_config(
        self, site, extracted, pseudo, tmp_path, capsys, command, flag, code
    ):
        config = site / "run.ini"
        trials, ref, hyp = tmp_path / "trials.txt", tmp_path / "ref.trn", tmp_path / "hyp.trn"
        trials.write_text("p01 p01_001 tar\np01 p02_001 non\n")
        ref.write_text("p01_001 a b\np01_002 c\n")
        hyp.write_text("p01_001 a b\np01_002 c\n")
        paths = {
            "anonymize": {"--inputs": extracted / "speaker_xvectors.jsonl"},
            "synthesize": {"--features-dir": extracted / "features", "--pseudo": pseudo},
            "evaluate": {"--enroll": extracted / "speaker_xvectors.jsonl",
                         "--test": extracted / "utterance_xvectors.jsonl",
                         "--trials": trials, "--ref-trn": ref, "--hyp-trn": hyp},
        }[command]
        if flag == "--ref-trn-alone":
            del paths["--hyp-trn"]
            named = "--ref-trn and --hyp-trn"
        elif flag == "--hyp-trn-lacking-an-utterance":
            hyp.write_text("p01_001 a b\n")
            named = f"{hyp}: no transcript of 'p01_002', which {ref} holds"
        elif flag == "--hyp-trn-with-an-extra-utterance":
            hyp.write_text("p01_001 a b\np01_002 c\np02_001 d\n")
            named = f"{hyp}: transcript of 'p02_001', which {ref} does not hold"
        elif flag.endswith("-repeating-an-utterance"):
            repeated = ref if flag.startswith("--ref-trn") else hyp
            repeated.write_text("p01_001 a b\np01_002 c\n\np01_001 a\n")
            named = f"{repeated}, lines 1 and 4: utterance 'p01_001' repeated"
        elif flag == "--ref-trn-with-a-wordless-utterance":
            ref.write_text("p01_001 a b\np01_002\n")
            named = f"{ref}: reference utterance 'p01_002' has no words"
        else:
            paths[flag] = named = tmp_path / "missing"
        args = [command, "--config", str(config), "--out-dir", str(tmp_path / "o")]
        rc = main(args + [str(part) for item in paths.items() for part in item])
        err = capsys.readouterr().err
        assert rc == code, err
        assert str(named) in err and str(config) not in err

    @pytest.mark.parametrize("lines, k, problem", [
        ("p01 p01_001 tar\np02 p02_001 tar\n", None, "no non-target trials to score"),
        ("p01 p02_001 non\np02 p01_001 non\n", None, "no target trials to score"),
        # p03's one utterance is p01's enrollment, so p01's one nearest
        # non-target speaker is p03, and the trial against p02 goes.
        ("p01 p01_001 tar\np01 p02_001 non\n", 1, "no non-target trials to score with k = 1"),
    ])
    def test_one_sided_trial_list_exits_3(
        self, site, extracted, tmp_path, capsys, lines, k, problem
    ):
        trials = tmp_path / "one_sided.txt"
        trials.write_text(lines)
        config = tmp_path / "run.ini"
        config.write_text((site / "run.ini").read_text() + f"[evaluate]\nk = {k or 'all'}\n")
        enroll = load_pool(extracted / "speaker_xvectors.jsonl")
        test = tmp_path / "test.jsonl"
        save_pool(test, EmbeddingPool([
            *load_pool(extracted / "utterance_xvectors.jsonl"),
            SpeakerEmbedding("p03_001", enroll.get("p01").vector),
        ]))
        rc = main([
            "evaluate", "--config", str(config),
            "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(test),
            "--trials", str(trials),
            "--out-dir", str(tmp_path / "report"),
        ])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {trials}: {problem}\n"
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


_CORRUPT_INPUTS = [
    ("pool-vec-object", "inputs", '{"dim": 2, "count": 1}\n{"id": "a", "vec": [1.0, {}]}\n', 3, "line 2"),
    ("pool-count-zero", "inputs", '{"dim": 2, "count": 0}\n', 3, "line 1"),
    ("pool-not-utf8", "inputs", b'{"dim": 1, "count": 1}\n{"id": "\xe9", "vec": [1.0]}\n', 3, "line 2"),
    ("trials-not-utf8", "trials", b"p01 p01_001 tar\np01 p02_001 non\n\xff\n", 3, "line 3"),
    ("trials-unknown-enroll-id", "trials", "p01 p01_001 tar\n\np09 p02_001 non\n", 3,
     "line 3: trial references unknown enrollment id 'p09'"),
    ("trials-unknown-test-id", "trials", "p01 p01_001 tar\np01 p02_999 non\n", 3,
     "line 2: trial references unknown test id 'p02_999'"),
    ("transcript-not-utf8", "ref", b"p01_001 a b\np01_002 caf\xe9\n", 3, "line 2"),
    ("config-empty-unknown-section", "config", "[mystery]\n", 2, "[mystery]"),
]


class TestCorruptInputs:
    """Each reader's corrupt file is a named error: exit 2 or 3, never 4."""

    @pytest.mark.parametrize("kind, slot, content, code, where", _CORRUPT_INPUTS,
                             ids=[case[0] for case in _CORRUPT_INPUTS])
    def test_exit_code_names_file(self, site, extracted, tmp_path, capsys, kind, slot, content, code, where):
        bad = tmp_path / f"{slot}.bad"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        files = {"config": site / "run.ini"}
        files[slot] = bad
        trials = tmp_path / "trials.txt"
        trials.write_text("p01 p01_001 tar\np01 p02_001 non\n")
        hyp = tmp_path / "hyp.trn"
        hyp.write_text("p01_001 a b\np01_002 c\n")
        if slot in ("inputs", "config"):
            args = ["anonymize", "--inputs", str(files.get("inputs", extracted / "speaker_xvectors.jsonl"))]
        else:
            args = [
                "evaluate",
                "--enroll", str(extracted / "speaker_xvectors.jsonl"),
                "--test", str(extracted / "utterance_xvectors.jsonl"),
                "--trials", str(files.get("trials", trials)),
                "--ref-trn", str(files.get("ref", hyp)), "--hyp-trn", str(hyp),
            ]
        rc = main(args + ["--config", str(files["config"]), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == code, err
        assert str(bad) in err and where in err


    @pytest.mark.parametrize("slot, where, pooled", [
        pytest.param(slot, where, pooled, id=f"{slot}-{where}" + ("-pooled" if pooled else ""))
        for slot, where, pooled in [
            ("f0", "p01_001.f0.npz", False),
            ("nsf", "nsf.weights", False),
            ("acoustic", "acoustic.weights", False),
            ("pseudo", "line 2", False),
            ("f0", "p01_001.f0.npz", True),
            ("ppg", "p01_001.ppg.npz", True),
            ("nsf", "nsf.weights", True),
            ("acoustic", "acoustic.weights", True),
            ("ppg-width", "p01_001.ppg.npz", False),
            ("ppg-width", "p01_001.ppg.npz", True),
        ]
    ])
    def test_synthesize_exit_code_names_file(
        self, site, extracted, pseudo, long_site, tmp_path, capsys, slot, where, pooled
    ):
        # The pooled cases have audio enough for two workers, which load the
        # weights and the PPGs and raise these errors.
        if pooled:
            utts = ["p01_001", "p02_001"]
            sources = long_site / "features", long_site / "weights", long_site / "pseudo.jsonl"
        else:
            utts = ["p01_001"]
            sources = extracted / "features", site / "weights", pseudo
        features, weights = tmp_path / "features", tmp_path / "weights"
        features.mkdir()
        weights.mkdir()
        for name in (f"{utt}.{kind}.npz" for utt in utts for kind in ("ppg", "f0")):
            (features / name).symlink_to(sources[0] / name)
        for name in ("acoustic.weights", "nsf.weights"):
            (weights / name).symlink_to(sources[1] / name)
        pool = tmp_path / "pseudo.jsonl"
        pool.symlink_to(sources[2])
        bad = {"f0": features / "p01_001.f0.npz", "ppg": features / "p01_001.ppg.npz",
               "ppg-width": features / "p01_001.ppg.npz", "nsf": weights / "nsf.weights",
               "acoustic": weights / "acoustic.weights", "pseudo": pool}[slot]
        raw = bad.read_bytes()
        ppg = load_features(bad, PPG) if slot == "ppg-width" else None
        bad.unlink()
        if slot == "pseudo":
            bad.write_text('{"dim": 512, "count": 1}\n{"id": "p01", "vec": [1.0, 2.0]}\n')
        elif slot == "ppg-width":  # a PPG narrower than the ppg stream
            write_npz(bad, kind=np.array("ppg"), hop=np.array(PPG.hop), values=ppg.frames[:, :-2])
        else:
            bad.write_bytes(raw[: len(raw) // 2])
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nseed = 77\n[paths]\nweights = {weights}\n")
        environ, threads = dict(os.environ), blas_threads()
        rc = main([
            "synthesize", "--config", str(config), "--features-dir", str(features),
            "--pseudo", str(pool), "--utts", ",".join(utts), "--jobs", "2",
            "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert str(bad) in err and where in err
        assert not (tmp_path / "o").exists()
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ
        assert blas_threads() == threads


def test_python_dash_m_runs_the_cli():
    src = Path(voxanon.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "voxanon", "--help"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "synthesize" in proc.stdout


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
        # Exactly what synthesize reads: an artifact nothing reads fails here.
        written = {path.name for path in (extracted / "features").iterdir()}
        assert written == {
            f"{utt}.{suffix}.npz"
            for utt in ("p01_001", "p01_002", "p02_001") for suffix in ("ppg", "f0")
        }

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
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rate", [8000, 15200, 22050, 48000])
    def test_other_sample_rate_exits_3(self, site, tmp_path, capsys, rate):
        # Below 15.2 kHz the top mel bands hold no FFT bin; above 20.48 kHz
        # a 25 ms frame outgrows the 512-point FFT. Between, the rate is
        # still not the one the networks were built for.
        wav = tmp_path / "p03_001.wav"
        write_wav(wav, Waveform(np.zeros(rate), rate))
        out = tmp_path / "o"
        rc = main(["extract", "--config", str(site / "run.ini"), "--out-dir", str(out), str(wav)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{wav}: sample rate is {rate} Hz, expected 16000 Hz" in err
        assert not out.exists()

    def test_repeated_utterance_id_names_both_files(self, site, tmp_path, capsys, monkeypatch):
        wavs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            wavs.append(tmp_path / name / "p01_001.wav")
            wavs[-1].write_bytes((site / "p01_001.wav").read_bytes())
        monkeypatch.setattr(voxanon.nnet, "load_weights",
                            lambda path: pytest.fail("weights loaded before the inputs were checked"))
        out = tmp_path / "o"
        rc = main(["extract", "--config", str(site / "run.ini"), "--out-dir", str(out), *map(str, wavs)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {wavs[0]} and {wavs[1]}: both hold utterance id 'p01_001'\n"
        )
        assert not out.exists()

    # The PPG network reads mel40 and writes the 1944-wide ppg stream. A file
    # whose config sized either loads no more, whatever the value; it fails as
    # a malformed manifest, not as the first utterance's input.
    def test_ppg_weights_naming_input_dim_exit_3_naming_weights(self, site, tmp_path, capsys):
        self._assert_deleted_field_refused(site, tmp_path, capsys, "input_dim", 24, {"hidden1.w": (8, 72)})

    @pytest.mark.parametrize("value, shapes", [
        (1944, {}), (5, {"softmax.w": (5, 8), "softmax.b": (5,)}),
    ], ids=["stream-width", "other-width"])
    def test_ppg_weights_naming_n_states_exit_3_naming_weights(self, site, tmp_path, capsys, value, shapes):
        self._assert_deleted_field_refused(site, tmp_path, capsys, "n_states", value, shapes)

    @staticmethod
    def _assert_deleted_field_refused(site, tmp_path, capsys, key, value, shapes):
        weights = tmp_path / "weights"
        weights.mkdir()
        (weights / "xvector.weights").symlink_to(site / "weights" / "xvector.weights")
        small = tmp_path / "small.weights"
        config = PpgConfig(context_frames=3, hidden_size=8, hidden_layers=1)
        save_weights(small, init_weights("ppg", config, seed=1))
        _name_deleted_field(small, weights / "ppg.weights", key, value, shapes)
        run = tmp_path / "run.ini"
        out = tmp_path / "o"
        run.write_text(f"[paths]\nweights = {weights}\nout_dir = {out}\n")
        rc = main(["extract", "--config", str(run), str(site / "p01_001.wav")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert f"{weights / 'ppg.weights'}: malformed manifest: " in err and repr(key) in err
        assert not out.exists()

    def test_other_components_weights_exit_3_naming_weights(self, site, tmp_path, capsys):
        # PPG weights in the x-vector's place are refused before any WAV is
        # read, so the error names the file, not every utterance.
        weights = tmp_path / "weights"
        weights.mkdir()
        for name in ("xvector.weights", "ppg.weights"):
            (weights / name).symlink_to(site / "weights" / "ppg.weights")
        run = tmp_path / "run.ini"
        out = tmp_path / "o"
        run.write_text(f"[paths]\nweights = {weights}\nout_dir = {out}\n")
        rc = main(["extract", "--config", str(run), str(site / "p01_001.wav")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {weights / 'xvector.weights'}: holds ppg weights, not xvector weights\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda m, e: m["config"].update(bogus=1), id="unknown-config-key"),
        pytest.param(lambda m, e: m.pop("config"), id="missing-config"),
        pytest.param(lambda m, e: m.pop("tensors"), id="missing-tensors"),
        pytest.param(lambda m, e: m["tensors"][0].pop(0), id="missing-name"),
        pytest.param(lambda m, e: m["tensors"][0].pop(1), id="missing-shape"),
        pytest.param(lambda m, e: m["tensors"][0].__setitem__(1, [-1]), id="negative-shape"),
        pytest.param(lambda m, e: m.update(format_version=1), id="version-1-manifest"),
        pytest.param(lambda m, e: m.update(component="vocoder"), id="unknown-component"),
        pytest.param(lambda m, e: m.update(component=["xvector"]), id="list-component"),
        pytest.param(lambda m, e: e.update(manifest=np.array("{")), id="manifest-not-json"),
        pytest.param(lambda m, e: e.update(manifest=np.array("[]")), id="manifest-not-object"),
        pytest.param(lambda m, e: e.pop("values"), id="missing-values"),
        pytest.param(lambda m, e: e.update(extra=np.zeros(1)), id="extra-entry"),
        pytest.param(lambda m, e: e.update(values=e["values"][:-1]), id="short-values"),
        pytest.param(lambda m, e: e.update(values=e["values"].reshape(2, -1)), id="2d-values"),
        pytest.param(lambda m, e: e.update(values=e["values"].astype(np.float64)),
                     id="float64-values"),
        pytest.param(lambda m, e: (m.update(format_version=2),
                                   e.update(values=e["values"].astype(np.float64))),
                     id="version-2-float64-file"),
        pytest.param(lambda m, e: e["values"].__setitem__(7, np.nan), id="nan-value"),
        pytest.param(lambda m, e: e.update(values=e["values"].astype(object)), id="object-values"),
    ])
    def test_bad_weight_manifest_exits_3(self, site, tmp_path, capsys, damage):
        with np.load(site / "weights" / "xvector.weights", allow_pickle=False) as archive:
            manifest, entries = json.loads(archive["manifest"].tolist()), {"values": archive["values"]}
        damage(manifest, entries)
        entries.setdefault("manifest", np.array(json.dumps(manifest)))
        weights = tmp_path / "weights"
        weights.mkdir()
        bad = weights / "xvector.weights"
        write_npz(bad, **entries)
        self._assert_extract_rejects(site, tmp_path, capsys, bad)

    def test_version_1_weight_file_exits_3(self, site, tmp_path, capsys):
        weights = tmp_path / "weights"
        weights.mkdir()
        bad = weights / "xvector.weights"
        bad.write_bytes(b'voxanon-weights 1\n{"component": "xvector"}\n' + bytes(80))
        self._assert_extract_rejects(site, tmp_path, capsys, bad)

    @staticmethod
    def _assert_extract_rejects(site, tmp_path, capsys, bad):
        config = tmp_path / "bad_weights.ini"
        config.write_text(f"[paths]\nweights = {bad.parent}\nout_dir = {tmp_path / 'o'}\n")
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

    @pytest.mark.parametrize("flags", [
        ["--strategy", "random"],
        ["--strategy", "nearest", "--sim", "0.5", "--eps", "0.1"],
        ["--strategy", "range", "--sim", "0.0", "--eps", "1.0"],
    ], ids=["random", "nearest", "range"])
    @pytest.mark.parametrize("shared", [False, True], ids=["each", "shared"])
    def test_provenance_records_only_what_shaped_the_selection(
        self, site, extracted, tmp_path, flags, shared
    ):
        # run.ini sets a master seed and m = 8 for every strategy.
        out = tmp_path / "o"
        rc = main([
            "anonymize", "--config", str(site / "run.ini"), *flags,
            "--inputs", str(extracted / "speaker_xvectors.jsonl"), "--out-dir", str(out),
            *(["--shared"] if shared else []),
        ])
        assert rc == 0
        records = [json.loads(line) for line in (out / "anonymize_provenance.jsonl").read_text().splitlines()]
        strategy = flags[1]
        for record in records:
            assert record["strategy"] == strategy
            if strategy == "random":
                assert isinstance(record["seed"], int) and record["algorithm"] is not None
            else:
                assert record["seed"] is None and record["algorithm"] is None
            assert (record["m"] is None) == (strategy == "range")
            assert (record["s"] is None) == (strategy != "range")
            assert (record["eps"] is None) == (strategy != "range")

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

    def test_shared_from_config_matches_flag(self, site, extracted, tmp_path):
        config = tmp_path / "shared.ini"
        config.write_text((site / "run.ini").read_text() + "shared = true\n")
        outs = []
        for name, args in (("flag", ["--config", str(site / "run.ini"), "--shared"]),
                           ("key", ["--config", str(config)])):
            outs.append(tmp_path / name)
            rc = main(["anonymize", *args, "--out-dir", str(outs[-1]),
                       "--inputs", str(extracted / "speaker_xvectors.jsonl")])
            assert rc == 0
        assert (outs[0] / "pseudo_xvectors.jsonl").read_bytes() == (
            outs[1] / "pseudo_xvectors.jsonl"
        ).read_bytes()

    def test_unreachable_range_exits_3_with_closest(self, site, extracted, tmp_path, capsys):
        rc = main([
            "anonymize", "--config", str(site / "run.ini"),
            "--inputs", str(extracted / "speaker_xvectors.jsonl"),
            "--strategy", "range", "--sim", "0.999", "--eps", "0.0001",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: anonymize.sim (--sim) = 0.999, anonymize.eps (--eps) = "
                              f"0.0001 with the pool {site / 'pool.jsonl'}: no pool candidates")
        assert "closest achievable similarity" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("strategy", ["random", "nearest"])
    def test_m_beyond_pool_names_key_and_pool(self, site, extracted, tmp_path, capsys, strategy):
        rc = main([
            "anonymize", "--config", str(site / "run.ini"),
            "--inputs", str(extracted / "speaker_xvectors.jsonl"),
            "--strategy", strategy, "--m", "41", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: anonymize.m (--m) = 41 with the pool {site / 'pool.jsonl'}: "
            f"n_select 41 exceeds pool size 40\n"
        )
        assert not (tmp_path / "o").exists()

    def test_cancelling_pool_mean_names_key_and_pool(self, tmp_path, capsys):
        # Both entries are sound, but their mean has no direction; the input
        # is fine. Past their first two components, all three are zeros.
        pool, inputs = tmp_path / "pool.jsonl", tmp_path / "in.jsonl"
        a, b, x = np.zeros((3, 512))
        a[:2], b[:2], x[:2] = [1.0, 1e-200], [-1.0, 1e-200], [1.0, 1.0]
        save_pool(pool, EmbeddingPool([SpeakerEmbedding("a", a), SpeakerEmbedding("b", b)]))
        save_pool(inputs, EmbeddingPool([SpeakerEmbedding("x", x)]))
        config = tmp_path / "c.ini"
        config.write_text("[paths]\npool = pool.jsonl\n")
        rc = main(["anonymize", "--config", str(config), "--inputs", str(inputs), "--seed", "1",
                   "--strategy", "random", "--m", "2", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: anonymize.m (--m) = 2 with the pool {pool}: "
            "mean embedding has zero norm (members cancel out)\n"
        )

    def test_pool_of_another_width_than_the_networks_exits_3(self, tmp_path, capsys):
        # The pool and the inputs agree with each other, but synthesize would
        # refuse the pseudo speakers they make.
        pool, inputs = tmp_path / "pool.jsonl", tmp_path / "in.jsonl"
        save_pool(pool, make_random_pool(20, 5, seed=4))
        save_pool(inputs, make_random_pool(1, 5, seed=5))
        config = tmp_path / "c.ini"
        config.write_text("[paths]\npool = pool.jsonl\n")
        rc = main(["anonymize", "--config", str(config), "--inputs", str(inputs), "--seed", "1",
                   "--strategy", "random", "--m", "4", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {pool}: speaker vectors are 5-dim, but the networks take 512-dim ones\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("magnitude, problem", [
        ("1e200", "vector norm overflows float64 (components too large)"),
        ("1e-200", "vector norm underflows to zero in float64 (components too small)"),
    ])
    def test_pool_entry_without_a_float64_norm_names_line(self, tmp_path, capsys, magnitude, problem):
        # Every component is finite and nonzero, but the norm the cosine
        # divides by is inf or 0: the entry would score 0 against every input,
        # or divide by zero.
        pool, inputs = tmp_path / "pool.jsonl", tmp_path / "in.jsonl"
        pool.write_text('{"dim": 2, "count": 2}\n{"id": "a", "vec": [1.0, -1.0]}\n'
                        f'{{"id": "b", "vec": [{magnitude}, {magnitude}]}}\n')
        save_pool(inputs, EmbeddingPool([SpeakerEmbedding("x", [1.0, 1.0])]))
        config = tmp_path / "c.ini"
        config.write_text("[paths]\npool = pool.jsonl\n")
        rc = main(["anonymize", "--config", str(config), "--inputs", str(inputs), "--seed", "1",
                   "--strategy", "nearest", "--m", "1", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {pool}, line 3: embedding 'b': {problem}\n"

    @pytest.mark.parametrize("strategy", ["random", "nearest", "range"])
    def test_dimension_mismatch_names_both_files(self, site, tmp_path, capsys, strategy):
        # The site's pool holds 512-dim embeddings.
        inputs = tmp_path / "inputs32.jsonl"
        save_pool(inputs, make_random_pool(4, 32, seed=5))
        rc = main([
            "anonymize", "--config", str(site / "run.ini"), "--inputs", str(inputs),
            "--strategy", strategy, "--sim", "0.0", "--eps", "1.0",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{inputs} holds 32-dim" in err
        assert f"{site / 'pool.jsonl'} 512-dim" in err

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

    def test_missing_pool_file_names_config(self, extracted, tmp_path, capsys):
        config = tmp_path / "pool.ini"
        config.write_text("[run]\nseed = 1\n[paths]\npool = missing.jsonl\n"
                          "[anonymize]\nstrategy = random\nm = 2\n")
        rc = main([
            "anonymize", "--config", str(config), "--out-dir", str(tmp_path / "o"),
            "--inputs", str(extracted / "speaker_xvectors.jsonl"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{config}: embedding pool not found at {tmp_path / 'missing.jsonl'}" in err

    def test_relative_pool_read_from_another_directory(self, site, extracted, tmp_path, monkeypatch):
        # A [paths] value is relative to its config file, not to the cwd.
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "pool.jsonl").write_bytes((site / "pool.jsonl").read_bytes())
        (conf / "run.ini").write_text("[run]\nseed = 77\n[paths]\npool = pool.jsonl\n"
                                      "[anonymize]\nstrategy = random\nm = 8\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        inputs = str(extracted / "speaker_xvectors.jsonl")
        assert main(["anonymize", "--config", "../conf/run.ini", "--inputs", inputs,
                     "--out-dir", "o"]) == 0
        assert main(["anonymize", "--config", str(site / "run.ini"), "--inputs", inputs,
                     "--out-dir", "absolute"]) == 0
        assert (elsewhere / "o" / "pseudo_xvectors.jsonl").read_bytes() == (
            elsewhere / "absolute" / "pseudo_xvectors.jsonl"
        ).read_bytes()


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

        ppg = load_features(extracted / "features" / "p01_001.ppg.npz", PPG)
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
        assert not (tmp_path / "o").exists()

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

    # The rate, the samples per frame, the kernel size, the sine amplitude
    # and the noise level are not config fields: a weight file naming any of
    # them is malformed, whatever the value.
    @pytest.mark.parametrize("key, value", [
        ("upsample_factor", 80.0),
        ("upsample_factor", 80),
        ("smooth_width", 81.0),
        ("sample_rate", 16000.5),
        ("sample_rate", 2**32),
        ("sample_rate", 0),
        ("sample_rate", 22050),
        ("sample_rate", 16000),
        ("noise_std", float("nan")),
        ("sine_amplitude", True),
        ("kernel_size", 3),
        ("sine_amplitude", 0.1),
        ("noise_std", 0.003),
    ])
    def test_bad_nsf_config_value_exits_3_naming_weights(self, long_site, tmp_path, capsys, key, value):
        weights = tmp_path / "weights"
        weights.mkdir()
        (weights / "acoustic.weights").symlink_to(long_site / "weights" / "acoustic.weights")
        with np.load(long_site / "weights" / "nsf.weights", allow_pickle=False) as archive:
            manifest, values = json.loads(archive["manifest"].tolist()), archive["values"]
        manifest["config"][key] = value
        write_npz(weights / "nsf.weights", manifest=np.array(json.dumps(manifest)), values=values)
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nseed = 5\n[paths]\nweights = {weights}\n")
        rc = main([
            "synthesize", "--config", str(config), "--features-dir", str(long_site / "features"),
            "--pseudo", str(long_site / "pseudo.jsonl"), "--utts", "p01_001",
            "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert str(weights / "nsf.weights") in err and key in err

    @pytest.mark.parametrize("target, source, config", [
        ("acoustic", "ppg", PpgConfig(context_frames=1, hidden_size=4, hidden_layers=1)),
        ("nsf", "xvector", XVectorConfig(n_train_speakers=2)),
    ], ids=["ppg-as-acoustic", "xvector-as-nsf"])
    def test_other_components_weights_exit_3_naming_weights(
        self, long_site, tmp_path, capsys, target, source, config
    ):
        weights = tmp_path / "weights"
        weights.mkdir()
        other = ({"acoustic", "nsf"} - {target}).pop()
        (weights / f"{other}.weights").symlink_to(long_site / "weights" / f"{other}.weights")
        save_weights(weights / f"{target}.weights", init_weights(source, config, seed=1))
        run = tmp_path / "run.ini"
        run.write_text(f"[run]\nseed = 5\n[paths]\nweights = {weights}\n")
        rc = main([
            "synthesize", "--config", str(run), "--features-dir", str(long_site / "features"),
            "--pseudo", str(long_site / "pseudo.jsonl"), "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {weights / f'{target}.weights'}: "
            f"holds {source} weights, not {target} weights\n"
        )
        assert not (tmp_path / "o").exists()

    # Each network reads and writes streams of fixed widths. A file whose
    # config sized one loads no more, whatever the value; it fails as a
    # malformed manifest, not as the utterance's PPG file.
    def test_nsf_weights_naming_mel_dim_exit_3_naming_weights(self, long_site, tmp_path, capsys):
        self._assert_deleted_field_refused(long_site, tmp_path, capsys, "nsf", "mel_dim", 40,
                                           {"cond.proj.w": (8, 40 + 512)})

    @pytest.mark.parametrize("component, key, value, shapes", [
        ("acoustic", "content_dim", 1944, {}),
        ("acoustic", "content_dim", 12, {"ff1.w": (16, 12 + 2 + 512)}),
        ("acoustic", "xvec_dim", 512, {}),
        ("acoustic", "xvec_dim", 6, {"ff1.w": (16, 1944 + 2 + 6)}),
        ("nsf", "xvec_dim", 512, {}),
        ("nsf", "xvec_dim", 6, {"cond.proj.w": (8, 80 + 6)}),
    ], ids=["acoustic-content_dim-stream-width", "acoustic-content_dim-other-width",
            "acoustic-xvec_dim-stream-width", "acoustic-xvec_dim-other-width",
            "nsf-xvec_dim-stream-width", "nsf-xvec_dim-other-width"])
    def test_weights_naming_a_stream_width_exit_3_naming_weights(
        self, long_site, tmp_path, capsys, component, key, value, shapes
    ):
        self._assert_deleted_field_refused(long_site, tmp_path, capsys, component, key, value, shapes)

    @staticmethod
    def _assert_deleted_field_refused(long_site, tmp_path, capsys, component, key, value, shapes):
        weights = tmp_path / "weights"
        weights.mkdir()
        other = ({"acoustic", "nsf"} - {component}).pop()
        (weights / f"{other}.weights").symlink_to(long_site / "weights" / f"{other}.weights")
        _name_deleted_field(long_site / "weights" / f"{component}.weights",
                            weights / f"{component}.weights", key, value, shapes)
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nseed = 5\n[paths]\nweights = {weights}\n")
        rc = main([
            "synthesize", "--config", str(config), "--features-dir", str(long_site / "features"),
            "--pseudo", str(long_site / "pseudo.jsonl"), "--utts", "p01_001",
            "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert f"{weights / f'{component}.weights'}: malformed manifest: " in err and repr(key) in err
        assert not (tmp_path / "o").exists()

    def test_feature_files_on_another_clock_exit_3_naming_file(self, long_site, tmp_path, capsys):
        # 50 PPG frames of 20 ms and 100 F0 frames of 10 ms: 1.0 s of speech
        # that a 5 ms synthesis clock would render as 0.5 s. The F0 file is
        # refused first; on the 5 ms clock it is sound, and the PPG file is
        # refused on read.
        features = tmp_path / "features"
        features.mkdir()
        ppg = np.random.default_rng(2).dirichlet(np.ones(1944), size=50)
        for f0_hop, bad, message in ((0.010, "p01_001.f0.npz", "hop 0.01 is not the f0 hop, 0.005"),
                                     (0.005, "p01_001.ppg.npz", "hop 0.02 is not the ppg hop, 0.01")):
            for name, kind, hop, values in (("p01_001.ppg.npz", "ppg", 0.020, ppg),
                                            ("p01_001.f0.npz", "f0", f0_hop, np.full(100, 150.0))):
                with (features / name).open("wb") as fh:
                    np.savez(fh, kind=np.array(kind), hop=np.array(hop), values=values)
            rc = main([
                "synthesize", "--config", str(long_site / "run.ini"), "--features-dir", str(features),
                "--pseudo", str(long_site / "pseudo.jsonl"), "--utts", "p01_001",
                "--out-dir", str(tmp_path / "o"),
            ])
            err = capsys.readouterr().err
            assert rc == 3, err
            assert f"{features / bad}: {message}" in err
            assert not (tmp_path / "o").exists()

    def test_unset_weights_names_config(self, extracted, pseudo, tmp_path, capsys):
        config = tmp_path / "noweights.ini"
        config.write_text("[run]\nseed = 1\n")
        rc = main([
            "synthesize", "--config", str(config), "--features-dir", str(extracted / "features"),
            "--pseudo", str(pseudo), "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert f"{config}: paths.weights is not set" in capsys.readouterr().err

    def test_pseudo_width_mismatch_names_pool_and_widths(self, long_site, tmp_path, capsys, monkeypatch):
        # Every network takes 512-dim speaker vectors; the pool is checked
        # before any F0 or weight file is read.
        monkeypatch.setattr(voxanon.nnet, "load_weights",
                            lambda path: pytest.fail("weights loaded before the pool was checked"))
        monkeypatch.setattr(cli, "load_f0", lambda path: pytest.fail("F0 loaded before the pool was checked"))
        pool = tmp_path / "pseudo5.jsonl"
        save_pool(pool, EmbeddingPool(
            [SpeakerEmbedding(spk, np.ones(5)) for spk in ("p01", "p02")]
        ))
        out = tmp_path / "o"
        rc = main([
            "synthesize", "--config", str(long_site / "run.ini"),
            "--features-dir", str(long_site / "features"), "--pseudo", str(pool),
            "--out-dir", str(out),
        ])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {pool}: speaker vectors are 5-dim, but the networks take 512-dim ones\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("utts, problem", [
        ("p01_001,p02_001,p01_001", "'p01_001' is repeated"),
        ("p01_001,,p02_001", "'' is empty"),
        ("../features/p01_001", "'../features/p01_001' holds a path separator"),
        ("p01_001,", "'' is empty"),
        ("p01_001,/p01_001", "'/p01_001' holds a path separator"),
        ("p01_001,,p01_001", "'' is empty"),
        ("", "'' is empty"),
    ], ids=["repeated", "empty", "path-separator", "trailing-comma", "absolute",
            "first-problem-named", "empty-list"])
    def test_bad_utts_id_exits_3(self, long_site, tmp_path, capsys, monkeypatch, utts, problem):
        # Each id names the files features/{utt}.* and wav/{utt}.wav.
        monkeypatch.setattr(voxanon.nnet, "load_weights",
                            lambda path: pytest.fail("weights loaded before --utts was checked"))
        out = tmp_path / "o"
        rc = main([
            "synthesize", "--config", str(long_site / "run.ini"),
            "--features-dir", str(long_site / "features"),
            "--pseudo", str(long_site / "pseudo.jsonl"), "--utts", utts, "--out-dir", str(out),
        ])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: --utts: utterance id {problem}\n"
        assert not out.exists()

    def test_empty_features_dir_exits_3(self, long_site, tmp_path, capsys, monkeypatch):
        # An empty value would otherwise name the current directory.
        monkeypatch.setattr(voxanon.nnet, "load_weights",
                            lambda path: pytest.fail("weights loaded before --features-dir was checked"))
        out = tmp_path / "o"
        rc = main([
            "synthesize", "--config", str(long_site / "run.ini"), "--features-dir", "",
            "--pseudo", str(long_site / "pseudo.jsonl"), "--out-dir", str(out),
        ])
        assert rc == 3
        assert capsys.readouterr().err == "data error: --features-dir is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("utts, entries, same_as", [
        ("p01_001", (("p01_001", 0), ("p01", 1)), (("p01_001", 0),)),
        ("p01_001,p01_002,p02_001", (("other", 0),), (("p01", 0), ("p02", 0))),
        ("p01_001,p02_001", (("p03", 0), ("p04_001", 1)), None),
    ], ids=["utterance-beats-speaker", "one-entry-pool-serves-all", "no-entry-exits-3"])
    def test_pseudo_speaker_lookup(self, long_site, tmp_path, capsys, utts, entries, same_as):
        # An utterance takes its own entry, else its speaker's, else the
        # only entry of a one-entry pool; (id, row) pairs pick the vectors.
        vectors = np.random.default_rng(2).standard_normal((2, 512))

        def run(name, entries):
            pool = tmp_path / f"{name}.jsonl"
            save_pool(pool, EmbeddingPool([SpeakerEmbedding(i, vectors[row]) for i, row in entries]))
            return main([
                "synthesize", "--config", str(long_site / "run.ini"),
                "--features-dir", str(long_site / "features"), "--pseudo", str(pool),
                "--utts", utts, "--out-dir", str(tmp_path / name), "--jobs", "1",
            ])

        if same_as is None:
            assert run("lookup", entries) == 3
            err = capsys.readouterr().err
            assert "no pseudo embedding for utterance 'p01_001'" in err
            assert "(looked for ids 'p01_001' and 'p01')" in err
            assert not (tmp_path / "lookup").exists()
            return
        assert run("lookup", entries) == 0
        assert run("expected", same_as) == 0
        for utt in utts.split(","):
            assert (tmp_path / "lookup" / "wav" / f"{utt}.wav").read_bytes() == (
                tmp_path / "expected" / "wav" / f"{utt}.wav"
            ).read_bytes()


class TestSynthesizeWorkers:
    """synthesize runs utterances in workers forked from the loaded parent
    once the audio pays for their start; the output bytes are those of the
    in-process run."""

    UTTS = ("p01_001", "p01_002", "p02_001")

    def run(self, long_site, out: Path, *extra: str) -> int:
        return main([
            "synthesize", "--config", str(long_site / "run.ini"),
            "--features-dir", str(long_site / "features"),
            "--pseudo", str(long_site / "pseudo.jsonl"), "--out-dir", str(out), *extra,
        ])

    def assert_same_bytes(self, tmp_path, a: str, b: str) -> None:
        for utt in self.UTTS:
            assert (tmp_path / a / "wav" / f"{utt}.wav").read_bytes() == (
                tmp_path / b / "wav" / f"{utt}.wav"
            ).read_bytes()

    def test_workers_write_the_in_process_bytes(self, long_site, tmp_path, monkeypatch, nsf_calls):
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)  # default jobs = auto: two workers
        environ, threads = dict(os.environ), blas_threads()
        assert self.run(long_site, tmp_path / "pooled") == 0
        assert nsf_calls == []
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ
        assert blas_threads() == threads

        assert self.run(long_site, tmp_path / "serial", "--jobs", "1") == 0
        assert nsf_calls == [400, 400, 400]
        self.assert_same_bytes(tmp_path, "pooled", "serial")
        for utt in self.UTTS:
            assert len(read_wav(tmp_path / "pooled" / "wav" / f"{utt}.wav")) == 400 * 80

    def test_each_worker_runs_one_blas_thread(self, long_site, tmp_path, monkeypatch):
        if cli._openblas_threads() is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        original = voxanon.nnet.nsf_forward

        def checked(*args, **kwargs):  # forked workers inherit this patch
            if blas_threads() != 1:
                raise DataError(f"worker runs {blas_threads()} BLAS threads")
            return original(*args, **kwargs)

        monkeypatch.setattr(voxanon.nnet, "nsf_forward", checked)
        assert self.run(long_site, tmp_path / "pooled", "--jobs", "2") == 0

    def test_no_thread_control_runs_in_process(self, long_site, tmp_path, monkeypatch, nsf_calls):
        assert self.run(long_site, tmp_path / "pooled", "--jobs", "2") == 0
        assert nsf_calls == []
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        assert self.run(long_site, tmp_path / "unpooled", "--jobs", "2") == 0
        assert nsf_calls == [400, 400, 400]
        assert multiprocessing.active_children() == []
        self.assert_same_bytes(tmp_path, "unpooled", "pooled")

    def test_short_inputs_stay_in_process(self, site, extracted, pseudo, long_site, tmp_path, nsf_calls):
        # One utterance, however long, or 0.54 s of audio in all: no worker.
        assert self.run(long_site, tmp_path / "one", "--utts", "p01_001", "--jobs", "2") == 0
        assert main([
            "synthesize", "--config", str(site / "run.ini"),
            "--features-dir", str(extracted / "features"), "--pseudo", str(pseudo),
            "--out-dir", str(tmp_path / "short"), "--jobs", "2",
        ]) == 0
        assert len(nsf_calls) == 4

    def truncate_ppgs(self, long_site, tmp_path, utts) -> tuple[Path, list[Path]]:
        """A copy of the long site's features whose PPGs of ``utts`` are cut
        in half, and those PPG files."""
        features = tmp_path / "features"
        features.mkdir()
        for source in (long_site / "features").iterdir():
            (features / source.name).symlink_to(source)
        bad = [features / f"{utt}.ppg.npz" for utt in utts]
        for path in bad:
            raw = path.read_bytes()
            path.unlink()
            path.write_bytes(raw[: len(raw) // 2])
        return features, bad

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["in-process", "pooled"])
    def test_first_failure_in_utts_order_is_named(self, long_site, tmp_path, capsys, nsf_calls, jobs):
        # p02_001 comes before p01_002 in --utts, after it in sorted order.
        features, bad = self.truncate_ppgs(long_site, tmp_path, ("p02_001", "p01_002"))
        rc = self.run(long_site, tmp_path / "o", "--features-dir", str(features),
                      "--utts", "p01_001,p02_001,p01_002", "--jobs", jobs)
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith(f"data error: {bad[0]}: ") and str(bad[1]) not in err
        assert nsf_calls == ([400] if jobs == "1" else [])
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["in-process", "pooled"])
    def test_a_late_failure_first_in_order_is_named(self, long_site, tmp_path, capsys, monkeypatch, jobs):
        # p01_001 fails in the vocoder, after p02_001's truncated PPG has
        # failed in the other worker.
        features, _ = self.truncate_ppgs(long_site, tmp_path, ("p02_001",))

        def late(*args, **kwargs):  # forked workers inherit this patch
            time.sleep(0.2)
            raise ValueError("late failure")

        monkeypatch.setattr(voxanon.nnet, "nsf_forward", late)
        rc = self.run(long_site, tmp_path / "o", "--features-dir", str(features),
                      "--utts", "p01_001,p02_001", "--jobs", jobs)
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {features / 'p01_001.ppg.npz'}: late failure\n"

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["in-process", "pooled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
    def test_weights_are_released_when_synthesize_returns(self, long_site, tmp_path, nsf_calls, jobs, fails):
        # A traced benchmark pass runs every command in one process, where
        # weights left behind would stay in memory across commands.
        features, _ = self.truncate_ppgs(long_site, tmp_path, ("p02_001",) if fails else ())
        rc = self.run(long_site, tmp_path / "o", "--features-dir", str(features), "--jobs", jobs)
        assert rc == (3 if fails else 0)
        assert (nsf_calls == []) == (jobs == "2")
        assert cli._synthesis_weights == ()

    def test_python_dash_m_synthesize_forks_workers(self, long_site, tmp_path):
        # The workers are forked from the command's process, so they import
        # nothing and re-run no main module. The timeout turns a deadlock
        # at fork into a failure.
        src = Path(voxanon.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "voxanon", "synthesize", "--config", str(long_site / "run.ini"),
             "--features-dir", str(long_site / "features"),
             "--pseudo", str(long_site / "pseudo.jsonl"),
             "--out-dir", str(tmp_path / "pooled"), "--jobs", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert self.run(long_site, tmp_path / "serial", "--jobs", "1") == 0
        self.assert_same_bytes(tmp_path, "pooled", "serial")


class TestChain:
    """extract -> anonymize -> synthesize -> extract -> evaluate on the site's
    three WAVs, scoring every original enrollment against every
    resynthesized test utterance."""

    UTTS = ("p01_001", "p01_002", "p02_001")
    SPEAKERS = ("p01", "p02")

    @pytest.fixture(scope="class")
    def config(self, site, tmp_path_factory) -> Path:
        """The site's config with its x-vector and PPG weights, and the small
        acoustic and NSF weights of acceptance criterion 8."""
        root = tmp_path_factory.mktemp("chain")
        weights = root / "weights"
        weights.mkdir()
        for component in ("xvector", "ppg"):
            (weights / f"{component}.weights").symlink_to(site / "weights" / f"{component}.weights")
        for component, small in (("acoustic", AcousticConfig(ff_size=64, blstm_size=32, ar_size=64)),
                                 ("nsf", NsfConfig(channels=16, blocks=2))):
            save_weights(weights / f"{component}.weights", init_weights(component, small, seed=51))
        config = root / "run.ini"
        config.write_text((site / "run.ini").read_text().replace(str(site / "weights"), str(weights)))
        return config

    def chain(self, site, config: Path, out: Path, *synth_flags: str) -> dict:
        """Run the chain into an emptied ``out`` and return every file it
        wrote, by path. The evaluate report echoes ``out``, so a rerun
        writes to the same directory."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        trials = out / "trials.txt"
        trials.write_text("".join(
            f"{spk} {utt} {'tar' if speaker_of(utt) == spk else 'non'}\n"
            for spk in self.SPEAKERS for utt in self.UTTS
        ))
        steps = [
            ["extract", *(str(site / f"{utt}.wav") for utt in self.UTTS), "--out-dir", str(out / "orig")],
            ["anonymize", "--inputs", str(out / "orig" / "speaker_xvectors.jsonl"),
             "--out-dir", str(out / "anon")],
            ["synthesize", "--features-dir", str(out / "orig" / "features"),
             "--pseudo", str(out / "anon" / "pseudo_xvectors.jsonl"), "--out-dir", str(out / "anon"),
             *synth_flags],
            ["extract", *(str(out / "anon" / "wav" / f"{utt}.wav") for utt in self.UTTS),
             "--out-dir", str(out / "resynth")],
            ["evaluate", "--enroll", str(out / "orig" / "speaker_xvectors.jsonl"),
             "--test", str(out / "resynth" / "utterance_xvectors.jsonl"), "--trials", str(trials),
             "--out-dir", str(out / "eval")],
        ]
        for step in steps:
            assert main([*step, "--config", str(config)]) == 0, step[0]
        return {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}

    def assert_ids_match(self, out: Path) -> None:
        for stage in ("orig", "resynth"):
            assert load_pool(out / stage / "utterance_xvectors.jsonl").ids == self.UTTS
            assert load_pool(out / stage / "speaker_xvectors.jsonl").ids == self.SPEAKERS
        assert load_pool(out / "anon" / "pseudo_xvectors.jsonl").ids == self.SPEAKERS
        assert sorted(p.stem for p in (out / "anon" / "wav").iterdir()) == list(self.UTTS)
        lines = (out / "eval" / "evaluation_report.jsonl").read_text().splitlines()
        eer = [json.loads(line) for line in lines if '"kind": "eer"' in line]
        assert [(r["partition"], r["n_target"], r["n_nontarget"]) for r in eer] == [("pooled", 3, 3)]

    def test_reruns_and_pool_write_the_same_bytes(self, site, config, tmp_path, monkeypatch, nsf_calls):
        serial = self.chain(site, config, tmp_path / "serial", "--jobs", "1")
        self.assert_ids_match(tmp_path / "serial")
        assert self.chain(site, config, tmp_path / "serial", "--jobs", "1") == serial
        assert len(nsf_calls) == 6

        # 0.54 s of audio in all: two workers at 0.1 s each and two CPUs.
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_SECONDS_PER_WORKER", 0.1)
        pooled = self.chain(site, config, tmp_path / "pooled")
        self.assert_ids_match(tmp_path / "pooled")
        assert self.chain(site, config, tmp_path / "pooled") == pooled
        assert len(nsf_calls) == 6, "a pooled synthesize ran in this process"
        assert multiprocessing.active_children() == []
        wavs = [Path("anon", "wav", f"{utt}.wav") for utt in self.UTTS]
        assert [pooled[wav] for wav in wavs] == [serial[wav] for wav in wavs]


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

    def test_wordless_hypothesis_counts_as_deletions(self, site, extracted, tmp_path):
        # A hypothesis line with an id and no words is an empty recognition.
        trials = tmp_path / "trials.txt"
        trials.write_text("p01 p01_001 tar\np01 p02_001 non\n")
        refs, hyps = tmp_path / "ref.trn", tmp_path / "hyp.trn"
        refs.write_text("p01_001 the quick fox\np01_002 a b\n")
        hyps.write_text("p01_001 the quick fox\np01_002\n")
        out = tmp_path / "report"
        rc = main([
            "evaluate", "--config", str(site / "run.ini"),
            "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(extracted / "utterance_xvectors.jsonl"),
            "--trials", str(trials), "--ref-trn", str(refs), "--hyp-trn", str(hyps),
            "--out-dir", str(out),
        ])
        assert rc == 0
        records = [json.loads(line) for line in (out / "evaluation_report.jsonl").read_text().splitlines()]
        wer_record = next(r for r in records if r.get("kind") == "wer")
        assert (wer_record["substitutions"], wer_record["deletions"], wer_record["insertions"],
                wer_record["n_ref_words"]) == (0, 2, 0, 5)
        assert wer_record["rate"] == 2 / 5


    @pytest.mark.parametrize("flag", ["--ref-trn", "--hyp-trn"])
    def test_one_transcript_flag_exits_2_before_scoring(
        self, site, extracted, tmp_path, capsys, flag
    ):
        # The trial list names an unknown id, so scoring would fail with 3.
        trials = tmp_path / "trials.txt"
        trials.write_text("p01 p01_001 tar\np09 p02_001 non\n")
        transcripts = tmp_path / "x.trn"
        transcripts.write_text("p01_001 a b\n")
        out = tmp_path / "report"
        rc = main([
            "evaluate", "--config", str(site / "run.ini"),
            "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(extracted / "utterance_xvectors.jsonl"),
            "--trials", str(trials), flag, str(transcripts), "--out-dir", str(out),
        ])
        assert rc == 2
        assert "supply both --ref-trn and --hyp-trn" in capsys.readouterr().err
        assert not (out / "evaluation_report.txt").exists()
        assert not (out / "evaluation_report.jsonl").exists()

    def test_k_beyond_non_targets_names_key_and_test_pool(self, extracted, tmp_path, capsys):
        config = tmp_path / "k.ini"
        config.write_text("[evaluate]\nk = 5\n")
        test_pool = extracted / "utterance_xvectors.jsonl"
        trials = tmp_path / "trials.txt"
        trials.write_text("p01 p01_001 tar\np01 p02_001 non\n")
        rc = main([
            "evaluate", "--config", str(config), "--enroll", str(extracted / "speaker_xvectors.jsonl"),
            "--test", str(test_pool), "--trials", str(trials), "--out-dir", str(tmp_path / "report"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "evaluate.k = 5" in err and str(test_pool) in err
        assert "k 5 exceeds available non-targets (1)" in err

    def test_dimension_mismatch_names_both_pools(self, tmp_path, capsys):
        pools = {}
        for side, dim in (("enroll", 4), ("test", 5)):
            pools[side] = tmp_path / f"{side}.jsonl"
            save_pool(pools[side], EmbeddingPool([
                SpeakerEmbedding(name, np.arange(1.0, dim + 1) * (i + 1))
                for i, name in enumerate(("p01", "p02") if side == "enroll" else ("p01_001", "p02_001"))
            ]))
        trials = tmp_path / "trials.txt"
        trials.write_text("p01 p01_001 tar\np01 p02_001 non\n")
        rc = main([
            "evaluate", "--enroll", str(pools["enroll"]), "--test", str(pools["test"]),
            "--trials", str(trials), "--out-dir", str(tmp_path / "report"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(pools["enroll"]) in err and str(pools["test"]) in err
        assert "4-dim" in err and "5-dim" in err


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
