import json
import multiprocessing
import os
import subprocess
import sys
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
from voxanon.errors import ConfigError, write_npz
from voxanon.features import F0Contour, FeatureMatrix, save_f0, save_features
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
        ppg = rng.dirichlet(np.ones(12), size=200)
        save_features(features / f"{utt}.ppg.npz", FeatureMatrix(ppg, hop=0.01, kind="ppg"))
        f0 = np.where(np.arange(400) % 100 < 70, f0_hz, 0.0)  # voiced and unvoiced runs
        save_f0(features / f"{utt}.f0.npz", F0Contour(f0, hop=0.005))
    components = [
        ("acoustic", AcousticConfig(content_dim=12, xvec_dim=6, ff_size=16, blstm_size=8, ar_size=16)),
        ("nsf", NsfConfig(xvec_dim=6, channels=8, blocks=2, layers_per_block=4)),
    ]
    for component, config in components:
        save_weights(weights / f"{component}.weights", init_weights(component, config, seed=7))
    save_pool(root / "pseudo.jsonl", EmbeddingPool(
        [SpeakerEmbedding(spk, rng.standard_normal(6)) for spk in ("p01", "p02")]
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
        assert (config.seed, config.anonymize.n_select) == (3, 5)


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
        ("evaluate", "[evaluate]\nk = 0\n", "evaluate.k"),
        ("synthesize --pseudo p.jsonl", "[run]\njobs = 0\n", "run.jobs"),
        ("evaluate", "[simulate]\nstrategies = random, range\n", "simulate.s_grid"),
        ("anonymize --strategy random --m 0 --seed 1", "", "anonymize.m (--m) = 0"),
        ("anonymize --strategy nearest", "", "anonymize.m (--m) = None"),
        ("anonymize", "[anonymize]\nstrategy = nearest\nm = -2\n", "anonymize.m"),
        ("anonymize --strategy range --sim 2.0 --eps 0.05", "", "anonymize.sim (--sim) = 2.0"),
        ("anonymize --strategy range --sim 0.5 --eps 0", "", "anonymize.eps (--eps) = 0.0"),
        ("anonymize", "[anonymize]\nstrategy = range\nsim = 0.5\n", "anonymize.eps (--eps) = None"),
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

    @pytest.mark.parametrize("text, key", [
        ("f0_threshold = nan", "features.f0_threshold"),
        ("f0_threshold = -3", "features.f0_threshold"),
        ("f0_threshold = inf", "features.f0_threshold"),
        ("sample_rate = 0", "features.sample_rate"),
        ("sample_rate = 4000", "features.sample_rate"),
    ])
    def test_bad_front_end_value_exits_2(self, site, tmp_path, capsys, text, key):
        path = tmp_path / "front.ini"
        path.write_text(f"[paths]\nweights = {site / 'weights'}\n[features]\n{text}\n")
        args = ["extract", "--config", str(path), "--out-dir", str(tmp_path / "o"),
                str(site / "p01_001.wav")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert key in err and str(path) in err

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
               "nsf": weights / "nsf.weights", "acoustic": weights / "acoustic.weights",
               "pseudo": pool}[slot]
        raw = bad.read_bytes()
        bad.unlink()
        if slot == "pseudo":
            bad.write_text('{"dim": 512, "count": 1}\n{"id": "p01", "vec": [1.0, 2.0]}\n')
        else:
            bad.write_bytes(raw[: len(raw) // 2])
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nseed = 77\n[paths]\nweights = {weights}\n")
        environ = dict(os.environ)
        rc = main([
            "synthesize", "--config", str(config), "--features-dir", str(features),
            "--pseudo", str(pool), "--utts", ",".join(utts), "--jobs", "2",
            "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert str(bad) in err and where in err
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ


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


class TestSynthesizeWorkers:
    """synthesize runs utterances in spawned workers once the audio pays for
    their start; the output bytes are those of the in-process run."""

    UTTS = ("p01_001", "p01_002", "p02_001")

    def run(self, long_site, out: Path, *extra: str) -> int:
        return main([
            "synthesize", "--config", str(long_site / "run.ini"),
            "--features-dir", str(long_site / "features"),
            "--pseudo", str(long_site / "pseudo.jsonl"), "--out-dir", str(out), *extra,
        ])

    def test_workers_write_the_in_process_bytes(self, long_site, tmp_path, monkeypatch, nsf_calls):
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)  # default jobs = auto: two workers
        environ = dict(os.environ)
        assert self.run(long_site, tmp_path / "pooled") == 0
        assert nsf_calls == []
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ

        assert self.run(long_site, tmp_path / "serial", "--jobs", "1") == 0
        assert nsf_calls == [400, 400, 400]
        for utt in self.UTTS:
            pooled = (tmp_path / "pooled" / "wav" / f"{utt}.wav").read_bytes()
            assert pooled == (tmp_path / "serial" / "wav" / f"{utt}.wav").read_bytes()
            assert len(read_wav(tmp_path / "pooled" / "wav" / f"{utt}.wav")) == 400 * 80

    def test_short_inputs_stay_in_process(self, site, extracted, pseudo, long_site, tmp_path, nsf_calls):
        # One utterance, however long, or 0.6 s of audio in all: no worker.
        assert self.run(long_site, tmp_path / "one", "--utts", "p01_001", "--jobs", "2") == 0
        assert main([
            "synthesize", "--config", str(site / "run.ini"),
            "--features-dir", str(extracted / "features"), "--pseudo", str(pseudo),
            "--out-dir", str(tmp_path / "short"), "--jobs", "2",
        ]) == 0
        assert len(nsf_calls) == 4

    def test_python_dash_m_synthesize_spawns_workers(self, long_site, tmp_path):
        # Spawned workers re-import the main module, here voxanon.__main__.
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
        for utt in self.UTTS:
            assert (tmp_path / "pooled" / "wav" / f"{utt}.wav").read_bytes() == (
                tmp_path / "serial" / "wav" / f"{utt}.wav"
            ).read_bytes()


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
