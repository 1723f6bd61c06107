"""load_config: fuzzed input, echo round trips and the accepted keys."""

import argparse
from dataclasses import fields
from pathlib import Path
from typing import Annotated, get_args, get_origin

import pytest

from voxanon import cli
from voxanon.config import _SCHEMA, MAX_CLUSTER_STD, RunConfig, load_config
from voxanon.errors import ConfigError

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Every key the reader accepted before the schema was built from the
# dataclass fields, with a text and the value it parsed to then. A
# [paths] value is now joined to the directory of the file that sets it.
ACCEPTED = [
    ("run", "seed", "42", 42),
    ("run", "jobs", "3", 3),
    ("run", "jobs", "Auto", None),
    ("paths", "pool", "pools/p.jsonl", "pools/p.jsonl"),
    ("paths", "weights", "w", "w"),
    ("paths", "out_dir", "o u t", "o u t"),
    ("anonymize", "strategy", "none", "none"),
    ("anonymize", "m", "12", 12),
    ("anonymize", "sim", "0.75", 0.75),
    ("anonymize", "eps", "1e-2", 0.01),
    ("anonymize", "shared", "yes", True),
    ("evaluate", "k", "ALL", None),
    ("evaluate", "k", "7", 7),
    ("evaluate", "gender_partition", "off", False),
    ("simulate", "n_speakers", "9", 9),
    ("simulate", "utterances_per_speaker", "4", 4),
    ("simulate", "dim", "16", 16),
    ("simulate", "cluster_std", "0.25", 0.25),
    ("simulate", "pool_size", "200", 200),
    ("simulate", "strategies", "nearest, random,", ("nearest", "random")),
    ("simulate", "m_grid", "2,4 , 8", (2, 4, 8)),
    ("simulate", "s_grid", "0.5,0.9", (0.5, 0.9)),
    ("simulate", "s_grid", "", ()),
    ("simulate", "eps", "0.1", 0.1),
    ("simulate", "k_grid", "all, 3", (None, 3)),
    ("simulate", "repetitions", "2", 2),
    ("simulate", "include_baseline", "0", False),
]

# Keys once parsed and since removed, with their former defaults. The
# extract front end takes no setting, so [features] and [models] are
# unknown sections.
DEAD_KEYS = [
    ("features", "mel_low_hz", "20"),
    ("features", "mel_high_hz", "7600"),
    ("features", "sample_rate", "16000"),
    ("features", "f0_threshold", "0.45"),
    ("models", "xvec_dim", "512"),
    ("models", "stats_pooling", "std"),
    ("models", "n_train_speakers", "200"),
    ("models", "ppg_tap", "softmax"),
]


def _load_text(tmp_path, text, name="c.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def _ini_value(value) -> str:
    """An echo() value written back as INI text."""
    if isinstance(value, list):
        return ", ".join(_ini_value(item) for item in value)
    if value is None:
        return "all"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _to_ini(config: RunConfig) -> str:
    echo = config.echo()
    sections: dict[str, list[str]] = {}
    for key, kind in _SCHEMA.items():
        value = echo[key]
        if value is None and get_origin(kind) is not Annotated:
            continue  # an unset optional has no INI spelling
        # None of an Annotated key is spelled by its annotation: all, auto.
        text = get_args(kind)[1] if value is None else _ini_value(value)
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"{name} = {text}")
    return "".join(
        f"[{section}]\n" + "".join(line + "\n" for line in lines)
        for section, lines in sections.items()
    )


class TestAcceptedKeys:
    @pytest.mark.parametrize("section, key, text, expected", ACCEPTED,
                             ids=[f"{s}.{k}={t}" for s, k, t, _ in ACCEPTED])
    def test_parses_as_before(self, tmp_path, section, key, text, expected):
        config = _load_text(tmp_path, f"[{section}]\n{key} = {text}\n")
        if section == "paths":
            expected = str(tmp_path / expected)
        value = getattr(getattr(config, section), key)
        assert value == expected and type(value) is type(expected)
        assert config.echo()[f"{section}.{key}"] == (
            list(expected) if isinstance(expected, tuple) else expected
        )

    def test_strategy_parses_with_the_key_it_reads(self, tmp_path):
        # A strategy alone is an incomplete spec; nearest also reads m.
        config = _load_text(tmp_path, "[anonymize]\nstrategy = nearest\nm = 12\n")
        assert (config.anonymize.strategy, config.anonymize.m) == ("nearest", 12)

    def test_every_table_key_is_covered(self):
        assert {f"{s}.{k}" for s, k, *_ in ACCEPTED} == set(_SCHEMA)

    @pytest.mark.parametrize("section, key, text", DEAD_KEYS)
    def test_dead_key_rejected(self, tmp_path, section, key, text):
        with pytest.raises(ConfigError) as caught:
            _load_text(tmp_path, f"[{section}]\n{key} = {text}\n")
        assert str(caught.value) == f"{tmp_path / 'c.ini'}: unknown section [{section}]"

    @pytest.mark.parametrize("section, key, text", [
        ("features", "sample_rate", "16000"),
        ("models", "ppg_tap", "softmax"),
    ])
    def test_removed_section_refused_among_known_ones(self, tmp_path, section, key, text):
        text = f"[run]\nseed = 1\n[{section}]\n{key} = {text}\n[simulate]\nn_speakers = 4\n"
        with pytest.raises(ConfigError) as caught:
            _load_text(tmp_path, text)
        assert str(caught.value) == f"{tmp_path / 'c.ini'}: unknown section [{section}]"


class TestOneNamePerSetting:
    """A setting has one name: its INI key is its flag's dest, its field
    path and its echo key."""

    def test_every_override_flag_sets_a_key(self):
        parser = cli._build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {
            action.dest
            for command in commands.choices.values()
            for action in command._actions
            if "." in action.dest
        }
        assert dests == {"run.seed", "run.jobs", "paths.out_dir", "anonymize.strategy",
                         "anonymize.m", "anonymize.sim", "anonymize.eps", "anonymize.shared"}
        assert dests <= set(_SCHEMA)

    def test_echo_keys_are_the_schema_keys(self):
        assert list(RunConfig().echo()) == list(_SCHEMA)

    def test_echo_holds_no_front_end_key(self):
        # Every report's config record is this echo.
        echo = RunConfig().echo()
        assert not [key for key in echo if key.split(".")[0] in ("features", "models")]

    def test_sections_are_the_config_fields(self):
        assert [f.name for f in fields(RunConfig)] == [
            "run", "paths", "anonymize", "evaluate", "simulate"
        ]
        assert len(_SCHEMA) == 24


class TestPaths:
    """A [paths] value in a file is relative to the file's directory (see
    ACCEPTED); the defaults and overrides to the working directory."""

    def test_absolute_path_kept(self, tmp_path):
        assert _load_text(tmp_path, "[paths]\nweights = /abs/w\n").paths.weights == "/abs/w"

    def test_defaults_and_overrides_stay_relative(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 1\n")
        config = load_config(path, {"paths.out_dir": "o"})
        assert (config.paths.out_dir, config.paths.pool) == ("o", None)
        assert load_config(path).paths.out_dir == "out"

    def test_file_in_working_directory_keeps_the_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.ini").write_text("[paths]\npool = pool.jsonl\n")
        assert load_config("c.ini").paths.pool == "pool.jsonl"


class TestEchoRoundTrip:
    """An echo written as INI reads back as the same configuration from
    the working directory, which its relative paths are relative to."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def reload(config: RunConfig) -> RunConfig:
        Path("again.ini").write_text(_to_ini(config), encoding="utf-8")
        return load_config("again.ini")

    def test_defaults(self):
        config = RunConfig()
        assert self.reload(config).echo() == config.echo()

    def test_every_key_set(self, tmp_path):
        sections: dict[str, dict[str, str]] = {}
        for section, key, text, _ in ACCEPTED:
            sections.setdefault(section, {})[key] = text
        text = "".join(
            f"[{section}]\n" + "".join(f"{k} = {t}\n" for k, t in keys.items())
            for section, keys in sections.items()
        )
        config = _load_text(tmp_path, text)
        assert self.reload(config).echo() == config.echo()

    @FUZZ
    @given(st.floats(0.0, MAX_CLUSTER_STD), st.lists(
        st.one_of(st.none(), st.integers(1, 10**30)), min_size=1, max_size=4, unique=True))
    def test_values_survive(self, tmp_path, cluster_std, k_grid):
        # Enough speakers that every K has as many non-target speakers.
        n_speakers = max((k for k in k_grid if k is not None), default=1) + 1
        text = (f"[simulate]\ncluster_std = {cluster_std!r}\n"
                f"n_speakers = {n_speakers}\nk_grid = {_ini_value(k_grid)}\n")
        config = _load_text(tmp_path, text)
        assert config.simulate.k_grid == tuple(k_grid)
        assert config.simulate.cluster_std == cluster_std
        assert self.reload(config).echo() == config.echo()


class TestSimulateGrid:
    @pytest.mark.parametrize("text, message", [
        ("n_speakers = 1", "simulate.n_speakers must be at least 2, got 1"),
        ("n_speakers = 0\nk_grid = all", "simulate.n_speakers must be at least 2, got 0"),
        ("n_speakers = 3\nk_grid = all, 5",
         "simulate.k_grid entries must be at most n_speakers - 1 = 2"),
        ("n_speakers = 2\nk_grid = 2",
         "simulate.k_grid entries must be at most n_speakers - 1 = 1"),
    ])
    def test_impossible_grid_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as caught:
            _load_text(tmp_path, f"[simulate]\n{text}\n")
        assert str(caught.value) == f"{tmp_path / 'c.ini'}: {message}"

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e308", "1000000.5", "-0.1"])
    def test_cluster_std_outside_bounds_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"c\.ini: simulate\.cluster_std must be a number in \[0, 1000000\]"):
            _load_text(tmp_path, f"[simulate]\ncluster_std = {text}\n")

    @pytest.mark.parametrize("text", ["0", "1e6"])
    def test_cluster_std_bounds_accepted(self, tmp_path, text):
        assert _load_text(tmp_path, f"[simulate]\ncluster_std = {text}\n").simulate.cluster_std == float(text)

    @pytest.mark.parametrize("text", ["n_speakers = 2", "n_speakers = 3\nk_grid = all, 1, 2"])
    def test_smallest_grid_accepted(self, tmp_path, text):
        _load_text(tmp_path, f"[simulate]\n{text}\n")


_NAMES = st.sampled_from(sorted({part for key in _SCHEMA for part in key.split(".")}
                                | {"DEFAULT", "bogus"}))
_VALUES = st.one_of(
    st.sampled_from(["all", "true", "0", "-1", "1.5", "nan", "random", "a, b", ""]),
    st.text(max_size=12),
)
_INI_TEXT = st.lists(
    st.one_of(
        st.builds("[{}]".format, _NAMES),
        st.builds("{} = {}".format, _NAMES, _VALUES),
        st.builds("{}: {}".format, _NAMES, _VALUES),
        st.text(max_size=20),
    ),
    max_size=8,
).map("\n".join)


class TestFuzz:
    def _only_config_errors(self, tmp_path, data: bytes):
        path = tmp_path / "fuzz.ini"
        path.write_bytes(data)
        try:
            load_config(path)
        except ConfigError as exc:
            assert str(path) in str(exc)

    @FUZZ
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path, data):
        self._only_config_errors(tmp_path, data)

    @FUZZ
    @given(_INI_TEXT)
    def test_ini_shaped_text(self, tmp_path, text):
        self._only_config_errors(tmp_path, text.encode("utf-8", "surrogatepass"))
