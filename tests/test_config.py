"""load_config: fuzzed input, echo round trips and the accepted keys."""

from typing import Annotated, get_args, get_origin

import pytest

from voxanon.config import _SCHEMA, RunConfig, load_config
from voxanon.errors import ConfigError

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Every key the reader accepted before the schema was built from the
# dataclass fields, with a text and the value it parsed to then.
ACCEPTED = [
    ("run", "seed", "42", ("seed",), 42),
    ("run", "jobs", "3", ("jobs",), 3),
    ("run", "jobs", "Auto", ("jobs",), None),
    ("paths", "pool", "pools/p.jsonl", ("pool_path",), "pools/p.jsonl"),
    ("paths", "weights", "w", ("weights_dir",), "w"),
    ("paths", "out_dir", "o u t", ("out_dir",), "o u t"),
    ("features", "sample_rate", "8000", ("features", "sample_rate"), 8000),
    ("features", "f0_threshold", "0.3", ("features", "f0_threshold"), 0.3),
    ("models", "ppg_tap", "sigmoid6", ("models", "ppg_tap"), "sigmoid6"),
    ("anonymize", "strategy", "none", ("anonymize", "strategy"), "none"),
    ("anonymize", "m", "12", ("anonymize", "n_select"), 12),
    ("anonymize", "sim", "0.75", ("anonymize", "target_similarity"), 0.75),
    ("anonymize", "eps", "1e-2", ("anonymize", "half_width"), 0.01),
    ("anonymize", "shared", "yes", ("anonymize", "shared"), True),
    ("evaluate", "k", "ALL", ("evaluate", "nearest_k"), None),
    ("evaluate", "k", "7", ("evaluate", "nearest_k"), 7),
    ("evaluate", "gender_partition", "off", ("evaluate", "gender_partition"), False),
    ("simulate", "n_speakers", "9", ("simulate", "n_speakers"), 9),
    ("simulate", "utterances_per_speaker", "4", ("simulate", "utterances_per_speaker"), 4),
    ("simulate", "dim", "16", ("simulate", "dim"), 16),
    ("simulate", "cluster_std", "0.25", ("simulate", "cluster_std"), 0.25),
    ("simulate", "pool_size", "200", ("simulate", "pool_size"), 200),
    ("simulate", "strategies", "nearest, random,", ("simulate", "strategies"), ("nearest", "random")),
    ("simulate", "m_grid", "2,4 , 8", ("simulate", "m_grid"), (2, 4, 8)),
    ("simulate", "s_grid", "0.5,0.9", ("simulate", "s_grid"), (0.5, 0.9)),
    ("simulate", "s_grid", "", ("simulate", "s_grid"), ()),
    ("simulate", "eps", "0.1", ("simulate", "half_width"), 0.1),
    ("simulate", "k_grid", "all, 3", ("simulate", "k_grid"), (None, 3)),
    ("simulate", "repetitions", "2", ("simulate", "repetitions"), 2),
    ("simulate", "include_baseline", "0", ("simulate", "include_baseline"), False),
]

DEAD_KEYS = [
    ("features", "mel_low_hz", "20"),
    ("features", "mel_high_hz", "7600"),
    ("models", "xvec_dim", "512"),
    ("models", "stats_pooling", "std"),
    ("models", "n_train_speakers", "200"),
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
    for key, (attr, kind) in _SCHEMA.items():
        value = echo[attr if "." in attr else key]
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
    @pytest.mark.parametrize("section, key, text, attr, expected", ACCEPTED,
                             ids=[f"{s}.{k}={t}" for s, k, t, _, _ in ACCEPTED])
    def test_parses_as_before(self, tmp_path, section, key, text, attr, expected):
        config = _load_text(tmp_path, f"[{section}]\n{key} = {text}\n")
        owner = config
        for name in attr:
            owner = getattr(owner, name)
        assert owner == expected and type(owner) is type(expected)

    def test_strategy_parses_with_the_key_it_reads(self, tmp_path):
        # A strategy alone is an incomplete spec; nearest also reads m.
        config = _load_text(tmp_path, "[anonymize]\nstrategy = nearest\nm = 12\n")
        assert (config.anonymize.strategy, config.anonymize.n_select) == ("nearest", 12)

    def test_every_table_key_is_covered(self):
        assert {f"{s}.{k}" for s, k, *_ in ACCEPTED} == set(_SCHEMA)

    @pytest.mark.parametrize("section, key, text", DEAD_KEYS)
    def test_dead_key_rejected(self, tmp_path, section, key, text):
        with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
            _load_text(tmp_path, f"[{section}]\n{key} = {text}\n")


class TestEchoRoundTrip:
    def test_defaults(self, tmp_path):
        config = RunConfig()
        assert _load_text(tmp_path, _to_ini(config)).echo() == config.echo()

    def test_every_key_set(self, tmp_path):
        sections: dict[str, dict[str, str]] = {}
        for section, key, text, _, _ in ACCEPTED:
            sections.setdefault(section, {})[key] = text
        text = "".join(
            f"[{section}]\n" + "".join(f"{k} = {t}\n" for k, t in keys.items())
            for section, keys in sections.items()
        )
        config = _load_text(tmp_path, text)
        assert _load_text(tmp_path, _to_ini(config), "again.ini").echo() == config.echo()

    @FUZZ
    @given(st.floats(0.0, 1.0), st.lists(
        st.one_of(st.none(), st.integers(1, 10**30)), max_size=4))
    def test_values_survive(self, tmp_path, threshold, k_grid):
        # Enough speakers that every K has as many non-target speakers.
        n_speakers = max((k for k in k_grid if k is not None), default=1) + 1
        text = (f"[features]\nf0_threshold = {threshold!r}\n[simulate]\n"
                f"n_speakers = {n_speakers}\nk_grid = {_ini_value(k_grid)}\n")
        config = _load_text(tmp_path, text)
        assert config.simulate.k_grid == tuple(k_grid)
        assert config.features.f0_threshold == threshold
        assert _load_text(tmp_path, _to_ini(config), "again.ini").echo() == config.echo()


class TestFrontEndValues:
    @pytest.mark.parametrize("text", ["nan", "-3", "inf", "-inf", "1.5", "-0.01"])
    def test_bad_threshold_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"c\.ini: features\.f0_threshold") as caught:
            _load_text(tmp_path, f"[features]\nf0_threshold = {text}\n")
        assert str(tmp_path) in str(caught.value)

    @pytest.mark.parametrize("text", ["0", "1", "0.45"])
    def test_threshold_bounds_accepted(self, tmp_path, text):
        config = _load_text(tmp_path, f"[features]\nf0_threshold = {text}\n")
        assert config.features.f0_threshold == float(text)

    @pytest.mark.parametrize("text", ["0", "-16000", "4000", "7999"])
    def test_nonpositive_sample_rate_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"c\.ini: features\.sample_rate must be at least 8000"):
            _load_text(tmp_path, f"[features]\nsample_rate = {text}\n")


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
