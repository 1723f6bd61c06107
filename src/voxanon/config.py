"""Run configuration: plain-text key/value sections with strict validation.

Configuration files use INI sections. Unknown sections or keys are
rejected outright so typos never silently fall back to defaults, and every
report embeds the effective configuration for provenance.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError


@dataclass
class FeatureSettings:
    sample_rate: int = 16000
    f0_threshold: float = 0.45
    mel_low_hz: float = 20.0
    mel_high_hz: float = 7600.0


@dataclass
class ModelSettings:
    ppg_tap: str = "softmax"  # softmax | sigmoid6
    xvec_dim: int = 512
    stats_pooling: str = "std"  # std | variance
    n_train_speakers: int = 200


@dataclass
class AnonymizeSettings:
    strategy: str = "none"  # none | random | range | nearest
    n_select: int | None = None
    target_similarity: float | None = None
    half_width: float | None = None
    shared: bool = False


@dataclass
class EvaluateSettings:
    nearest_k: int | None = None  # None means all non-targets
    gender_partition: bool = True


@dataclass
class SimulateSettings:
    n_speakers: int = 30
    utterances_per_speaker: int = 20
    dim: int = 64
    cluster_std: float = 0.05
    pool_size: int = 500
    strategies: tuple[str, ...] = ("random",)
    m_grid: tuple[int, ...] = (10, 50, 100, 200)
    s_grid: tuple[float, ...] = ()
    half_width: float = 0.05
    k_grid: tuple[int | None, ...] = (None,)
    repetitions: int = 5
    include_baseline: bool = True


@dataclass
class RunConfig:
    seed: int | None = None
    jobs: int = 1
    pool_path: str | None = None
    weights_dir: str | None = None
    out_dir: str = "out"
    features: FeatureSettings = field(default_factory=FeatureSettings)
    models: ModelSettings = field(default_factory=ModelSettings)
    anonymize: AnonymizeSettings = field(default_factory=AnonymizeSettings)
    evaluate: EvaluateSettings = field(default_factory=EvaluateSettings)
    simulate: SimulateSettings = field(default_factory=SimulateSettings)

    def validate(self) -> None:
        if self.jobs < 1:
            raise ConfigError("run.jobs must be at least 1")
        if self.models.ppg_tap not in ("softmax", "sigmoid6"):
            raise ConfigError("models.ppg_tap must be 'softmax' or 'sigmoid6'")
        if self.models.stats_pooling not in ("std", "variance"):
            raise ConfigError("models.stats_pooling must be 'std' or 'variance'")
        if self.anonymize.strategy not in ("none", "random", "range", "nearest"):
            raise ConfigError(
                "anonymize.strategy must be none, random, range, or nearest"
            )
        if self.anonymize.strategy == "random" and self.seed is None:
            raise ConfigError(
                "a master seed is required whenever a random strategy is configured "
                "(set run.seed or pass --seed)"
            )
        for strategy in self.simulate.strategies:
            if strategy not in ("random", "range", "nearest"):
                raise ConfigError(f"simulate.strategies contains unknown {strategy!r}")

    def echo(self) -> dict:
        flat: dict[str, object] = {
            "run.seed": self.seed,
            "run.jobs": self.jobs,
            "paths.pool": self.pool_path,
            "paths.weights": self.weights_dir,
            "paths.out_dir": self.out_dir,
        }
        for section_name, section in (
            ("features", self.features),
            ("models", self.models),
            ("anonymize", self.anonymize),
            ("evaluate", self.evaluate),
            ("simulate", self.simulate),
        ):
            for key, value in vars(section).items():
                if isinstance(value, tuple):
                    value = list(value)
                flat[f"{section_name}.{key}"] = value
        return flat


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None


def _parse_bool(text: str, where: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(_parse_int(item, where) for item in items)


def _parse_float_list(text: str, where: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(_parse_float(item, where) for item in items)


def _parse_k(text: str, where: str) -> int | None:
    return None if text.strip().lower() == "all" else _parse_int(text, where)


def _parse_k_list(text: str, where: str) -> tuple[int | None, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(_parse_k(item, where) for item in items)


def _parse_str_list(text: str, where: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# (section, key) -> setter(config, raw_text, where)
_SCHEMA = {
    ("run", "seed"): lambda c, v, w: setattr(c, "seed", _parse_int(v, w)),
    ("run", "jobs"): lambda c, v, w: setattr(c, "jobs", _parse_int(v, w)),
    ("paths", "pool"): lambda c, v, w: setattr(c, "pool_path", v),
    ("paths", "weights"): lambda c, v, w: setattr(c, "weights_dir", v),
    ("paths", "out_dir"): lambda c, v, w: setattr(c, "out_dir", v),
    ("features", "sample_rate"): lambda c, v, w: setattr(
        c.features, "sample_rate", _parse_int(v, w)
    ),
    ("features", "f0_threshold"): lambda c, v, w: setattr(
        c.features, "f0_threshold", _parse_float(v, w)
    ),
    ("features", "mel_low_hz"): lambda c, v, w: setattr(
        c.features, "mel_low_hz", _parse_float(v, w)
    ),
    ("features", "mel_high_hz"): lambda c, v, w: setattr(
        c.features, "mel_high_hz", _parse_float(v, w)
    ),
    ("models", "ppg_tap"): lambda c, v, w: setattr(c.models, "ppg_tap", v.strip()),
    ("models", "xvec_dim"): lambda c, v, w: setattr(
        c.models, "xvec_dim", _parse_int(v, w)
    ),
    ("models", "stats_pooling"): lambda c, v, w: setattr(
        c.models, "stats_pooling", v.strip()
    ),
    ("models", "n_train_speakers"): lambda c, v, w: setattr(
        c.models, "n_train_speakers", _parse_int(v, w)
    ),
    ("anonymize", "strategy"): lambda c, v, w: setattr(
        c.anonymize, "strategy", v.strip()
    ),
    ("anonymize", "m"): lambda c, v, w: setattr(
        c.anonymize, "n_select", _parse_int(v, w)
    ),
    ("anonymize", "sim"): lambda c, v, w: setattr(
        c.anonymize, "target_similarity", _parse_float(v, w)
    ),
    ("anonymize", "eps"): lambda c, v, w: setattr(
        c.anonymize, "half_width", _parse_float(v, w)
    ),
    ("anonymize", "shared"): lambda c, v, w: setattr(
        c.anonymize, "shared", _parse_bool(v, w)
    ),
    ("evaluate", "k"): lambda c, v, w: setattr(
        c.evaluate, "nearest_k", _parse_k(v, w)
    ),
    ("evaluate", "gender_partition"): lambda c, v, w: setattr(
        c.evaluate, "gender_partition", _parse_bool(v, w)
    ),
    ("simulate", "n_speakers"): lambda c, v, w: setattr(
        c.simulate, "n_speakers", _parse_int(v, w)
    ),
    ("simulate", "utterances_per_speaker"): lambda c, v, w: setattr(
        c.simulate, "utterances_per_speaker", _parse_int(v, w)
    ),
    ("simulate", "dim"): lambda c, v, w: setattr(
        c.simulate, "dim", _parse_int(v, w)
    ),
    ("simulate", "cluster_std"): lambda c, v, w: setattr(
        c.simulate, "cluster_std", _parse_float(v, w)
    ),
    ("simulate", "pool_size"): lambda c, v, w: setattr(
        c.simulate, "pool_size", _parse_int(v, w)
    ),
    ("simulate", "strategies"): lambda c, v, w: setattr(
        c.simulate, "strategies", _parse_str_list(v, w)
    ),
    ("simulate", "m_grid"): lambda c, v, w: setattr(
        c.simulate, "m_grid", _parse_int_list(v, w)
    ),
    ("simulate", "s_grid"): lambda c, v, w: setattr(
        c.simulate, "s_grid", _parse_float_list(v, w)
    ),
    ("simulate", "eps"): lambda c, v, w: setattr(
        c.simulate, "half_width", _parse_float(v, w)
    ),
    ("simulate", "k_grid"): lambda c, v, w: setattr(
        c.simulate, "k_grid", _parse_k_list(v, w)
    ),
    ("simulate", "repetitions"): lambda c, v, w: setattr(
        c.simulate, "repetitions", _parse_int(v, w)
    ),
    ("simulate", "include_baseline"): lambda c, v, w: setattr(
        c.simulate, "include_baseline", _parse_bool(v, w)
    ),
}


def load_config(path, validate: bool = True) -> RunConfig:
    """Parse a configuration file; unknown sections or keys are errors.

    Set ``validate=False`` when command-line overrides will be applied
    before cross-field validation runs.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    config = RunConfig()
    for section in parser.sections():
        for key, value in parser.items(section):
            setter = _SCHEMA.get((section, key))
            if setter is None:
                raise ConfigError(
                    f"{path}: unknown configuration key '{key}' in section [{section}]"
                )
            setter(config, value, f"{path} [{section}] {key}")
    if validate:
        config.validate()
    return config
