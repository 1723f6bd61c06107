"""Run configuration: plain-text key/value sections with strict validation.

Configuration files use INI sections. Unknown sections or keys, a
``[DEFAULT]`` section, and files that cannot be read as UTF-8 text are
rejected outright, so typos never silently fall back to defaults. Every
report embeds the effective configuration (``RunConfig.echo``) for
provenance.

Sections and keys. ``key = field`` marks an INI alias for a dataclass
field of another name (``_ALIASES``); ``--flag`` is the command-line
option that overrides the key::

    [run]        seed (--seed), jobs (--jobs)
    [paths]      pool = pool_path, weights = weights_dir, out_dir (--out-dir)
    [features]   sample_rate, f0_threshold
    [models]     ppg_tap
    [anonymize]  strategy (--strategy), m = n_select (--m),
                 sim = target_similarity (--sim), eps = half_width (--eps),
                 shared (--shared)
    [evaluate]   k = nearest_k, gender_partition
    [simulate]   n_speakers, utterances_per_speaker, dim, cluster_std,
                 pool_size, strategies, m_grid, s_grid, eps = half_width,
                 k_grid, repetitions, include_baseline

List keys are comma separated, and a nearest-K value of ``all`` keeps
every candidate. ``jobs`` caps the worker processes of ``synthesize``; its
default ``auto`` allows one per CPU the command may run on, and ``extract``
ignores it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

from .anonymize import STRATEGIES, AnonymizationSpec
from .errors import ConfigError
from .features import TAPS

# A nearest-K setting: a count, or None (written ``all``) for every candidate.
NearestK = Annotated[int | None, "all"]
# A worker cap: a count, or None (written ``auto``) for one per CPU.
Jobs = Annotated[int | None, "auto"]


@dataclass
class FeatureSettings:
    sample_rate: int = 16000
    f0_threshold: float = 0.45


@dataclass
class ModelSettings:
    ppg_tap: str = "softmax"  # softmax | sigmoid6


@dataclass
class AnonymizeSettings:
    strategy: str = "none"  # none, or one of anonymize.STRATEGIES
    n_select: int | None = None
    target_similarity: float | None = None
    half_width: float | None = None
    shared: bool = False

    def spec(self, seed: int | None) -> AnonymizationSpec | None:
        """The spec of ``strategy``, or None for ``none``. A value the
        strategy cannot use raises ``ConfigError`` naming the keys it reads."""
        if self.strategy == "none":
            return None
        try:
            return AnonymizationSpec.of(
                self.strategy, self.n_select, self.target_similarity, self.half_width, seed
            )
        except ValueError as exc:
            if self.strategy == "range":
                where = (f"anonymize.sim (--sim) = {self.target_similarity}, "
                         f"anonymize.eps (--eps) = {self.half_width}")
            else:
                where = f"anonymize.m (--m) = {self.n_select}"
            raise ConfigError(f"{where}: {exc}") from None


@dataclass
class EvaluateSettings:
    nearest_k: NearestK = None
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
    k_grid: tuple[NearestK, ...] = (None,)
    repetitions: int = 5
    include_baseline: bool = True

    def specs(self, master: int) -> list[AnonymizationSpec]:
        """The spec of every simulated condition: each strategy over its grid
        (``s_grid`` for range, ``m_grid`` otherwise), seeded from ``master``
        by its grid value. An empty grid, or a value no spec or pool can
        use, raises ``ConfigError`` naming the key."""
        specs = []
        for strategy in self.strategies:
            ranged = strategy == "range"
            name, grid = ("s", self.s_grid) if ranged else ("m", self.m_grid)
            if not grid:
                raise ConfigError(
                    f"simulate.{name}_grid is empty, but simulate.strategies lists {strategy!r}"
                )
            for value in grid:
                where = self.where(strategy, value)
                try:  # `of` keeps only the parameter the strategy reads
                    spec = AnonymizationSpec.of(strategy, value, value, self.half_width, master)
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
                if not ranged and value > self.pool_size:
                    raise ConfigError(f"{where} exceeds simulate.pool_size = {self.pool_size}")
                specs.append(spec.derived(f"{strategy}:{name}={value}"))
        return specs

    def where(self, strategy: str, value) -> str:
        """The keys that set one grid value of ``strategy``, for messages."""
        if strategy == "range":
            return f"simulate.s_grid = {value}, simulate.eps = {self.half_width}"
        return f"simulate.m_grid = {value}"


@dataclass
class RunConfig:
    seed: int | None = None
    jobs: Jobs = None
    pool_path: str | None = None
    weights_dir: str | None = None
    out_dir: str = "out"
    features: FeatureSettings = field(default_factory=FeatureSettings)
    models: ModelSettings = field(default_factory=ModelSettings)
    anonymize: AnonymizeSettings = field(default_factory=AnonymizeSettings)
    evaluate: EvaluateSettings = field(default_factory=EvaluateSettings)
    simulate: SimulateSettings = field(default_factory=SimulateSettings)

    def validate(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError("run.jobs must be at least 1 or 'auto'")
        # The F0 tracker needs 8 kHz, and the mel front ends reach 7600 Hz.
        if self.features.sample_rate < 8000:
            raise ConfigError(
                f"features.sample_rate must be at least 8000 Hz, got {self.features.sample_rate}"
            )
        if not 0.0 <= self.features.f0_threshold <= 1.0:
            raise ConfigError(
                "features.f0_threshold must be a number in [0, 1], "
                f"got {self.features.f0_threshold!r}"
            )
        if self.models.ppg_tap not in TAPS:
            raise ConfigError(f"models.ppg_tap must be one of {TAPS}")
        if self.anonymize.strategy not in ("none",) + STRATEGIES:
            raise ConfigError(f"anonymize.strategy must be 'none' or one of {STRATEGIES}")
        if self.anonymize.strategy == "random" and self.seed is None:
            raise ConfigError(
                "a master seed is required whenever a random strategy is configured "
                "(set run.seed or pass --seed)"
            )
        self.anonymize.spec(self.seed)  # only its checks matter here
        for strategy in self.simulate.strategies:
            if strategy not in STRATEGIES:
                raise ConfigError(f"simulate.strategies contains unknown {strategy!r}")
        for key, ks in (("evaluate.k", (self.evaluate.nearest_k,)),
                        ("simulate.k_grid", self.simulate.k_grid)):
            if any(k is not None and k < 1 for k in ks):
                raise ConfigError(f"{key} must be at least 1 or 'all'")
        # Each simulated speaker has n_speakers - 1 non-target speakers.
        n_speakers = self.simulate.n_speakers
        if n_speakers < 2:
            raise ConfigError(f"simulate.n_speakers must be at least 2, got {n_speakers}")
        if any(k is not None and k > n_speakers - 1 for k in self.simulate.k_grid):
            raise ConfigError(
                f"simulate.k_grid entries must be at most n_speakers - 1 = {n_speakers - 1}"
            )
        for name in ("utterances_per_speaker", "dim", "pool_size", "repetitions"):
            if getattr(self.simulate, name) < 1:
                raise ConfigError(
                    f"simulate.{name} must be at least 1, got {getattr(self.simulate, name)}"
                )
        self.simulate.specs(master=0)  # only its checks matter here

    def echo(self) -> dict:
        flat: dict[str, object] = {}
        for key, (attr, _) in _SCHEMA.items():
            owner, name = _owner(self, attr)
            value = getattr(owner, name)
            # Section fields echo under their field names, run and paths
            # fields under their INI keys.
            flat[attr if owner is not self else key] = (
                list(value) if isinstance(value, tuple) else value
            )
        return flat


# field path -> INI key, wherever the two differ
_ALIASES = {
    "seed": "run.seed",
    "jobs": "run.jobs",
    "pool_path": "paths.pool",
    "weights_dir": "paths.weights",
    "out_dir": "paths.out_dir",
    "anonymize.n_select": "anonymize.m",
    "anonymize.target_similarity": "anonymize.sim",
    "anonymize.half_width": "anonymize.eps",
    "evaluate.nearest_k": "evaluate.k",
    "simulate.half_width": "simulate.eps",
}


def _build_schema() -> dict[str, tuple[str, object]]:
    """INI key ("section.key") -> (field path, field type), in field order."""
    schema = {}
    hints = get_type_hints(RunConfig, include_extras=True)
    for top in fields(RunConfig):
        section = hints[top.name]
        if not is_dataclass(section):
            schema[_ALIASES[top.name]] = (top.name, section)
            continue
        section_hints = get_type_hints(section, include_extras=True)
        for f in fields(section):
            attr = f"{top.name}.{f.name}"
            schema[_ALIASES.get(attr, attr)] = (attr, section_hints[f.name])
    return schema


_SCHEMA = _build_schema()
_SECTIONS = {key.partition(".")[0] for key in _SCHEMA}

_EXPECTED = {int: "an integer", float: "a number"}


def _owner(config: RunConfig, attr: str):
    """The object holding field path ``attr``, and the field's name on it."""
    section, _, name = attr.rpartition(".")
    return (getattr(config, section) if section else config), name


def _parse_scalar(text: str, kind, where: str):
    text = text.strip()
    if get_origin(kind) is Annotated:
        kind, none_text = get_args(kind)
        if text.lower() == none_text:
            return None
    if type(None) in get_args(kind):
        kind = get_args(kind)[0]
    if kind is str:
        return text
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {text!r}") from None


def _parse_list(text: str, item_kind, where: str) -> tuple:
    return tuple(
        _parse_scalar(part, item_kind, where) for part in text.split(",") if part.strip()
    )


def _read_ini(path: Path) -> configparser.ConfigParser:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    # No header matches a name containing a newline, so [DEFAULT] is an
    # ordinary (and unknown) section rather than defaults for every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return parser


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Read a configuration file, apply overrides, validate once.

    ``path`` None starts from the defaults. ``overrides`` maps INI keys
    ("section.key") to values already of the field's type; None values
    are skipped. Unknown sections or keys are errors.
    """
    config = RunConfig()
    if path is not None:
        path = Path(path)
        parser = _read_ini(path)
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, text in parser.items(section):
                if f"{section}.{key}" not in _SCHEMA:
                    raise ConfigError(
                        f"{path}: unknown configuration key '{key}' in section [{section}]"
                    )
                attr, kind = _SCHEMA[f"{section}.{key}"]
                where = f"{path} [{section}] {key}"
                if get_origin(kind) is tuple:
                    value = _parse_list(text, get_args(kind)[0], where)
                else:
                    value = _parse_scalar(text, kind, where)
                setattr(*_owner(config, attr), value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(*_owner(config, _SCHEMA[key][0]), value)
    try:
        config.validate()
    except ConfigError as exc:
        if path is None:
            raise
        raise ConfigError(f"{path}: {exc}") from None
    return config
