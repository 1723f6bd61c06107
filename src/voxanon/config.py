"""Run configuration: plain-text key/value sections with strict validation.

Configuration files use INI sections. Unknown sections or keys, a
``[DEFAULT]`` section, and files that cannot be read as UTF-8 text are
rejected outright, so typos never silently fall back to defaults. Every
report embeds the effective configuration (``RunConfig.echo``) for
provenance.

The five sections and their keys, each with the command-line option that
overrides it (``--flag``), if any. Each section is a field of
``RunConfig`` and each key a field of that section, named as in the
file::

    [run]        seed (--seed), jobs (--jobs)
    [paths]      pool, weights, out_dir (--out-dir)
    [anonymize]  strategy (--strategy), m (--m), sim (--sim), eps (--eps),
                 shared (--shared)
    [evaluate]   k, gender_partition
    [simulate]   n_speakers, utterances_per_speaker, dim, cluster_std,
                 pool_size, strategies, m_grid, s_grid, eps, k_grid,
                 repetitions, include_baseline

List keys are comma separated, and a nearest-K value of ``all`` keeps
every candidate. No list repeats a value, ``k_grid`` is never empty, and
``strategies`` is empty only with ``include_baseline``. No ``[paths]``
value may be empty. One read from a file is relative to that file's
directory; the defaults and ``--out-dir`` are relative to the working
directory. ``jobs`` caps the worker processes of ``synthesize``; its
default ``auto`` allows one per CPU the command may run on, and
``extract`` ignores it. ``cluster_std`` is a finite number in [0, 1e6],
far below the spread at which the generated embeddings overflow. The
analysis front end of ``extract`` takes no setting: its rate, F0
threshold and PPG output are fixed in ``features`` and ``nnet.ppg``.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

from .anonymize import STRATEGIES, AnonymizationSpec
from .errors import ConfigError

# A nearest-K setting: a count, or None (written ``all``) for every candidate.
NearestK = Annotated[int | None, "all"]
# A worker cap: a count, or None (written ``auto``) for one per CPU.
Jobs = Annotated[int | None, "auto"]
# Simulated utterances are unit vectors plus cluster_std times standard
# normal noise; a noise of 1e308 overflows them to inf, 1e6 is far from it.
MAX_CLUSTER_STD = 1e6


@dataclass
class RunSettings:
    seed: int | None = None
    jobs: Jobs = None


@dataclass
class PathSettings:
    pool: str | None = None
    weights: str | None = None
    out_dir: str = "out"


@dataclass
class AnonymizeSettings:
    strategy: str = "none"  # none, or one of anonymize.STRATEGIES
    m: int | None = None
    sim: float | None = None
    eps: float | None = None
    shared: bool = False

    def spec(self, seed: int | None) -> AnonymizationSpec | None:
        """The spec of ``strategy``, or None for ``none``. A value the
        strategy cannot use raises ``ConfigError`` naming the keys it reads."""
        if self.strategy == "none":
            return None
        try:
            return AnonymizationSpec.of(self.strategy, self.m, self.sim, self.eps, seed)
        except ValueError as exc:
            raise ConfigError(f"{self.where()}: {exc}") from None

    def where(self) -> str:
        """The keys that set ``strategy``'s parameters, for messages."""
        if self.strategy == "range":
            return f"anonymize.sim (--sim) = {self.sim}, anonymize.eps (--eps) = {self.eps}"
        return f"anonymize.m (--m) = {self.m}"


@dataclass
class EvaluateSettings:
    k: NearestK = None
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
    eps: float = 0.05
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
                    spec = AnonymizationSpec.of(strategy, value, value, self.eps, master)
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
                if not ranged and value > self.pool_size:
                    raise ConfigError(f"{where} exceeds simulate.pool_size = {self.pool_size}")
                specs.append(spec.derived(f"{strategy}:{name}={value}"))
        return specs

    def where(self, strategy: str, value) -> str:
        """The keys that set one grid value of ``strategy``, for messages."""
        if strategy == "range":
            return f"simulate.s_grid = {value}, simulate.eps = {self.eps}"
        return f"simulate.m_grid = {value}"


@dataclass
class RunConfig:
    run: RunSettings = field(default_factory=RunSettings)
    paths: PathSettings = field(default_factory=PathSettings)
    anonymize: AnonymizeSettings = field(default_factory=AnonymizeSettings)
    evaluate: EvaluateSettings = field(default_factory=EvaluateSettings)
    simulate: SimulateSettings = field(default_factory=SimulateSettings)

    def validate(self) -> None:
        if self.paths.out_dir == "":
            raise ConfigError("paths.out_dir (--out-dir) is empty")
        if self.run.jobs is not None and self.run.jobs < 1:
            raise ConfigError("run.jobs (--jobs) must be at least 1 or 'auto'")
        if self.anonymize.strategy not in ("none",) + STRATEGIES:
            raise ConfigError(f"anonymize.strategy must be 'none' or one of {STRATEGIES}")
        if self.anonymize.strategy == "random" and self.run.seed is None:
            raise ConfigError(
                "a master seed is required whenever a random strategy is configured "
                "(set run.seed or pass --seed)"
            )
        self.anonymize.spec(self.run.seed)  # only its checks matter here
        for strategy in self.simulate.strategies:
            if strategy not in STRATEGIES:
                raise ConfigError(f"simulate.strategies contains unknown {strategy!r}")
        for key in ("strategies", "m_grid", "s_grid", "k_grid"):
            values = getattr(self.simulate, key)
            for i, value in enumerate(values):
                if value in values[:i]:
                    shown = "all" if value is None else repr(value)
                    raise ConfigError(f"simulate.{key} repeats {shown}")
        if not self.simulate.k_grid:
            raise ConfigError("simulate.k_grid is empty")
        if not (self.simulate.strategies or self.simulate.include_baseline):
            raise ConfigError(
                "simulate.strategies is empty and simulate.include_baseline is false"
            )
        for key, ks in (("evaluate.k", (self.evaluate.k,)),
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
        if not 0.0 <= self.simulate.cluster_std <= MAX_CLUSTER_STD:
            raise ConfigError(
                f"simulate.cluster_std must be a number in [0, {MAX_CLUSTER_STD:.0f}], "
                f"got {self.simulate.cluster_std!r}"
            )
        for name in ("utterances_per_speaker", "dim", "pool_size", "repetitions"):
            if getattr(self.simulate, name) < 1:
                raise ConfigError(
                    f"simulate.{name} must be at least 1, got {getattr(self.simulate, name)}"
                )
        self.simulate.specs(master=0)  # only its checks matter here

    def echo(self) -> dict:
        """The effective configuration: INI key -> value, lists for tuples."""
        return {
            f"{section}.{key}": list(value) if isinstance(value, tuple) else value
            for section, settings in asdict(self).items()
            for key, value in settings.items()
        }


def _build_schema() -> dict[str, object]:
    """INI key ("section.key") -> its type, in field order."""
    schema = {}
    for section, settings in get_type_hints(RunConfig).items():
        hints = get_type_hints(settings, include_extras=True)
        schema.update((f"{section}.{key}", kind) for key, kind in hints.items())
    return schema


_SCHEMA = _build_schema()
_SECTIONS = {key.partition(".")[0] for key in _SCHEMA}

_EXPECTED = {int: "an integer", float: "a number"}


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
    ("section.key") to values of the field's type, or to a flag's text
    (``--jobs auto``), parsed as in a file; None values are skipped. A
    ``[paths]`` value in the file is joined to the file's directory; an
    override is not. Unknown sections or keys are errors.
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
                kind = _SCHEMA[f"{section}.{key}"]
                where = f"{path} [{section}] {key}"
                if get_origin(kind) is tuple:
                    value = _parse_list(text, get_args(kind)[0], where)
                else:
                    value = _parse_scalar(text, kind, where)
                if section == "paths":  # relative to the file that sets it
                    if not value:
                        raise ConfigError(f"{path}: paths.{key} is empty")
                    value = str(path.parent / value)
                setattr(getattr(config, section), key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            section, _, name = key.partition(".")
            if isinstance(value, str) and _SCHEMA[key] is not str:
                value = _parse_scalar(value, _SCHEMA[key], f"{key} (--{name})")
            setattr(getattr(config, section), name, value)
    try:
        config.validate()
    except ConfigError as exc:
        if path is None:
            raise
        raise ConfigError(f"{path}: {exc}") from None
    return config
