"""Run configuration: one JSON document with per-stage sections, strict
unknown-key rejection and full validation before any work starts. Profiles
and command-line overrides are decoded like the file and get its checks."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from datetime import datetime

from .errors import (ConfigurationError, ParseError, check_count,
                     check_number, check_numbers, check_seed)
from .evaluation import NOMINAL_INTERVALS
from .model import ModelConfig
from .pipeline import (
    FUTURE_FEATURES,
    PAST_FEATURES,
    TARGET_FEATURES,
    check_fractions,
)
from .training import Hyperparameters


@dataclass(frozen=True)
class SimulatorSection:
    days: int = 365
    start: str = "2021-01-01"

    def validate(self) -> None:
        check_count("simulator.days", self.days, minimum=1)
        try:
            datetime.strptime(self.start, "%Y-%m-%d")
        except (TypeError, ValueError):   # TypeError: not a str
            raise ConfigurationError(
                f"simulator.start must be YYYY-MM-DD, got "
                f"{self.start!r}") from None

    def start_datetime(self) -> datetime:
        return datetime.strptime(self.start, "%Y-%m-%d")


@dataclass(frozen=True)
class PipelineSection:
    n_past: int = ModelConfig.n_past
    n_future: int = ModelConfig.n_future
    stride: int = 1
    noise_sd: float = 0.01
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def validate(self) -> None:
        for name in ("n_past", "n_future", "stride"):
            check_count(f"pipeline.{name}", getattr(self, name), minimum=1)
        check_number("pipeline.noise_sd", self.noise_sd, "non-negative")
        check_fractions("pipeline.fractions", self.fractions)


@dataclass(frozen=True)
class ModelSection:
    """`ModelConfig` knobs; `RunConfig.model_config` maps them."""

    rnn_units: int = ModelConfig.rnn_units
    mha_heads: int = ModelConfig.mha_heads
    d_model: int | None = ModelConfig.d_model
    dropout_rate: float = ModelConfig.dropout_rate
    quantile_levels: tuple[float, ...] = ModelConfig.quantile_levels


@dataclass(frozen=True)
class TrainingSection:
    """`Hyperparameters` knobs; `RunConfig.hyperparameters` maps them."""

    batch_size: int = Hyperparameters.batch_size
    learning_rate: float = Hyperparameters.learning_rate
    max_epochs: int = Hyperparameters.max_epochs
    patience: int = Hyperparameters.patience
    grad_clip_norm: float = Hyperparameters.grad_clip_norm


@dataclass(frozen=True)
class EvaluationSection:
    nominal_intervals: tuple[float, ...] = NOMINAL_INTERVALS

    def validate(self) -> None:
        check_numbers("evaluation.nominal_intervals", self.nominal_intervals)
        for level in self.nominal_intervals:
            if not 0.0 < level < 1.0:
                raise ConfigurationError(
                    f"evaluation.nominal_intervals entry {level} outside "
                    f"(0, 1)")


@dataclass(frozen=True)
class PathsSection:
    dataset: str = "dataset.csv"
    manifest: str = "manifest.json"
    checkpoint: str = "model.ckpt"
    train_log: str = "training.jsonl"
    forecast_dump: str = "forecasts.csv"
    metrics_dir: str = "metrics"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, str) and value):
                raise ConfigurationError(
                    f"paths.{f.name} must be a non-empty string, got "
                    f"{value!r}")


_SECTION_TYPES = {
    "simulator": SimulatorSection,
    "pipeline": PipelineSection,
    "model": ModelSection,
    "training": TrainingSection,
    "evaluation": EvaluationSection,
    "paths": PathsSection,
}


@dataclass(frozen=True)
class RunConfig:
    simulator: SimulatorSection = field(default_factory=SimulatorSection)
    pipeline: PipelineSection = field(default_factory=PipelineSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    paths: PathsSection = field(default_factory=PathsSection)
    seed: int = 0

    def validate(self) -> None:
        """Check every knob. The model and training sections are checked
        by the runtime objects they map to, so each knob has one rule."""
        check_seed("seed", self.seed)
        for name in ("simulator", "pipeline", "evaluation", "paths"):
            getattr(self, name).validate()
        for name, runtime in (("model", self.model_config),
                              ("training", self.hyperparameters)):
            try:
                runtime().validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"{name}.{exc}") from exc

    def model_config(self) -> ModelConfig:
        """Model geometry: window lengths from the pipeline section, feature
        and zone counts from the pipeline's feature tables, weights seeded
        by the run seed."""
        return ModelConfig(
            n_past=self.pipeline.n_past,
            n_future=self.pipeline.n_future,
            past_feature_count=len(PAST_FEATURES),
            future_feature_count=len(FUTURE_FEATURES),
            zone_count=len(TARGET_FEATURES),
            **dataclasses.asdict(self.model),
            rng_seed=self.seed,
        )

    def hyperparameters(self) -> Hyperparameters:
        """Training hyperparameters, shuffled by the run seed."""
        return Hyperparameters(**dataclasses.asdict(self.training),
                               shuffle_seed=self.seed)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _build_section(cls, data: dict, section: str):
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(
            f"unknown key {unknown[0]!r} in section {section!r}")
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in data.items()})


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be an object")
    known = set(_SECTION_TYPES) | {"seed"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"unknown top-level key {unknown[0]!r}")
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        if name in data:
            section = data[name]
            if not isinstance(section, dict):
                raise ConfigurationError(
                    f"section {name!r} must be an object")
            kwargs[name] = _build_section(cls, section, name)
    if "seed" in data:
        kwargs["seed"] = data["seed"]
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}",
                         row=exc.lineno) from exc
    return config_from_dict(data)


# Change sets, {section: {key: value}}, applied over the file's values.
# "tiny" is the reduced geometry for desk-scale runs: short windows, a small
# model, small batches, and lighter dropout (the full-scale rate starves a
# model this small); everything else inherited.
PROFILES = {
    "full": {},
    "tiny": {
        "pipeline": {"n_past": 48, "n_future": 12},
        "model": {"rnn_units": 16, "mha_heads": 2, "d_model": 32,
                  "dropout_rate": 0.1},
        "training": {"batch_size": 32},
    },
}


def with_changes(cfg: RunConfig, changes: dict) -> RunConfig:
    """`cfg` with a change set, {section: {key: value}} plus an optional
    top-level "seed", merged in and decoded by `config_from_dict`: each value
    meets the key, type and range checks of a config file."""
    data = cfg.to_dict()
    for name, value in changes.items():
        if isinstance(value, dict) and isinstance(data.get(name), dict):
            value = {**data[name], **value}
        data[name] = value
    return config_from_dict(data)


def apply_profile(cfg: RunConfig, profile: str) -> RunConfig:
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}, expected 'tiny' or 'full'")
    changes = PROFILES[profile]
    return with_changes(cfg, changes) if changes else cfg
