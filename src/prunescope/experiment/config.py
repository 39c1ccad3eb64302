"""Experiment configuration: JSON in, strictly validated dataclasses out.

Unknown keys are rejected everywhere — a silently ignored typo is the main
way a "reproducible" run stops being one. The master seed is the single
source of randomness; every stream the pipeline uses is derived from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..model import NetworkSpec
from ..pruning import ImpConfig
from ..trainer import Hyperparams
from .tables import write_json


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _check_real(name: str, value, positive: bool = False) -> None:
    """A finite number, at least 0 (above 0 with ``positive``)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and (0 < value if positive else 0 <= value) and value < math.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a finite {sign} number, got {value!r}")


def _check_paths(source) -> None:
    for name in source.__dataclass_fields__:
        value = getattr(source, name)
        if name != "kind" and not (isinstance(value, str) and value):
            raise ValueError(f"{name} must be a nonempty path string, got {value!r}")


@dataclass(frozen=True)
class SpiralsSource:
    kind: str = "spirals"
    train_per_class: int = 500
    test_per_class: int = 250
    classes: int = 3
    noise_std: float = 0.15

    def __post_init__(self):
        _check_count("train_per_class", self.train_per_class, 1)
        _check_count("test_per_class", self.test_per_class, 1)
        _check_count("classes", self.classes, 2)
        _check_real("noise_std", self.noise_std)


@dataclass(frozen=True)
class CsvSource:
    kind: str = "csv"
    train_path: str = ""
    test_path: str = ""

    def __post_init__(self):
        _check_paths(self)


@dataclass(frozen=True)
class IdxSource:
    kind: str = "idx"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""

    def __post_init__(self):
        _check_paths(self)


@dataclass(frozen=True)
class TrainingSettings:
    epochs: int = 60
    batch_size: int = 32
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    decay_epochs: tuple[int, ...] = (30, 45)
    decay_factor: float = 0.1
    rewind_step: int = 200

    def __post_init__(self):
        # types and signs; Hyperparams keeps its own rules (momentum below
        # 1, decay epochs increasing and before the last epoch)
        for name, least in (("epochs", 1), ("batch_size", 1), ("rewind_step", 0)):
            _check_count(name, getattr(self, name), least)
        if not isinstance(self.decay_epochs, tuple):
            raise ValueError(f"decay_epochs must be a list, got {self.decay_epochs!r}")
        for epoch in self.decay_epochs:
            _check_count("each decay epoch", epoch, 0)
        for name, positive in (
            ("lr0", True), ("momentum", False), ("weight_decay", False), ("decay_factor", True),
        ):
            _check_real(name, getattr(self, name), positive)


@dataclass(frozen=True)
class ImpSettings:
    levels: int = 10
    prune_fraction_per_round: float = 0.2
    strategy: str = "weight_rewind"
    ft_lr: float = 0.001
    ft_epochs: int = 40
    per_layer: bool = False

    def __post_init__(self):
        # ImpConfig checks the prune fraction and the strategy
        _check_count("levels", self.levels, 0)
        _check_count("ft_epochs", self.ft_epochs, 1)
        _check_real("ft_lr", self.ft_lr, positive=True)
        if not isinstance(self.per_layer, bool):
            raise ValueError(f"per_layer must be true or false, got {self.per_layer!r}")


@dataclass(frozen=True)
class AnalysisSettings:
    k: int = 20
    n_directions: int = 500
    interp_points: int = 501
    grid_rows: int = 60
    grid_cols: int = 70
    grid_margin: float = 0.3
    taylor_probes: int = 100
    loss_cap: float = 10.0

    def __post_init__(self):
        # what the analysis stages need: k >= 1 eigenvalues, a segment's two
        # endpoints, a grid of at least 2 x 2 cells
        for name, least in (
            ("k", 1), ("n_directions", 1), ("interp_points", 2),
            ("grid_rows", 2), ("grid_cols", 2), ("taylor_probes", 1),
        ):
            _check_count(name, getattr(self, name), least)
        _check_real("grid_margin", self.grid_margin)
        _check_real("loss_cap", self.loss_cap, positive=True)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SpiralsSource | CsvSource | IdxSource = field(default_factory=SpiralsSource)
    network: tuple[int, ...] = (2, 24, 24, 3)
    training: TrainingSettings = field(default_factory=TrainingSettings)
    imp: ImpSettings = field(default_factory=ImpSettings)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)
    master_seed: int = 1
    out_dir: str = "."

    def __post_init__(self):
        NetworkSpec(self.network)  # the layer sizes' own checks
        _check_count("master_seed", self.master_seed, 0)
        if self.master_seed >= 2**64:  # RngStream keys on the low 64 bits
            raise ValueError(f"master_seed must be below 2**64, got {self.master_seed}")
        self.imp_config()  # the training and IMP loops' own value checks

    def hyperparams(self) -> Hyperparams:
        """Training hyperparameters, seeded by the master seed."""
        return Hyperparams(seed=self.master_seed, **asdict(self.training))

    def imp_config(self) -> ImpConfig:
        """The IMP settings with :meth:`hyperparams`."""
        return ImpConfig(hp=self.hyperparams(), **asdict(self.imp))


_DATASET_KINDS = {"spirals": SpiralsSource, "csv": CsvSource, "idx": IdxSource}


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    coerced = dict(data)
    for key, value in coerced.items():
        if isinstance(value, list):
            coerced[key] = tuple(value)
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")

    kwargs = {}
    if "dataset" in data:
        ds = data["dataset"]
        if not isinstance(ds, dict) or "kind" not in ds:
            raise ConfigError("dataset: must be an object with a 'kind' key")
        cls = _DATASET_KINDS.get(ds["kind"]) if isinstance(ds["kind"], str) else None
        if cls is None:
            raise ConfigError(
                f"dataset.kind: {ds['kind']!r} is not one of {sorted(_DATASET_KINDS)}"
            )
        kwargs["dataset"] = _build(cls, ds, "dataset")
    if "network" in data:
        net = data["network"]
        if not isinstance(net, list):
            raise ConfigError("network: must be a list of integer layer sizes")
        kwargs["network"] = tuple(net)
    for key, cls in (
        ("training", TrainingSettings),
        ("imp", ImpSettings),
        ("analysis", AnalysisSettings),
    ):
        if key in data:
            kwargs[key] = _build(cls, data[key], key)
    if "master_seed" in data:
        kwargs["master_seed"] = data["master_seed"]
    if "out_dir" in data:
        if not isinstance(data["out_dir"], str):
            raise ConfigError("out_dir: must be a string")
        kwargs["out_dir"] = data["out_dir"]
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict form of a config. ``out_dir`` is normalized to "." so an
    echoed config hashes identically wherever the run lives."""
    data = asdict(cfg)
    data["out_dir"] = "."
    data["network"] = list(data["network"])
    data["training"]["decay_epochs"] = list(data["training"]["decay_epochs"])
    return data


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(path, config_to_dict(cfg))
