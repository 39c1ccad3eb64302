"""Persistence, configuration, pipeline orchestration, and figure emission."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_from_dict, load_config, save_config
from .pipeline import STAGES, run_pipeline
from .plots import emit_plots
from .tables import load_manifest

__all__ = [
    "Checkpoint",
    "ExperimentConfig",
    "STAGES",
    "config_from_dict",
    "emit_plots",
    "load_checkpoint",
    "load_config",
    "load_manifest",
    "run_pipeline",
    "save_checkpoint",
    "save_config",
]
