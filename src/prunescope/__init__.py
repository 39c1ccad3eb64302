"""Trains small dense networks, prunes them iteratively by weight magnitude,
and measures the geometry of the loss landscape around the solutions."""

from .autodiff import GradResult, LossContext
from .data import Dataset, analysis_subset, gen_spirals, load_csv, load_idx
from .landscape import (
    Barrier,
    EigenReport,
    InterpolationCurve,
    RadiusProfile,
    SurfaceGrid,
    barrier_height,
    basin_cutoff,
    basin_radius,
    geometry,
    interpolate_losses,
    inverse_volume,
    log_volume,
    mc_radius_profile,
    surface_grid,
    taylor_prune_estimate,
    top_k_eigenvalues,
)
from .model import NetworkSpec, apply_mask, dense_mask, init_params, prunable_coords
from .numerics import RngStream, lerp, plane_basis, project_to_plane
from .numerics import random_unit_direction, tridiag_eigenvalues
from .pruning import (
    VARIANT_TABLE,
    ImpConfig,
    LevelArtifacts,
    Strategy,
    Variant,
    imp_dense,
    imp_levels,
    magnitude_mask,
    prune_by_magnitude,
    random_mask,
    sparsity,
    variant_run,
)
from .trainer import Hyperparams, TrainRecord, lr_at, train

__all__ = [
    # autodiff
    "GradResult",
    "LossContext",
    # data
    "Dataset",
    "analysis_subset",
    "gen_spirals",
    "load_csv",
    "load_idx",
    # landscape
    "Barrier",
    "EigenReport",
    "InterpolationCurve",
    "RadiusProfile",
    "SurfaceGrid",
    "barrier_height",
    "basin_cutoff",
    "basin_radius",
    "geometry",
    "interpolate_losses",
    "inverse_volume",
    "log_volume",
    "mc_radius_profile",
    "surface_grid",
    "taylor_prune_estimate",
    "top_k_eigenvalues",
    # model
    "NetworkSpec",
    "apply_mask",
    "dense_mask",
    "init_params",
    "prunable_coords",
    # numerics
    "RngStream",
    "lerp",
    "plane_basis",
    "project_to_plane",
    "random_unit_direction",
    "tridiag_eigenvalues",
    # pruning
    "VARIANT_TABLE",
    "ImpConfig",
    "LevelArtifacts",
    "Strategy",
    "Variant",
    "imp_dense",
    "imp_levels",
    "magnitude_mask",
    "prune_by_magnitude",
    "random_mask",
    "sparsity",
    "variant_run",
    # trainer
    "Hyperparams",
    "TrainRecord",
    "lr_at",
    "train",
]
