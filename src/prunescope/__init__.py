"""Trains small dense networks, prunes them iteratively by weight magnitude,
and measures the geometry of the loss landscape around the solutions."""

from .autodiff import GradResult, grad, hvp
from .data import Dataset, DataSlice, analysis_subset, batches, gen_spirals, load_csv, load_idx
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
from .model import (
    LossContext,
    NetworkSpec,
    accuracy_on,
    apply_mask,
    dense_mask,
    init_params,
    loss_on,
    prunable_coords,
)
from .numerics import RngStream, Tridiagonal, lerp, plane_basis, project_to_plane
from .numerics import random_unit_direction, tridiag_eigenvalues
from .pruning import (
    ImpConfig,
    ImpResult,
    LevelArtifacts,
    Strategy,
    fine_tune_run,
    imp_run,
    magnitude_mask,
    one_shot_run,
    project,
    prune_by_magnitude,
    random_mask,
    random_pruned_run,
    random_reinit_run,
    sparsity,
)
from .trainer import Hyperparams, TrainRecord, lr_at, train

__all__ = [name for name in dir() if not name.startswith("_")]
