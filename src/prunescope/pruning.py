"""Mask construction, level bookkeeping, and the iterative pruning driver.

Masks are boolean vectors aligned to the flat parameter layout; bias
coordinates are always active. Each round removes the
floor(fraction * active) smallest-magnitude active weights, ranked globally
across layers by default (per-layer ranking is an option), ties going to the
lower flattened index. The driver supports the four retraining strategies
(weight rewinding, learning-rate rewinding, fine-tuning, random
re-initialization) plus the one-shot and randomly-pruned comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, DivergenceError, MaskExhaustedError
from .model import LossContext, apply_mask, dense_mask, init_params, prunable_coords
from .numerics import RngStream, mix_seed
from .trainer import Hyperparams, TrainRecord, train

# stream_id roles; per-level indices are mixed in with RngStream.derive
INIT_STREAM = 0x11A7
REINIT_STREAM = 0x22B8
RANDOM_MASK_STREAM = 0x33C9


class Strategy(str, Enum):
    WEIGHT_REWIND = "weight_rewind"
    LR_REWIND = "lr_rewind"
    FINE_TUNE = "fine_tune"
    RANDOM_REINIT = "random_reinit"


@dataclass(frozen=True)
class ImpConfig:
    levels: int
    prune_fraction_per_round: float
    strategy: Strategy
    hp: Hyperparams
    ft_lr: float = 0.001
    ft_epochs: int = 40
    per_layer: bool = False

    def __post_init__(self):
        if not 0.0 < self.prune_fraction_per_round < 1.0:
            raise ValueError("prune_fraction_per_round must lie in (0, 1)")
        if self.levels < 0:
            raise ValueError("levels must be nonnegative")
        object.__setattr__(self, "strategy", Strategy(self.strategy))


@dataclass
class LevelArtifacts:
    level: int
    mask: np.ndarray
    solution: np.ndarray
    record: TrainRecord


@dataclass
class ImpResult:
    """Per-level artifacts plus the dense run's init and rewind vectors."""

    levels: list[LevelArtifacts]
    w_init: np.ndarray
    w_rewind: np.ndarray


def sparsity(m: np.ndarray) -> float:
    """Fraction of zeros in the mask, over the full parameter vector."""
    m = np.asarray(m, dtype=bool)
    return 1.0 - float(m.sum()) / m.size


def prune_by_magnitude(
    w: np.ndarray,
    current: np.ndarray,
    count: int,
    prunable: np.ndarray,
    largest: bool = False,
) -> np.ndarray:
    """Drop the ``count`` smallest-|w| (or largest-|w|) active prunable weights.

    A stable sort keeps the lower-index coordinate first on ties.
    """
    current = np.asarray(current, dtype=bool)
    active_idx = np.flatnonzero(current & prunable)
    if active_idx.size < 2:
        raise MaskExhaustedError(
            f"only {active_idx.size} active prunable coordinates remain"
        )
    magnitude = np.abs(w[active_idx])
    order = np.argsort(-magnitude if largest else magnitude, kind="stable")
    new_mask = current.copy()
    new_mask[active_idx[order[:count]]] = False
    return new_mask


def magnitude_mask(
    w: np.ndarray,
    current: np.ndarray,
    fraction: float,
    prunable: np.ndarray,
    layer_slices: list[slice] | None = None,
) -> np.ndarray:
    """Prune the floor(fraction * active) smallest-|w| active weights.

    Selection is global across layers by default; passing ``layer_slices``
    (the weight slice of each layer) ranks within each layer instead.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    w = np.asarray(w, dtype=np.float64)
    current = np.asarray(current, dtype=bool)
    if w.shape != current.shape or w.shape != prunable.shape:
        raise DimensionMismatchError("w, mask, and prunable must share a layout")
    if layer_slices is None:
        active = int((current & prunable).sum())
        return prune_by_magnitude(w, current, int(fraction * active), prunable)
    mask = current.copy()
    for sl in layer_slices:
        scoped = np.zeros_like(prunable)
        scoped[sl] = prunable[sl]
        active = int((current & scoped).sum())
        mask &= prune_by_magnitude(w, current, int(fraction * active), scoped)
    return mask


def random_mask(
    current: np.ndarray, fraction: float, rng: RngStream, prunable: np.ndarray
) -> np.ndarray:
    """Like :func:`magnitude_mask` but the pruned subset is chosen uniformly."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    current = np.asarray(current, dtype=bool)
    active_idx = np.flatnonzero(current & prunable)
    if active_idx.size < 2:
        raise MaskExhaustedError(
            f"only {active_idx.size} active prunable coordinates remain"
        )
    count = int(fraction * active_idx.size)
    chosen = rng.generator().choice(active_idx, size=count, replace=False)
    new_mask = current.copy()
    new_mask[chosen] = False
    return new_mask


def project(w: np.ndarray, target_mask: np.ndarray) -> np.ndarray:
    """Apply another level's mask to a solution.

    Covers both directions: onto a sparser mask (projection) and onto a
    denser one (reverse projection, where re-activated coordinates stay zero
    because the source vector is zero there).
    """
    return apply_mask(w, target_mask)


def level_hp(hp: Hyperparams, level: int) -> Hyperparams:
    """Fresh SGD noise per level: re-key the data-order seed by level."""
    return replace(hp, seed=mix_seed(hp.seed, level))


def retrain_plan(
    cfg: ImpConfig,
    level: int,
    mask: np.ndarray,
    prev_solution: np.ndarray,
    w_rewind: np.ndarray,
    ctx: LossContext,
) -> tuple[np.ndarray, Hyperparams, int]:
    """(start vector, hyperparams, schedule offset) for one retraining run."""
    hp = level_hp(cfg.hp, level)
    if cfg.strategy is Strategy.WEIGHT_REWIND:
        return project(w_rewind, mask), hp, cfg.hp.rewind_step
    if cfg.strategy is Strategy.LR_REWIND:
        return project(prev_solution, mask), hp, cfg.hp.rewind_step
    if cfg.strategy is Strategy.FINE_TUNE:
        ft = replace(
            hp, epochs=cfg.ft_epochs, lr0=cfg.ft_lr, decay_epochs=(), rewind_step=0
        )
        return project(prev_solution, mask), ft, 0
    # random re-initialization of the surviving coordinates
    fresh = init_params(ctx.spec, RngStream(cfg.hp.seed, REINIT_STREAM).derive(level))
    return apply_mask(fresh, mask), hp, 0


def imp_run(
    ctx: LossContext,
    test: Dataset,
    cfg: ImpConfig,
    on_level=None,
    record_snapshots: bool = False,
) -> ImpResult:
    """Dense training followed by ``cfg.levels`` prune/retrain rounds.

    Level 0 trains the dense network from a fresh initialization and captures
    the rewind point. Each later level prunes the previous solution's mask by
    one round and retrains according to the configured strategy. ``on_level``
    (if given) is called with each finished LevelArtifacts, which is how the
    pipeline persists checkpoints as they appear.
    """
    prunable = prunable_coords(ctx.spec)
    slices = None
    if cfg.per_layer:
        from .model import layer_slices as _layer_slices

        slices = [w_sl for w_sl, _, _ in _layer_slices(ctx.spec)]
    w_init = init_params(ctx.spec, RngStream(cfg.hp.seed, INIT_STREAM))
    mask = dense_mask(ctx.spec)
    try:
        final, w_rewind, record = train(
            ctx, test, w_init, mask, level_hp(cfg.hp, 0),
            schedule_offset=0, record_snapshots=record_snapshots,
        )
    except DivergenceError as exc:
        exc.level = 0
        raise
    levels = [LevelArtifacts(0, mask, final, record)]
    if on_level is not None:
        on_level(levels[0])

    for level in range(1, cfg.levels + 1):
        mask = magnitude_mask(
            levels[-1].solution, levels[-1].mask, cfg.prune_fraction_per_round,
            prunable, layer_slices=slices,
        )
        start, hp, offset = retrain_plan(
            cfg, level, mask, levels[-1].solution, w_rewind, ctx
        )
        try:
            final, _, record = train(
                ctx, test, start, mask, hp,
                schedule_offset=offset, record_snapshots=record_snapshots,
            )
        except DivergenceError as exc:
            exc.level = level
            raise
        levels.append(LevelArtifacts(level, mask, final, record))
        if on_level is not None:
            on_level(levels[-1])
    return ImpResult(levels, w_init, w_rewind)


def _target_prune_count(
    current: np.ndarray, prunable: np.ndarray, target_sparsity: float
) -> int:
    """How many active prunable coords to drop so the mask's overall sparsity
    (zeros / D) lands on the target, floor-rule rounding."""
    total = current.size
    zeros_target = round(target_sparsity * total)
    active_now = int((current & prunable).sum())
    zeros_now = total - int(current.sum())
    count = zeros_target - zeros_now
    if count < 0 or count > active_now:
        raise ValueError(
            f"target sparsity {target_sparsity} unreachable from the source mask"
        )
    return count


def one_shot_run(
    ctx: LossContext,
    test: Dataset,
    dense: LevelArtifacts,
    w_rewind: np.ndarray,
    target_sparsity: float,
    hp: Hyperparams,
) -> LevelArtifacts:
    """Magnitude-prune the dense solution to the target sparsity in one go,
    then retrain with weight rewinding."""
    prunable = prunable_coords(ctx.spec)
    count = _target_prune_count(dense.mask, prunable, target_sparsity)
    mask = prune_by_magnitude(dense.solution, dense.mask, count, prunable)
    hp = replace(hp, seed=mix_seed(hp.seed, 1_001))
    final, _, record = train(
        ctx, test, project(w_rewind, mask), mask, hp, schedule_offset=hp.rewind_step
    )
    return LevelArtifacts(dense.level + 1, mask, final, record)


def fine_tune_run(
    ctx: LossContext,
    test: Dataset,
    source: LevelArtifacts,
    fraction: float,
    hp: Hyperparams,
    ft_lr: float = 0.001,
    ft_epochs: int = 40,
) -> LevelArtifacts:
    """Prune one round off the source solution, retrain at a small constant lr
    from the surviving weights (no rewinding)."""
    prunable = prunable_coords(ctx.spec)
    mask = magnitude_mask(source.solution, source.mask, fraction, prunable)
    ft = replace(
        hp,
        epochs=ft_epochs,
        lr0=ft_lr,
        decay_epochs=(),
        rewind_step=0,
        seed=mix_seed(hp.seed, 1_002),
    )
    final, _, record = train(ctx, test, project(source.solution, mask), mask, ft)
    return LevelArtifacts(source.level + 1, mask, final, record)


def random_reinit_run(
    ctx: LossContext,
    test: Dataset,
    source: LevelArtifacts,
    fraction: float,
    hp: Hyperparams,
) -> LevelArtifacts:
    """Prune one round off the source solution, then retrain the surviving
    coordinates from a fresh random initialization (full schedule)."""
    prunable = prunable_coords(ctx.spec)
    mask = magnitude_mask(source.solution, source.mask, fraction, prunable)
    fresh = init_params(ctx.spec, RngStream(hp.seed, REINIT_STREAM).derive(9_001))
    hp = replace(hp, seed=mix_seed(hp.seed, 1_003))
    final, _, record = train(ctx, test, apply_mask(fresh, mask), mask, hp)
    return LevelArtifacts(source.level + 1, mask, final, record)


def random_pruned_run(
    ctx: LossContext,
    test: Dataset,
    source: LevelArtifacts,
    hp: Hyperparams,
    rng: RngStream,
    w_rewind: np.ndarray,
    fraction: float | None = None,
    target_sparsity: float | None = None,
) -> LevelArtifacts:
    """Randomly prune the source solution, then retrain with weight rewinding.

    Give ``fraction`` for one round off the source mask, or
    ``target_sparsity`` to prune in one go to a specific overall sparsity
    (both flavors from the comparison suite).
    """
    if (fraction is None) == (target_sparsity is None):
        raise ValueError("give exactly one of fraction / target_sparsity")
    prunable = prunable_coords(ctx.spec)
    if fraction is not None:
        mask = random_mask(source.mask, fraction, rng, prunable)
    else:
        count = _target_prune_count(source.mask, prunable, target_sparsity)
        active_idx = np.flatnonzero(source.mask & prunable)
        chosen = rng.generator().choice(active_idx, size=count, replace=False)
        mask = source.mask.copy()
        mask[chosen] = False
    hp = replace(hp, seed=mix_seed(hp.seed, 1_004))
    final, _, record = train(
        ctx, test, project(w_rewind, mask), mask, hp, schedule_offset=hp.rewind_step
    )
    return LevelArtifacts(source.level + 1, mask, final, record)
