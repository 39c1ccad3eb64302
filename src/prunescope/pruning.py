"""Mask construction, level bookkeeping, and the iterative pruning loop.

Masks are boolean vectors aligned to the flat parameter layout; bias
coordinates are always active. Each round removes the
floor(fraction * active) smallest-magnitude active weights, ranked globally
across layers by default (per-layer ranking is an option), ties going to the
lower flattened index. A mask rule that prunes nothing raises
MaskExhaustedError. The IMP loop supports the four retraining strategies
(weight rewinding, learning-rate rewinding, fine-tuning, random
re-initialization).

:func:`variant_run` is the one retrain step: it prunes a trained level by
one mask rule and retrains it. :func:`imp_dense` trains level 0, and
:func:`imp_levels` takes the step once per level. The comparison runs are
rows of ``VARIANT_TABLE``, each the same step with a fixed source level (0
or L-1), mask rule, strategy and seed keys. A solution goes onto another
level's mask through :func:`~prunescope.model.apply_mask`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .autodiff import LossContext
from .errors import DimensionMismatchError, DivergenceError, MaskExhaustedError
from .model import (
    apply_mask,
    dense_mask,
    init_params,
    layer_slices,
    prunable_coords,
)
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
        # the fine-tune run's Hyperparams would reject these mid-pipeline
        if self.ft_epochs < 1:
            raise ValueError("ft_epochs must be at least 1")
        if not 0 < self.ft_lr < math.inf:
            raise ValueError("ft_lr must be positive and finite")
        object.__setattr__(self, "strategy", Strategy(self.strategy))


@dataclass
class LevelArtifacts:
    level: int
    mask: np.ndarray
    solution: np.ndarray
    record: TrainRecord


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


def _prune_count(
    current: np.ndarray,
    prunable: np.ndarray,
    fraction: float | None,
    target_sparsity: float | None,
) -> int:
    """floor(fraction * active), or the count that lands the mask's overall
    sparsity (zeros / D) on ``target_sparsity``."""
    active = int((current & prunable).sum())
    if (fraction is None) == (target_sparsity is None):
        raise ValueError("give exactly one of fraction / target_sparsity")
    if target_sparsity is None:
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must lie in (0, 1)")
        return int(fraction * active)
    count = round(target_sparsity * current.size) - (current.size - int(current.sum()))
    if not 0 <= count <= active:
        raise ValueError(
            f"target sparsity {target_sparsity} unreachable from the source mask"
        )
    return count


def _prunes_something(
    mask: np.ndarray, current: np.ndarray, prunable: np.ndarray
) -> np.ndarray:
    """The zero-count check every mask rule shares."""
    if np.array_equal(mask, current):
        raise MaskExhaustedError(
            f"the round prunes none of {int((current & prunable).sum())} active weights"
        )
    return mask


def magnitude_mask(
    w: np.ndarray,
    current: np.ndarray,
    fraction: float | None,
    prunable: np.ndarray,
    layer_slices: list[slice] | None = None,
    target_sparsity: float | None = None,
) -> np.ndarray:
    """Prune the floor(fraction * active) smallest-|w| active weights.

    Selection is global across layers by default; passing ``layer_slices``
    (the weight slice of each layer) ranks within each layer instead, and
    the zero-count check applies to the combined mask. Passing
    ``target_sparsity`` in place of ``fraction`` prunes, globally, in one go
    to that overall sparsity.
    """
    w = np.asarray(w, dtype=np.float64)
    current = np.asarray(current, dtype=bool)
    if w.shape != current.shape or w.shape != prunable.shape:
        raise DimensionMismatchError("w, mask, and prunable must share a layout")
    if layer_slices is None:
        count = _prune_count(current, prunable, fraction, target_sparsity)
        mask = prune_by_magnitude(w, current, count, prunable)
    elif target_sparsity is not None:
        raise ValueError("target_sparsity ranks globally; drop layer_slices")
    else:
        mask = current.copy()
        for sl in layer_slices:
            scoped = np.zeros_like(prunable)
            scoped[sl] = prunable[sl]
            count = _prune_count(current, scoped, fraction, None)
            mask &= prune_by_magnitude(w, current, count, scoped)
    return _prunes_something(mask, current, prunable)


def random_mask(
    current: np.ndarray,
    fraction: float | None,
    rng: RngStream,
    prunable: np.ndarray,
    target_sparsity: float | None = None,
) -> np.ndarray:
    """Like :func:`magnitude_mask` but the pruned subset is chosen uniformly."""
    current = np.asarray(current, dtype=bool)
    count = _prune_count(current, prunable, fraction, target_sparsity)
    active_idx = np.flatnonzero(current & prunable)
    chosen = rng.generator().choice(active_idx, size=count, replace=False)
    new_mask = current.copy()
    new_mask[chosen] = False
    return _prunes_something(new_mask, current, prunable)


def level_hp(hp: Hyperparams, key: int) -> Hyperparams:
    """Fresh SGD noise per run: re-key the data-order seed."""
    return replace(hp, seed=mix_seed(hp.seed, key))


def retrain_plan(
    cfg: ImpConfig,
    seed_key: int,
    init_key: int,
    mask: np.ndarray,
    prev_solution: np.ndarray,
    w_rewind: np.ndarray,
    ctx: LossContext,
) -> tuple[np.ndarray, Hyperparams, int]:
    """(start vector, hyperparams, schedule offset) for one retraining run.

    ``seed_key`` re-keys the data order and ``init_key`` the random
    re-initialization; an IMP level passes its level as both.
    """
    hp = level_hp(cfg.hp, seed_key)
    if cfg.strategy is Strategy.WEIGHT_REWIND:
        return apply_mask(w_rewind, mask), hp, cfg.hp.rewind_step
    if cfg.strategy is Strategy.LR_REWIND:
        return apply_mask(prev_solution, mask), hp, cfg.hp.rewind_step
    if cfg.strategy is Strategy.FINE_TUNE:
        ft = replace(
            hp, epochs=cfg.ft_epochs, lr0=cfg.ft_lr, decay_epochs=(), rewind_step=0
        )
        return apply_mask(prev_solution, mask), ft, 0
    # random re-initialization of the surviving coordinates
    fresh = init_params(ctx.spec, RngStream(cfg.hp.seed, REINIT_STREAM).derive(init_key))
    return apply_mask(fresh, mask), hp, 0


@dataclass(frozen=True)
class Variant:
    """One retrain step with fixed choices: a comparison run, or an IMP level
    as :func:`imp_levels` builds it.

    ``from_dense`` sources level 0, otherwise level L-1. ``rule`` is
    "magnitude" or "random" (drawn from ``RANDOM_MASK_STREAM`` derived by
    ``mask_key``); ``to_target`` prunes in one go to level L's sparsity,
    otherwise by one round. ``seed_key`` and ``init_key`` are the keys
    :func:`retrain_plan` takes.
    """

    name: str
    from_dense: bool
    rule: str
    to_target: bool
    strategy: Strategy
    seed_key: int
    init_key: int = 0
    mask_key: int = 0

    def source_level(self, levels: int) -> int:
        return 0 if self.from_dense else levels - 1


def level_name(level: int) -> str:
    """The name of IMP level ``level``'s solution: ``level00``, ``level01``, ..."""
    return f"level{level:02d}"


def projection_name(source: int, on: int) -> str:
    """The name of level ``source``'s solution on level ``on``'s mask: ``pr_``
    onto a later level's mask, ``rpr_`` (the reverse projection) onto an
    earlier one's, as in ``pr_level09_on_10`` and ``rpr_level10_on_09``."""
    return f"{'pr' if source < on else 'rpr'}_{level_name(source)}_on_{on:02d}"


# name, from_dense, rule, to_target, strategy, seed_key[, init_key, mask_key]
VARIANT_TABLE = (
    Variant("one_shot", True, "magnitude", True, Strategy.WEIGHT_REWIND, 1_001),
    Variant("fine_tune", False, "magnitude", False, Strategy.FINE_TUNE, 1_002),
    Variant("random_reinit", False, "magnitude", False, Strategy.RANDOM_REINIT, 1_003, 9_001),
    Variant("rpn1", False, "random", False, Strategy.WEIGHT_REWIND, 1_004, 0, 1),
    Variant("rpn2", True, "random", True, Strategy.WEIGHT_REWIND, 1_004, 0, 2),
)
# the mask_key of impact_random_mask's draw, which no row above may take
IMPACT_MASK_KEY = 3


def impact_random_mask(cfg: ImpConfig, current: np.ndarray, prunable: np.ndarray) -> np.ndarray:
    """A random round of ``cfg.prune_fraction_per_round`` from ``current``,
    drawn from ``RANDOM_MASK_STREAM`` derived by ``IMPACT_MASK_KEY``: the
    prune-impact analysis weighs it against IMP's magnitude round."""
    rng = RngStream(cfg.hp.seed, RANDOM_MASK_STREAM).derive(IMPACT_MASK_KEY)
    return random_mask(current, cfg.prune_fraction_per_round, rng, prunable)


def variant_run(
    ctx: LossContext,
    test: LossContext,
    cfg: ImpConfig,
    variant: Variant,
    source: LevelArtifacts,
    w_rewind: np.ndarray,
    target_sparsity: float | None = None,
    record_snapshots: bool = False,
) -> LevelArtifacts:
    """The retrain step: prune ``source`` by the variant's mask rule, then
    train from :func:`retrain_plan`'s start. The result's level is the
    source's + 1.

    A one-round rule prunes ``cfg.prune_fraction_per_round`` and ranks like
    an IMP round, within layers when ``cfg.per_layer`` is set, so the
    one-round magnitude mask is IMP level L's. A to-target rule prunes to
    ``target_sparsity`` (level L's) and always ranks globally.
    """
    prunable = prunable_coords(ctx.spec)
    fraction = None if variant.to_target else cfg.prune_fraction_per_round
    target = target_sparsity if variant.to_target else None
    per_layer = cfg.per_layer and not variant.to_target
    slices = [w_sl for w_sl, _, _ in layer_slices(ctx.spec)] if per_layer else None
    if variant.rule == "magnitude":
        mask = magnitude_mask(
            source.solution, source.mask, fraction, prunable, slices, target_sparsity=target
        )
    else:
        rng = RngStream(cfg.hp.seed, RANDOM_MASK_STREAM).derive(variant.mask_key)
        mask = random_mask(source.mask, fraction, rng, prunable, target_sparsity=target)
    start, hp, offset = retrain_plan(
        replace(cfg, strategy=variant.strategy), variant.seed_key, variant.init_key,
        mask, source.solution, w_rewind, ctx,
    )
    final, _, record = train(
        ctx, test, start, mask, hp, schedule_offset=offset, record_snapshots=record_snapshots
    )
    return LevelArtifacts(source.level + 1, mask, final, record)


def imp_dense(
    ctx: LossContext, test: LossContext, cfg: ImpConfig
) -> tuple[LevelArtifacts, np.ndarray, np.ndarray]:
    """IMP level 0: train the dense network from a fresh initialization.

    Returns (level 0, init vector, rewind vector); level 0's record holds
    its end-of-epoch iterates. A DivergenceError carries level 0.
    """
    w_init = init_params(ctx.spec, RngStream(cfg.hp.seed, INIT_STREAM))
    mask = dense_mask(ctx.spec)
    try:
        final, w_rewind, record = train(
            ctx, test, w_init, mask, level_hp(cfg.hp, 0), record_snapshots=True
        )
    except DivergenceError as exc:
        exc.level = 0
        raise
    return LevelArtifacts(0, mask, final, record), w_init, w_rewind


def imp_levels(
    ctx: LossContext,
    test: LossContext,
    cfg: ImpConfig,
    prev: LevelArtifacts,
    w_rewind: np.ndarray,
) -> Iterator[LevelArtifacts]:
    """Yield IMP levels ``prev.level + 1`` through ``cfg.levels``, each as
    soon as it is trained.

    Level L is the retrain step from level L-1: one magnitude round, the
    configured strategy, and seed keys L. Its record holds its end-of-epoch
    iterates. A round that prunes nothing raises MaskExhaustedError naming
    the level, and a DivergenceError carries it.
    """
    for level in range(prev.level + 1, cfg.levels + 1):
        step = Variant(level_name(level), False, "magnitude", False, cfg.strategy, level, level)
        try:
            prev = variant_run(ctx, test, cfg, step, prev, w_rewind, record_snapshots=True)
        except MaskExhaustedError as exc:
            raise MaskExhaustedError(f"IMP level {level}: {exc}") from exc
        except DivergenceError as exc:
            exc.level = level
            raise
        yield prev
