"""Stage-based pipeline reproducing the full experiment suite.

``STAGE_TABLE`` declares every stage once: its name, its function, the
stages whose artifacts it reads, and whether it only runs when
``imp.levels`` > 0 (otherwise it completes with no artifacts). ``STAGES``
is the table's order. A request for some stages runs them together with
everything they read, transitively, in that order.

Each stage writes its artifacts under the output directory through
:meth:`PipelineState.artifact`, which records every path it hands out as an
output of the running stage; ``manifest.json`` lists them with their SHA-256
hashes. A stage reads its inputs only from that directory, never from memory
an earlier stage left behind, so it does the same work whether its
predecessors ran in this call or in an earlier one. A rerun with the same
config and manifest format skips a completed stage only if every artifact it
lists is on disk with its manifest hash; otherwise the stage reruns, in table
order, and rewrites the same bytes. A rerun with another config or format
first deletes the files the old manifest lists. A finished pipeline is
byte-for-byte reproducible: every random stream derives from the master
seed, and no artifact embeds wall-clock state.

The dense stage trains level 0 through :func:`prunescope.pruning.imp_dense`
and saves the per-epoch iterates it returns. The imp stage starts
:func:`prunescope.pruning.imp_levels` from the level-0 and rewind
checkpoints and writes each level as the generator yields it, with its
trajectory against the level before. The four ``variant_*`` stages train
rows of :data:`prunescope.pruning.VARIANT_TABLE` through the same retrain
step, :func:`prunescope.pruning.variant_run` (``variant_random_prune``
trains both ``rpn1`` and ``rpn2``). Training reads the test set as
``PipelineState.test_ctx``, and one call, :meth:`PipelineState.store_checkpoint`,
stores each solution with its train loss and test accuracy.

An analysis point is one checkpoint's weights on one checkpoint's mask: the
solution itself when both are the same checkpoint, otherwise a projection.
``_points(levels)`` declares every point the analyses compare, name ->
(source, on), in eigen order: the levels, each level's predecessor on its
mask (``pr_``), each level on its predecessor's mask (the reverse
projection, ``rpr_``), then the variants. :meth:`PipelineState.point` is the
one place a checkpoint's weights go onto another checkpoint's mask, and
``_refs(source, on)`` is a point's checkpoint references cell. The metrics
stage reports the checkpoints among the points, and its prune impact the
final level's ``pr_`` point; distances measures every ``pr_`` point, and
radius declares its four profiles as name -> (source, on).

Artifact layout:

    config.json                      echoed config (out_dir normalized)
    data/{train,test}.csv            dataset (generated or normalized copy)
    data/analysis_indices.json       frozen loss-evaluation subset
    checkpoints/<name>.ckpt          init, rewind, level00.., variants
    checkpoints/level00_epochs.npy   level 0's end-of-epoch iterates, (epochs, D) float64
    metrics/train_<name>.csv         per-epoch (epoch, train_loss, test_acc, lr)
    metrics/trajectory_levelXX.csv   level-L vs projected level-(L-1) loss
    analysis/*.csv|*.json            landscape analyses
    plots/*.svg                      self-contained figures
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import landscape
from ..data import analysis_subset, gen_spirals, load_csv, load_idx, save_csv
from ..errors import ArtifactMissingError, ConfigError
from ..autodiff import LossContext
from ..model import NetworkSpec, apply_mask, prunable_coords
from ..numerics import RngStream
from ..pruning import (
    VARIANT_TABLE,
    LevelArtifacts,
    imp_dense,
    imp_levels,
    impact_random_mask,
    level_name,
    projection_name,
    prune_by_magnitude,
    sparsity,
    variant_run,
)
from ..trainer import TrainRecord
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_to_dict, save_config
from .plots import emit_plots
from .tables import load_manifest, write_csv, write_json, write_manifest

# stream_id roles, all keyed by the master seed
DATA_TRAIN_STREAM = 0xDA7A_0001
DATA_TEST_STREAM = 0xDA7A_0002
ANALYSIS_SUBSET_STREAM = 0xDA7A_0003
EIGEN_STREAM = 0xE16E_0001
RADIUS_STREAM = 0x4AD1_0001
TAYLOR_STREAM = 0x7A71_0001

VARIANTS = tuple(variant.name for variant in VARIANT_TABLE)
DENSE_SNAPSHOTS = "checkpoints/level00_epochs.npy"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _refs(*names: str) -> str:
    """The checkpoint references cell naming the given checkpoints, each once:
    ``_refs(source, on)`` is a point's."""
    return ";".join(f"checkpoints/{name}.ckpt" for name in dict.fromkeys(names))


def _points(levels: int) -> dict[str, tuple[str, str]]:
    """Every analysis point, name -> (source, on), in eigen order."""
    names = [level_name(level) for level in range(levels + 1)]
    points = {name: (name, name) for name in names}
    steps = range(1, levels + 1)
    points.update({projection_name(L - 1, L): (names[L - 1], names[L]) for L in steps})
    points.update({projection_name(L, L - 1): (names[L], names[L - 1]) for L in steps})
    if levels > 0:
        points.update({name: (name, name) for name in VARIANTS})
    return points


class PipelineState:
    """Loads artifacts lazily so any stage can run against a resumed directory,
    and records the artifacts the running stage writes.

    The train and test sets are loss contexts, loaded from the data stage's
    files and built once, on first use.
    """

    def __init__(self, cfg: ExperimentConfig, out: Path):
        self.cfg = cfg
        self.out = out
        self.spec = NetworkSpec(cfg.network)
        self._checkpoints: dict[str, Checkpoint] = {}
        self.written: set[str] = set()  # by the running stage

    def artifact(self, rel: str) -> Path:
        """The path to write artifact ``rel`` to, with its directory made;
        ``rel`` is recorded as an output of the running stage."""
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.written.add(rel)
        return path

    # ---- datasets -----------------------------------------------------
    def _require_file(self, rel: str) -> Path:
        path = self.out / rel
        if not path.exists():
            raise ArtifactMissingError(
                f"artifact {rel} not found under {self.out}; run earlier stages first"
            )
        return path

    @functools.cached_property
    def train_ctx(self) -> LossContext:
        ds = load_csv(self._require_file("data/train.csv"))
        return LossContext(self.spec, ds.features, ds.labels)

    @functools.cached_property
    def test_ctx(self) -> LossContext:
        ds = load_csv(self._require_file("data/test.csv"))
        return LossContext(self.spec, ds.features, ds.labels)

    @functools.cached_property
    def analysis_ctx(self) -> LossContext:
        path = self._require_file("data/analysis_indices.json")
        return self.train_ctx.rows(np.asarray(json.loads(path.read_text()), dtype=np.int64))

    # ---- checkpoints ---------------------------------------------------
    def checkpoint(self, name: str) -> Checkpoint:
        if name not in self._checkpoints:
            self._checkpoints[name] = load_checkpoint(
                self._require_file(f"checkpoints/{name}.ckpt")
            )
        return self._checkpoints[name]

    def point(self, source: str, on: str) -> tuple[np.ndarray, np.ndarray]:
        """Checkpoint ``source``'s weights on checkpoint ``on``'s mask, and the
        mask: the stored solution itself when they are one checkpoint."""
        params, mask = self.checkpoint(source).params, self.checkpoint(on).mask
        return (params if source == on else apply_mask(params, mask)), mask

    def store_checkpoint(
        self, name: str, params: np.ndarray, mask: np.ndarray, level: int, role: str, step: int
    ) -> None:
        """Save checkpoint ``name``, whose header holds the solution's train
        loss and test accuracy."""
        cp = Checkpoint(
            spec=self.spec,
            params=params,
            mask=mask,
            level=level,
            role=role,
            step=step,
            seed=self.cfg.master_seed,
            train_loss=self.train_ctx.at(mask).loss(params),
            test_accuracy=self.test_ctx.at(mask).accuracy(params),
        )
        save_checkpoint(self.artifact(f"checkpoints/{name}.ckpt"), cp)
        self._checkpoints[name] = cp


def _store_run(state: PipelineState, name: str, art: LevelArtifacts, role: str) -> None:
    """Checkpoint and per-epoch train metrics of one trained solution."""
    state.store_checkpoint(name, art.solution, art.mask, art.level, role, art.record.steps)
    rows = zip(art.record.train_loss, art.record.test_acc, art.record.lr)
    write_csv(
        state.artifact(f"metrics/train_{name}.csv"),
        ["epoch", "train_loss", "test_acc", "lr"],
        [[epoch, *row] for epoch, row in enumerate(rows)],
    )


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------


def stage_data(state: PipelineState) -> None:
    cfg = state.cfg
    src = cfg.dataset
    if src.kind == "spirals":
        train = gen_spirals(
            src.train_per_class,
            src.classes,
            src.noise_std,
            RngStream(cfg.master_seed, DATA_TRAIN_STREAM),
        )
        test = gen_spirals(
            src.test_per_class,
            src.classes,
            src.noise_std,
            RngStream(cfg.master_seed, DATA_TEST_STREAM),
        )
    elif src.kind == "csv":
        train = load_csv(src.train_path)
        test = load_csv(src.test_path, n_classes=train.n_classes)
    elif src.kind == "idx":
        train = load_idx(src.train_images, src.train_labels)
        test = load_idx(src.test_images, src.test_labels, n_classes=train.n_classes)
    else:  # pragma: no cover - config validation rejects this earlier
        raise ConfigError(f"unknown dataset kind {src.kind!r}")

    save_csv(train, state.artifact("data/train.csv"))
    save_csv(test, state.artifact("data/test.csv"))
    subset = analysis_subset(train, RngStream(cfg.master_seed, ANALYSIS_SUBSET_STREAM))
    state.artifact("data/analysis_indices.json").write_text(
        json.dumps([int(i) for i in subset]) + "\n", encoding="utf-8"
    )
    save_config(cfg, state.artifact("config.json"))


def stage_dense(state: PipelineState) -> None:
    cfg = state.cfg.imp_config()
    if cfg.hp.batch_size > state.train_ctx.n:
        raise ConfigError(
            f"training.batch_size {cfg.hp.batch_size} exceeds the "
            f"{state.train_ctx.n} training rows"
        )
    dense, w_init, w_rewind = imp_dense(state.train_ctx, state.test_ctx, cfg)
    state.store_checkpoint("init", w_init, dense.mask, 0, "init", 0)
    state.store_checkpoint("rewind", w_rewind, dense.mask, 0, "rewind_point", cfg.hp.rewind_step)
    _store_run(state, level_name(0), dense, "minimum")
    rows = dense.record.epoch_params
    with open(state.artifact(DENSE_SNAPSHOTS), "wb") as fh:  # np.save's format, without stacking
        header = np.lib.format.header_data_from_array_1_0(rows[0])
        np.lib.format.write_array_header_1_0(fh, {**header, "shape": (len(rows), rows[0].size)})
        for row in rows:
            row.tofile(fh)


def _trajectory_rows(state: PipelineState, art: LevelArtifacts, prev: LevelArtifacts) -> list[list]:
    """End-of-epoch full-train losses: level-L iterates vs the previous
    level's iterates hard-projected onto level L's mask. The last iterate is
    level L's solution, whose loss its checkpoint already holds. Every loss
    runs through one evaluator at level L's mask, which also projects the
    previous level's iterates: (p * m) * m equals p * m exactly."""
    ev = state.train_ctx.at(art.mask)
    current, previous = art.record.epoch_params, prev.record.epoch_params
    final_loss = state.checkpoint(level_name(art.level)).train_loss
    return [
        [
            epoch,
            final_loss if epoch == len(current) - 1 else ev.loss(current[epoch]),
            ev.loss(previous[epoch]),
        ]
        for epoch in range(min(len(current), len(previous)))
    ]


def stage_imp(state: PipelineState) -> None:
    dense = state.checkpoint(level_name(0))
    # only prev holds the mapped snapshots, so they are unmapped once level 1 is written
    prev = LevelArtifacts(
        0, dense.mask, dense.params,
        TrainRecord(epoch_params=np.load(state._require_file(DENSE_SNAPSHOTS), mmap_mode="r")),
    )
    w_rewind = state.checkpoint("rewind").params
    cfg = state.cfg.imp_config()
    for art in imp_levels(state.train_ctx, state.test_ctx, cfg, prev, w_rewind):
        name = level_name(art.level)
        _store_run(state, name, art, "minimum")
        write_csv(
            state.artifact(f"metrics/trajectory_{name}.csv"),
            ["epoch", "loss_current", "loss_prev_projected"],
            _trajectory_rows(state, art, prev),
        )
        prev = art


def _variant_stage(*names: str) -> Callable[[PipelineState], None]:
    """A stage that trains the named rows of ``VARIANT_TABLE``, in table order."""

    def stage(state: PipelineState) -> None:
        cfg = state.cfg.imp_config()
        target = sparsity(state.checkpoint(level_name(cfg.levels)).mask)
        w_rewind = state.checkpoint("rewind").params
        for variant in (v for v in VARIANT_TABLE if v.name in names):
            level = variant.source_level(cfg.levels)
            cp = state.checkpoint(level_name(level))
            source = LevelArtifacts(level, cp.mask, cp.params, TrainRecord())
            art = variant_run(
                state.train_ctx, state.test_ctx, cfg, variant, source, w_rewind, target
            )
            _store_run(state, variant.name, art, f"variant:{variant.name}")

    return stage


def stage_metrics(state: PipelineState) -> None:
    actx = state.analysis_ctx
    levels = state.cfg.imp.levels
    solutions = [name for name, (source, on) in _points(levels).items() if source == on]
    rows = []
    for name in solutions:
        cp = state.checkpoint(name)
        rows.append(
            [
                name,
                cp.level,
                sparsity(cp.mask),
                cp.train_loss,
                actx.at(cp.mask).loss(cp.params),
                cp.test_accuracy,
                _refs(name),
            ]
        )
    write_csv(
        state.artifact("analysis/level_summary.csv"),
        ["name", "level", "sparsity", "train_loss", "analysis_loss", "test_accuracy", "checkpoint"],
        rows,
    )
    if levels > 0:
        # immediate post-prune loss increase, before any retraining; IMP's
        # magnitude round from level L-1 is level L's mask
        prev_name = level_name(levels - 1)
        prev = state.checkpoint(prev_name)
        rand = impact_random_mask(state.cfg.imp_config(), prev.mask, prunable_coords(state.spec))
        params, mask = state.point(prev_name, level_name(levels))
        before = actx.at(prev.mask).loss(prev.params)
        after = {
            "magnitude": actx.at(mask).loss(params),
            "random": actx.at(rand).loss(apply_mask(prev.params, rand)),
        }
        write_csv(
            state.artifact("analysis/prune_impact.csv"),
            ["strategy", "loss_before", "loss_after", "delta", "checkpoint"],
            [[strategy, before, loss, loss - before, _refs(prev_name)] for strategy, loss in after.items()],
        )


def stage_distances(state: PipelineState) -> None:
    w_rewind = state.checkpoint("rewind").params
    rows = []
    for level in range(1, state.cfg.imp.levels + 1):
        source, on = level_name(level - 1), level_name(level)
        pr_prev, mask = state.point(source, on)
        pr_rewind = apply_mask(w_rewind, mask)
        rows.append(
            [
                level,
                float(np.linalg.norm(pr_prev - pr_rewind)),
                float(np.linalg.norm(state.checkpoint(on).params - pr_rewind)),
                _refs(source, on),
            ]
        )
    write_csv(
        state.artifact("analysis/rewind_distances.csv"),
        ["level", "dist_projected_prev", "dist_min", "checkpoints"],
        rows,
    )


def stage_eigen(state: PipelineState) -> None:
    actx = state.analysis_ctx
    k = state.cfg.analysis.k
    base = RngStream(state.cfg.master_seed, EIGEN_STREAM)
    value_rows = []
    summary_rows = []
    meta = {"k": k, "reports": {}}
    for index, (name, pair) in enumerate(_points(state.cfg.imp.levels).items()):
        params, mask = state.point(*pair)
        report = landscape.top_k_eigenvalues(actx, params, mask, k, base.derive(index))
        for rank, value in enumerate(report.eigenvalues):
            value_rows.append([name, rank, float(value)])
        summary_rows.append(
            [
                name,
                int(report.eigenvalues.size),
                landscape.inverse_volume(report, min(k, report.eigenvalues.size)),
                int(mask.sum()),
                _refs(*pair),
            ]
        )
        meta["reports"][name] = {
            "seed": list(report.seed),
            "lanczos_iters": report.lanczos_iters,
        }
    write_csv(
        state.artifact("analysis/eigen_values.csv"),
        ["name", "rank", "eigenvalue"],
        value_rows,
    )
    write_csv(
        state.artifact("analysis/eigen_summary.csv"),
        ["name", "n_positive", "vprime", "active_dims", "checkpoints"],
        summary_rows,
    )
    write_json(state.artifact("analysis/eigen_meta.json"), meta)


def stage_radius(state: PipelineState) -> None:
    levels = state.cfg.imp.levels
    actx = state.analysis_ctx
    n_dir = state.cfg.analysis.n_directions
    base = RngStream(state.cfg.master_seed, RADIUS_STREAM)
    final, prev = level_name(levels), level_name(levels - 1)
    profiles = {  # name -> (source, on)
        "final_min": (final, final),
        "final_projected_prev": (prev, final),
        "prev_min": (prev, prev),
        "prev_reverse_final": (final, prev),
    }
    points = {name: state.point(*pair) for name, pair in profiles.items()}
    losses = {name: actx.at(mask).loss(params) for name, (params, mask) in points.items()}
    # a mask's cutoff bounds both its own minimum and the projection onto it
    cutoffs = {
        final: landscape.basin_cutoff(losses["final_min"], losses["final_projected_prev"]),
        prev: landscape.basin_cutoff(losses["prev_min"], losses["prev_reverse_final"]),
    }
    summary_rows = []
    meta = {"n_directions": n_dir, "profiles": {}}
    for index, (name, (source, on)) in enumerate(profiles.items()):
        (params, mask), cutoff = points[name], cutoffs[on]
        profile = landscape.mc_radius_profile(
            actx, params, mask, n_dir, cutoff, base.derive(index)
        )
        write_csv(
            state.artifact(f"analysis/radius_{name}.csv"),
            ["direction", "radius", "censored"],
            [
                [i, float(r) if math.isfinite(r) else "inf", bool(not math.isfinite(r))]
                for i, r in enumerate(profile.radii)
            ],
        )
        active = int(mask.sum())
        summary_rows.append(
            [
                name,
                cutoff,
                profile.center_loss,
                profile.mean_radius,
                profile.n_censored,
                landscape.log_volume(profile, active),
                active,
                _refs(source, on),
            ]
        )
        meta["profiles"][name] = {"cutoff": cutoff, "n_censored": profile.n_censored}
    write_csv(
        state.artifact("analysis/radius_summary.csv"),
        ["name", "cutoff", "center_loss", "mean_radius", "n_censored", "log_volume", "active_dims", "checkpoints"],
        summary_rows,
    )
    write_json(state.artifact("analysis/radius_meta.json"), meta)


def _interp_pairs(levels: int) -> dict[str, tuple[str, str]]:
    """Each interpolation, name -> (endpoint a, endpoint b): successive
    levels, then each variant against the level it was pruned from."""
    names = [level_name(level) for level in range(levels + 1)]
    pairs = {f"interp_{a}_{b}": (a, b) for a, b in zip(names, names[1:])}
    sources = {v.name: level_name(v.source_level(levels)) for v in VARIANT_TABLE}
    for name in ("random_reinit", "one_shot", "rpn2", "rpn1"):
        pairs[f"interp_{name}"] = (sources[name], name)
    return pairs


def stage_interp(state: PipelineState) -> None:
    actx = state.analysis_ctx
    n_points = state.cfg.analysis.interp_points
    summary_rows = []
    for name, (a, b) in _interp_pairs(state.cfg.imp.levels).items():
        cp_a = state.checkpoint(a)
        cp_b = state.checkpoint(b)
        curve = landscape.interpolate_losses(actx, cp_a.params, cp_b.params, n_points=n_points)
        write_csv(
            state.artifact(f"analysis/{name}.csv"),
            ["alpha", "loss"],
            [[float(al), float(l)] for al, l in zip(curve.alphas, curve.losses)],
        )
        barrier = landscape.barrier_height(curve)
        summary_rows.append(
            [
                name,
                a,
                b,
                barrier.height,
                barrier.alpha,
                float(curve.losses[0]),
                float(curve.losses[-1]),
                _refs(a, b),
            ]
        )
    write_csv(
        state.artifact("analysis/interp_summary.csv"),
        ["name", "endpoint_a", "endpoint_b", "barrier_height", "barrier_alpha", "loss_a", "loss_b", "checkpoints"],
        summary_rows,
    )


def stage_surface(state: PipelineState) -> None:
    levels = state.cfg.imp.levels
    actx = state.analysis_ctx
    a = state.cfg.analysis
    anchor_names = (level_name(0), level_name(levels), "random_reinit")
    extra_names = [level_name(level) for level in range(1, levels)] + [
        name for name in VARIANTS if name not in anchor_names
    ]
    anchors = tuple(state.checkpoint(n).params for n in anchor_names)
    extras = [state.checkpoint(n).params for n in extra_names]
    grid = landscape.surface_grid(
        actx,
        anchors,
        extras,
        rows=a.grid_rows,
        cols=a.grid_cols,
        margin=a.grid_margin,
        loss_cap=a.loss_cap,
        anchor_names=anchor_names,
        extra_names=extra_names,
    )
    cell_rows = []
    for i in range(grid.rows):
        for j in range(grid.cols):
            cell_rows.append(
                [
                    i,
                    j,
                    float(grid.xs[j]),
                    float(grid.ys[i]),
                    float(grid.losses[i, j]),
                    bool(grid.clipped[i, j]),
                ]
            )
    write_csv(
        state.artifact("analysis/surface_grid.csv"),
        ["row", "col", "x", "y", "loss", "clipped"],
        cell_rows,
    )
    write_csv(
        state.artifact("analysis/surface_points.csv"),
        ["name", "x", "y", "loss", "projection_residual", "checkpoint"],
        [
            [p.name, p.x, p.y, p.loss, p.projection_residual, _refs(p.name)]
            for p in grid.points
        ],
    )


def stage_geometry(state: PipelineState) -> None:
    levels = state.cfg.imp.levels
    names = [level_name(level) for level in range(levels + 1)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    if levels > 0:
        refs = [level_name(0), level_name(levels - 1), level_name(levels)]
        pairs += [(v, r) for v in VARIANTS for r in refs]
    rows = []
    for a, b in pairs:
        cp_a = state.checkpoint(a)
        cp_b = state.checkpoint(b)
        euclid, cosine = landscape.geometry(cp_a.params, cp_b.params)
        rows.append([a, b, euclid, cosine, _refs(a, b)])
    write_csv(
        state.artifact("analysis/geometry.csv"),
        ["point_a", "point_b", "euclidean", "cosine", "checkpoints"],
        rows,
    )


def stage_taylor(state: PipelineState) -> None:
    actx = state.analysis_ctx
    prunable = prunable_coords(state.spec)
    stream = RngStream(state.cfg.master_seed, TAYLOR_STREAM)
    bases = [level_name(0)]
    if state.cfg.imp.levels >= 3:
        bases.append(level_name(3))
    rows = []
    for b_idx, base_name in enumerate(bases):
        cp = state.checkpoint(base_name)
        active = int((cp.mask & prunable).sum())
        count = max(1, int(0.01 * active))
        for v_idx, variant in enumerate(("smallest", "largest")):
            mask = prune_by_magnitude(
                cp.params, cp.mask, count, prunable, largest=variant == "largest"
            )
            predicted, actual = landscape.taylor_prune_estimate(
                actx,
                cp.params,
                cp.mask,
                mask,
                state.cfg.analysis.taylor_probes,
                stream.derive(b_idx, v_idx),
            )
            rows.append(
                [
                    base_name,
                    variant,
                    count,
                    predicted,
                    actual,
                    abs(predicted - actual),
                    _refs(base_name),
                ]
            )
    write_csv(
        state.artifact("analysis/taylor.csv"),
        ["base", "variant", "pruned_count", "predicted_delta", "actual_delta", "abs_error", "checkpoint"],
        rows,
    )


def stage_plots(state: PipelineState) -> None:
    for rel in emit_plots(state.out):  # written by emit_plots, recorded here
        state.artifact(rel)


@dataclass(frozen=True)
class Stage:
    name: str
    func: Callable[[PipelineState], None]
    reads: tuple[str, ...] = ()  # stages whose artifacts this one reads
    needs_levels: bool = False  # skipped (no artifacts) when imp.levels == 0


_VARIANT_STAGES = (
    Stage("variant_one_shot", _variant_stage("one_shot"), ("imp",), needs_levels=True),
    Stage("variant_fine_tune", _variant_stage("fine_tune"), ("imp",), needs_levels=True),
    Stage("variant_random_reinit", _variant_stage("random_reinit"), ("imp",), needs_levels=True),
    Stage("variant_random_prune", _variant_stage("rpn1", "rpn2"), ("imp",), needs_levels=True),
)
# every stage that trains a solution the analyses compare
_SOLUTIONS = ("imp",) + tuple(stage.name for stage in _VARIANT_STAGES)

# in run order; a stage reads only stages above it
STAGE_TABLE = (
    Stage("data", stage_data),
    Stage("dense", stage_dense, ("data",)),
    Stage("imp", stage_imp, ("dense",), needs_levels=True),
    *_VARIANT_STAGES,
    Stage("metrics", stage_metrics, _SOLUTIONS),
    Stage("distances", stage_distances, ("imp",), needs_levels=True),
    Stage("eigen", stage_eigen, _SOLUTIONS),
    Stage("radius", stage_radius, ("imp",), needs_levels=True),
    Stage("interp", stage_interp, _SOLUTIONS, needs_levels=True),
    Stage("surface", stage_surface, _SOLUTIONS, needs_levels=True),
    Stage("geometry", stage_geometry, _SOLUTIONS),
    Stage("taylor", stage_taylor, ("imp",)),
    Stage(
        "plots",
        stage_plots,
        ("metrics", "distances", "eigen", "radius", "interp", "surface", "geometry", "taylor"),
    ),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
# looked up at call time, so a caller may rewrap a stage's function here
_STAGE_FUNCS = {stage.name: stage.func for stage in STAGE_TABLE}


def _with_reads(requested) -> set[str]:
    """The requested stages plus everything they read, transitively."""
    wanted = set(requested)
    for stage in reversed(STAGE_TABLE):
        if stage.name in wanted:
            wanted.update(stage.reads)
    return wanted


def _intact(out: Path, manifest: dict, name: str) -> bool:
    """Whether a completed stage's artifacts are all on disk with their hashes."""
    return name in manifest["complete"] and all(
        (out / rel).is_file() and _sha256(out / rel) == manifest["hashes"].get(rel)
        for rel in manifest["stages"][name]
    )


def run_pipeline(
    cfg: ExperimentConfig, out_dir=None, stages: list[str] | None = None
) -> dict:
    """Execute the requested stages (default: all) and every stage they read,
    in table order, returning the manifest.

    An existing manifest of the same format and config is kept, and a stage
    it marks complete is skipped if every artifact the stage lists is on
    disk with its manifest hash; a missing or changed artifact reruns its
    stage. An absent or malformed manifest recomputes from scratch, and so
    does a config or format change, after deleting the files the old
    manifest lists inside the output directory. The manifest is rewritten
    atomically after each stage, so on a stage failure the manifest of
    completed stages is already on disk.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    requested = STAGES if stages is None else list(stages)
    unknown = set(requested) - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown pipeline stages {sorted(unknown)}")
    wanted = _with_reads(requested)

    manifest = {
        "format_version": 2,
        "config": config_to_dict(cfg),
        "stages": {},
        "hashes": {},
        "complete": [],
    }
    try:
        previous = load_manifest(out)
    except ArtifactMissingError:  # absent, half-written or malformed: recompute
        previous = manifest
    if all(previous[key] == manifest[key] for key in ("format_version", "config")):
        manifest = previous
    else:  # another config's files, which the new one need not all overwrite
        for rel in previous["hashes"]:
            path = out / rel  # is_file is False for a path no file can have
            if path.is_file() and path.resolve().is_relative_to(out.resolve()):
                path.unlink()

    state = PipelineState(cfg, out)
    for stage in STAGE_TABLE:
        name = stage.name
        if name not in wanted or _intact(out, manifest, name):
            continue
        state.written.clear()
        if not (stage.needs_levels and cfg.imp.levels == 0):
            _STAGE_FUNCS[name](state)
        manifest["stages"][name] = sorted(state.written)
        for rel in manifest["stages"][name]:
            manifest["hashes"][rel] = _sha256(out / rel)
        manifest["complete"] = [s for s in STAGES if s == name or s in manifest["complete"]]
        write_manifest(out, manifest)
    return manifest
