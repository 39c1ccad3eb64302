"""Stage-based pipeline reproducing the full experiment suite.

Stages run in a fixed order, each writing its artifacts under the output
directory and updating ``manifest.json`` (artifact names + SHA-256 hashes).
A rerun with the same config resumes after the last completed stage by
reloading checkpoints from disk, and a finished pipeline is byte-for-byte
reproducible: every random stream derives from the master seed, and no
artifact embeds wall-clock state.

Artifact layout:

    config.json                      echoed config (out_dir normalized)
    data/{train,test}.csv            dataset (generated or normalized copy)
    data/analysis_indices.json       frozen loss-evaluation subset
    checkpoints/<name>.ckpt          init, rewind, level00.., variants
    metrics/train_<name>.csv         per-epoch (epoch, train_loss, test_acc, lr)
    metrics/trajectory_levelXX.csv   level-L vs projected level-(L-1) loss
    analysis/*.csv|*.json            landscape analyses
    plots/*.svg                      self-contained figures
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import landscape
from ..data import Dataset, analysis_subset, gen_spirals, load_csv, load_idx, save_csv
from ..errors import ArtifactMissingError, ConfigError
from ..model import LossContext, NetworkSpec, loss_on, accuracy_on, prunable_coords, dense_mask
from ..numerics import RngStream, mix_seed
from ..pruning import (
    ImpConfig,
    LevelArtifacts,
    Strategy,
    fine_tune_run,
    level_hp,
    magnitude_mask,
    one_shot_run,
    project,
    prune_by_magnitude,
    random_mask,
    random_pruned_run,
    random_reinit_run,
    retrain_plan,
    sparsity,
)
from ..pruning import INIT_STREAM, RANDOM_MASK_STREAM
from ..trainer import Hyperparams, TrainRecord, lr_at, train
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_to_dict, save_config
from .tables import write_csv

# stream_id roles, all keyed by the master seed
DATA_TRAIN_STREAM = 0xDA7A_0001
DATA_TEST_STREAM = 0xDA7A_0002
ANALYSIS_SUBSET_STREAM = 0xDA7A_0003
EIGEN_STREAM = 0xE16E_0001
RADIUS_STREAM = 0x4AD1_0001
TAYLOR_STREAM = 0x7A71_0001

VARIANTS = ("one_shot", "fine_tune", "random_reinit", "rpn1", "rpn2")

STAGES = (
    "data",
    "dense",
    "imp",
    "variant_one_shot",
    "variant_fine_tune",
    "variant_random_reinit",
    "variant_random_prune",
    "metrics",
    "distances",
    "eigen",
    "radius",
    "interp",
    "surface",
    "geometry",
    "taylor",
    "plots",
)

MANIFEST_NAME = "manifest.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _level_name(level: int) -> str:
    return f"level{level:02d}"


class PipelineState:
    """Loads artifacts lazily so any stage can run against a resumed directory."""

    def __init__(self, cfg: ExperimentConfig, out: Path):
        self.cfg = cfg
        self.out = out
        self.spec = NetworkSpec(cfg.network)
        self._train_ds: Dataset | None = None
        self._test_ds: Dataset | None = None
        self._analysis_ctx: LossContext | None = None
        self._checkpoints: dict[str, Checkpoint] = {}
        self._dense_snapshots: list | None = None  # handed from dense to imp

    # ---- datasets -----------------------------------------------------
    def set_datasets(self, train: Dataset, test: Dataset) -> None:
        self._train_ds = train
        self._test_ds = test

    def _require_file(self, rel: str) -> Path:
        path = self.out / rel
        if not path.exists():
            raise ArtifactMissingError(
                f"artifact {rel} not found under {self.out}; run earlier stages first"
            )
        return path

    @property
    def train_ds(self) -> Dataset:
        if self._train_ds is None:
            self._train_ds = load_csv(self._require_file("data/train.csv"))
        return self._train_ds

    @property
    def test_ds(self) -> Dataset:
        if self._test_ds is None:
            self._test_ds = load_csv(self._require_file("data/test.csv"))
        return self._test_ds

    @property
    def train_ctx(self) -> LossContext:
        return LossContext(self.spec, self.train_ds.features, self.train_ds.labels)

    @property
    def analysis_ctx(self) -> LossContext:
        if self._analysis_ctx is None:
            path = self._require_file("data/analysis_indices.json")
            indices = np.asarray(json.loads(path.read_text()), dtype=np.int64)
            self._analysis_ctx = LossContext(
                self.spec,
                self.train_ds.features[indices],
                self.train_ds.labels[indices],
            )
        return self._analysis_ctx

    # ---- checkpoints ---------------------------------------------------
    def checkpoint(self, name: str) -> Checkpoint:
        if name not in self._checkpoints:
            self._checkpoints[name] = load_checkpoint(
                self._require_file(f"checkpoints/{name}.ckpt")
            )
        return self._checkpoints[name]

    def store_checkpoint(self, name: str, cp: Checkpoint) -> str:
        rel = f"checkpoints/{name}.ckpt"
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(path, cp)
        self._checkpoints[name] = cp
        return rel

    @property
    def hp(self) -> Hyperparams:
        return self.cfg.hyperparams(seed=self.cfg.master_seed)

    @property
    def imp_cfg(self) -> ImpConfig:
        c = self.cfg.imp
        return ImpConfig(
            levels=c.levels,
            prune_fraction_per_round=c.prune_fraction_per_round,
            strategy=Strategy(c.strategy),
            hp=self.hp,
            ft_lr=c.ft_lr,
            ft_epochs=c.ft_epochs,
            per_layer=c.per_layer,
        )

    def level_artifact(self, level: int) -> LevelArtifacts:
        cp = self.checkpoint(_level_name(level))
        return LevelArtifacts(level, cp.mask, cp.params, TrainRecord())


def _make_checkpoint(
    state: PipelineState,
    params: np.ndarray,
    mask: np.ndarray,
    level: int,
    role: str,
    step: int,
) -> Checkpoint:
    return Checkpoint(
        spec=state.spec,
        params=params,
        mask=mask,
        level=level,
        role=role,
        step=step,
        seed=state.cfg.master_seed,
        train_loss=loss_on(state.train_ctx, params, mask),
        test_accuracy=accuracy_on(
            LossContext(state.spec, state.test_ds.features, state.test_ds.labels),
            params,
            mask,
        ),
    )


def _write_train_metrics(
    state: PipelineState,
    name: str,
    record: TrainRecord,
    hp: Hyperparams,
    offset: int,
) -> str:
    steps_per_epoch = math.ceil(state.train_ds.n / hp.batch_size)
    rows = [
        [
            epoch,
            record.train_loss[epoch],
            record.test_acc[epoch],
            lr_at(hp, offset + epoch * steps_per_epoch, steps_per_epoch),
        ]
        for epoch in range(len(record.train_loss))
    ]
    rel = f"metrics/train_{name}.csv"
    write_csv(state.out / rel, ["epoch", "train_loss", "test_acc", "lr"], rows)
    return rel


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------


def stage_data(state: PipelineState) -> list[str]:
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
    state.set_datasets(train, test)

    (state.out / "data").mkdir(parents=True, exist_ok=True)
    save_csv(train, state.out / "data/train.csv")
    save_csv(test, state.out / "data/test.csv")
    subset = analysis_subset(train, RngStream(cfg.master_seed, ANALYSIS_SUBSET_STREAM))
    (state.out / "data/analysis_indices.json").write_text(
        json.dumps([int(i) for i in subset.indices]) + "\n", encoding="utf-8"
    )
    save_config(cfg, state.out / "config.json")
    return ["config.json", "data/train.csv", "data/test.csv", "data/analysis_indices.json"]


def stage_dense(state: PipelineState) -> list[str]:
    cfg = state.imp_cfg
    from ..model import init_params

    w_init = init_params(state.spec, RngStream(cfg.hp.seed, INIT_STREAM))
    mask = dense_mask(state.spec)
    final, w_rewind, record = train(
        state.train_ctx,
        state.test_ds,
        w_init,
        mask,
        level_hp(cfg.hp, 0),
        schedule_offset=0,
        record_snapshots=True,
    )
    state._dense_snapshots = record.epoch_params
    artifacts = [
        state.store_checkpoint(
            "init", _make_checkpoint(state, w_init, mask, 0, "init", 0)
        ),
        state.store_checkpoint(
            "rewind",
            _make_checkpoint(state, w_rewind, mask, 0, "rewind_point", cfg.hp.rewind_step),
        ),
        state.store_checkpoint(
            _level_name(0),
            _make_checkpoint(state, final, mask, 0, "minimum", record.steps),
        ),
        _write_train_metrics(state, _level_name(0), record, level_hp(cfg.hp, 0), 0),
    ]
    return artifacts


def _trajectory_rows(
    state: PipelineState,
    current: list[np.ndarray],
    previous: list[np.ndarray],
    mask: np.ndarray,
) -> list[list]:
    """End-of-epoch full-train losses: level-L iterates vs the previous
    level's iterates hard-projected onto level L's mask."""
    ctx = state.train_ctx
    rows = []
    for epoch in range(min(len(current), len(previous))):
        rows.append(
            [
                epoch,
                loss_on(ctx, current[epoch], mask),
                loss_on(ctx, project(previous[epoch], mask), mask),
            ]
        )
    return rows


def stage_imp(state: PipelineState) -> list[str]:
    cfg = state.imp_cfg
    if cfg.levels == 0:
        return []
    prunable = prunable_coords(state.spec)
    slices = None
    if cfg.per_layer:
        from ..model import layer_slices as _layer_slices

        slices = [w_sl for w_sl, _, _ in _layer_slices(state.spec)]
    w_rewind = state.checkpoint("rewind").params
    prev = state.level_artifact(0)
    prev_snapshots = state._dense_snapshots
    if prev_snapshots is None:
        # resumed run: the dense stage's in-memory snapshots are gone, so
        # trajectories are rebuilt by replaying the dense run deterministically
        from ..model import init_params

        w_init = init_params(state.spec, RngStream(cfg.hp.seed, INIT_STREAM))
        _, _, record0 = train(
            state.train_ctx,
            state.test_ds,
            w_init,
            dense_mask(state.spec),
            level_hp(cfg.hp, 0),
            schedule_offset=0,
            record_snapshots=True,
        )
        prev_snapshots = record0.epoch_params

    artifacts = []
    for level in range(1, cfg.levels + 1):
        mask = magnitude_mask(
            prev.solution, prev.mask, cfg.prune_fraction_per_round,
            prunable, layer_slices=slices,
        )
        start, hp, offset = retrain_plan(
            cfg, level, mask, prev.solution, w_rewind, state.train_ctx
        )
        final, _, record = train(
            state.train_ctx,
            state.test_ds,
            start,
            mask,
            hp,
            schedule_offset=offset,
            record_snapshots=True,
        )
        name = _level_name(level)
        artifacts.append(
            state.store_checkpoint(
                name, _make_checkpoint(state, final, mask, level, "minimum", record.steps)
            )
        )
        artifacts.append(_write_train_metrics(state, name, record, hp, offset))
        rel = f"metrics/trajectory_{name}.csv"
        write_csv(
            state.out / rel,
            ["epoch", "loss_current", "loss_prev_projected"],
            _trajectory_rows(state, record.epoch_params, prev_snapshots, mask),
        )
        artifacts.append(rel)
        prev = LevelArtifacts(level, mask, final, record)
        prev_snapshots = record.epoch_params
    return artifacts


def _variant_target_sparsity(state: PipelineState) -> float:
    return sparsity(state.checkpoint(_level_name(state.cfg.imp.levels)).mask)


def _store_variant(state: PipelineState, name: str, art: LevelArtifacts, hp, offset) -> list[str]:
    rels = [
        state.store_checkpoint(
            name,
            _make_checkpoint(
                state, art.solution, art.mask, art.level, f"variant:{name}", art.record.steps
            ),
        ),
        _write_train_metrics(state, name, art.record, hp, offset),
    ]
    return rels


def stage_variant_one_shot(state: PipelineState) -> list[str]:
    if state.cfg.imp.levels == 0:
        return []
    cfg = state.imp_cfg
    art = one_shot_run(
        state.train_ctx,
        state.test_ds,
        state.level_artifact(0),
        state.checkpoint("rewind").params,
        _variant_target_sparsity(state),
        cfg.hp,
    )
    hp = replace(cfg.hp, seed=mix_seed(cfg.hp.seed, 1_001))
    return _store_variant(state, "one_shot", art, hp, cfg.hp.rewind_step)


def stage_variant_fine_tune(state: PipelineState) -> list[str]:
    if state.cfg.imp.levels == 0:
        return []
    cfg = state.imp_cfg
    source = state.level_artifact(cfg.levels - 1)
    art = fine_tune_run(
        state.train_ctx,
        state.test_ds,
        source,
        cfg.prune_fraction_per_round,
        cfg.hp,
        ft_lr=cfg.ft_lr,
        ft_epochs=cfg.ft_epochs,
    )
    ft_hp = replace(
        cfg.hp,
        epochs=cfg.ft_epochs,
        lr0=cfg.ft_lr,
        decay_epochs=(),
        rewind_step=0,
        seed=mix_seed(cfg.hp.seed, 1_002),
    )
    return _store_variant(state, "fine_tune", art, ft_hp, 0)


def stage_variant_random_reinit(state: PipelineState) -> list[str]:
    if state.cfg.imp.levels == 0:
        return []
    cfg = state.imp_cfg
    source = state.level_artifact(cfg.levels - 1)
    art = random_reinit_run(
        state.train_ctx, state.test_ds, source, cfg.prune_fraction_per_round, cfg.hp
    )
    hp = replace(cfg.hp, seed=mix_seed(cfg.hp.seed, 1_003))
    return _store_variant(state, "random_reinit", art, hp, 0)


def stage_variant_random_prune(state: PipelineState) -> list[str]:
    if state.cfg.imp.levels == 0:
        return []
    cfg = state.imp_cfg
    w_rewind = state.checkpoint("rewind").params
    mask_stream = RngStream(state.cfg.master_seed, RANDOM_MASK_STREAM)
    hp = replace(cfg.hp, seed=mix_seed(cfg.hp.seed, 1_004))
    rpn1 = random_pruned_run(
        state.train_ctx,
        state.test_ds,
        state.level_artifact(cfg.levels - 1),
        cfg.hp,
        mask_stream.derive(1),
        w_rewind,
        fraction=cfg.prune_fraction_per_round,
    )
    rpn2 = random_pruned_run(
        state.train_ctx,
        state.test_ds,
        state.level_artifact(0),
        cfg.hp,
        mask_stream.derive(2),
        w_rewind,
        target_sparsity=_variant_target_sparsity(state),
    )
    out = _store_variant(state, "rpn1", rpn1, hp, cfg.hp.rewind_step)
    out += _store_variant(state, "rpn2", rpn2, hp, cfg.hp.rewind_step)
    return out


def _point_names(state: PipelineState) -> list[str]:
    names = [_level_name(level) for level in range(state.cfg.imp.levels + 1)]
    if state.cfg.imp.levels > 0:
        names += list(VARIANTS)
    return names


def stage_metrics(state: PipelineState) -> list[str]:
    actx = state.analysis_ctx
    tctx = state.train_ctx
    rows = []
    for name in _point_names(state):
        cp = state.checkpoint(name)
        rows.append(
            [
                name,
                cp.level,
                sparsity(cp.mask),
                loss_on(tctx, cp.params, cp.mask),
                loss_on(actx, cp.params, cp.mask),
                cp.test_accuracy,
                f"checkpoints/{name}.ckpt",
            ]
        )
    artifacts = ["analysis/level_summary.csv"]
    write_csv(
        state.out / artifacts[0],
        ["name", "level", "sparsity", "train_loss", "analysis_loss", "test_accuracy", "checkpoint"],
        rows,
    )
    if state.cfg.imp.levels > 0:
        # immediate post-prune loss increase, before any retraining
        prev = state.checkpoint(_level_name(state.cfg.imp.levels - 1))
        prunable = prunable_coords(state.spec)
        frac = state.cfg.imp.prune_fraction_per_round
        magnitude = magnitude_mask(prev.params, prev.mask, frac, prunable)
        rand = random_mask(
            prev.mask,
            frac,
            RngStream(state.cfg.master_seed, RANDOM_MASK_STREAM).derive(3),
            prunable,
        )
        before = loss_on(actx, prev.params, prev.mask)
        impact_rows = []
        for strategy, mask in (("magnitude", magnitude), ("random", rand)):
            after = loss_on(actx, project(prev.params, mask), mask)
            impact_rows.append(
                [
                    strategy,
                    before,
                    after,
                    after - before,
                    f"checkpoints/{_level_name(state.cfg.imp.levels - 1)}.ckpt",
                ]
            )
        write_csv(
            state.out / "analysis/prune_impact.csv",
            ["strategy", "loss_before", "loss_after", "delta", "checkpoint"],
            impact_rows,
        )
        artifacts.append("analysis/prune_impact.csv")
    return artifacts


def stage_distances(state: PipelineState) -> list[str]:
    if state.cfg.imp.levels == 0:
        return []
    w_rewind = state.checkpoint("rewind").params
    rows = []
    for level in range(1, state.cfg.imp.levels + 1):
        cur = state.checkpoint(_level_name(level))
        prev = state.checkpoint(_level_name(level - 1))
        pr_prev = project(prev.params, cur.mask)
        pr_rewind = project(w_rewind, cur.mask)
        rows.append(
            [
                level,
                float(np.linalg.norm(pr_prev - pr_rewind)),
                float(np.linalg.norm(cur.params - pr_rewind)),
                f"checkpoints/{_level_name(level - 1)}.ckpt;checkpoints/{_level_name(level)}.ckpt",
            ]
        )
    write_csv(
        state.out / "analysis/rewind_distances.csv",
        ["level", "dist_projected_prev", "dist_min", "checkpoints"],
        rows,
    )
    return ["analysis/rewind_distances.csv"]


def _eigen_points(state: PipelineState) -> list[tuple[str, np.ndarray, np.ndarray, str]]:
    """(name, params, mask, source checkpoints) in a fixed deterministic order."""
    levels = state.cfg.imp.levels
    points = []
    for level in range(levels + 1):
        cp = state.checkpoint(_level_name(level))
        points.append(
            (_level_name(level), cp.params, cp.mask, f"checkpoints/{_level_name(level)}.ckpt")
        )
    for level in range(1, levels + 1):
        prev = state.checkpoint(_level_name(level - 1))
        cur = state.checkpoint(_level_name(level))
        src = f"checkpoints/{_level_name(level - 1)}.ckpt;checkpoints/{_level_name(level)}.ckpt"
        points.append(
            (
                f"pr_{_level_name(level - 1)}_on_{level:02d}",
                project(prev.params, cur.mask),
                cur.mask,
                src,
            )
        )
    for level in range(1, levels + 1):
        prev = state.checkpoint(_level_name(level - 1))
        cur = state.checkpoint(_level_name(level))
        src = f"checkpoints/{_level_name(level)}.ckpt;checkpoints/{_level_name(level - 1)}.ckpt"
        points.append(
            (
                f"rpr_{_level_name(level)}_on_{level - 1:02d}",
                project(cur.params, prev.mask),
                prev.mask,
                src,
            )
        )
    if levels > 0:
        for name in VARIANTS:
            cp = state.checkpoint(name)
            points.append((name, cp.params, cp.mask, f"checkpoints/{name}.ckpt"))
    return points


def stage_eigen(state: PipelineState) -> list[str]:
    actx = state.analysis_ctx
    k = state.cfg.analysis.k
    base = RngStream(state.cfg.master_seed, EIGEN_STREAM)
    value_rows = []
    summary_rows = []
    meta = {"k": k, "reports": {}}
    for index, (name, params, mask, source) in enumerate(_eigen_points(state)):
        stream = base.derive(index)
        report = landscape.top_k_eigenvalues(actx, params, mask, k, stream)
        for rank, value in enumerate(report.eigenvalues):
            value_rows.append([name, rank, float(value)])
        summary_rows.append(
            [
                name,
                int(report.eigenvalues.size),
                landscape.inverse_volume(report, min(k, report.eigenvalues.size)),
                int(mask.sum()),
                source,
            ]
        )
        meta["reports"][name] = {
            "seed": list(report.seed),
            "lanczos_iters": report.lanczos_iters,
        }
    write_csv(
        state.out / "analysis/eigen_values.csv",
        ["name", "rank", "eigenvalue"],
        value_rows,
    )
    write_csv(
        state.out / "analysis/eigen_summary.csv",
        ["name", "n_positive", "vprime", "active_dims", "checkpoints"],
        summary_rows,
    )
    (state.out / "analysis/eigen_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return [
        "analysis/eigen_values.csv",
        "analysis/eigen_summary.csv",
        "analysis/eigen_meta.json",
    ]


def stage_radius(state: PipelineState) -> list[str]:
    levels = state.cfg.imp.levels
    if levels == 0:
        return []
    actx = state.analysis_ctx
    n_dir = state.cfg.analysis.n_directions
    base = RngStream(state.cfg.master_seed, RADIUS_STREAM)
    final = state.checkpoint(_level_name(levels))
    prev = state.checkpoint(_level_name(levels - 1))

    pr_prev = project(prev.params, final.mask)
    cut_fwd = landscape.basin_cutoff(
        loss_on(actx, final.params, final.mask), loss_on(actx, pr_prev, final.mask)
    )
    rpr_final = project(final.params, prev.mask)
    cut_rev = landscape.basin_cutoff(
        loss_on(actx, prev.params, prev.mask), loss_on(actx, rpr_final, prev.mask)
    )
    profiles = [
        ("final_min", final.params, final.mask, cut_fwd,
         f"checkpoints/{_level_name(levels)}.ckpt"),
        ("final_projected_prev", pr_prev, final.mask, cut_fwd,
         f"checkpoints/{_level_name(levels - 1)}.ckpt;checkpoints/{_level_name(levels)}.ckpt"),
        ("prev_min", prev.params, prev.mask, cut_rev,
         f"checkpoints/{_level_name(levels - 1)}.ckpt"),
        ("prev_reverse_final", rpr_final, prev.mask, cut_rev,
         f"checkpoints/{_level_name(levels)}.ckpt;checkpoints/{_level_name(levels - 1)}.ckpt"),
    ]
    artifacts = []
    summary_rows = []
    meta = {"n_directions": n_dir, "profiles": {}}
    for index, (name, params, mask, cutoff, source) in enumerate(profiles):
        profile = landscape.mc_radius_profile(
            actx, params, mask, n_dir, cutoff, base.derive(index)
        )
        rel = f"analysis/radius_{name}.csv"
        write_csv(
            state.out / rel,
            ["direction", "radius", "censored"],
            [
                [i, float(r) if math.isfinite(r) else "inf", bool(not math.isfinite(r))]
                for i, r in enumerate(profile.radii)
            ],
        )
        artifacts.append(rel)
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
                source,
            ]
        )
        meta["profiles"][name] = {"cutoff": cutoff, "n_censored": profile.n_censored}
    write_csv(
        state.out / "analysis/radius_summary.csv",
        ["name", "cutoff", "center_loss", "mean_radius", "n_censored", "log_volume", "active_dims", "checkpoints"],
        summary_rows,
    )
    (state.out / "analysis/radius_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return artifacts + ["analysis/radius_summary.csv", "analysis/radius_meta.json"]


def _interp_pairs(state: PipelineState) -> list[tuple[str, str, str]]:
    levels = state.cfg.imp.levels
    pairs = [
        (
            f"interp_{_level_name(level - 1)}_{_level_name(level)}",
            _level_name(level - 1),
            _level_name(level),
        )
        for level in range(1, levels + 1)
    ]
    if levels > 0:
        pairs += [
            ("interp_random_reinit", _level_name(levels - 1), "random_reinit"),
            ("interp_one_shot", _level_name(0), "one_shot"),
            ("interp_rpn2", _level_name(0), "rpn2"),
            ("interp_rpn1", _level_name(levels - 1), "rpn1"),
        ]
    return pairs


def stage_interp(state: PipelineState) -> list[str]:
    if state.cfg.imp.levels == 0:
        return []
    actx = state.analysis_ctx
    n_points = state.cfg.analysis.interp_points
    artifacts = []
    summary_rows = []
    for name, a, b in _interp_pairs(state):
        cp_a = state.checkpoint(a)
        cp_b = state.checkpoint(b)
        curve = landscape.interpolate_losses(
            actx, cp_a.params, cp_b.params, n_points=n_points,
            endpoint_a=a, endpoint_b=b,
        )
        rel = f"analysis/{name}.csv"
        write_csv(
            state.out / rel,
            ["alpha", "loss"],
            [[float(al), float(l)] for al, l in zip(curve.alphas, curve.losses)],
        )
        artifacts.append(rel)
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
                f"checkpoints/{a}.ckpt;checkpoints/{b}.ckpt",
            ]
        )
    write_csv(
        state.out / "analysis/interp_summary.csv",
        ["name", "endpoint_a", "endpoint_b", "barrier_height", "barrier_alpha", "loss_a", "loss_b", "checkpoints"],
        summary_rows,
    )
    return artifacts + ["analysis/interp_summary.csv"]


def stage_surface(state: PipelineState) -> list[str]:
    levels = state.cfg.imp.levels
    if levels == 0:
        return []
    actx = state.analysis_ctx
    a = state.cfg.analysis
    anchor_names = (_level_name(0), _level_name(levels), "random_reinit")
    extra_names = [_level_name(level) for level in range(1, levels)] + [
        "one_shot",
        "fine_tune",
        "rpn1",
        "rpn2",
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
        state.out / "analysis/surface_grid.csv",
        ["row", "col", "x", "y", "loss", "clipped"],
        cell_rows,
    )
    write_csv(
        state.out / "analysis/surface_points.csv",
        ["name", "x", "y", "loss", "projection_residual", "checkpoint"],
        [
            [p.name, p.x, p.y, p.loss, p.projection_residual, f"checkpoints/{p.name}.ckpt"]
            for p in grid.points
        ],
    )
    return ["analysis/surface_grid.csv", "analysis/surface_points.csv"]


def stage_geometry(state: PipelineState) -> list[str]:
    levels = state.cfg.imp.levels
    names = [_level_name(level) for level in range(levels + 1)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    if levels > 0:
        refs = [_level_name(0), _level_name(levels - 1), _level_name(levels)]
        pairs += [(v, r) for v in VARIANTS for r in refs]
    rows = []
    for a, b in pairs:
        cp_a = state.checkpoint(a)
        cp_b = state.checkpoint(b)
        euclid, cosine = landscape.geometry(cp_a.params, cp_b.params)
        rows.append(
            [a, b, euclid, cosine, f"checkpoints/{a}.ckpt;checkpoints/{b}.ckpt"]
        )
    write_csv(
        state.out / "analysis/geometry.csv",
        ["point_a", "point_b", "euclidean", "cosine", "checkpoints"],
        rows,
    )
    return ["analysis/geometry.csv"]


def stage_taylor(state: PipelineState) -> list[str]:
    actx = state.analysis_ctx
    prunable = prunable_coords(state.spec)
    stream = RngStream(state.cfg.master_seed, TAYLOR_STREAM)
    bases = [_level_name(0)]
    if state.cfg.imp.levels >= 3:
        bases.append(_level_name(3))
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
                    f"checkpoints/{base_name}.ckpt",
                ]
            )
    write_csv(
        state.out / "analysis/taylor.csv",
        ["base", "variant", "pruned_count", "predicted_delta", "actual_delta", "abs_error", "checkpoint"],
        rows,
    )
    return ["analysis/taylor.csv"]


def stage_plots(state: PipelineState) -> list[str]:
    from .plots import emit_plots

    return emit_plots(state.out)


_STAGE_FUNCS = {
    "data": stage_data,
    "dense": stage_dense,
    "imp": stage_imp,
    "variant_one_shot": stage_variant_one_shot,
    "variant_fine_tune": stage_variant_fine_tune,
    "variant_random_reinit": stage_variant_random_reinit,
    "variant_random_prune": stage_variant_random_prune,
    "metrics": stage_metrics,
    "distances": stage_distances,
    "eigen": stage_eigen,
    "radius": stage_radius,
    "interp": stage_interp,
    "surface": stage_surface,
    "geometry": stage_geometry,
    "taylor": stage_taylor,
    "plots": stage_plots,
}


def _empty_manifest(cfg: ExperimentConfig) -> dict:
    return {
        "format_version": 1,
        "config": config_to_dict(cfg),
        "stages": {},
        "hashes": {},
        "complete": [],
    }


def _write_manifest(out: Path, manifest: dict) -> None:
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_manifest(out_dir) -> dict:
    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        raise ArtifactMissingError(f"no {MANIFEST_NAME} under {out_dir}")
    return json.loads(path.read_text(encoding="utf-8"))


def run_pipeline(
    cfg: ExperimentConfig,
    out_dir=None,
    stages: list[str] | None = None,
    resume: bool = True,
) -> dict:
    """Execute the requested stages (default: all), returning the manifest.

    With ``resume`` (the default), stages already marked complete in an
    existing manifest for the same config are skipped; a config change
    invalidates the directory and recomputes from scratch. On a stage
    failure the manifest of completed stages is already on disk.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    requested = list(STAGES) if stages is None else list(stages)
    unknown = set(requested) - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown pipeline stages {sorted(unknown)}")

    manifest = _empty_manifest(cfg)
    if resume and (out / MANIFEST_NAME).exists():
        previous = load_manifest(out)
        if previous.get("config") == manifest["config"]:
            manifest = previous

    state = PipelineState(cfg, out)
    for stage in STAGES:
        if stage not in requested:
            continue
        if resume and stage in manifest["complete"]:
            continue
        artifacts = _STAGE_FUNCS[stage](state)
        manifest["stages"][stage] = sorted(artifacts)
        for rel in artifacts:
            manifest["hashes"][rel] = _sha256(out / rel)
        if stage not in manifest["complete"]:
            manifest["complete"].append(stage)
        manifest["complete"] = [s for s in STAGES if s in manifest["complete"]]
        _write_manifest(out, manifest)
    return manifest
