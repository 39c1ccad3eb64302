import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prunescope as ps
from helpers import criterion2_config
from prunescope import pruning
from prunescope.errors import ArtifactMissingError, ConfigError, DivergenceError
from prunescope.experiment import ExperimentConfig, emit_plots, load_manifest, run_pipeline
from prunescope.experiment import cli, load_checkpoint, pipeline
from prunescope.experiment.config import (
    AnalysisSettings,
    ImpSettings,
    SpiralsSource,
    TrainingSettings,
    config_to_dict,
    save_config,
)
from prunescope.experiment.pipeline import STAGE_TABLE, STAGES, PipelineState
from prunescope.experiment.tables import read_csv_dicts, write_manifest

SNAPSHOTS = "checkpoints/level00_epochs.npy"


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m prunescope.experiment.cli`` in a subprocess that imports
    the package under test."""
    src = str(Path(ps.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "prunescope.experiment.cli", *args],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )


def small_config(master_seed=11, levels=2):
    return ExperimentConfig(
        dataset=SpiralsSource(train_per_class=40, test_per_class=20, classes=3, noise_std=0.15),
        network=(2, 16, 3),
        training=TrainingSettings(epochs=6, batch_size=16, decay_epochs=(4,), rewind_step=10),
        imp=ImpSettings(levels=levels, ft_epochs=3),
        analysis=AnalysisSettings(
            k=5, n_directions=24, interp_points=51, grid_rows=8, grid_cols=9, taylor_probes=20
        ),
        master_seed=master_seed,
    )


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    run_pipeline(small_config(), out)
    return out


class TestPipelineStructure:
    def test_all_stages_complete(self, run_dir):
        manifest = load_manifest(run_dir)
        assert manifest["complete"][-1] == "plots"
        assert len(manifest["complete"]) == 16

    def test_interp_csv_row_counts(self, run_dir):
        rows = read_csv_dicts(run_dir / "analysis/interp_level00_level01.csv")
        assert len(rows) == 51

    def test_one_interp_csv_per_level_pair(self, run_dir):
        manifest = load_manifest(run_dir)
        level_interps = [
            a for a in manifest["hashes"]
            if a.startswith("analysis/interp_level")
        ]
        assert len(level_interps) == small_config().imp.levels

    def test_radius_profile_direction_count(self, run_dir):
        rows = read_csv_dicts(run_dir / "analysis/radius_final_min.csv")
        assert len(rows) == 24

    def test_surface_grid_cell_count(self, run_dir):
        rows = read_csv_dicts(run_dir / "analysis/surface_grid.csv")
        assert len(rows) == 8 * 9

    def test_checkpoint_referential_integrity(self, run_dir):
        # every checkpoint referenced by an analysis CSV exists in the manifest
        manifest = load_manifest(run_dir)
        for rel in manifest["hashes"]:
            if not (rel.startswith("analysis/") and rel.endswith(".csv")):
                continue
            for row in read_csv_dicts(run_dir / rel):
                for column in ("checkpoint", "checkpoints"):
                    if column in row:
                        for ref in row[column].split(";"):
                            assert ref in manifest["hashes"], f"{rel} references {ref}"

    def test_solutions_respect_masks(self, run_dir):
        from prunescope.experiment import load_checkpoint

        for name in ("level00", "level01", "level02", "one_shot", "rpn1"):
            cp = load_checkpoint(run_dir / f"checkpoints/{name}.ckpt")
            assert np.all(cp.params[~cp.mask] == 0.0)

    def test_sparsity_sequence(self, run_dir):
        rows = read_csv_dicts(run_dir / "analysis/level_summary.csv")
        by_name = {r["name"]: r for r in rows}
        seq = [float(by_name[f"level{i:02d}"]["sparsity"]) for i in range(3)]
        assert seq[0] == 0.0
        assert seq[1] < seq[2]
        # variants land at the final level's sparsity
        for variant in ("one_shot", "fine_tune", "random_reinit", "rpn1", "rpn2"):
            assert float(by_name[variant]["sparsity"]) == seq[2]

    def test_manifest_has_no_absolute_paths(self, run_dir):
        manifest = load_manifest(run_dir)
        for rel in manifest["hashes"]:
            assert not rel.startswith("/")
        assert manifest["config"]["out_dir"] == "."


class TestDeterminismAndResume:
    def test_two_runs_identical_manifests(self, run_dir, tmp_path):
        other = tmp_path / "again"
        manifest = run_pipeline(small_config(), other)
        assert manifest["hashes"] == load_manifest(run_dir)["hashes"]

    def test_resume_skips_completed_stages(self, run_dir):
        before = load_manifest(run_dir)
        manifest = run_pipeline(small_config(), run_dir)
        assert manifest["hashes"] == before["hashes"]

    def test_resume_from_partial(self, run_dir, tmp_path):
        partial = tmp_path / "partial"
        run_pipeline(small_config(), partial, stages=["data", "dense", "imp"])
        assert load_manifest(partial)["complete"] == ["data", "dense", "imp"]
        manifest = run_pipeline(small_config(), partial)
        assert manifest["hashes"] == load_manifest(run_dir)["hashes"]

    def test_config_change_invalidates(self, run_dir, tmp_path):
        out = tmp_path / "inval"
        run_pipeline(small_config(), out, stages=["data"])
        changed = small_config(master_seed=99)
        manifest = run_pipeline(changed, out, stages=["data"])
        assert manifest["complete"] == ["data"]
        assert manifest["config"]["master_seed"] == 99


def _disk_hashes(out, rels) -> dict:
    return {
        rel: hashlib.sha256((out / rel).read_bytes()).hexdigest()
        for rel in rels
        if (out / rel).is_file()
    }


class TestStagesReadTheDisk:
    """A stage reads its inputs only from the artifact directory, and a
    resume reruns a completed stage whose artifacts are missing or changed."""

    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fresh")
        return out, run_pipeline(criterion2_config(), out)["hashes"]

    def _resumed_copy(self, fresh, tmp_path):
        out = tmp_path / "resumed"
        shutil.copytree(fresh[0], out)
        return out

    def test_one_call_per_stage_matches_one_call(self, fresh, tmp_path, monkeypatch):
        steps: dict[str, list[int]] = {"one call": [], "per stage": []}
        counted = steps["one call"]

        def counting_train(*args, **kwargs):
            result = ps.train(*args, **kwargs)
            counted.append(result[2].steps)
            return result

        monkeypatch.setattr(pruning, "train", counting_train)
        one = run_pipeline(criterion2_config(), tmp_path / "one")["hashes"]
        counted = steps["per stage"]
        for name in STAGES:
            run_pipeline(criterion2_config(), tmp_path / "staged", stages=[name])
        staged = load_manifest(tmp_path / "staged")["hashes"]
        assert one == staged == fresh[1]
        assert steps["per stage"] == steps["one call"]

    def test_every_file_is_listed_by_one_stage(self, fresh):
        out, hashes = fresh
        on_disk = {path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()}
        assert on_disk == set(hashes) | {"manifest.json"}
        listed = [rel for rels in load_manifest(out)["stages"].values() for rel in rels]
        assert sorted(listed) == sorted(hashes)

    def test_every_reference_names_a_hashed_checkpoint(self, fresh):
        out, hashes = fresh
        for rel in (rel for rel in hashes if rel.endswith(".csv")):
            for row in read_csv_dicts(out / rel):
                cells = [row[c] for c in ("checkpoint", "checkpoints") if c in row]
                for ref in (ref for cell in cells for ref in cell.split(";")):
                    assert ref.startswith("checkpoints/") and ref in hashes, f"{rel}: {ref}"

    def test_eigen_and_radius_references_are_their_points(self, fresh):
        # each row's cell is _refs of its table pair; radius profiles are
        # the final and previous levels and the two projections between them
        out, _ = fresh
        levels = criterion2_config().imp.levels
        points = pipeline._points(levels)
        profiles = {
            "final_min": pruning.level_name(levels),
            "final_projected_prev": pruning.projection_name(levels - 1, levels),
            "prev_min": pruning.level_name(levels - 1),
            "prev_reverse_final": pruning.projection_name(levels, levels - 1),
        }
        for csv, names in (("eigen_summary.csv", dict(zip(points, points))), ("radius_summary.csv", profiles)):
            rows = read_csv_dicts(out / "analysis" / csv)
            assert [row["name"] for row in rows] == list(names)
            for row in rows:
                assert row["checkpoints"] == pipeline._refs(*points[names[row["name"]]])

    def test_checkpoint_headers_match_the_evaluator(self, fresh):
        # each header's train loss and test accuracy are the evaluator's on
        # the data stage's sets, and a trained run's accuracy is its last epoch's
        out, hashes = fresh
        spec = ps.NetworkSpec(criterion2_config().network)
        train, test = (ps.load_csv(out / f"data/{name}.csv") for name in ("train", "test"))
        train_ctx = ps.LossContext(spec, train.features, train.labels)
        test_ctx = ps.LossContext(spec, test.features, test.labels)
        names = [Path(rel).stem for rel in hashes if rel.endswith(".ckpt")]
        assert {"init", "rewind", "level00", "level02", "rpn2"} <= set(names)
        for name in names:
            cp = load_checkpoint(out / f"checkpoints/{name}.ckpt")
            assert cp.train_loss == train_ctx.at(cp.mask).loss(cp.params), name
            assert cp.test_accuracy == test_ctx.at(cp.mask).accuracy(cp.params), name
            if name not in ("init", "rewind"):
                last = read_csv_dicts(out / f"metrics/train_{name}.csv")[-1]
                assert cp.test_accuracy == float(last["test_acc"]), name

    @pytest.mark.parametrize("damage", ["deleted", "overwritten"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_damaged_artifact_is_rewritten(self, fresh, tmp_path, stage, damage):
        out = self._resumed_copy(fresh, tmp_path)
        rel = sorted(load_manifest(out)["stages"][stage])[0]
        if damage == "deleted":
            (out / rel).unlink()
        else:
            (out / rel).write_bytes(b"damaged\n")
        manifest = run_pipeline(criterion2_config(), out)
        assert manifest["hashes"] == fresh[1]
        assert _disk_hashes(out, fresh[1]) == fresh[1]

    def test_deleted_dense_snapshots_are_rewritten(self, fresh, tmp_path):
        out = self._resumed_copy(fresh, tmp_path)
        (out / SNAPSHOTS).unlink()
        assert run_pipeline(criterion2_config(), out)["hashes"] == fresh[1]
        assert _disk_hashes(out, fresh[1]) == fresh[1]

    def test_previous_manifest_format_is_recomputed(self, fresh, tmp_path):
        # a format-1 directory: no dense snapshots, and imp needs rerunning
        out = self._resumed_copy(fresh, tmp_path)
        manifest = load_manifest(out)
        manifest["format_version"] = 1
        manifest["stages"]["dense"].remove(SNAPSHOTS)
        del manifest["hashes"][SNAPSHOTS]
        write_manifest(out, manifest)
        (out / SNAPSHOTS).unlink()
        (out / "checkpoints/level01.ckpt").unlink()
        assert run_pipeline(criterion2_config(), out)["hashes"] == fresh[1]
        assert _disk_hashes(out, fresh[1]) == fresh[1]

    def test_half_written_manifest_is_recomputed(self, fresh, tmp_path):
        out = self._resumed_copy(fresh, tmp_path)
        path = out / "manifest.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert run_pipeline(criterion2_config(), out)["hashes"] == fresh[1]
        assert load_manifest(out)["hashes"] == fresh[1]
        assert _disk_hashes(out, fresh[1]) == fresh[1]

    @pytest.mark.parametrize(
        "damage",
        ["list", "no complete", "stages a list", "stage an int", "stage of ints", "hash an int"],
    )
    def test_manifest_of_another_shape_is_recomputed(self, fresh, tmp_path, damage):
        out = self._resumed_copy(fresh, tmp_path)
        manifest = load_manifest(out)
        if damage == "list":
            manifest = []
        elif damage == "no complete":
            del manifest["complete"]
        elif damage == "stages a list":
            manifest["stages"] = []
        elif damage == "stage an int":
            manifest["stages"]["data"] = 5
        elif damage == "stage of ints":
            manifest["stages"]["data"] = [5]
        else:
            manifest["hashes"]["config.json"] = 5
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactMissingError, match="is not a manifest"):
            load_manifest(out)
        assert run_pipeline(criterion2_config(), out)["hashes"] == fresh[1]
        assert _disk_hashes(out, fresh[1]) == fresh[1]

    def test_fewer_levels_leave_no_stale_file(self, fresh, tmp_path):
        out = self._resumed_copy(fresh, tmp_path)
        base = criterion2_config()
        hashes = run_pipeline(replace(base, imp=replace(base.imp, levels=1)), out)["hashes"]
        on_disk = {path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()}
        assert on_disk == set(hashes) | {"manifest.json"}
        stale = ["checkpoints/level02.ckpt", "metrics/train_level02.csv",
                 "metrics/trajectory_level02.csv", "analysis/interp_level01_level02.csv",
                 "plots/interp_level01_level02.svg"]
        assert set(stale) <= set(fresh[1]) and not set(stale) & on_disk

    def test_stale_files_outside_the_directory_are_kept(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(criterion2_config(), out, stages=["data"])
        outside = tmp_path / "outside.txt"
        outside.write_text("keep\n", encoding="utf-8")
        (out / "link.txt").symlink_to(outside)
        manifest = load_manifest(out)
        manifest["hashes"].update({"../outside.txt": "x", str(outside): "x", "link.txt": "x"})
        manifest["format_version"] = 1
        write_manifest(out, manifest)
        run_pipeline(criterion2_config(), out, stages=["data"])
        assert outside.read_text(encoding="utf-8") == "keep\n"
        assert (out / "link.txt").is_symlink()


class TestManifestWrite:
    def test_interrupted_write_keeps_the_previous_manifest(self, tmp_path, monkeypatch):
        write_manifest(tmp_path, {"complete": ["data"]})
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        before = (tmp_path / "manifest.json").read_bytes()

        def half_write(path, text, encoding=None):
            with open(path, "w", encoding=encoding) as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", half_write)
        with pytest.raises(OSError):
            write_manifest(tmp_path, {"complete": ["data", "dense"]})
        monkeypatch.undo()
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


class TestStageTable:
    def test_reads_name_earlier_stages(self):
        # run_pipeline closes over reads in one backward pass over the table
        for i, stage in enumerate(STAGE_TABLE):
            assert set(stage.reads) <= set(STAGES[:i]), stage.name

    def test_stage_runs_with_what_it_reads_only(self, run_dir, tmp_path):
        manifest = run_pipeline(small_config(), tmp_path / "radius", stages=["radius"])
        assert manifest["complete"] == ["data", "dense", "imp", "radius"]
        full = load_manifest(run_dir)["hashes"]
        radius = manifest["stages"]["radius"]
        assert radius
        assert {rel: manifest["hashes"][rel] for rel in radius} == {
            rel: full[rel] for rel in radius
        }

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nope"):
            run_pipeline(small_config(), tmp_path / "x", stages=["radius", "nope"])

    def test_analyze_taylor_trains_no_variants(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(small_config())))
        out = tmp_path / "taylor"
        assert cli.main(["analyze", "taylor", "--config", str(cfg_path), "--out", str(out)]) == 0
        complete = load_manifest(out)["complete"]
        assert complete == ["data", "dense", "imp", "taylor"]
        assert not [s for s in complete if s.startswith("variant_")]

    def test_divergence_names_level_zero(self, tmp_path):
        cfg = ExperimentConfig(
            dataset=SpiralsSource(train_per_class=20, test_per_class=10, classes=3, noise_std=0.15),
            network=(2, 8, 3),
            training=TrainingSettings(
                epochs=2, batch_size=16, lr0=1000.0, weight_decay=10.0,
                decay_epochs=(), rewind_step=0,
            ),
            imp=ImpSettings(levels=1),
            master_seed=1,
        )
        with pytest.raises(DivergenceError) as info:
            run_pipeline(cfg, tmp_path / "dv")
        assert info.value.level == 0


class TestPerLayerRanking:
    def test_metrics_and_one_round_variants_rank_per_layer(self, tmp_path):
        base = small_config()
        cfg = replace(base, imp=replace(base.imp, per_layer=True))
        out = tmp_path / "per_layer"
        run_pipeline(cfg, out, stages=["metrics"])
        state = PipelineState(cfg, out)
        prev, last = state.checkpoint("level01"), state.checkpoint("level02")
        for name in ("fine_tune", "random_reinit"):
            np.testing.assert_array_equal(state.checkpoint(name).mask, last.mask)
        # the magnitude prune-impact row prunes level 1 by IMP's round
        expected = state.analysis_ctx.at(last.mask).loss(ps.apply_mask(prev.params, last.mask))
        rows = read_csv_dicts(out / "analysis/prune_impact.csv")
        magnitude = next(r for r in rows if r["strategy"] == "magnitude")
        assert float(magnitude["loss_after"]) == expected


class TestDegenerateConfig:
    def test_levels_zero_dense_only(self, tmp_path):
        cfg = small_config(levels=0)
        out = tmp_path / "dense_only"
        manifest = run_pipeline(cfg, out, stages=["data", "dense"])
        names = [a for a in manifest["hashes"] if a.startswith("checkpoints/")]
        assert sorted(names) == [
            "checkpoints/init.ckpt",
            "checkpoints/level00.ckpt",
            "checkpoints/level00_epochs.npy",
            "checkpoints/rewind.ckpt",
        ]


class TestPlots:
    def test_interp_polyline_vertex_count(self, run_dir):
        svg = (run_dir / "plots/interp_level00_level01.svg").read_text()
        start = svg.index('points="') + len('points="')
        points = svg[start : svg.index('"', start)].split()
        assert len(points) == 51

    def test_histogram_counts_conserved(self, run_dir):
        import re

        svg = (run_dir / "plots/radius_final_min.svg").read_text()
        counts = [int(m) for m in re.findall(r'data-count="(\d+)"', svg)]
        rows = read_csv_dicts(run_dir / "analysis/radius_final_min.csv")
        censored = sum(1 for r in rows if r["censored"] == "1")
        assert sum(counts) == 24 - censored

    def test_surface_heatmap_honours_loss_cap(self, run_dir, tmp_path):
        losses = sorted(
            float(r["loss"]) for r in read_csv_dicts(run_dir / "analysis/surface_grid.csv")
        )

        def surface_svg(loss_cap: float) -> str:
            out = tmp_path / f"cap{loss_cap}"
            shutil.copytree(run_dir, out)
            cfg = small_config()
            save_config(
                replace(cfg, analysis=replace(cfg.analysis, loss_cap=loss_cap)),
                out / "config.json",
            )
            emit_plots(out)
            return (out / "plots/surface.svg").read_text()

        default = surface_svg(10.0)
        assert default == (run_dir / "plots/surface.svg").read_text()
        assert surface_svg(losses[len(losses) // 2]) != default

    def test_empty_dir_lists_expected(self, tmp_path):
        with pytest.raises(ArtifactMissingError, match="level_summary"):
            emit_plots(tmp_path / "empty")


class TestCli:
    def test_pipeline_verb_and_plot(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": {
                        "kind": "spirals",
                        "train_per_class": 25,
                        "test_per_class": 10,
                        "classes": 3,
                        "noise_std": 0.15,
                    },
                    "network": [2, 8, 3],
                    "training": {"epochs": 3, "batch_size": 16, "decay_epochs": [2], "rewind_step": 4},
                    "imp": {"levels": 1, "ft_epochs": 2},
                    "analysis": {
                        "k": 3,
                        "n_directions": 8,
                        "interp_points": 11,
                        "grid_rows": 4,
                        "grid_cols": 5,
                        "taylor_probes": 5,
                    },
                    "master_seed": 2,
                }
            )
        )
        out = tmp_path / "out"
        result = _run_cli("pipeline", "--config", str(cfg_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "manifest.json").exists()
        assert (out / "plots/surface.svg").exists()

    def test_half_written_manifest(self, tmp_path):
        # plot reports it; gen-data recomputes the data stage
        cfg_path = tmp_path / "cfg.json"
        save_config(criterion2_config(), cfg_path)
        out = tmp_path / "out"
        run_pipeline(criterion2_config(), out, stages=["data"])
        path = out / "manifest.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert cli.main(["plot", "--out", str(out)]) == 1
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert load_manifest(out)["complete"] == ["data"]

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        # a directory, and a file that is not UTF-8: exit 2, no traceback
        binary = tmp_path / "cfg.json"
        binary.write_bytes(b'{"master_seed": 1, "out_dir": "\xff"}')
        for path in (tmp_path, binary):
            out = tmp_path / "out"
            assert cli.main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
            assert "config error: " in capsys.readouterr().err
            assert not out.exists()

    def test_out_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(criterion2_config(), cfg_path)
        out = tmp_path / "out"
        out.write_text("not a directory\n", encoding="utf-8")
        for verb in ("gen-data", "pipeline"):
            assert cli.main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
            assert "is not a directory" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    def test_manifest_that_is_not_an_object(self, tmp_path, capsys):
        # nor one whose stage lists something other than paths: plot reports
        # it; gen-data recomputes the data stage
        cfg_path = tmp_path / "cfg.json"
        save_config(criterion2_config(), cfg_path)
        out = tmp_path / "out"
        run_pipeline(criterion2_config(), out, stages=["data"])
        for stage in (None, 5, [5]):
            manifest = [] if stage is None else {**load_manifest(out), "stages": {"data": stage}}
            (out / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
            assert cli.main(["plot", "--out", str(out)]) == 1
            assert "error: " in capsys.readouterr().err
            assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert load_manifest(out)["complete"] == ["data"]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        result = _run_cli("pipeline", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "section, values",
        [
            ("imp", {"prune_fraction_per_round": 1.5}),
            ("imp", {"levels": -1}),
            ("training", {"lr0": -1}),
            ("training", {"epochs": 60, "decay_epochs": [30, 60]}),
            ("training", {"epochs": 0, "decay_epochs": []}),
            ("training", {"batch_size": 0}),
            ("imp", {"ft_epochs": 0}),
            ("imp", {"ft_lr": 0.0}),
        ],
    )
    def test_bad_training_or_imp_value_exit_code(self, tmp_path, capsys, section, values):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: values}))
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("analysis", {"k": 0}),
            ("analysis", {"n_directions": "100"}),
            ("analysis", {"interp_points": 1}),
            ("analysis", {"grid_rows": 1}),
            ("analysis", {"taylor_probes": 0}),
            ("network", [2, 0, 3]),
            ("network", [True, 4, 3]),
            ("dataset", {"kind": ["x"]}),
            ("dataset", {"noise_std": -1}),
            ("training", {"lr0": float("inf")}),
            ("master_seed", -5),
            ("master_seed", 2**64),
            ("dataset", {"kind": "csv", "train_path": 5, "test_path": 6}),
            ("dataset", {"kind": "idx", "train_images": "a", "train_labels": "b",
                         "test_images": "c", "test_labels": ""}),
            ("imp", {"levels": 2.5}),
            ("training", {"epochs": 6.5}),
            ("training", {"batch_size": 2.5}),
            ("training", {"rewind_step": 1.5}),
            ("imp", {"ft_epochs": 1.5}),
            ("training", {"lr0": True}),
            ("imp", {"per_layer": "yes"}),
            ("training", {"weight_decay": float("nan")}),
            ("training", {"decay_factor": -1}),
            ("training", {"decay_epochs": [1.5]}),
        ],
    )
    def test_bad_value_exits_before_any_stage(self, tmp_path, capsys, key, value):
        data = config_to_dict(criterion2_config())
        # a dict merges into its section, except one naming a dataset kind,
        # which replaces the dataset
        merge = isinstance(value, dict) and "kind" not in value
        data[key] = {**data[key], **value} if merge else value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_batch_larger_than_training_set_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "big_batch.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": {"kind": "spirals", "train_per_class": 20,
                                 "test_per_class": 10, "classes": 3, "noise_std": 0.15},
                    "network": [2, 8, 3],
                    "training": {"epochs": 2, "batch_size": 500, "decay_epochs": [],
                                  "rewind_step": 0},
                    "imp": {"levels": 0},
                }
            )
        )
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "500" in err and "60 training rows" in err
        assert "dense" not in load_manifest(out)["complete"]

    def test_plot_missing_artifacts_exit_code(self, tmp_path):
        result = _run_cli("plot", "--out", str(tmp_path / "void"))
        assert result.returncode == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # lr * weight_decay >> 1 makes training diverge -> exit 3
        cfg_path = tmp_path / "diverge.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": {"kind": "spirals", "train_per_class": 20,
                                 "test_per_class": 10, "classes": 3, "noise_std": 0.15},
                    "network": [2, 8, 3],
                    "training": {"epochs": 2, "batch_size": 16, "lr0": 1000.0,
                                  "weight_decay": 10.0, "decay_epochs": [], "rewind_step": 0},
                    "imp": {"levels": 0},
                    "master_seed": 1,
                }
            )
        )
        result = _run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "dv"))
        assert result.returncode == 3, result.stderr
