"""Smoke test of the per-stage profile script on the criterion-2 config."""

import importlib.util
import json
from pathlib import Path

from helpers import criterion2_config

from prunescope import autodiff
from prunescope.experiment import STAGES, load_manifest, pipeline
from prunescope.experiment.config import config_to_dict

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "stage_profile.py"
_spec = importlib.util.spec_from_file_location("stage_profile", _PATH)
stage_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_profile)


def test_profiles_every_stage_and_counts_by_rows(tmp_path, capsys):
    cfg = criterion2_config()
    wrapped = [autodiff.forward_loss, autodiff.grad, autodiff.hvp, dict(pipeline._STAGE_FUNCS)]
    argv = ["--workload", "wide", "--seed", str(cfg.master_seed),
            "--set", json.dumps(config_to_dict(cfg)), "--out", str(tmp_path), "--json"]
    assert stage_profile.main(argv) == 0
    report = json.loads(capsys.readouterr().out)

    assert [s["stage"] for s in report["stages"]] == list(STAGES)
    for s in report["stages"]:
        assert s["wall_s"] >= 0 and s["cpu_s"] >= 0 and s["maxrss_mb"] > 0
    counts = {(e["stage"], e["rows"]): e for e in report["evaluations"]}
    n_train = cfg.dataset.train_per_class * cfg.dataset.classes
    # per level: the checkpoint's loss and the trajectory's 2 * epochs - 1
    assert counts["imp", n_train]["forward"] == cfg.imp.levels * 2 * cfg.training.epochs
    assert counts["imp", cfg.training.batch_size]["grad"] > 0
    assert any(e["stage"] == "eigen" and e["hvp"] for e in counts.values())
    assert any(e["stage"] == "radius" and e["forward"] for e in counts.values())
    # the run is a whole pipeline, and the program's functions are restored
    assert load_manifest(tmp_path)["complete"] == list(STAGES)
    assert [autodiff.forward_loss, autodiff.grad, autodiff.hvp, pipeline._STAGE_FUNCS] == wrapped


def test_merge_is_by_section():
    base = {"network": [2, 8, 3], "analysis": {"k": 5, "n_directions": 24}}
    merged = stage_profile.merge(base, {"analysis": {"k": 3}, "network": [2, 4, 3]})
    assert merged == {"network": [2, 4, 3], "analysis": {"k": 3, "n_directions": 24}}
    assert base["analysis"] == {"k": 5, "n_directions": 24}
