"""Smoke test of the per-stage profile script on the criterion-2 config."""

import importlib.util
import json
from pathlib import Path

from helpers import criterion2_config

from prunescope import autodiff
from prunescope.experiment import STAGES, load_manifest, pipeline
from prunescope.experiment.config import config_to_dict

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "stage_profile.py"

# (stage, rows) -> (forward losses, gradients, HVPs) of the criterion-2 run.
# A change that moves an evaluation updates this table and says why; stages
# that evaluate nothing (data, distances, geometry, plots) have no entry.
EVALUATIONS = {
    ("dense", 16): (0, 42, 0),
    ("dense", 8): (0, 6, 0),
    ("dense", 120): (3, 0, 0),
    ("imp", 16): (0, 84, 0),
    ("imp", 8): (0, 12, 0),
    ("imp", 120): (24, 0, 0),
    ("variant_one_shot", 16): (0, 42, 0),
    ("variant_one_shot", 8): (0, 6, 0),
    ("variant_one_shot", 120): (1, 0, 0),
    ("variant_fine_tune", 16): (0, 21, 0),
    ("variant_fine_tune", 8): (0, 3, 0),
    ("variant_fine_tune", 120): (1, 0, 0),
    ("variant_random_reinit", 16): (0, 42, 0),
    ("variant_random_reinit", 8): (0, 6, 0),
    ("variant_random_reinit", 120): (1, 0, 0),
    ("variant_random_prune", 16): (0, 84, 0),
    ("variant_random_prune", 8): (0, 12, 0),
    ("variant_random_prune", 120): (2, 0, 0),
    ("metrics", 24): (11, 0, 0),
    ("eigen", 24): (0, 0, 540),
    ("radius", 24): (1328, 0, 0),
    ("interp", 24): (306, 0, 0),
    ("surface", 24): (80, 0, 0),
    ("taylor", 24): (4, 2, 40),
}
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
    peak = 0.0
    for s in report["stages"]:
        assert s["wall_s"] >= 0 and s["cpu_s"] >= 0 and s["maxrss_mb"] > 0
        # a stage's rise is its end peak over its start peak, which is at
        # least the peak at the end of the stage before
        assert 0 <= s["maxrss_rise_mb"] <= s["maxrss_mb"] - peak
        peak = s["maxrss_mb"]
    counts = {(e["stage"], e["rows"]): e for e in report["evaluations"]}
    n_train = cfg.dataset.train_per_class * cfg.dataset.classes
    # per level: the checkpoint's loss and the trajectory's 2 * epochs - 1
    assert counts["imp", n_train]["forward"] == cfg.imp.levels * 2 * cfg.training.epochs
    assert counts["imp", cfg.training.batch_size]["grad"] > 0
    assert any(e["stage"] == "eigen" and e["hvp"] for e in counts.values())
    assert any(e["stage"] == "radius" and e["forward"] for e in counts.values())
    assert {key: (e["forward"], e["grad"], e["hvp"]) for key, e in counts.items()} == EVALUATIONS
    # the run is a whole pipeline, and the program's functions are restored
    assert load_manifest(tmp_path)["complete"] == list(STAGES)
    assert [autodiff.forward_loss, autodiff.grad, autodiff.hvp, pipeline._STAGE_FUNCS] == wrapped


def test_merge_is_by_section():
    base = {"network": [2, 8, 3], "analysis": {"k": 5, "n_directions": 24}}
    merged = stage_profile.merge(base, {"analysis": {"k": 3}, "network": [2, 4, 3]})
    assert merged == {"network": [2, 4, 3], "analysis": {"k": 3, "n_directions": 24}}
    assert base["analysis"] == {"k": 5, "n_directions": 24}
