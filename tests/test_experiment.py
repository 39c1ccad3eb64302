import json

import numpy as np
import pytest

import prunescope as ps
from prunescope.errors import (
    CheckpointChecksumError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
)
from prunescope.experiment import (
    Checkpoint,
    ExperimentConfig,
    config_from_dict,
    load_checkpoint,
    save_checkpoint,
)
from prunescope.experiment.config import config_to_dict, load_config, save_config
from prunescope.experiment.tables import format_cell


def _random_checkpoint(seed=0):
    spec = ps.NetworkSpec((3, 5, 2))
    gen = np.random.default_rng(seed)
    params = gen.normal(size=spec.param_count)
    mask = gen.random(spec.param_count) < 0.7
    mask[~ps.prunable_coords(spec)] = True
    params = params * mask
    return Checkpoint(
        spec=spec,
        params=params,
        mask=mask,
        level=3,
        role="minimum",
        step=1234,
        seed=seed,
        train_loss=0.125,
        test_accuracy=0.875,
    )


class TestCheckpointRoundTrip:
    def test_bit_exact(self, tmp_path):
        cp = _random_checkpoint()
        path = tmp_path / "cp.ckpt"
        save_checkpoint(path, cp)
        again = load_checkpoint(path)
        np.testing.assert_array_equal(cp.params, again.params)
        np.testing.assert_array_equal(cp.mask, again.mask)
        assert again.spec == cp.spec
        assert (again.level, again.role, again.step) == (3, "minimum", 1234)
        assert (again.train_loss, again.test_accuracy) == (0.125, 0.875)

    def test_header_is_json_first_line(self, tmp_path):
        path = tmp_path / "cp.ckpt"
        save_checkpoint(path, _random_checkpoint())
        first_line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(first_line)
        assert header["format_version"] == 1
        assert header["param_count"] * 8 <= len(path.read_bytes())

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cp.ckpt"
        save_checkpoint(path, _random_checkpoint())
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "cp.ckpt"
        save_checkpoint(path, _random_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointChecksumError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "cp.ckpt"
        save_checkpoint(path, _random_checkpoint())
        raw = path.read_bytes()
        header, rest = raw.split(b"\n\n", 1)
        data = json.loads(header)
        data["format_version"] = 99
        path.write_bytes(json.dumps(data, sort_keys=True).encode() + b"\n\n" + rest)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.network == (2, 24, 24, 3)
        assert cfg.imp.levels == 10
        assert cfg.analysis.n_directions == 500
        assert cfg.analysis.interp_points == 501
        assert cfg.analysis.grid_rows * cfg.analysis.grid_cols == 4200

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"typo": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="training"):
            config_from_dict({"training": {"epochz": 3}})

    def test_unknown_dataset_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict({"dataset": {"kind": "imagenet"}})

    def test_bad_strategy_name(self):
        with pytest.raises(ConfigError):
            config_from_dict({"imp": {"strategy": "rewind_everything"}})

    def test_round_trip(self, tmp_path):
        cfg = config_from_dict(
            {
                "network": [2, 8, 3],
                "training": {"epochs": 5, "decay_epochs": [3]},
                "imp": {"levels": 2},
                "master_seed": 42,
            }
        )
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_out_dir_normalized_in_echo(self):
        cfg = config_from_dict({"out_dir": "/somewhere/else"})
        assert config_to_dict(cfg)["out_dir"] == "."

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestFormatCell:
    def test_numpy_float_written_as_plain_repr(self):
        assert format_cell(np.float64(495.25)) == "495.25"
        assert format_cell(np.float64(0.1)) == repr(0.1)

    def test_python_values(self):
        assert format_cell(0.1) == "0.1"
        assert format_cell(True) == "1"
        assert format_cell(7) == "7"
