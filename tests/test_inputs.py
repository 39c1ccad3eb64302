"""Property tests of the program's input surfaces.

Any JSON value at any path of a config loads or raises ``ConfigError``, and
a config that loads meets every precondition the stages rely on. Any JSON
given as a run's manifest loads, as a manifest a resumed run can read, or
raises ``ArtifactMissingError``.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from helpers import criterion2_config
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prunescope as ps
from prunescope.errors import ArtifactMissingError, ConfigError
from prunescope.experiment import STAGES, config_from_dict, load_manifest, pipeline, run_pipeline
from prunescope.experiment.config import CsvSource, IdxSource, SpiralsSource, config_to_dict
from prunescope.experiment.tables import MANIFEST_NAME

BASE = config_to_dict(criterion2_config())
DATASETS = (
    BASE["dataset"],
    {"kind": "csv", "train_path": "train.csv", "test_path": "test.csv"},
    {"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"},
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every path into a JSON value: the value itself, then each object key
    and list index below it."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _with(path, value, dataset=0):
    """The criterion-2 config on dataset ``DATASETS[dataset]``, with ``value``
    at ``path``."""
    data = copy.deepcopy({**BASE, "dataset": DATASETS[dataset]})
    if not path:
        return value
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


@st.composite
def configs(draw):
    dataset = draw(st.integers(0, len(DATASETS) - 1))
    paths = list(_paths({**BASE, "dataset": DATASETS[dataset]}))
    return _with(draw(st.sampled_from(paths)), draw(JSON), dataset)


def _is_count(value, least) -> bool:
    return type(value) is int and value >= least


def _is_real(value, positive=False) -> bool:
    return type(value) in (int, float) and math.isfinite(value) and (value > 0 if positive else value >= 0)


def _assert_stage_preconditions(cfg):
    """What the stages assume of a config that loaded."""
    spec = ps.NetworkSpec(cfg.network)
    assert all(_is_count(size, 1) for size in spec.layer_sizes)
    assert _is_count(cfg.master_seed, 0) and cfg.master_seed < 2**64
    source = cfg.dataset
    if isinstance(source, SpiralsSource):
        assert _is_count(source.train_per_class, 1) and _is_count(source.test_per_class, 1)
        assert _is_count(source.classes, 2) and _is_real(source.noise_std)
    else:
        assert isinstance(source, (CsvSource, IdxSource))
        paths = [getattr(source, name) for name in source.__dataclass_fields__ if name != "kind"]
        assert all(isinstance(path, str) and path for path in paths)
    imp = cfg.imp_config()
    hp = imp.hp
    assert _is_count(imp.levels, 0) and _is_count(imp.ft_epochs, 1)
    assert _is_count(hp.epochs, 1) and _is_count(hp.batch_size, 1) and _is_count(hp.rewind_step, 0)
    assert type(imp.per_layer) is bool and _is_real(imp.ft_lr, positive=True)
    assert _is_real(hp.momentum) and hp.momentum < 1 and _is_real(hp.weight_decay)
    # the schedule keeps every configured decay epoch as given
    assert hp.decay_epochs == cfg.training.decay_epochs
    for epoch in (0, *hp.decay_epochs):
        assert _is_real(ps.lr_at(hp, epoch, 1), positive=True)
    a = cfg.analysis
    for name, least in (
        ("k", 1), ("n_directions", 1), ("interp_points", 2),
        ("grid_rows", 2), ("grid_cols", 2), ("taylor_probes", 1),
    ):
        assert _is_count(getattr(a, name), least), name
    assert _is_real(a.grid_margin) and _is_real(a.loss_cap, positive=True)


@given(configs())
@example(_with(("dataset",), {"kind": "csv", "train_path": 5, "test_path": 6}))
@example(_with(("dataset", "test_labels"), "", dataset=2))
@example(_with(("imp", "levels"), 2.5))
@example(_with(("training", "epochs"), 6.5))
@example(_with(("training", "batch_size"), 2.5))
@example(_with(("training", "rewind_step"), 1.5))
@example(_with(("imp", "ft_epochs"), 1.5))
@example(_with(("training", "lr0"), True))
@example(_with(("imp", "per_layer"), "yes"))
@example(_with(("training", "weight_decay"), math.nan))
@example(_with(("training", "decay_factor"), -1))
@example(_with(("training", "decay_epochs"), [1.5]))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_any_json_at_any_config_path_loads_or_is_a_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    _assert_stage_preconditions(cfg)


MANIFESTS = JSON | st.fixed_dictionaries(
    {
        "format_version": st.just(2) | JSON,
        "config": st.just(BASE) | JSON,
        "stages": st.dictionaries(st.sampled_from(STAGES), st.lists(st.text(max_size=6)) | JSON),
        "hashes": st.dictionaries(st.text(max_size=6), st.text(max_size=6) | JSON),
        "complete": st.lists(st.sampled_from(STAGES)) | JSON,
    }
)


def test_any_json_as_a_manifest_loads_or_is_missing():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)

        @given(MANIFESTS)
        @settings(derandomize=True, max_examples=300, deadline=None)
        def check(value):
            (out / MANIFEST_NAME).write_text(json.dumps(value), encoding="utf-8")
            try:
                manifest = load_manifest(out)
            except ArtifactMissingError:
                return
            assert all(isinstance(rel, str) for rels in manifest["stages"].values() for rel in rels)
            assert all(isinstance(digest, str) for digest in manifest["hashes"].values())
            for name in STAGES:  # what a resumed run asks of each stage
                assert pipeline._intact(out, manifest, name) in (True, False)

        check()


def test_another_configs_manifest_with_an_unusable_path_is_replaced(tmp_path):
    # the old run's files are deleted by path; a path no file can have
    # (here with a NUL byte) names nothing to delete
    out = tmp_path / "out"
    out.mkdir()
    manifest = {"format_version": 2, "config": {}, "stages": {}, "hashes": {"a\0b": "x"}, "complete": []}
    (out / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
    assert load_manifest(out) == manifest
    run_pipeline(criterion2_config(), out, stages=["data"])
    assert load_manifest(out)["complete"] == ["data"]
