"""Pinned manifest hashes of the criterion-2 config and the default runs.

``tests/golden/criterion2_hashes.json`` holds the artifact hashes of one
run of :func:`helpers.criterion2_config`, and
``tests/golden/default_hashes.json`` those of the full default config for
each seed of ``DEFAULT_SEEDS``, read from the ``default_runs`` fixture the
acceptance gate shares, so they cost no extra pipeline. Each file holds the
machine facts its hashes were recorded under. Bits can depend on the core
count, the numpy and BLAS builds and the BLAS thread count, so a test
compares hashes only when all of those match and skips, naming the
difference, otherwise.

A change that moves numbers on purpose re-pins both files, from the
repository root::

    PYTHONPATH=src python tests/test_golden.py --repin
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import DEFAULT_SEEDS, criterion2_config

from prunescope.experiment import ExperimentConfig, load_manifest, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden" / "criterion2_hashes.json"
DEFAULT_GOLDEN = GOLDEN.with_name("default_hashes.json")


def machine_facts() -> dict:
    """The facts perfbench prints that can change artifact bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _pinned(path: Path) -> dict:
    """The pinned record, or a skip naming the machine facts that differ."""
    pinned = json.loads(path.read_text(encoding="utf-8"))
    here = machine_facts()
    differs = {k: (v, here.get(k)) for k, v in pinned["machine"].items() if here.get(k) != v}
    if differs:
        pytest.skip(f"machine facts differ from the pinned ones (pinned, here): {differs}")
    return pinned


def test_criterion2_hashes_match_pinned(tmp_path):
    pinned = _pinned(GOLDEN)
    hashes = run_pipeline(criterion2_config(), tmp_path / "run")["hashes"]
    assert sorted(hashes) == sorted(pinned["hashes"])
    changed = sorted(k for k in hashes if hashes[k] != pinned["hashes"][k])
    assert not changed, f"artifacts whose hash moved: {changed}"


def test_default_hashes_match_pinned(default_runs):
    pinned = _pinned(DEFAULT_GOLDEN)["seeds"]
    assert sorted(pinned) == sorted(str(seed) for seed in DEFAULT_SEEDS)
    moved = []
    for seed, (out, _) in zip(DEFAULT_SEEDS, default_runs, strict=True):
        hashes, want = load_manifest(out)["hashes"], pinned[str(seed)]
        assert sorted(hashes) == sorted(want), f"seed {seed}: the artifact set changed"
        moved += [f"seed {seed}: {k}" for k in sorted(hashes) if hashes[k] != want[k]]
    assert not moved, f"artifacts whose hash moved: {moved}"


def _write(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {path}")


def _repin(tmp: Path) -> None:
    hashes = run_pipeline(criterion2_config(), tmp / "criterion2")["hashes"]
    _write(GOLDEN, {"machine": machine_facts(), "hashes": hashes})
    seeds = {
        str(seed): run_pipeline(ExperimentConfig(master_seed=seed), tmp / f"seed{seed}")["hashes"]
        for seed in DEFAULT_SEEDS
    }
    _write(DEFAULT_GOLDEN, {"machine": machine_facts(), "seeds": seeds})


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--repin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --repin")
    with tempfile.TemporaryDirectory() as tmp:
        _repin(Path(tmp))
