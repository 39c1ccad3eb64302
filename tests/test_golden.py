"""Pinned manifest hashes of the criterion-2 config.

``tests/golden/criterion2_hashes.json`` holds the artifact hashes of one
run of :func:`helpers.criterion2_config`, together with the machine facts
they were recorded under. Bits can depend on the core count, the numpy and
BLAS builds and the BLAS thread count, so the test compares hashes only when
all of those match and skips, naming the difference, otherwise.

A change that moves numbers on purpose re-pins the file, from the repository
root::

    PYTHONPATH=src python tests/test_golden.py --repin
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import criterion2_config

from prunescope.experiment import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden" / "criterion2_hashes.json"


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


def test_criterion2_hashes_match_pinned(tmp_path):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = machine_facts()
    differs = {k: (v, here.get(k)) for k, v in pinned["machine"].items() if here.get(k) != v}
    if differs:
        pytest.skip(f"machine facts differ from the pinned ones (pinned, here): {differs}")
    hashes = run_pipeline(criterion2_config(), tmp_path / "run")["hashes"]
    assert sorted(hashes) == sorted(pinned["hashes"])
    changed = sorted(k for k in hashes if hashes[k] != pinned["hashes"][k])
    assert not changed, f"artifacts whose hash moved: {changed}"


def _repin(out: Path) -> None:
    hashes = run_pipeline(criterion2_config(), out)["hashes"]
    record = {"machine": machine_facts(), "hashes": hashes}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(hashes)} hashes in {GOLDEN}")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--repin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --repin")
    with tempfile.TemporaryDirectory() as tmp:
        _repin(Path(tmp) / "run")
