"""Correctness checks on one finished run's artifact directory.

A run fails if a stage is incomplete, a manifest hash differs from the
SHA-256 of the file on disk, or a table has the wrong number of rows. The
digest of a run is the SHA-256 of its manifest hashes; runs of one workload
and seed must agree on it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import STAGES


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def check_run(out) -> tuple[list[str], str | None]:
    """(errors, digest) for the artifact directory ``out``."""
    out = Path(out)
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        analysis = json.loads((out / "config.json").read_text(encoding="utf-8"))["analysis"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable manifest or config: {exc}"], None

    errors = []
    missing = [s for s in STAGES if s not in manifest.get("complete", [])]
    if missing:
        errors.append(f"incomplete stages: {missing}")
    hashes = manifest.get("hashes", {})
    for stage, rels in manifest.get("stages", {}).items():
        unhashed = [rel for rel in rels if rel not in hashes]
        if unhashed:
            errors.append(f"stage {stage}: artifacts without a hash: {unhashed}")
    for rel, expected in sorted(hashes.items()):
        path = out / rel
        if not path.is_file():
            errors.append(f"{rel}: listed in the manifest but missing")
        elif _sha256(path) != expected:
            errors.append(f"{rel}: SHA-256 differs from the manifest")

    expected_rows = {"interp": analysis["interp_points"], "radius": analysis["n_directions"]}
    for family, rows in expected_rows.items():
        tables = sorted((out / "analysis").glob(f"{family}_*.csv"))
        tables = [t for t in tables if t.name != f"{family}_summary.csv"]
        if not tables:
            errors.append(f"no {family} tables")
        for table in tables:
            if _data_rows(table) != rows:
                errors.append(f"{table.name}: {_data_rows(table)} rows, expected {rows}")
    cells = analysis["grid_rows"] * analysis["grid_cols"]
    grid = out / "analysis/surface_grid.csv"
    if not grid.is_file() or _data_rows(grid) != cells:
        errors.append(f"surface_grid.csv: expected {cells} cells")

    digest = hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()
    return errors, digest
