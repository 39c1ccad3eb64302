"""Artifact I/O: deterministic CSVs and the run manifest.

Floats are written with repr() (shortest round-trip form), so reruns with
equal inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..errors import ArtifactMissingError

MANIFEST_NAME = "manifest.json"


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # float() first: numpy-2 scalars repr as "np.float64(...)"
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv_dicts(path) -> list[dict[str, str]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, indented by 2, and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_manifest(out: Path, manifest: dict) -> None:
    """Write the manifest atomically: a temp file in ``out``, then a rename.
    A killed process leaves the previous or the new manifest, never a
    prefix, and a write that raises also removes the temp file."""
    tmp = out / f".{MANIFEST_NAME}.tmp"
    try:
        write_json(tmp, manifest)
        os.replace(tmp, out / MANIFEST_NAME)
    finally:
        tmp.unlink(missing_ok=True)


# the keys of a manifest, each with the type of its value
MANIFEST_KEYS = {
    "format_version": int, "config": dict, "stages": dict, "hashes": dict, "complete": list
}


def load_manifest(out_dir) -> dict:
    """The run's manifest; :class:`ArtifactMissingError` if it is absent,
    does not parse, is not an object holding ``MANIFEST_KEYS``, has a stage
    that is not a list of strings or a hash that is not a string, or marks
    complete a stage it lists no artifacts for."""
    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        raise ArtifactMissingError(f"no {MANIFEST_NAME} under {out_dir}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactMissingError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or any(
        not isinstance(manifest.get(key), kind) for key, kind in MANIFEST_KEYS.items()
    ):
        raise ArtifactMissingError(f"{path} is not a manifest of {', '.join(MANIFEST_KEYS)}")
    if not all(
        isinstance(rels, list) and all(isinstance(rel, str) for rel in rels)
        for rels in manifest["stages"].values()
    ) or not all(isinstance(digest, str) for digest in manifest["hashes"].values()):
        raise ArtifactMissingError(f"{path} is not a manifest: a stage or a hash of another shape")
    if not all(isinstance(name, str) and name in manifest["stages"] for name in manifest["complete"]):
        raise ArtifactMissingError(f"{path} is not a manifest: a complete stage without its artifacts")
    return manifest
