"""On-disk checkpoint format: JSON header line, blank line, binary payload.

The payload is the parameter vector as little-endian float64 in canonical
layout, followed by the mask packed 8 coordinates per byte (zero-padded).
The header records counts and a CRC32 over the payload so loads are
bit-exact or fail loudly.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from ..model import NetworkSpec

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    spec: NetworkSpec
    params: np.ndarray
    mask: np.ndarray
    level: int
    role: str  # init | rewind_point | minimum | variant:<name>
    step: int
    seed: int
    train_loss: float
    test_accuracy: float

    def __post_init__(self):
        if self.params.shape != (self.spec.param_count,):
            raise CheckpointError(
                f"params length {self.params.shape} != spec count {self.spec.param_count}"
            )
        if self.mask.shape != self.params.shape:
            raise CheckpointError("mask and params must share a layout")


def save_checkpoint(path, cp: Checkpoint) -> None:
    params_bytes = np.ascontiguousarray(cp.params, dtype="<f8").tobytes()
    mask_bytes = np.packbits(np.asarray(cp.mask, dtype=bool)).tobytes()
    payload = params_bytes + mask_bytes
    header = {
        "format_version": FORMAT_VERSION,
        "layer_sizes": list(cp.spec.layer_sizes),
        "param_count": int(cp.params.size),
        "mask_bytes": len(mask_bytes),
        "level": int(cp.level),
        "role": cp.role,
        "step": int(cp.step),
        "seed": int(cp.seed),
        "train_loss": float(cp.train_loss),
        "test_accuracy": float(cp.test_accuracy),
        "payload_crc32": zlib.crc32(payload),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n\n")
        fh.write(payload)


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointTruncatedError(f"{path}: missing header separator")
    try:
        header = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this build reads {FORMAT_VERSION}"
        )
    try:  # every field, before the payload is trusted
        param_count = int(header["param_count"])
        expected = param_count * 8 + int(header["mask_bytes"])
        fields = dict(
            spec=NetworkSpec(tuple(header["layer_sizes"])),
            level=int(header["level"]),
            role=str(header["role"]),
            step=int(header["step"]),
            seed=int(header["seed"]),
            train_loss=float(header["train_loss"]),
            test_accuracy=float(header["test_accuracy"]),
        )
        crc = int(header["payload_crc32"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad header field: {exc!r}") from exc
    payload = raw[sep + 2 :]
    if len(payload) != expected:
        raise CheckpointTruncatedError(
            f"{path}: payload holds {len(payload)} bytes, header declares {expected}"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointChecksumError(f"{path}: payload CRC32 mismatch")
    params = np.frombuffer(payload[: param_count * 8], dtype="<f8").astype(np.float64)
    bits = np.unpackbits(
        np.frombuffer(payload[param_count * 8 :], dtype=np.uint8),
        count=param_count,
    ).astype(bool)
    return Checkpoint(params=params, mask=bits, **fields)
