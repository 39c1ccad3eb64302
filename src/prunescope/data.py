"""Datasets: a built-in spiral generator, CSV/IDX loaders, batch iteration.

The spiral generator exists so the whole toolkit runs self-contained; CSV and
IDX loaders bring in external data. Datasets are immutable after construction.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataParseError, DimensionMismatchError, LabelRangeError
from .numerics import RngStream

SPIRAL_TURNS = 1.25  # revolutions each arm makes between t=0 and t=1


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise DimensionMismatchError("features must be a nonempty (n, d) matrix")
        if y.shape != (X.shape[0],):
            raise DimensionMismatchError("labels must be one integer per sample")
        if not np.all(np.isfinite(X)):
            raise DataParseError("dataset contains non-finite features")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise LabelRangeError(
                f"labels must lie in [0, {self.n_classes}), got [{y.min()}, {y.max()}]"
            )
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def spiral_arm(
    t: np.ndarray,
    class_index: int,
    classes: int,
    angle_noise: np.ndarray | float = 0.0,
    radius_noise: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Arm coordinates at parameters t in (0, 1].

    radius = t + radius_noise,
    angle = 2*pi*class/classes + 2*pi*SPIRAL_TURNS*t + angle_noise.
    Angle noise roughens the class boundary; radius noise creates genuine
    class overlap (a nonzero loss floor). Exposed so tests can recompute the
    generator's geometry independently.
    """
    angle = (
        2.0 * math.pi * class_index / classes
        + 2.0 * math.pi * SPIRAL_TURNS * t
        + angle_noise
    )
    radius = t + radius_noise
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def gen_spirals(
    n_per_class: int, classes: int, noise_std: float, rng: RngStream
) -> Dataset:
    """Interleaved 2-D spiral arms, one per class, standardized per dimension.

    ``noise_std`` sets Gaussian angle noise (radians); radial noise runs at
    a third of that, enough to overlap neighboring arms slightly. Zero noise
    puts every point exactly on its parametric arm.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if n_per_class < 1:
        raise ValueError("need at least 1 point per class")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    gen = rng.generator()
    t = (np.arange(n_per_class) + 1.0) / n_per_class
    coords = np.concatenate(
        [
            spiral_arm(
                t,
                k,
                classes,
                gen.normal(0.0, 1.0, size=t.shape) * noise_std,
                gen.normal(0.0, 1.0, size=t.shape) * (noise_std / 3.0),
            )
            for k in range(classes)
        ]
    )
    labels = np.repeat(np.arange(classes), n_per_class)
    coords = (coords - coords.mean(axis=0)) / coords.std(axis=0)
    return Dataset(coords, labels, classes)


def load_csv(path, n_classes: int | None = None) -> Dataset:
    """Load a CSV with float feature columns and a final integer label column.

    When ``n_classes`` is given, any label >= n_classes raises a range error;
    otherwise the class count is inferred as max(label) + 1.
    """
    values = array("d")  # row-major features, without a Python object per cell
    labels = array("q")
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
                if width < 2:
                    raise DataParseError(
                        "need at least one feature column and a label column",
                        line=lineno,
                    )
            elif len(cells) != width:
                raise DataParseError(
                    f"expected {width} columns, found {len(cells)}", line=lineno
                )
            try:
                feats = [float(c) for c in cells[:-1]]
            except ValueError as exc:
                raise DataParseError(f"bad float cell: {exc}", line=lineno) from exc
            if not all(math.isfinite(f) for f in feats):
                raise DataParseError("non-finite feature value", line=lineno)
            try:
                label = int(cells[-1])
            except ValueError as exc:
                raise DataParseError(f"bad integer label: {exc}", line=lineno) from exc
            values.extend(feats)
            labels.append(label)
    if not labels:
        raise DataParseError(f"{path}: no data rows")
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise LabelRangeError(f"negative label {y.min()}")
    c = int(y.max()) + 1 if n_classes is None else n_classes
    if y.max() >= c:
        raise LabelRangeError(f"label {y.max()} >= declared class count {c}")
    return Dataset(np.array(values, dtype=np.float64).reshape(len(labels), width - 1), y, c)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the format :func:`load_csv` reads (exact round-trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        for feats, label in zip(ds.features, ds.labels):
            fh.write(",".join(repr(float(f)) for f in feats) + f",{int(label)}\n")


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx_header(raw: bytes, expected_magic: int, path) -> tuple[int, ...]:
    if len(raw) < 4:
        raise DataParseError(f"{path}: file shorter than an IDX magic", offset=0)
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise DataParseError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}",
            offset=0,
        )
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise DataParseError(f"{path}: truncated IDX dimension header", offset=4)
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    return dims


def load_idx(images_path, labels_path, n_classes: int | None = None) -> Dataset:
    """Load the big-endian IDX image/label pair; pixels are scaled to [0, 1]."""
    raw_images = Path(images_path).read_bytes()
    raw_labels = Path(labels_path).read_bytes()
    n, rows, cols = _read_idx_header(raw_images, _IDX_IMAGES_MAGIC, images_path)
    (n_labels,) = _read_idx_header(raw_labels, _IDX_LABELS_MAGIC, labels_path)
    if n_labels != n:
        raise DataParseError(
            f"image count {n} != label count {n_labels}", offset=4
        )
    pixel_bytes = raw_images[4 + 4 * 3 :]
    if len(pixel_bytes) != n * rows * cols:
        raise DataParseError(
            f"{images_path}: expected {n * rows * cols} pixel bytes, "
            f"found {len(pixel_bytes)}",
            offset=16,
        )
    label_bytes = raw_labels[4 + 4 * 1 :]
    if len(label_bytes) != n:
        raise DataParseError(
            f"{labels_path}: expected {n} label bytes, found {len(label_bytes)}",
            offset=8,
        )
    X = np.frombuffer(pixel_bytes, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    y = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    c = int(y.max()) + 1 if n_classes is None else n_classes
    if y.size and y.max() >= c:
        raise LabelRangeError(f"label {y.max()} >= declared class count {c}")
    return Dataset(X, y, c)


def epoch_batches(n: int, batch_size: int, epoch: int, rng: RngStream) -> list[np.ndarray]:
    """Index arrays for one epoch: a fresh permutation chunked into batches.

    The permutation is seeded by (rng, epoch) so a given epoch's order is
    reproducible in isolation; the final short batch is kept.
    """
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {batch_size}")
    gen = rng.derive(epoch).generator()
    order = gen.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def analysis_subset(ds: Dataset, rng: RngStream) -> np.ndarray:
    """Frozen evaluation subset: the first ceil(n/5) indices of a seeded
    permutation, as an index array into ``ds``.

    Landscape probes (Hessian spectra, radii, interpolations, grids) all
    evaluate loss on these rows rather than the full training set.
    """
    gen = rng.generator()
    count = math.ceil(ds.n / 5)
    return gen.permutation(ds.n)[:count]
