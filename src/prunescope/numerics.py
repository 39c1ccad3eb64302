"""Dense-vector primitives, seeded random streams, and a tridiagonal eigensolver.

Vectors are plain 1-D ``numpy.ndarray`` objects of float64; masks are 1-D
boolean arrays of the same length. Everything here is a pure function of its
inputs, so values can be shared freely across threads.

Randomness comes from :class:`RngStream`, a thin wrapper over the Philox
counter-based bit generator: the pair ``(seed, stream_id)`` fully determines
the sample sequence, and derived streams are independent by construction.
This is what makes per-direction / per-probe work order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePlaneError,
    DimensionMismatchError,
    EmptySubspaceError,
    NumericalFailureError,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (used to derive child stream ids)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by ``(seed, stream_id)``.

    ``generator()`` always starts from the same state, so two calls with
    identical keys yield identical sequences. Use :meth:`derive` to split off
    independent child streams (e.g. one per random direction index).
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, mix_seed(self.stream_id, *indices))


def mix_seed(seed: int, *indices: int) -> int:
    """Deterministically fold indices into a 64-bit value: per-level seeds,
    and the stream ids of :meth:`RngStream.derive`."""
    s = seed & _MASK64
    for k in indices:
        s = _splitmix64(s ^ _splitmix64(k & _MASK64))
    return s


def as_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatchError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    return v


def _check_same_length(*vectors: np.ndarray) -> int:
    n = vectors[0].shape[0]
    for v in vectors[1:]:
        if v.shape[0] != n:
            raise DimensionMismatchError(
                f"vector length mismatch: {n} vs {v.shape[0]}"
            )
    return n


def lerp(p: np.ndarray, q: np.ndarray, alpha: float) -> np.ndarray:
    """Point ``(1 - alpha) * p + alpha * q`` on the segment from p to q."""
    p = as_vector(p)
    q = as_vector(q)
    _check_same_length(p, q)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return (1.0 - alpha) * p + alpha * q


def plane_basis(origin: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (u, v) spanning the plane through three anchor points.

    u points along ``a - origin``; v is ``b - origin`` with its u-component
    removed (one Gram-Schmidt step). Raises :class:`DegeneratePlaneError`
    when the anchors are collinear (|cos| >= 1 - 1e-12).
    """
    origin = as_vector(origin)
    da = as_vector(a) - origin
    db = as_vector(b) - origin
    _check_same_length(da, db)
    na = float(np.linalg.norm(da))
    nb = float(np.linalg.norm(db))
    if na == 0.0 or nb == 0.0:
        raise DegeneratePlaneError("anchor coincides with origin")
    cos = float(np.dot(da, db)) / (na * nb)
    if abs(cos) >= 1.0 - 1e-12:
        raise DegeneratePlaneError(f"anchors are collinear (|cos angle| = {abs(cos):.17g})")
    u = da / na
    v = db - np.dot(db, u) * u
    v -= np.dot(v, u) * u  # second pass keeps near-collinear anchors orthogonal
    v /= np.linalg.norm(v)
    return u, v


def project_to_plane(
    r: np.ndarray, origin: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """Coordinates of r in the (u, v) plane through origin: (<r-o,u>, <r-o,v>)."""
    r = as_vector(r)
    origin = as_vector(origin)
    _check_same_length(r, origin, u, v)
    d = r - origin
    return float(np.dot(d, u)), float(np.dot(d, v))


def tridiag_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric tridiagonal matrix with main diagonal
    ``diag`` and off-diagonal ``offdiag``, sorted descending.

    LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``) on the dense
    matrix, which Lanczos keeps small: max(4k, k + 40) rows, 80 for k = 20.
    Raises :class:`DimensionMismatchError` unless ``offdiag`` is one shorter
    than a nonempty ``diag``, and :class:`NumericalFailureError` on a
    non-finite entry, for which LAPACK returns values without an error.
    """
    d = np.asarray(diag, dtype=np.float64)
    e = np.asarray(offdiag, dtype=np.float64)
    if d.ndim != 1 or d.size == 0 or e.shape != (d.size - 1,):
        raise DimensionMismatchError(
            f"need a nonempty diagonal and an off-diagonal one shorter, "
            f"got shapes {d.shape} and {e.shape}"
        )
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NumericalFailureError("tridiagonal matrix has a non-finite entry")
    n = d.size
    dense = np.diag(d)
    dense[np.arange(1, n), np.arange(n - 1)] = e
    return np.linalg.eigvalsh(dense, UPLO="L")[::-1].copy()


def random_unit_direction(mask: np.ndarray, rng: RngStream) -> np.ndarray:
    """Unit vector with standard-normal components on the mask's active
    coordinates and exact zeros elsewhere."""
    mask = np.asarray(mask, dtype=bool)
    active = int(mask.sum())
    if active == 0:
        raise EmptySubspaceError("mask has no active coordinates")
    gen = rng.generator()
    z = gen.standard_normal(mask.shape[0])
    direction = np.zeros(mask.shape[0])
    direction[mask] = z[mask]
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:  # probability zero with >= 1 active normal coordinate
        raise NumericalFailureError("sampled direction has zero norm")
    return direction / norm
