"""Loss-landscape geometry probes around trained solutions.

Everything here evaluates through one protocol: ``ctx.at(mask)`` returns an
evaluator whose ``loss(w)``, ``grad(w)`` and ``hvp_at(w)`` (the operator
``v -> H v`` at one point) run at that mask, normally the
:class:`prunescope.autodiff.Evaluator` of a
:class:`~prunescope.autodiff.LossContext` over the frozen analysis subset of
the training data. Each probe takes one evaluator for everything it scans at
one mask: a radius profile, an interpolation curve, a surface grid. The
loops that multiply at a fixed point (Lanczos, Hutchinson probes, the exact
diagonal) take one operator per point, so their products share the point's
forward pass. Analyses that compare a solution across sparsity levels take
the mask explicitly because the Hessian, directions, and radii all live in
the active subspace of whichever level's mask the caller chooses.

The probes:

* ``top_k_eigenvalues`` — Lanczos (full reorthogonalization) over the
  masked Hessian-vector operator, keeping the top-k Ritz values above the
  roundoff floor ``m * eps * theta_max`` after m iterations.
* ``inverse_volume`` — sum of their logs: larger means a sharper, smaller
  basin.
* ``basin_radius`` / ``mc_radius_profile`` / ``log_volume`` — Monte-Carlo
  basin geometry: the distance along random unit directions at which the
  loss reaches the cutoff. Probes doubling from 1.28 (censored past 100.0)
  pick the first bracket whose upper probe reaches the cutoff, and regula
  falsi with the Illinois modification, with a bisection step forced
  whenever two steps in a row fail to halve the bracket, finds a crossing
  inside it. That is the first crossing unless the loss crosses the cutoff
  and falls back below it between two probes (see ``basin_radius``). The
  search stops at a bracket 5e-7 wide: about 13 losses per direction on the
  default nets, plus one center loss per profile.
* ``interpolate_losses`` / ``barrier_height`` — loss along the straight
  segment between two solutions.
* ``surface_grid`` — 2-D projection of the loss around three anchor points.
* ``geometry`` — Euclidean distance and cosine similarity.
* ``taylor_prune_estimate`` — second-order prediction of the loss change a
  pruning step causes, against the measured change.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateProfileError,
    DimensionMismatchError,
    EmptySubspaceError,
    NumericalFailureError,
    UndefinedCosineError,
)
from .model import apply_mask
from .numerics import RngStream, lerp, plane_basis, project_to_plane
from .numerics import random_unit_direction, tridiag_eigenvalues
from .parallel import parallel_map

LANCZOS_BREAKDOWN = 1e-12
LANCZOS_RESTARTS = 3  # fresh start vectors after an early breakdown
RADIUS_START = 1.28
RADIUS_MAX = 100.0
RADIUS_TOL = 2.5e-7


@dataclass(frozen=True)
class EigenReport:
    """Top positive Ritz values of the masked Hessian, descending."""

    eigenvalues: np.ndarray
    lanczos_iters: int
    seed: tuple[int, int]


def top_k_eigenvalues(
    ctx, w: np.ndarray, m: np.ndarray, k: int, rng: RngStream
) -> EigenReport:
    """Lanczos iteration over the active-subspace Hessian operator.

    Runs max(4k, k+40) iterations (capped at the active dimension) with full
    reorthogonalization against all stored basis vectors, then keeps the
    Ritz values above ``m * eps * theta_max``, where m is the restart's
    iteration count and theta_max its largest Ritz value. Values under that
    floor are the roundoff of m steps, not curvature (Parlett, *The
    Symmetric Eigenvalue Problem*): a rank-deficient Hessian otherwise
    reports zeros of order 1e-16 as positive.

    Early breakdown (an invariant Krylov subspace) restarts with a fresh
    start vector, up to ``LANCZOS_RESTARTS`` times; if every restart still
    exhausts the operator's reachable image with fewer than k positive
    values, the report simply carries what exists (degenerate points have
    low-rank Hessians, and downstream consumers flag short reports). Only a
    spectrum with no positive value at all is treated as a numerical failure.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = np.asarray(m, dtype=bool)
    active = int(m.sum())
    if active == 0:
        raise EmptySubspaceError("mask has no active coordinates")
    n_iter = min(max(4 * k, k + 40), active)
    hessian = ctx.at(m).hvp_at(w)

    best: EigenReport | None = None
    for restart in range(LANCZOS_RESTARTS + 1):
        q = random_unit_direction(m, rng.derive(restart))
        basis = np.zeros((n_iter, q.size))
        alphas: list[float] = []
        betas: list[float] = []
        q_prev = np.zeros_like(q)
        beta_prev = 0.0
        breakdown = False
        for j in range(n_iter):
            basis[j] = q
            z = hessian(q)
            alpha = float(q @ z)
            alphas.append(alpha)
            z = z - alpha * q - beta_prev * q_prev
            for _ in range(2):  # two reorthogonalization passes
                z -= basis[: j + 1].T @ (basis[: j + 1] @ z)
            beta = float(np.linalg.norm(z))
            if j == n_iter - 1:
                break
            if beta < LANCZOS_BREAKDOWN:
                breakdown = True
                break
            betas.append(beta)
            q_prev = q
            q = z / beta
            beta_prev = beta
        ritz = tridiag_eigenvalues(np.array(alphas), np.array(betas))
        floor = len(alphas) * np.finfo(np.float64).eps * max(ritz[0], 0.0)
        positive = ritz[ritz > floor][:k]
        report = EigenReport(positive, len(alphas), (rng.seed, rng.stream_id))
        if not breakdown or positive.size >= k or len(alphas) >= active:
            return report
        if best is None or positive.size > best.eigenvalues.size:
            best = report
    if best is not None and best.eigenvalues.size > 0:
        return best
    raise NumericalFailureError(
        f"Lanczos found no positive eigenvalues for k={k} "
        f"({LANCZOS_RESTARTS} restarts exhausted)"
    )


def inverse_volume(report: EigenReport, k: int) -> float:
    """Sum of logs of the top-k positive eigenvalues (inverse-volume proxy)."""
    vals = report.eigenvalues[:k]
    if vals.size == 0:
        raise ValueError("report holds no positive eigenvalues")
    if vals.size < k:
        warnings.warn(
            f"only {vals.size} positive eigenvalues available for k={k}; "
            "summing over those",
            stacklevel=2,
        )
    if np.any(vals <= 0.0):
        raise ValueError("inverse volume requires strictly positive eigenvalues")
    return float(np.sum(np.log(vals)))


def basin_cutoff(loss_a: float, loss_b: float) -> float:
    """Loss threshold bounding a basin: twice the larger endpoint loss."""
    if not (math.isfinite(loss_a) and math.isfinite(loss_b)):
        raise ValueError("losses must be finite")
    if loss_a < 0 or loss_b < 0:
        raise ValueError("losses must be nonnegative")
    return 2.0 * max(loss_a, loss_b)


def basin_radius(
    at, center: np.ndarray, direction: np.ndarray, cutoff: float,
    center_loss: float | None = None,
) -> float:
    """Distance along a unit direction at which the loss reaches the cutoff,
    on the doubling grid of probes.

    Probes the loss at ``RADIUS_START * 2**k`` (1.28, 2.56, ..., the last
    capped at the ``RADIUS_MAX`` = 100.0 search cap) and takes the first
    bracket ``[1.28 * 2**(k-1), 1.28 * 2**k]`` (``[0, 1.28]`` for k = 0)
    whose upper probe reaches the cutoff; returns ``math.inf`` (censored) if
    no probe does. The result is a crossing inside that bracket. It is the
    first crossing only if the loss does not cross the cutoff and fall back
    below it inside an earlier bracket, where no probe sees it; if the
    bracket itself holds several crossings, the search converges to one of
    them. On seed 2 of the default config, ``final_projected_prev`` direction
    301 crosses at 11.07 but lies below the cutoff at the probes 10.24 and
    20.48, so 21.74 is reported. ``final_min`` direction 292 reports its first
    crossing, 8.571, only because the probe at 10.24 lies above the cutoff:
    doubling from 1.0, whose probes at 8 and 16 both lie below it, reports
    20.33. The start, 1.28 = 0.01 * 2**7, is near the typical radius and on
    the grid of a doubling from 0.01: unless one of that grid's probes below
    1.28 reaches the cutoff, both grids pick the same bracket.

    Inside the bracket, keeps ``loss(lo) < cutoff <= loss(hi)`` while taking
    regula falsi steps on ``loss - cutoff`` with the Illinois modification
    (Dowell & Jarratt 1971): an endpoint retained twice in a row has its
    stored value halved. Each step is clamped to ``[lo + RADIUS_TOL,
    hi - RADIUS_TOL]``, and a plain bisection step is forced whenever two
    steps in a row fail to halve the bracket. Stops once the bracket is at
    most ``2 * RADIUS_TOL`` wide and returns its midpoint, which lies within
    ``RADIUS_TOL`` of the crossing.

    ``at`` is the evaluator at the profile's mask, ``ctx.at(mask)``.
    ``center_loss`` is ``at.loss(center)`` if the caller has it, as
    :func:`mc_radius_profile` does; otherwise it is evaluated here. Either
    way a center loss not below the cutoff raises.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-8:
        raise ValueError("direction must have unit norm")
    if np.any(direction[~at.mask] != 0.0):
        raise ValueError("direction must be zero on masked coordinates")
    if center_loss is None:
        center_loss = at.loss(center)
    if center_loss >= cutoff:
        raise ValueError(
            f"center loss {center_loss} is not below the cutoff {cutoff}"
        )

    def excess(r: float) -> float:
        return at.loss(center + r * direction) - cutoff

    lo, f_lo = 0.0, center_loss - cutoff
    r = RADIUS_START
    while True:
        f = excess(r)
        if f >= 0.0:
            hi, f_hi = r, f
            break
        if r == RADIUS_MAX:
            return math.inf
        lo, f_lo = r, f
        r = min(2.0 * r, RADIUS_MAX)

    kept = 0  # +1 after replacing hi, -1 after replacing lo
    misses = 0  # steps in a row that did not halve the bracket
    while hi - lo > 2.0 * RADIUS_TOL:
        width = hi - lo
        r = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        bisect = misses >= 2 or not math.isfinite(r)
        if bisect:
            r = 0.5 * (lo + hi)
        else:
            r = min(max(r, lo + RADIUS_TOL), hi - RADIUS_TOL)
        f = excess(r)
        if f >= 0.0:
            hi, f_hi = r, f
            if kept > 0:
                f_lo *= 0.5
            kept = 1
        else:
            lo, f_lo = r, f
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        misses = 0 if bisect or hi - lo <= 0.5 * width else misses + 1
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RadiusProfile:
    """Basin radii along random directions; censored entries are ``inf``."""

    radii: np.ndarray
    center_loss: float

    @property
    def censored(self) -> np.ndarray:
        return ~np.isfinite(self.radii)

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())

    @property
    def mean_radius(self) -> float:
        finite = self.radii[np.isfinite(self.radii)]
        return float(finite.mean())


def mc_radius_profile(
    ctx,
    center: np.ndarray,
    m: np.ndarray,
    n_directions: int,
    cutoff: float,
    rng: RngStream,
) -> RadiusProfile:
    """Radii along ``n_directions`` independent random unit directions.

    Direction i draws from the stream derived at index i, so results are
    keyed by index and independent of evaluation order. One evaluator at
    ``m`` serves every loss, and the center loss is evaluated once, for
    every direction.
    """
    if n_directions < 1:
        raise ValueError("need at least one direction")
    at = ctx.at(m)
    center_loss = at.loss(center)

    def one(i: int) -> float:
        direction = random_unit_direction(at.mask, rng.derive(i))
        return basin_radius(at, center, direction, cutoff, center_loss)

    radii = np.array(parallel_map(one, range(n_directions)))
    if not np.isfinite(radii).any():
        raise DegenerateProfileError("every direction was censored")
    return RadiusProfile(radii, center_loss)


def log_volume(profile: RadiusProfile, n_dims: int) -> float:
    """ln of the Monte-Carlo basin volume: ln w_n + ln E[r^n].

    Uses log-gamma for the unit-ball constant and a log-sum-exp over
    n * ln(r_i), so r^n never materializes. Censored radii are excluded.
    """
    finite = profile.radii[np.isfinite(profile.radii)]
    if finite.size == 0:
        raise DegenerateProfileError("no non-censored radii to average")
    log_unit_ball = 0.5 * n_dims * math.log(math.pi) - math.lgamma(1.0 + 0.5 * n_dims)
    powers = n_dims * np.log(finite)
    shift = powers.max()
    log_mean = shift + math.log(np.exp(powers - shift).sum()) - math.log(finite.size)
    return log_unit_ball + log_mean


@dataclass(frozen=True)
class InterpolationCurve:
    """Loss along the straight segment between two parameter vectors."""

    alphas: np.ndarray
    losses: np.ndarray


def interpolate_losses(
    ctx, p: np.ndarray, q: np.ndarray, n_points: int = 501
) -> InterpolationCurve:
    """Losses at ``n_points`` evenly spaced interpolates of p and q.

    Interpolation and evaluation happen in the full space: each endpoint
    carries its own zeros.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionMismatchError("endpoints must share a layout")
    if n_points < 2:
        raise ValueError("need at least the two endpoints")
    at = ctx.at(np.ones(p.size, dtype=bool))
    alphas = np.linspace(0.0, 1.0, n_points)
    losses = np.array([at.loss(lerp(p, q, float(a))) for a in alphas])
    return InterpolationCurve(alphas, losses)


@dataclass(frozen=True)
class Barrier:
    height: float
    alpha: float


def barrier_height(curve: InterpolationCurve) -> Barrier:
    """Excess of the curve's maximum over its larger endpoint (raw value:
    monotone curves give <= 0; callers threshold)."""
    peak = int(np.argmax(curve.losses))
    height = float(curve.losses[peak]) - max(
        float(curve.losses[0]), float(curve.losses[-1])
    )
    return Barrier(height, float(curve.alphas[peak]))


@dataclass(frozen=True)
class SurfacePoint:
    name: str
    x: float
    y: float
    loss: float
    projection_residual: float


@dataclass(frozen=True)
class SurfaceGrid:
    """Loss over a 2-D plane through three anchor solutions.

    Cell (i, j) sits at origin + xs[j]*u + ys[i]*v; ``clipped`` flags cells
    whose raw loss exceeded the plot cap (the raw value is kept).
    """

    rows: int
    cols: int
    xs: np.ndarray
    ys: np.ndarray
    losses: np.ndarray
    clipped: np.ndarray
    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    points: list[SurfacePoint] = field(default_factory=list)


def surface_grid(
    ctx,
    anchors: tuple[np.ndarray, np.ndarray, np.ndarray],
    extra_points: list[np.ndarray],
    rows: int,
    cols: int,
    margin: float = 0.3,
    loss_cap: float = 10.0,
    anchor_names: tuple[str, str, str] = ("anchor0", "anchor1", "anchor2"),
    extra_names: list[str] | None = None,
) -> SurfaceGrid:
    """Project points of interest onto the anchors' plane and scan the loss.

    The grid spans the bounding box of all projected coordinates, expanded by
    ``margin`` (a fraction of each side) in every direction.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 cols")
    origin = np.asarray(anchors[0], dtype=np.float64)
    u, v = plane_basis(origin, anchors[1], anchors[2])
    at = ctx.at(np.ones(origin.size, dtype=bool))

    names = list(anchor_names) + (
        extra_names
        if extra_names is not None
        else [f"point{i}" for i in range(len(extra_points))]
    )
    vectors = list(anchors) + [np.asarray(p, dtype=np.float64) for p in extra_points]
    points = []
    for name, vec in zip(names, vectors):
        x, y = project_to_plane(vec, origin, u, v)
        residual = float(np.linalg.norm(vec - (origin + x * u + y * v)))
        points.append(SurfacePoint(name, x, y, at.loss(vec), residual))

    px = np.array([p.x for p in points])
    py = np.array([p.y for p in points])
    dx = margin * (px.max() - px.min())
    dy = margin * (py.max() - py.min())
    xs = np.linspace(px.min() - dx, px.max() + dx, cols)
    ys = np.linspace(py.min() - dy, py.max() + dy, rows)

    def cell(flat_index: int) -> float:
        i, j = divmod(flat_index, cols)
        return at.loss(origin + xs[j] * u + ys[i] * v)

    flat = np.array(parallel_map(cell, range(rows * cols)))
    losses = flat.reshape(rows, cols)
    clipped = (losses > loss_cap) | ~np.isfinite(losses)
    return SurfaceGrid(rows, cols, xs, ys, losses, clipped, origin, u, v, points)


def geometry(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """(Euclidean distance, cosine similarity) over the full layout.

    All coordinates participate, biases included; masked coordinates
    contribute their zeros.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionMismatchError("vectors must share a layout")
    np_norm = float(np.linalg.norm(p))
    nq_norm = float(np.linalg.norm(q))
    if np_norm == 0.0 or nq_norm == 0.0:
        raise UndefinedCosineError("cosine similarity with a zero vector")
    euclidean = float(np.linalg.norm(p - q))
    cosine = float(np.dot(p, q)) / (np_norm * nq_norm)
    return euclidean, cosine


def hutchinson_diagonal(
    ctx, w: np.ndarray, m: np.ndarray, probes: int, rng: RngStream
) -> np.ndarray:
    """Stochastic Hessian-diagonal estimate: mean of z * (H z) over Rademacher
    probes restricted to active coordinates."""
    m = np.asarray(m, dtype=bool)
    hessian = ctx.at(m).hvp_at(w)

    def one(j: int) -> np.ndarray:
        gen = rng.derive(j).generator()
        z = (gen.integers(0, 2, size=m.size) * 2.0 - 1.0) * m
        return z * hessian(z)

    samples = parallel_map(one, range(probes))
    return np.mean(samples, axis=0)


def exact_diagonal(ctx, w: np.ndarray, m: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Exact Hessian diagonal at the given coordinates (one HVP each)."""
    hessian = ctx.at(m).hvp_at(w)
    diag = np.zeros(m.size)
    for i in coords:
        e = np.zeros(m.size)
        e[i] = 1.0
        diag[i] = hessian(e)[i]
    return diag


def taylor_prune_estimate(
    ctx,
    w: np.ndarray,
    m_before: np.ndarray,
    m_after: np.ndarray,
    probes: int,
    rng: RngStream,
    use_exact_diagonal: bool = False,
) -> tuple[float, float]:
    """Second-order prediction of the loss change caused by a pruning step.

    The perturbation is dW = (m_after * w) - w; the prediction is
    <dW, g> + 0.5 * <dW, diag(H) * dW> with the diagonal either estimated by
    Hutchinson probes or computed exactly (one HVP per perturbed coordinate,
    intended for small active sets). One evaluator at ``m_before`` gives the
    gradient and the loss before, one at ``m_after`` the loss after; they are
    made after the diagonal, so that their buffers and the probes' samples
    are never held at once. Returns (predicted, actual) loss deltas.
    """
    m_before = np.asarray(m_before, dtype=bool)
    m_after = np.asarray(m_after, dtype=bool)
    if np.any(m_after & ~m_before):
        raise ValueError("m_after must be a subset of m_before")
    if probes < 1:
        raise ConfigError("probe count must be at least 1")
    wm = apply_mask(w, m_before)
    delta = apply_mask(wm, m_after) - wm
    if use_exact_diagonal:
        diag = exact_diagonal(ctx, wm, m_before, np.flatnonzero(delta != 0.0))
    else:
        diag = hutchinson_diagonal(ctx, wm, m_before, probes, rng)
    before = ctx.at(m_before)
    g = before.grad(wm).gradient
    predicted = float(np.dot(delta, g) + 0.5 * np.dot(delta, diag * delta))
    actual = ctx.at(m_after).loss(wm) - before.loss(wm)
    return predicted, float(actual)
