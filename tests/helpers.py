"""Shared fixtures: analytic loss contexts and finite-difference oracles.

The landscape module consumes any object with the protocol of
:class:`prunescope.autodiff.LossContext`: ``at(mask)`` returns an evaluator
with a ``mask`` and ``loss(w)``, ``grad(w)`` and ``hvp_at(w)``, the operator
``v -> H v`` at one point. The fakes here write ``loss(w, mask)``,
``grad(w, mask)`` and ``hvp(w, mask, v)`` in closed form, and
:class:`AtMask` binds them to a mask. So analytic quadratics double as
closed-form oracles for radii, spectra, and Taylor estimates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

import prunescope as ps
from prunescope.autodiff import GradResult
from prunescope.experiment import ExperimentConfig
from prunescope.experiment.config import (
    AnalysisSettings,
    ImpSettings,
    SpiralsSource,
    TrainingSettings,
)


class AtMask:
    """The evaluator route of a fake context: ``at(mask)`` binds the mask to
    the fake's ``loss``, ``grad`` and ``hvp``."""

    def at(self, mask) -> "BoundFake":
        return BoundFake(self, np.asarray(mask, dtype=bool))


@dataclass(frozen=True)
class BoundFake:
    ctx: AtMask
    mask: np.ndarray

    def loss(self, w) -> float:
        return self.ctx.loss(w, self.mask)

    def grad(self, w) -> GradResult:
        return self.ctx.grad(w, self.mask)

    def hvp_at(self, w):
        return functools.partial(self.ctx.hvp, w, self.mask)


@dataclass(frozen=True)
class QuadraticContext(AtMask):
    """loss(w) = offset + 0.5 * (m*w - c)^T H (m*w - c) with closed forms."""

    hessian: np.ndarray
    center: np.ndarray | None = None
    offset: float = 0.0

    def _center(self) -> np.ndarray:
        if self.center is None:
            return np.zeros(self.hessian.shape[0])
        return self.center

    def loss(self, w, mask) -> float:
        d = np.asarray(w) * np.asarray(mask, bool) - self._center()
        return self.offset + 0.5 * float(d @ self.hessian @ d)

    def grad(self, w, mask) -> GradResult:
        m = np.asarray(mask, bool)
        d = np.asarray(w) * m - self._center()
        return GradResult(self.loss(w, mask), (self.hessian @ d) * m)

    def hvp(self, w, mask, v) -> np.ndarray:
        m = np.asarray(mask, bool)
        return (self.hessian @ (np.asarray(v) * m)) * m


def diag_quadratic(diag) -> QuadraticContext:
    return QuadraticContext(np.diag(np.asarray(diag, dtype=np.float64)))


@dataclass(frozen=True)
class FlatContext(AtMask):
    """Constant loss everywhere (degenerate landscape)."""

    value: float = 0.0

    def loss(self, w, mask) -> float:
        return self.value

    def grad(self, w, mask) -> GradResult:
        return GradResult(self.value, np.zeros(np.asarray(w).size))

    def hvp(self, w, mask, v) -> np.ndarray:
        return np.zeros(np.asarray(v).size)


class CountingContext(AtMask):
    """Counts the loss evaluations made through it.

    Wraps a context, or a 1-D loss ``f(r)`` of the first coordinate.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def loss(self, w, mask) -> float:
        self.calls += 1
        if callable(self.inner):
            return self.inner(float(w[0]))
        return self.inner.at(mask).loss(w)


def random_net_ctx(seed: int, layer_sizes=(2, 8, 2), n_samples: int = 12):
    """A random network + batch whose pre-activations stay clear of ReLU
    kinks, so finite-difference oracles are valid. Returns (ctx, w)."""
    spec = ps.NetworkSpec(layer_sizes)
    rng = ps.RngStream(seed, 0xFD)
    ds = ps.gen_spirals(
        max(2, n_samples // layer_sizes[-1]), layer_sizes[-1], 0.3, rng.derive(0)
    )
    if spec.input_size != 2:
        raise ValueError("random_net_ctx generates 2-D inputs")
    ctx = ps.LossContext(spec, ds.features, ds.labels)
    mask = ps.dense_mask(spec)
    for attempt in range(200):
        w = ps.init_params(spec, rng.derive(1, attempt))
        if min_preactivation(ctx, w, mask) > 1e-3:
            return ctx, w
    raise RuntimeError("could not sample a kink-free configuration")


def spirals_context(spec: ps.NetworkSpec, per_class: int, classes: int, noise: float, rng):
    """A loss context on a fresh spiral dataset, as a test set for training."""
    ds = ps.gen_spirals(per_class, classes, noise, rng)
    return ps.LossContext(spec, ds.features, ds.labels)


def min_preactivation(ctx, w, mask) -> float:
    """Smallest |pre-activation| over all hidden units and samples."""
    from prunescope.model import split_params

    layers = split_params(ctx.spec, ps.apply_mask(w, mask))
    a = ctx.features
    closest = math.inf
    for i, (W, b) in enumerate(layers[:-1]):
        z = a @ W.T + b
        closest = min(closest, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return closest


def fd_gradient(ctx, w, mask, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss, coordinate by coordinate."""
    at = ctx.at(mask)
    g = np.zeros(w.size)
    for i in np.flatnonzero(at.mask):
        e = np.zeros(w.size)
        e[i] = h
        g[i] = (at.loss(w + e) - at.loss(w - e)) / (2 * h)
    return g


def fd_hvp(ctx, w, mask, v, h: float = 1e-4) -> np.ndarray:
    """Central finite difference of gradients along v."""
    gp = ctx.at(mask).grad(w + h * v).gradient
    gm = ctx.at(mask).grad(w - h * v).gradient
    return (gp - gm) / (2 * h)


def fd_hessian(ctx, w, mask, h: float = 1e-5) -> np.ndarray:
    """Dense symmetric finite-difference Hessian (tiny networks only)."""
    d = w.size
    H = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        H[:, i] = (
            ctx.at(mask).grad(w + e).gradient - ctx.at(mask).grad(w - e).gradient
        ) / (2 * h)
    return 0.5 * (H + H.T)


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(a - b))) / scale


# master seeds of the default runs the acceptance gate and the golden pins read
DEFAULT_SEEDS = (1, 2, 3)


def criterion2_config() -> ExperimentConfig:
    """The small pipeline config of acceptance criterion 2 (64 hashed artifacts)."""
    return ExperimentConfig(
        dataset=SpiralsSource(train_per_class=40, test_per_class=20, classes=3, noise_std=0.15),
        network=(2, 16, 3),
        training=TrainingSettings(epochs=6, batch_size=16, decay_epochs=(4,), rewind_step=10),
        imp=ImpSettings(levels=2, ft_epochs=3),
        analysis=AnalysisSettings(
            k=5, n_directions=24, interp_points=51, grid_rows=8, grid_cols=9, taylor_probes=20
        ),
        master_seed=7,
    )
