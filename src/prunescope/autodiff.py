"""Reverse-mode differentiation of the MLP loss, with exact Hessian-vector
products.

The network is a fixed chain of (W, b) layers, so differentiation is written
out as straight-line passes over it. One forward pass keeps each layer's
input and pre-activation; the gradient walks the layers backward once.
Hessian-vector products use the classic R-operator trick: push a tangent
through the forward pass, then run the backward pass together with its
tangent, which yields H @ v without ever materializing H.

Two conventions worth knowing:

* masked coordinates are frozen at zero — the Hessian and gradient are the
  restriction to the active subspace, exactly zero elsewhere;
* ReLU's second derivative is taken to be zero everywhere (subgradient
  convention), so HVPs are exact away from kinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .model import LossContext, apply_mask, join_params, split_params


@dataclass(frozen=True)
class GradResult:
    loss: float
    gradient: np.ndarray


def _check_finite(x: np.ndarray, node: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"non-finite value produced by node {node}")


def _forward(ctx: LossContext, w: np.ndarray, mask: np.ndarray):
    """Masked layers, each layer's input, and each layer's pre-activation.

    The last pre-activation is the logits; hidden layers apply ReLU.
    """
    layers = split_params(ctx.spec, apply_mask(w, mask))
    inputs: list[np.ndarray] = []
    pre: list[np.ndarray] = []
    a = ctx.features
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        z = a @ W.T + b
        _check_finite(z, f"affine[{i}]")
        inputs.append(a)
        pre.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
    return layers, inputs, pre


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and the per-row log-sum-exp of the logits.

    Callers that need the softmax probabilities form ``exp(logits - lse)``.
    """
    zmax = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True)) + zmax
    n = logits.shape[0]
    per_sample = lse[:, 0] - logits[np.arange(n), labels]
    loss = float(per_sample.mean())
    _check_finite(np.asarray(loss), "softmax_ce")
    return loss, lse


def _ce_adjoint(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (probs - onehot) / n."""
    n = labels.shape[0]
    dz = probs.copy()
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    return dz


def forward_loss(ctx: LossContext, w: np.ndarray, mask: np.ndarray) -> float:
    _, _, pre = _forward(ctx, w, mask)
    return _softmax_ce(pre[-1], ctx.labels)[0]


def forward_logits(ctx: LossContext, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    _, _, pre = _forward(ctx, w, mask)
    return pre[-1]


def grad(ctx: LossContext, w: np.ndarray, mask: np.ndarray) -> GradResult:
    """Loss and exact gradient at ``mask * w``, zeroed on masked coordinates."""
    layers, inputs, pre = _forward(ctx, w, mask)
    loss, lse = _softmax_ce(pre[-1], ctx.labels)
    dz = _ce_adjoint(np.exp(pre[-1] - lse), ctx.labels)
    grads: list = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (dz.T @ inputs[i], dz.sum(axis=0))
        if i > 0:
            dz = (dz @ layers[i][0]) * (pre[i - 1] > 0.0)
    flat = join_params(ctx.spec, grads)
    return GradResult(loss, apply_mask(flat, mask))


def hvp(ctx: LossContext, w: np.ndarray, mask: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product H @ v restricted to the mask's active subspace.

    Equivalent to differentiating <grad(w), v>: a tangent copy of v is pushed
    through the forward pass, then through the backward pass (the R-operator),
    so the result is exact to machine precision for the piecewise-smooth loss.
    """
    v = apply_mask(np.asarray(v, dtype=np.float64), mask)
    layers, inputs, pre = _forward(ctx, w, mask)
    _, lse = _softmax_ce(pre[-1], ctx.labels)
    probs = np.exp(pre[-1] - lse)
    v_layers = split_params(ctx.spec, v)
    n = ctx.labels.shape[0]
    last = len(layers) - 1

    # tangent forward: R{input} of every layer, ending at R{logits}
    r_inputs = []
    ra = np.zeros_like(ctx.features)
    for i, ((W, _), (V, c)) in enumerate(zip(layers, v_layers)):
        r_inputs.append(ra)
        rz = ra @ W.T + inputs[i] @ V.T + c
        if i < last:
            ra = rz * (pre[i] > 0.0)

    # combined reverse sweep: plain adjoints dz and their tangents R{dz}
    dz = _ce_adjoint(probs, ctx.labels)
    # R{softmax}: p * (rz - sum(p * rz))
    rdz = probs * (rz - (probs * rz).sum(axis=1, keepdims=True)) / n
    hgrads: list = [None] * len(layers)
    for i in range(last, -1, -1):
        hgrads[i] = (rdz.T @ inputs[i] + dz.T @ r_inputs[i], rdz.sum(axis=0))
        if i > 0:
            gate = pre[i - 1] > 0.0
            W, V = layers[i][0], v_layers[i][0]
            dz, rdz = (dz @ W) * gate, (rdz @ W + dz @ V) * gate
    flat = join_params(ctx.spec, hgrads)
    return apply_mask(flat, mask)
