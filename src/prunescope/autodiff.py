"""The loss evaluator: the MLP loss over a data slice, its reverse-mode
gradient and exact Hessian-vector products.

:class:`LossContext` fixes an architecture and a data slice, which makes the
loss a pure function of the parameter vector. Its ``loss``, ``grad`` and
``hvp`` methods are the protocol every landscape probe consumes; they call
this module's :func:`forward_loss`, :func:`grad` and :func:`hvp`, looked up
as module globals at call time, so rebinding one of those counts or times
every evaluation made through a context.

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

Training calls :func:`grad` once per SGD step, so the passes run as bare
numpy. Layers are views of the masked vector through the spec's cached
layout (:func:`~prunescope.model.split_params`); ``grad`` and ``hvp`` write
each layer's result into its view of one flat output vector and mask that
vector in place. Each in-place operation computes the same expression, with
the same operands in the same order, as the plain form (``a @ W.T + b``,
``(dz @ W) * gate``, ...), and each matmul keeps its operand layout (a
copied, contiguous ``W.T`` rounds differently). Floating-point results
depend on both, so this keeps every gradient, and with it every trained
weight and artifact, bit for bit what the plain expressions give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError
from .model import NetworkSpec, apply_mask, split_params


@dataclass(frozen=True)
class LossContext:
    """An immutable (architecture, dataset slice) bundle.

    Fixing both makes the training loss a pure function of the parameter
    vector, which is what every landscape probe differentiates or scans.
    """

    spec: NetworkSpec
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise DimensionMismatchError("features must be a nonempty (n, d) matrix")
        if X.shape[1] != self.spec.input_size:
            raise DimensionMismatchError(
                f"feature width {X.shape[1]} != network input {self.spec.input_size}"
            )
        if y.shape != (X.shape[0],):
            raise DimensionMismatchError("labels must be one integer per sample")
        if y.min() < 0 or y.max() >= self.spec.output_size:
            raise ValueError(
                f"labels must lie in [0, {self.spec.output_size}), "
                f"got range [{y.min()}, {y.max()}]"
            )
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    def rows(self, idx: np.ndarray) -> "LossContext":
        """The context on the sample rows ``idx`` (a nonempty index array).

        Rows of a validated context are valid, so this skips validation.
        """
        sub = object.__new__(LossContext)
        object.__setattr__(sub, "spec", self.spec)
        object.__setattr__(sub, "features", self.features[idx])
        object.__setattr__(sub, "labels", self.labels[idx])
        return sub

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @functools.cached_property
    def label_index(self) -> np.ndarray:
        """Flat position of each sample's label in a C-ordered (n, classes) array."""
        return np.arange(self.n) * self.spec.output_size + self.labels

    # The protocol of the landscape probes, over (w, mask).
    def loss(self, w: np.ndarray, mask: np.ndarray) -> float:
        """Mean softmax cross-entropy of the masked network over the slice."""
        return forward_loss(self, w, mask)

    def grad(self, w: np.ndarray, mask: np.ndarray) -> GradResult:
        return grad(self, w, mask)

    def hvp(self, w: np.ndarray, mask: np.ndarray, v: np.ndarray) -> np.ndarray:
        return hvp(self, w, mask, v)


@dataclass(frozen=True)
class GradResult:
    loss: float
    gradient: np.ndarray


def _check_finite(x: np.ndarray, node: str) -> None:
    # A finite sum proves every entry finite. A sum of finite entries can
    # still overflow (numpy then warns), so the exact test decides whenever
    # the sum is not finite: this raises exactly when an entry is not.
    if not math.isfinite(x.sum()) and not np.isfinite(x).all():
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
        z = a @ W.T
        z += b
        _check_finite(z, f"affine[{i}]")
        inputs.append(a)
        pre.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
    return layers, inputs, pre


def _softmax_ce(ctx: LossContext, logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and the per-row log-sum-exp of the logits.

    Callers that need the softmax probabilities form ``exp(logits - lse)``.
    """
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted = logits - zmax
    np.exp(shifted, out=shifted)
    lse = np.add.reduce(shifted, axis=1, keepdims=True)
    np.log(lse, out=lse)
    lse += zmax
    per_sample = lse[:, 0] - logits.ravel()[ctx.label_index]
    loss = float(per_sample.sum() / ctx.n)  # what per_sample.mean() computes
    if not math.isfinite(loss):
        raise NumericalFailureError("non-finite value produced by node softmax_ce")
    return loss, lse


def _probs(logits: np.ndarray, lse: np.ndarray) -> np.ndarray:
    probs = logits - lse
    return np.exp(probs, out=probs)


def _to_ce_adjoint(ctx: LossContext, probs: np.ndarray) -> np.ndarray:
    """Turn softmax probabilities, in place, into d(mean cross-entropy)/d(logits)
    = (probs - onehot) / n."""
    probs.ravel()[ctx.label_index] -= 1.0
    probs /= ctx.n
    return probs


def forward_loss(ctx: LossContext, w: np.ndarray, mask: np.ndarray) -> float:
    _, _, pre = _forward(ctx, w, mask)
    return _softmax_ce(ctx, pre[-1])[0]


def forward_logits(ctx: LossContext, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    _, _, pre = _forward(ctx, w, mask)
    return pre[-1]


def accuracy_on(ctx: LossContext, w: np.ndarray, m: np.ndarray) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Ties resolve to the lowest class index (numpy argmax convention).
    """
    predictions = np.argmax(forward_logits(ctx, w, m), axis=1)
    return float(np.mean(predictions == ctx.labels))


def grad(ctx: LossContext, w: np.ndarray, mask: np.ndarray) -> GradResult:
    """Loss and exact gradient at ``mask * w``, zeroed on masked coordinates."""
    mask = np.asarray(mask, dtype=bool)
    layers, inputs, pre = _forward(ctx, w, mask)
    loss, lse = _softmax_ce(ctx, pre[-1])
    dz = _to_ce_adjoint(ctx, _probs(pre[-1], lse))
    flat = np.empty(mask.shape)
    out = split_params(ctx.spec, flat)
    for i in range(len(layers) - 1, -1, -1):
        gW, gb = out[i]
        np.matmul(dz.T, inputs[i], out=gW)
        np.add.reduce(dz, axis=0, out=gb)
        if i > 0:
            dz = dz @ layers[i][0]
            dz *= pre[i - 1] > 0.0
    flat *= mask
    return GradResult(loss, flat)


def hvp(ctx: LossContext, w: np.ndarray, mask: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product H @ v restricted to the mask's active subspace.

    Equivalent to differentiating <grad(w), v>: a tangent copy of v is pushed
    through the forward pass, then through the backward pass (the R-operator),
    so the result is exact to machine precision for the piecewise-smooth loss.
    """
    mask = np.asarray(mask, dtype=bool)
    v = apply_mask(np.asarray(v, dtype=np.float64), mask)
    layers, inputs, pre = _forward(ctx, w, mask)
    _, lse = _softmax_ce(ctx, pre[-1])
    probs = _probs(pre[-1], lse)
    v_layers = split_params(ctx.spec, v)
    last = len(layers) - 1

    # tangent forward: R{input} of every layer, ending at R{logits}
    r_inputs = []
    ra = np.zeros_like(ctx.features)
    for i, ((W, _), (V, c)) in enumerate(zip(layers, v_layers)):
        r_inputs.append(ra)
        rz = ra @ W.T
        rz += inputs[i] @ V.T
        rz += c
        if i < last:
            ra = rz * (pre[i] > 0.0)

    # combined reverse sweep: plain adjoints dz and their tangents R{dz}
    # R{softmax}: p * (rz - sum(p * rz)), over n
    row_dot = np.add.reduce(probs * rz, axis=1, keepdims=True)
    rz -= row_dot
    rdz = np.multiply(probs, rz, out=rz)
    rdz /= ctx.n
    dz = _to_ce_adjoint(ctx, probs)
    flat = np.empty(mask.shape)
    out = split_params(ctx.spec, flat)
    for i in range(last, -1, -1):
        hW, hb = out[i]
        np.matmul(rdz.T, inputs[i], out=hW)
        hW += dz.T @ r_inputs[i]
        np.add.reduce(rdz, axis=0, out=hb)
        if i > 0:
            gate = pre[i - 1] > 0.0
            W, V = layers[i][0], v_layers[i][0]
            rdz = rdz @ W
            rdz += dz @ V
            rdz *= gate
            dz = dz @ W
            dz *= gate
    flat *= mask
    return flat
