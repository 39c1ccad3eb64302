"""The loss evaluator: the MLP loss over a data slice, its reverse-mode
gradient and exact Hessian-vector products.

:class:`LossContext` fixes an architecture and a data slice, which makes the
loss a pure function of the parameter vector. ``ctx.at(mask)`` is the one way
an evaluation runs: it returns an :class:`Evaluator`, whose ``loss``,
``accuracy``, ``grad`` and ``hvp_at`` methods are the protocol every
landscape probe consumes. They call this module's :func:`forward_loss`,
:func:`accuracy_on`, :func:`grad` and :func:`hvp`, looked up as module
globals at call time with the evaluated context as the first argument, so
rebinding one of those counts or times every evaluation.

The network is a fixed chain of (W, b) layers, so differentiation is written
out as straight-line passes over it. One forward pass keeps each layer's
input and output. A hidden layer's ReLU overwrites its pre-activation in
place, and the ReLU gates are read back from the activation (``a > 0``
exactly where ``z > 0``). One backward pass turns the logits' adjoint into
each layer's adjoint ``dz``, and the gradient is ``dz.T @ input`` per layer.
Hessian-vector products use the R-operator (Pearlmutter, 1994): push a
tangent through the forward pass, then run the backward pass's tangent
against the plain adjoints, which yields H @ v without ever materializing H.

Everything a product reads that does not depend on v (the masked layers,
layer inputs, ReLU gates, softmax probabilities and plain adjoints) is the
state of the point (w, mask). ``hvp_at(w)`` builds it once, into a
:class:`HessianAt` with an evaluator of its own, so a Lanczos or Hutchinson
loop at one point runs the forward pass once.

Two conventions worth knowing:

* masked coordinates are frozen at zero — the Hessian and gradient are the
  restriction to the active subspace, exactly zero elsewhere;
* ReLU's second derivative is taken to be zero everywhere (subgradient
  convention), so HVPs are exact away from kinks.

Training calls :func:`grad` once per SGD step, so the passes run as bare
numpy into an evaluator's buffers: the masked weights, the activations,
gates, adjoints and the gradient are written there instead of being
allocated, and a loop of evaluations at one mask allocates them once. Row
buffers are kept per row count, so a training run's evaluator also serves
each step's minibatch, passed as the context of the call. Layers are views
of a flat vector through the spec's cached layout
(:func:`~prunescope.model.split_params`). Each in-place operation computes
the same expression, with the same operands in the same order, as the plain
form (``a @ W.T + b``, ``(dz @ W) * gate``, ...), and each matmul keeps its
operand layout (a copied, contiguous ``W.T`` rounds differently).
Floating-point results depend on both, so this keeps every gradient, and
with it every trained weight and artifact, bit for bit what the plain
expressions give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError
from .model import NetworkSpec, split_params


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

    def at(self, mask: np.ndarray) -> Evaluator:
        """The evaluator of this context at ``mask`` (one bool per parameter)."""
        return Evaluator(self, mask)


@dataclass(frozen=True)
class GradResult:
    loss: float
    gradient: np.ndarray


class Evaluator:
    """A context's evaluations at one mask, and the arrays they reuse.

    ``loss(w)``, ``accuracy(w)`` and ``grad(w)`` evaluate at ``mask * w``;
    ``hvp_at(w)`` is the operator v -> H v there. The evaluator holds the
    masked weights with their layer views, and per row count the row buffers
    (:class:`_RowBuffers`). The gradient and its layer views are made on the
    first :func:`grad`, so an evaluator that only runs forward passes never
    holds them. :func:`grad` returns ``gradient`` itself, so the next call
    overwrites the result. The buffers make an evaluator serve one caller
    at a time.

    ``keep`` is the bool ``mask`` as 0.0/1.0 floats. Multiplying by it
    rounds exactly as multiplying by the mask, since numpy casts the bools
    to those floats, but skips that cast: about 3x faster on a 17k vector.
    """

    def __init__(self, ctx: LossContext, mask: np.ndarray):
        spec = ctx.spec
        self.ctx = ctx
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != (spec.param_count,):
            raise DimensionMismatchError(
                f"mask length {self.mask.shape}, spec needs {spec.param_count}"
            )
        self.keep = self.mask.astype(np.float64)
        self.weights = np.empty(spec.param_count)
        self.layers = split_params(spec, self.weights)
        self._rows: dict[int, _RowBuffers] = {}

    def loss(self, w: np.ndarray) -> float:
        """Mean softmax cross-entropy of the masked network over the slice."""
        return forward_loss(self.ctx, w, self)

    def accuracy(self, w: np.ndarray) -> float:
        return accuracy_on(self.ctx, w, self)

    def grad(self, w: np.ndarray) -> GradResult:
        return grad(self.ctx, w, self)

    def hvp_at(self, w: np.ndarray) -> HessianAt:
        """The operator v -> H v at (w, mask). Building it runs the forward
        pass, which its products share; a non-finite one raises here."""
        return HessianAt(self.ctx, w, self.mask)

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        return np.empty(self.ctx.spec.param_count)

    @functools.cached_property
    def grads(self) -> list:
        return split_params(self.ctx.spec, self.gradient)

    def masked_layers(self, w: np.ndarray) -> list:
        """The layers of ``mask * w``, written into ``weights``."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.weights.shape:
            raise DimensionMismatchError(f"mask length {self.weights.shape} != params {w.shape}")
        np.multiply(w, self.keep, out=self.weights)
        return self.layers

    def rows(self, n: int) -> _RowBuffers:
        buffers = self._rows.get(n)
        if buffers is None:
            buffers = self._rows[n] = _RowBuffers(self.ctx.spec, n)
        return buffers


class _RowBuffers:
    """An evaluator's per-layer arrays for slices of ``n`` rows: each layer's
    pre-activation, which a hidden layer's ReLU overwrites with its
    activation, each hidden layer's gate and adjoint, and the row offsets
    that place each row's label in the flat (n, classes) logits. The gates
    and adjoints are made on first use, so forward-only passes never hold
    them."""

    def __init__(self, spec: NetworkSpec, n: int):
        self.hidden = [(n, k) for k in spec.layer_sizes[1:-1]]
        self.pre = [np.empty((n, k)) for k in spec.layer_sizes[1:]]
        self.offsets = np.arange(n) * spec.output_size

    @functools.cached_property
    def gates(self) -> list:
        return [np.empty(shape, dtype=bool) for shape in self.hidden]

    @functools.cached_property
    def adjoints(self) -> list:
        return [np.empty(shape) for shape in self.hidden]


def _check_finite(x: np.ndarray, node: str) -> None:
    # A finite sum proves every entry finite. A sum of finite entries can
    # still overflow (numpy then warns), so the exact test decides whenever
    # the sum is not finite: this raises exactly when an entry is not.
    if not math.isfinite(x.sum()) and not np.isfinite(x).all():
        raise NumericalFailureError(f"non-finite value produced by node {node}")


def _forward(ctx: LossContext, layers, rows: _RowBuffers):
    """Each layer's input and output, written into ``rows``.

    The last output is the logits. A hidden layer's ReLU overwrites its
    pre-activation, so its output is the next layer's input, and ``a > 0``
    holds exactly where the pre-activation was positive (its ReLU gate).
    """
    inputs: list[np.ndarray] = []
    out: list[np.ndarray] = []
    a = ctx.features
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        z = np.matmul(a, W.T, out=rows.pre[i])
        z += b
        _check_finite(z, f"affine[{i}]")
        inputs.append(a)
        out.append(z)
        if i < last:
            a = np.maximum(z, 0.0, out=z)
    return inputs, out


def _softmax_ce(logits: np.ndarray, label_index: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and the per-row log-sum-exp of the logits.

    ``label_index`` is each row's label as a flat position in the C-ordered
    logits. Callers that need the softmax probabilities form
    ``exp(logits - lse)``.
    """
    zmax = _row_max(logits)
    shifted = logits - zmax
    np.exp(shifted, out=shifted)
    lse = np.add.reduce(shifted, axis=1, keepdims=True)
    np.log(lse, out=lse)
    lse += zmax
    per_sample = lse[:, 0] - logits.ravel()[label_index]
    loss = float(per_sample.sum() / logits.shape[0])  # what per_sample.mean() computes
    if not math.isfinite(loss):
        raise NumericalFailureError("non-finite value produced by node softmax_ce")
    return loss, lse


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Each row's largest logit as an (n, 1) column, taken over the class
    columns: exact in any order, and much faster than ``np.maximum.reduce``
    over a short axis. (A column loop would not do for the class sum: numpy
    sums 8 or more classes pairwise.)"""
    zmax = np.maximum(logits[:, :1], logits[:, 1:2])
    for c in range(2, logits.shape[1]):
        np.maximum(zmax, logits[:, c : c + 1], out=zmax)
    return zmax


def _probs(logits: np.ndarray, lse: np.ndarray) -> np.ndarray:
    probs = logits - lse
    return np.exp(probs, out=probs)


def _to_ce_adjoint(probs: np.ndarray, label_index: np.ndarray) -> np.ndarray:
    """Turn softmax probabilities, in place, into d(mean cross-entropy)/d(logits)
    = (probs - onehot) / n."""
    probs.ravel()[label_index] -= 1.0
    probs /= probs.shape[0]
    return probs


def _adjoints(layers, gates, dz: np.ndarray, rows: _RowBuffers) -> list:
    """Every layer's adjoint d(loss)/d(pre-activation), first layer first.

    ``dz`` is the logits' adjoint; each layer below is ``(dz @ W) * gate``,
    written into ``rows``.
    """
    adjoints = [dz]
    for i in range(len(layers) - 1, 0, -1):
        dz = np.matmul(dz, layers[i][0], out=rows.adjoints[i - 1])
        dz *= gates[i - 1]
        adjoints.append(dz)
    adjoints.reverse()
    return adjoints


def forward_loss(ctx: LossContext, w: np.ndarray, ev: Evaluator) -> float:
    """Mean cross-entropy of ``ctx`` at ``ev.mask * w``, in ``ev``'s buffers."""
    rows = ev.rows(ctx.n)
    _, out = _forward(ctx, ev.masked_layers(w), rows)
    return _softmax_ce(out[-1], rows.offsets + ctx.labels)[0]


def accuracy_on(ctx: LossContext, w: np.ndarray, ev: Evaluator) -> float:
    """Fraction of ``ctx``'s samples whose argmax logit at ``ev.mask * w``
    matches the label.

    Ties resolve to the lowest class index (numpy argmax convention).
    """
    _, out = _forward(ctx, ev.masked_layers(w), ev.rows(ctx.n))
    predictions = np.argmax(out[-1], axis=1)
    return float(np.mean(predictions == ctx.labels))


def grad(ctx: LossContext, w: np.ndarray, ev: Evaluator) -> GradResult:
    """Loss and exact gradient of ``ctx`` at ``ev.mask * w``, zeroed on masked
    coordinates. The passes write into ``ev``, whose ``gradient`` is the
    returned vector."""
    layers, rows = ev.masked_layers(w), ev.rows(ctx.n)
    inputs, out = _forward(ctx, layers, rows)
    label_index = rows.offsets + ctx.labels
    loss, lse = _softmax_ce(out[-1], label_index)
    gates = [np.greater(a, 0.0, out=g) for a, g in zip(out, rows.gates)]
    dz = _to_ce_adjoint(_probs(out[-1], lse), label_index)
    for (gW, gb), adjoint, a in zip(ev.grads, _adjoints(layers, gates, dz, rows), inputs):
        np.matmul(adjoint.T, a, out=gW)
        np.add.reduce(adjoint, axis=0, out=gb)
    ev.gradient *= ev.keep
    return GradResult(loss, ev.gradient)


class HessianAt:
    """The operator v -> H v at one point (w, mask) of a context.

    Building it runs the forward pass, the softmax head and the plain
    backward pass once, into an evaluator of its own: a loss on a shared
    one would overwrite the point's state. A non-finite forward pass raises
    here. Every product reuses that state, writes into the operator's
    tangent buffers and goes through this module's :func:`hvp`, looked up
    at call time. Keep the operator (about ten activation-sized arrays) in
    a loop's local variable.
    """

    def __init__(self, ctx: LossContext, w: np.ndarray, mask: np.ndarray):
        self.ctx = ctx
        self.evaluator = ev = Evaluator(ctx, mask)
        rows = ev.rows(ctx.n)
        self.layers = ev.masked_layers(w)
        self.inputs, out = _forward(ctx, self.layers, rows)
        label_index = rows.offsets + ctx.labels
        _, lse = _softmax_ce(out[-1], label_index)
        self.probs = _probs(out[-1], lse)
        self.gates = [np.greater(a, 0.0, out=g) for a, g in zip(out, rows.gates)]
        dz = _to_ce_adjoint(self.probs.copy(), label_index)
        self.adjoints = _adjoints(self.layers, self.gates, dz, rows)
        self.zero_input = np.zeros_like(ctx.features)  # R{input} of the first layer
        # per layer: R{pre-activation}, then R{dz} of the layer below
        self.rz = [np.empty_like(z) for z in out]
        self.ra = [np.empty_like(z) for z in out[:-1]]  # per hidden layer: R{activation}
        self.tmp = [np.empty_like(z) for z in out]  # per layer: a sum's second matmul
        self.hw = [np.empty_like(W) for W, _ in self.layers]  # per layer: dz.T @ R{input}

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return hvp(self.ctx, v, self)


def hvp(ctx: LossContext, v: np.ndarray, at: HessianAt) -> np.ndarray:
    """Hessian-vector product H @ v at the point of ``at``, restricted to its
    mask's active subspace.

    Equivalent to differentiating <grad(w), v>: a tangent copy of v is pushed
    through the forward pass, then through the backward pass (the R-operator),
    so the result is exact to machine precision for the piecewise-smooth loss.
    """
    layers, inputs, gates, keep = at.layers, at.inputs, at.gates, at.evaluator.keep
    v = np.asarray(v, dtype=np.float64)
    if v.shape != keep.shape:
        raise DimensionMismatchError(f"mask length {keep.shape} != vector {v.shape}")
    v = v * keep
    v_layers = split_params(ctx.spec, v)
    last = len(layers) - 1

    # tangent forward: R{input} of every layer, ending at R{logits}
    r_inputs = []
    ra = at.zero_input
    for i, ((W, _), (V, c)) in enumerate(zip(layers, v_layers)):
        r_inputs.append(ra)
        rz = np.matmul(ra, W.T, out=at.rz[i])
        rz += np.matmul(inputs[i], V.T, out=at.tmp[i])
        rz += c
        if i < last:
            ra = np.multiply(rz, gates[i], out=at.ra[i])

    # tangent reverse sweep R{dz}, against the point's plain adjoints dz
    # R{softmax}: p * (rz - sum(p * rz)), over n
    probs = at.probs
    row_dot = np.add.reduce(probs * rz, axis=1, keepdims=True)
    rz -= row_dot
    rdz = np.multiply(probs, rz, out=rz)
    rdz /= ctx.n
    flat = np.empty(v.shape)  # a fresh result: callers keep products
    out = split_params(ctx.spec, flat)
    for i in range(last, -1, -1):
        hW, hb = out[i]
        dz = at.adjoints[i]
        np.matmul(rdz.T, inputs[i], out=hW)
        hW += np.matmul(dz.T, r_inputs[i], out=at.hw[i])
        np.add.reduce(rdz, axis=0, out=hb)
        if i > 0:
            rdz = np.matmul(rdz, layers[i][0], out=at.rz[i - 1])
            rdz += np.matmul(dz, v_layers[i][0], out=at.tmp[i - 1])
            rdz *= gates[i - 1]
    flat *= keep
    return flat
