"""The loss evaluator: the MLP loss over a data slice, its reverse-mode
gradient and exact Hessian-vector products.

:class:`LossContext` fixes an architecture and a data slice, which makes the
loss a pure function of the parameter vector. Its ``loss``, ``grad`` and
``hvp_at`` methods are the protocol every landscape probe consumes; they
call this module's :func:`forward_loss`, :func:`grad` and :func:`hvp`,
looked up as module globals at call time, so rebinding one of those counts
or times every evaluation made through a context.

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
state of the point (w, mask). Building a :class:`HessianAt` computes it
once, into a :class:`Workspace`, so a Lanczos or Hutchinson loop at one
point runs the forward pass once; a one-off :func:`hvp` builds the operator
for itself.

Two conventions worth knowing:

* masked coordinates are frozen at zero — the Hessian and gradient are the
  restriction to the active subspace, exactly zero elsewhere;
* ReLU's second derivative is taken to be zero everywhere (subgradient
  convention), so HVPs are exact away from kinks.

Training calls :func:`grad` once per SGD step, so the passes run as bare
numpy, and a run passes one :class:`Workspace` to every step: the masked
weights, the activations, gates, adjoints and the gradient are written into
its buffers instead of being allocated. Forward-only evaluations
(:func:`forward_loss`, :func:`accuracy_on`) take a workspace the same way,
so a loop of losses at one mask and one slice, such as an IMP level's
trajectory, allocates its buffers once. Layers are views of a flat vector
through the spec's cached layout (:func:`~prunescope.model.split_params`).
Each in-place operation computes the same expression, with the same operands
in the same order, as the plain form (``a @ W.T + b``, ``(dz @ W) * gate``,
...), and each matmul keeps its operand layout (a copied, contiguous ``W.T``
rounds differently). Floating-point results depend on both, so this keeps
every gradient, and with it every trained weight and artifact, bit for bit
what the plain expressions give.
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
    def loss(self, w: np.ndarray, mask: np.ndarray, workspace: Workspace | None = None) -> float:
        """Mean softmax cross-entropy of the masked network over the slice; the
        pass writes into ``workspace`` (built for this very ``mask``) if given."""
        return forward_loss(self, w, mask, workspace)

    def grad(
        self, w: np.ndarray, mask: np.ndarray, workspace: Workspace | None = None
    ) -> GradResult:
        return grad(self, w, mask, workspace)

    def hvp_at(self, w: np.ndarray, mask: np.ndarray) -> HessianAt:
        """The operator v -> H v at (w, mask). Building it runs the forward
        pass, which its products share; a non-finite one raises here."""
        return HessianAt(self, w, mask)


@dataclass(frozen=True)
class GradResult:
    loss: float
    gradient: np.ndarray


class Workspace:
    """The arrays one run of gradient steps reuses, for one spec and one mask;
    a :class:`HessianAt` keeps its point's state in one as well, and a loop
    of forward-only evaluations (:func:`forward_loss`, :func:`accuracy_on`)
    can write into one.

    It holds the masked weights with their layer views, and per batch size
    the row buffers (:class:`_RowBuffers`). The gradient and its layer views
    are made on :func:`grad`'s first call, so a workspace that only runs
    forward passes or HVPs never holds them. A training run meets at most
    two batch sizes: its own and the epoch's short last batch. :func:`grad`
    returns ``gradient`` itself, so the next call with the same workspace
    overwrites the result.

    ``keep`` is the bool ``mask`` as 0.0/1.0 floats. Multiplying by it
    rounds exactly as multiplying by the mask, since numpy casts the bools
    to those floats, but skips that cast: about 3x faster on a 17k vector.
    """

    def __init__(self, spec: NetworkSpec, mask: np.ndarray):
        self.spec = spec
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != (spec.param_count,):
            raise DimensionMismatchError(
                f"mask length {self.mask.shape}, spec needs {spec.param_count}"
            )
        self.keep = self.mask.astype(np.float64)
        self.weights = np.empty(spec.param_count)
        self.layers = split_params(spec, self.weights)
        self._rows: dict[int, _RowBuffers] = {}

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        return np.empty(self.spec.param_count)

    @functools.cached_property
    def grads(self) -> list:
        return split_params(self.spec, self.gradient)

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
            buffers = self._rows[n] = _RowBuffers(self.spec, n)
        return buffers


class _RowBuffers:
    """A workspace's per-layer arrays for batches of ``n`` rows: each layer's
    pre-activation, which a hidden layer's ReLU overwrites with its
    activation, each hidden layer's gate and adjoint, and the label offsets.
    The gates and adjoints are made on first use, so forward-only passes
    never hold them."""

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


def _forward(ctx: LossContext, layers, rows: _RowBuffers | None = None):
    """Each layer's input and output, written into ``rows`` if given.

    The last output is the logits. A hidden layer's ReLU overwrites its
    pre-activation, so its output is the next layer's input, and ``a > 0``
    holds exactly where the pre-activation was positive (its ReLU gate).
    """
    inputs: list[np.ndarray] = []
    out: list[np.ndarray] = []
    a = ctx.features
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        z = np.matmul(a, W.T, out=None if rows is None else rows.pre[i])
        z += b
        _check_finite(z, f"affine[{i}]")
        inputs.append(a)
        out.append(z)
        if i < last:
            a = np.maximum(z, 0.0, out=z)
    return inputs, out


def _masked_layers(ctx: LossContext, w: np.ndarray, mask: np.ndarray):
    return split_params(ctx.spec, apply_mask(w, mask))


def _layers_and_rows(ctx: LossContext, w, mask, workspace: Workspace | None):
    """The masked layers of ``w`` and the row buffers of ``workspace``, which
    must have been built for this very ``mask`` object (``None`` without one:
    the pass allocates)."""
    if workspace is None:
        return _masked_layers(ctx, w, mask), None
    if mask is not workspace.mask:
        raise ValueError("the workspace was built for another mask")
    return workspace.masked_layers(w), workspace.rows(ctx.n)


def _softmax_ce(logits: np.ndarray, label_index: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and the per-row log-sum-exp of the logits.

    Callers that need the softmax probabilities form ``exp(logits - lse)``.
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


def forward_loss(
    ctx: LossContext, w: np.ndarray, mask: np.ndarray, workspace: Workspace | None = None
) -> float:
    """Mean cross-entropy at ``mask * w``, written into ``workspace`` if given."""
    _, out = _forward(ctx, *_layers_and_rows(ctx, w, mask, workspace))
    return _softmax_ce(out[-1], ctx.label_index)[0]


def accuracy_on(
    ctx: LossContext, w: np.ndarray, m: np.ndarray, workspace: Workspace | None = None
) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Ties resolve to the lowest class index (numpy argmax convention). The
    pass writes into ``workspace`` if given.
    """
    _, out = _forward(ctx, *_layers_and_rows(ctx, w, m, workspace))
    predictions = np.argmax(out[-1], axis=1)
    return float(np.mean(predictions == ctx.labels))


def grad(
    ctx: LossContext, w: np.ndarray, mask: np.ndarray, workspace: Workspace | None = None
) -> GradResult:
    """Loss and exact gradient at ``mask * w``, zeroed on masked coordinates.

    The passes write into ``workspace``, which must have been built for this
    very ``mask`` object, and whose ``gradient`` is the returned vector;
    without one the call builds its own.
    """
    if workspace is None:
        workspace = Workspace(ctx.spec, mask)
        mask = workspace.mask
    layers, rows = _layers_and_rows(ctx, w, mask, workspace)
    inputs, out = _forward(ctx, layers, rows)
    label_index = rows.offsets + ctx.labels
    loss, lse = _softmax_ce(out[-1], label_index)
    gates = [np.greater(a, 0.0, out=g) for a, g in zip(out, rows.gates)]
    dz = _to_ce_adjoint(_probs(out[-1], lse), label_index)
    for (gW, gb), adjoint, a in zip(workspace.grads, _adjoints(layers, gates, dz, rows), inputs):
        np.matmul(adjoint.T, a, out=gW)
        np.add.reduce(adjoint, axis=0, out=gb)
    workspace.gradient *= workspace.keep
    return GradResult(loss, workspace.gradient)


class HessianAt:
    """The operator v -> H v at one point (w, mask) of a context.

    Building it runs the forward pass, the softmax head and the plain
    backward pass once, into a :class:`Workspace`; a non-finite forward pass
    raises here. Every product reuses that state and writes into the
    operator's tangent buffers. It goes through this module's :func:`hvp`,
    looked up at call time, so it is counted like a one-off product. Keep
    the operator (about ten activation-sized arrays) in a loop's local variable.
    """

    def __init__(self, ctx: LossContext, w: np.ndarray, mask: np.ndarray):
        self.ctx = ctx
        self.w = w
        self.workspace = ws = Workspace(ctx.spec, mask)
        rows = ws.rows(ctx.n)
        self.layers = ws.masked_layers(w)
        self.inputs, out = _forward(ctx, self.layers, rows)
        _, lse = _softmax_ce(out[-1], ctx.label_index)
        self.probs = _probs(out[-1], lse)
        self.gates = [np.greater(a, 0.0, out=g) for a, g in zip(out, rows.gates)]
        dz = _to_ce_adjoint(self.probs.copy(), ctx.label_index)
        self.adjoints = _adjoints(self.layers, self.gates, dz, rows)
        self.zero_input = np.zeros_like(ctx.features)  # R{input} of the first layer
        # per layer: R{pre-activation}, then R{dz} of the layer below
        self.rz = [np.empty_like(z) for z in out]
        self.ra = [np.empty_like(z) for z in out[:-1]]  # per hidden layer: R{activation}
        self.tmp = [np.empty_like(z) for z in out]  # per layer: a sum's second matmul
        self.hw = [np.empty_like(W) for W, _ in self.layers]  # per layer: dz.T @ R{input}

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return hvp(self.ctx, self.w, self.workspace.mask, v, self)


def hvp(
    ctx: LossContext,
    w: np.ndarray,
    mask: np.ndarray,
    v: np.ndarray,
    at: HessianAt | None = None,
) -> np.ndarray:
    """Hessian-vector product H @ v restricted to the mask's active subspace.

    Equivalent to differentiating <grad(w), v>: a tangent copy of v is pushed
    through the forward pass, then through the backward pass (the R-operator),
    so the result is exact to machine precision for the piecewise-smooth loss.
    ``at`` is the operator at (w, mask) whose point state the product reuses;
    without one the call builds it for itself.
    """
    at = HessianAt(ctx, w, mask) if at is None else at
    layers, inputs, gates, keep = at.layers, at.inputs, at.gates, at.workspace.keep
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
