"""Maskable multilayer perceptrons and their flattened parameter layout.

The network family is fixed: affine layers with ReLU on hidden layers and a
softmax cross-entropy head. Parameters live in one flat float64 vector, laid
out layer by layer as the row-major weight matrix followed by the bias
vector. Only affine-layer weights are prunable; biases never are.

This module holds the parameter layout only: the spec, the per-layer slices,
masks and initialization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .numerics import RngStream


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths of an MLP: (input, hidden..., output).

    Hidden activations are ReLU and the training loss is mean softmax
    cross-entropy; neither is configurable in this toolkit.
    """

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in self.layer_sizes):
            raise TypeError(f"layer sizes must be integers, got {self.layer_sizes!r}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] < 2:
            raise ValueError("output layer must have at least 2 classes")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    @functools.cached_property
    def param_count(self) -> int:
        return sum(
            n_in * n_out + n_out
            for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )


@functools.lru_cache(maxsize=64)
def layer_slices(spec: NetworkSpec) -> tuple[tuple[slice, slice, tuple[int, int]], ...]:
    """(weight slice, bias slice, weight shape) per layer in the flat layout.

    Cached per spec: every gradient step reads it.
    """
    out = []
    pos = 0
    for n_in, n_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        w_sl = slice(pos, pos + n_out * n_in)
        pos += n_out * n_in
        b_sl = slice(pos, pos + n_out)
        pos += n_out
        out.append((w_sl, b_sl, (n_out, n_in)))
    return tuple(out)


def split_params(spec: NetworkSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector as per-layer (weight matrix, bias) pairs."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (spec.param_count,):
        raise DimensionMismatchError(
            f"parameter vector has length {w.shape}, spec needs {spec.param_count}"
        )
    return [
        (w[w_sl].reshape(shape), w[b_sl])
        for w_sl, b_sl, shape in layer_slices(spec)
    ]


def join_params(spec: NetworkSpec, layers) -> np.ndarray:
    """Inverse of :func:`split_params`: flatten per-layer arrays canonically."""
    parts = []
    for (W, b), (_, _, shape) in zip(layers, layer_slices(spec)):
        W = np.asarray(W, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if W.shape != shape or b.shape != (shape[0],):
            raise DimensionMismatchError(f"layer shape mismatch: {W.shape} vs {shape}")
        parts.append(W.reshape(-1))
        parts.append(b)
    return np.concatenate(parts)


def prunable_coords(spec: NetworkSpec) -> np.ndarray:
    """Boolean vector marking weight coordinates (biases are never prunable)."""
    out = np.zeros(spec.param_count, dtype=bool)
    for w_sl, _, _ in layer_slices(spec):
        out[w_sl] = True
    return out


def dense_mask(spec: NetworkSpec) -> np.ndarray:
    return np.ones(spec.param_count, dtype=bool)


def init_params(spec: NetworkSpec, rng: RngStream) -> np.ndarray:
    """He-initialized weights (std sqrt(2/fan_in)), zero biases."""
    gen = rng.generator()
    layers = []
    for n_in, n_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        W = gen.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))
        layers.append((W, np.zeros(n_out)))
    return join_params(spec, layers)


def apply_mask(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise product keeping only the mask's active coordinates. Onto a
    denser mask (reverse projection), re-activated coordinates stay zero
    because the source vector is zero there."""
    w = np.asarray(w, dtype=np.float64)
    m = np.asarray(m, dtype=bool)
    if w.shape != m.shape:
        raise DimensionMismatchError(f"mask length {m.shape} != params {w.shape}")
    return w * m
