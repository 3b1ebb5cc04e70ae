"""Minimal feed-forward network kernel on numpy.

Supported layers: 3x3 same-shape convolution, 2x2 max-pooling, flatten, and
dense, each with an optional ReLU. Forward passes keep the caches needed for
exact reverse-mode gradients; updates are plain SGD. Everything is batched
over the leading axis and deterministic given (seed, input).

A ReLU overwrites its input and caches its output: relu(z) > 0 exactly
where z > 0, and a max-pool after it then caches the same array. Max-pooling
takes the first maximum in row-major window order (top-left, top-right,
bottom-left, bottom-right), a NaN counting as the maximum, and sends the
window's gradient to that cell alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError, ShapeError

ACTIVATIONS = ("relu", "none")


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv3 | maxpool2 | flatten | dense
    filters: int = 0
    width: int = 0
    activation: str = "none"

    def describe(self) -> str:
        if self.kind == "conv3":
            return f"conv3x{self.filters}:{self.activation}"
        if self.kind == "dense":
            return f"dense{self.width}:{self.activation}"
        return self.kind


def conv3(filters: int, activation: str = "relu") -> LayerSpec:
    return LayerSpec("conv3", filters=filters, activation=activation)


def maxpool2() -> LayerSpec:
    return LayerSpec("maxpool2")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def dense(width: int, activation: str = "none") -> LayerSpec:
    return LayerSpec("dense", width=width, activation=activation)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probability simplex point for any finite logits; shift-invariant and
    overflow-safe via max subtraction. Acts on the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _corners(x):
    """The four corners of every 2x2 window of x (batch, C, H, W) as strided
    views, in row-major window order; an odd last row or column is dropped."""
    h2, w2 = x.shape[2] // 2, x.shape[3] // 2
    return [x[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]


class Network:
    """A layer chain with its parameters.

    Weights start uniform in [-init_scale, init_scale] with zero biases;
    the tiny default scale makes a fresh policy head near-uniform after
    softmax while still breaking symmetry.
    """

    def __init__(self, layers, input_shape, seed=0, init_scale=1e-3,
                 dtype=np.float32):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.init_scale = float(init_scale)
        self.dtype = dtype
        self.shapes = self._chain_shapes()
        rng = np.random.default_rng(seed)
        self.params: list[tuple[np.ndarray, np.ndarray] | None] = []
        for spec, in_shape in zip(self.layers, [self.input_shape] + self.shapes[:-1]):
            if spec.kind == "conv3":
                c = in_shape[0]
                w = rng.uniform(-init_scale, init_scale, (spec.filters, c, 3, 3))
                b = np.zeros(spec.filters)
                self.params.append((w.astype(dtype), b.astype(dtype)))
            elif spec.kind == "dense":
                w = rng.uniform(-init_scale, init_scale, (spec.width, in_shape[0]))
                b = np.zeros(spec.width)
                self.params.append((w.astype(dtype), b.astype(dtype)))
            else:
                self.params.append(None)

    # -- shape chain -----------------------------------------------------------

    def _chain_shapes(self):
        shapes = []
        shape = self.input_shape
        for spec in self.layers:
            if spec.activation not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {spec.activation!r}")
            if spec.kind == "conv3":
                if len(shape) != 3:
                    raise ConfigError(f"conv3 needs (C, H, W) input, got {shape}")
                if spec.filters < 1:
                    raise ConfigError("conv3 needs filters >= 1")
                shape = (spec.filters, shape[1], shape[2])
            elif spec.kind == "maxpool2":
                if len(shape) != 3:
                    raise ConfigError(f"maxpool2 needs (C, H, W) input, got {shape}")
                if shape[1] < 2 or shape[2] < 2:
                    raise ConfigError(f"maxpool2 input too small: {shape}")
                if spec.activation != "none":
                    raise ConfigError("maxpool2 takes no activation")
                shape = (shape[0], shape[1] // 2, shape[2] // 2)
            elif spec.kind == "flatten":
                if spec.activation != "none":
                    raise ConfigError("flatten takes no activation")
                shape = (int(np.prod(shape)),)
            elif spec.kind == "dense":
                if len(shape) != 1:
                    raise ConfigError(f"dense needs flat input, got {shape}")
                if spec.width < 1:
                    raise ConfigError("dense needs width >= 1")
                shape = (spec.width,)
            else:
                raise ConfigError(f"unknown layer kind {spec.kind!r}")
            shapes.append(shape)
        return shapes

    def fingerprint(self) -> str:
        chain = ";".join(spec.describe() for spec in self.layers)
        dims = "x".join(str(d) for d in self.input_shape)
        return f"in={dims};{chain}"

    # -- forward / backward ----------------------------------------------------

    def forward(self, x: np.ndarray):
        """x is (batch, *input_shape); returns (output, caches)."""
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match {self.input_shape}"
            )
        caches = []
        for spec, params in zip(self.layers, self.params):
            if spec.kind == "conv3":
                x, cache = self._conv_forward(x, *params)
            elif spec.kind == "maxpool2":
                x, cache = self._pool_forward(x)
            elif spec.kind == "flatten":
                cache = x.shape
                x = x.reshape(x.shape[0], -1)
            elif spec.kind == "dense":
                w, b = params
                cache = x
                x = x @ w.T + b
            if spec.activation == "relu":
                # in place: only conv3 and dense take a ReLU, and their output
                # is a fresh array
                np.maximum(x, 0.0, out=x)
                cache = (cache, x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, grad_out: np.ndarray):
        """Exact gradients of the forward map; returns (per-layer grads
        congruent with params, gradient w.r.t. the input)."""
        grad = np.asarray(grad_out, dtype=self.dtype)
        grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            spec, cache = self.layers[i], caches[i]
            if spec.activation == "relu":
                cache, act = cache
                grad = grad * (act > 0)
            if spec.kind == "conv3":
                grads[i], grad = self._conv_backward(grad, cache, self.params[i][0])
            elif spec.kind == "maxpool2":
                grad = self._pool_backward(grad, *cache)
            elif spec.kind == "flatten":
                grad = grad.reshape(cache)
            elif spec.kind == "dense":
                x = cache
                w = self.params[i][0]
                grads[i] = (grad.T @ x, grad.sum(axis=0))
                grad = grad @ w
        return grads, grad

    def _conv_forward(self, x, w, b):
        batch, c, h, wd = x.shape
        f = w.shape[0]
        padded = np.zeros((batch, c, h + 2, wd + 2), dtype=x.dtype)
        padded[:, :, 1 : h + 1, 1 : wd + 1] = x
        windows = sliding_window_view(padded, (3, 3), axis=(2, 3))
        patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h * wd, c * 9)
        out = patches @ w.reshape(f, c * 9).T + b
        out = out.reshape(batch, h, wd, f).transpose(0, 3, 1, 2)
        return out, (patches, x.shape)

    def _conv_backward(self, grad, cache, w):
        patches, x_shape = cache
        batch, c, h, wd = x_shape
        f = w.shape[0]
        grad_m = grad.transpose(0, 2, 3, 1).reshape(batch * h * wd, f)
        dw = (grad_m.T @ patches).reshape(f, c, 3, 3)
        db = grad_m.sum(axis=0)
        dpatches = (grad_m @ w.reshape(f, c * 9)).reshape(batch, h, wd, c, 3, 3)
        dpadded = np.zeros((batch, c, h + 2, wd + 2), dtype=self.dtype)
        for i in range(3):
            for j in range(3):
                dpadded[:, :, i : i + h, j : j + wd] += dpatches[
                    :, :, :, :, i, j
                ].transpose(0, 3, 1, 2)
        return (dw, db), dpadded[:, :, 1 : h + 1, 1 : wd + 1]

    def _pool_forward(self, x):
        # max of the four corners; maximum() keeps its second argument on a
        # tie, so nesting the earlier corners second keeps the first maximum
        c0, c1, c2, c3 = _corners(x)
        out = np.maximum(np.maximum(c3, c2), np.maximum(c1, c0))
        return out, (x, out)

    def _pool_backward(self, grad, x, out):
        # each window's gradient goes to its first corner equal to the max,
        # or that is NaN when the max is NaN
        dx = np.zeros(x.shape, dtype=self.dtype)
        pending = np.ones(out.shape, dtype=bool)
        for corner, dcorner in zip(_corners(x), _corners(dx)):
            hit = pending & ((corner == out) | np.isnan(corner))
            np.copyto(dcorner, grad, where=hit)
            pending &= ~hit
        return dx

    # -- parameter updates -----------------------------------------------------

    def sgd_step(self, grads, lr: float) -> None:
        """params <- params - lr * grads, elementwise, in place."""
        if lr < 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        if len(grads) != len(self.params):
            raise ShapeError("gradient list does not match parameter list")
        for params, grad in zip(self.params, grads):
            if params is None and grad is None:
                continue
            if params is None or grad is None:
                raise ShapeError("gradient/parameter structure mismatch")
            w, b = params
            dw, db = grad
            if w.shape != dw.shape or b.shape != db.shape:
                raise ShapeError(
                    f"gradient shape {dw.shape}/{db.shape} vs "
                    f"parameter shape {w.shape}/{b.shape}"
                )
            step = w.dtype.type(lr)
            w -= step * np.asarray(dw, dtype=w.dtype)
            b -= step * np.asarray(db, dtype=b.dtype)

    # -- parameter access --------------------------------------------------------

    def parameter_arrays(self) -> list[np.ndarray]:
        arrays = []
        for params in self.params:
            if params is not None:
                arrays.extend(params)
        return arrays

    def copy(self) -> "Network":
        clone = type(self).__new__(type(self))
        clone.layers = list(self.layers)
        clone.input_shape = self.input_shape
        clone.init_scale = self.init_scale
        clone.dtype = self.dtype
        clone.shapes = list(self.shapes)
        clone.params = [
            None if p is None else (p[0].copy(), p[1].copy()) for p in self.params
        ]
        return clone

    def astype(self, dtype) -> "Network":
        clone = self.copy()
        clone.dtype = dtype
        clone.params = [
            None if p is None else (p[0].astype(dtype), p[1].astype(dtype))
            for p in clone.params
        ]
        return clone
