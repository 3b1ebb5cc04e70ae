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

A convolution is one gemm over a channel-major im2col: a (c*9 + 1,
batch*h*w) matrix whose row (c, i, j) holds every pixel's (i, j) neighbour in
channel c, in (n, y, x) order, and whose last row is ones. [w | b] @ cols
writes the output as (f, batch, h, w), and the layer hands it on as a
(batch, f, h, w) view, C-contiguous at batch 1: the in-place ReLU and the
max-pool read contiguous memory, and a flatten after it is a view. With two
or more filters, folding the bias in keeps the bits of a row-major
patches @ w.T + b: it is the same dot product per output, and the bias is
the last term the gemm adds, as the separate + b added it last
(tests/test_nn.py checks this bit for bit against a fresh-array oracle, at
the default state image's shape too). A one-filter conv's (1, c*9 + 1) gemm
takes another BLAS path and may differ in the last bit; no shipped
architecture has one. A convolution caches its input, and backward rebuilds
from it the row-major (batch*h*w, c*9) patches, in the buffer that held the
columns, and copies the output gradient to NHWC (batch*h*w, f): the layouts
of a fresh im2col, so dw and db keep their bits as well.

Backward leaves two slow numpy paths where the bits allow it:
- a one-unit dense layer (the critic's head) builds its input gradient as
  the broadcast product grad * w, not a K = 1 gemm. The values are those of
  the gemm; only a zero product may be -0.0 where the gemm writes +0.0. A
  zero's sign reaches nothing but zeros (a ReLU mask, max-pool routing)
  until a sum, and every sum here starts from +0.0 (a gemm's accumulator,
  add.reduce, the zeroed input-gradient canvas), which erases it. The layer
  whose input gradient the caller gets back keeps the gemm.
- a conv's bias gradient on the NHWC copy is einsum("ij->j"), which adds the
  rows one at a time as sum(axis=0) does there, but faster. On a strided
  view (batch 1) and on a one-filter copy (N, 1) sum(axis=0) adds pairwise,
  so those keep it. tests/test_nn.py pins both numpy rules.

Each network keeps its batch-sized intermediates in buffers it reuses, one
flat array per (role, layer): a convolution's im2col (columns in forward,
patches in backward) and output, a flatten copy, and a dense layer's input
gradient. A buffer grows to the largest size asked for, and a batch uses a
reshaped leading slice, so the memory held does not grow with the number of
batch sizes seen. Hence the contract:
- the caches of a forward are valid until that network's next forward, and
  serve one backward (which overwrites a convolution's buffers); they may
  hold the input itself, which must not change in between;
- arrays returned by forward and backward belong to the caller: no later
  call on the network changes them;
- backward builds the gradient w.r.t. the input only when asked
  (input_grad=True); otherwise it stops at the first layer's parameter
  gradients.
A buffered intermediate has the layout numpy would give a fresh array there,
so every matmul and sum gives the same bits with or without the buffers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ConfigError, ShapeError

ACTIVATIONS = ("relu", "none")


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv3 | maxpool2 | flatten | dense
    units: int = 0  # a conv3's filter count, a dense layer's width
    activation: str = "none"

    def describe(self) -> str:
        if self.kind == "conv3":
            return f"conv3x{self.units}:{self.activation}"
        if self.kind == "dense":
            return f"dense{self.units}:{self.activation}"
        return self.kind


def conv3(filters: int, activation: str = "relu") -> LayerSpec:
    return LayerSpec("conv3", units=filters, activation=activation)


def maxpool2() -> LayerSpec:
    return LayerSpec("maxpool2")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def dense(width: int, activation: str = "none") -> LayerSpec:
    return LayerSpec("dense", units=width, activation=activation)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probability simplex point for any finite logits; shift-invariant and
    overflow-safe via max subtraction. Acts on the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _windows(x):
    """The zero-padded 3x3 window around every pixel of x (batch, C, H, W),
    as a read-only (batch, C, H, W, 3, 3) strided view of a padded copy."""
    batch, c, h, wd = x.shape
    padded = np.zeros((batch, c, h + 2, wd + 2), dtype=x.dtype)
    padded[:, :, 1 : h + 1, 1 : wd + 1] = x
    sn, sc, sy, sx = padded.strides
    return as_strided(padded, (batch, c, h, wd, 3, 3), (sn, sc, sy, sx, sy, sx),
                      writeable=False)


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
        self.dtype = dtype
        shapes = self._chain_shapes()
        self._buffers: dict[tuple[str, int], np.ndarray] = {}
        rng = np.random.default_rng(seed)
        self.params: list[tuple[np.ndarray, np.ndarray] | None] = []
        for spec, in_shape in zip(self.layers, [self.input_shape] + shapes[:-1]):
            if spec.kind == "conv3":
                c = in_shape[0]
                w = rng.uniform(-init_scale, init_scale, (spec.units, c, 3, 3))
                b = np.zeros(spec.units)
                self.params.append((w.astype(dtype), b.astype(dtype)))
            elif spec.kind == "dense":
                w = rng.uniform(-init_scale, init_scale, (spec.units, in_shape[0]))
                b = np.zeros(spec.units)
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
            if spec.kind in ("maxpool2", "flatten") and spec.activation != "none":
                raise ConfigError(
                    f"{spec.kind} takes no activation, got {spec.activation!r}")
            if spec.kind == "conv3":
                if len(shape) != 3:
                    raise ConfigError(f"conv3 needs (C, H, W) input, got {shape}")
                if spec.units < 1:
                    raise ConfigError(f"conv3 needs filters >= 1, got {spec.units}")
                shape = (spec.units, shape[1], shape[2])
            elif spec.kind == "maxpool2":
                if len(shape) != 3:
                    raise ConfigError(f"maxpool2 needs (C, H, W) input, got {shape}")
                if shape[1] < 2 or shape[2] < 2:
                    raise ConfigError(f"maxpool2 input too small: {shape}")
                shape = (shape[0], shape[1] // 2, shape[2] // 2)
            elif spec.kind == "flatten":
                shape = (int(np.prod(shape)),)
            elif spec.kind == "dense":
                if len(shape) != 1:
                    raise ConfigError(f"dense needs flat input, got {shape}")
                if spec.units < 1:
                    raise ConfigError(f"dense needs width >= 1, got {spec.units}")
                shape = (spec.units,)
            else:
                raise ConfigError(f"unknown layer kind {spec.kind!r}")
            shapes.append(shape)
        return shapes

    def fingerprint(self) -> str:
        chain = ";".join(spec.describe() for spec in self.layers)
        dims = "x".join(str(d) for d in self.input_shape)
        return f"in={dims};{chain}"

    # -- forward / backward ----------------------------------------------------

    def _buffer(self, key, shape) -> np.ndarray:
        """A C-contiguous array of the given shape: a reshaped leading slice
        of this network's one flat buffer for key, which grows to the largest
        size asked for."""
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype=self.dtype)
        return buf[:size].reshape(shape)

    def _reshape(self, x, shape, key):
        """(x reshaped, whether it was copied): a view where numpy can make
        one, else a copy into this network's buffer for key. Either way the
        layout, and so every BLAS call and sum on it, is that of
        x.reshape(shape). A non-contiguous x may still reshape to a strided
        view (a batch-1 NHWC gradient does), so only numpy can tell; its
        reshape(copy=False), which needs numpy >= 2.1, says so."""
        try:
            return x.reshape(shape, copy=False), False
        except ValueError:
            buf = self._buffer(key, x.shape)
            np.copyto(buf, x)
            return buf.reshape(shape), True

    def forward(self, x: np.ndarray):
        """x is (batch, *input_shape); returns (output, caches)."""
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match {self.input_shape}"
            )
        caches = []
        owned = False  # x lives in one of this network's buffers
        for i, (spec, params) in enumerate(zip(self.layers, self.params)):
            if spec.kind == "conv3":
                x, cache = self._conv_forward(i, x, *params)
                owned = True
            elif spec.kind == "maxpool2":
                x, cache = self._pool_forward(x)
                owned = False
            elif spec.kind == "flatten":
                cache = x.shape
                x, copied = self._reshape(x, (len(x), -1), ("flatten", i))
                owned = owned or copied
            elif spec.kind == "dense":
                w, b = params
                cache = x
                x = x @ w.T + b
                owned = False
            if spec.activation == "relu":
                # in place: only conv3 and dense take a ReLU, and their output
                # is a fresh array or this layer's buffer
                np.maximum(x, 0.0, out=x)
                cache = (cache, x)
            caches.append(cache)
        return (x.copy() if owned else x), caches

    def backward(self, caches, grad_out: np.ndarray, input_grad: bool = False):
        """Exact gradients of the forward map; returns (per-layer grads
        congruent with params, gradient w.r.t. the input). The input gradient
        is built only if input_grad is set, and is None otherwise."""
        grad = np.array(grad_out, dtype=self.dtype)  # ours to overwrite
        grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(self.layers)
        # without input_grad the pass ends at the first layer with parameters
        first = next((i for i, p in enumerate(self.params) if p is not None),
                     len(self.layers))
        last = 0 if input_grad else first
        for i in range(len(self.layers) - 1, last - 1, -1):
            spec, cache = self.layers[i], caches[i]
            need_dx = input_grad or i > first
            if spec.activation == "relu":
                cache, act = cache
                # a conv3 output is its layer's buffer, dead once the mask is
                # taken, so the 0/1 mask goes there
                mask = np.greater(act, 0, out=act) if spec.kind == "conv3" else act > 0
                np.multiply(grad, mask, out=grad)
            if spec.kind == "conv3":
                grads[i], grad = self._conv_backward(i, grad, cache,
                                                     self.params[i][0], need_dx)
            elif spec.kind == "maxpool2":
                grad = self._pool_backward(grad, *cache)
            elif spec.kind == "flatten":
                grad = grad.reshape(cache)
            elif spec.kind == "dense":
                x = cache
                w = self.params[i][0]
                grads[i] = (grad.T @ x, grad.sum(axis=0))
                if i > first:
                    dx = self._buffer(("dgrad", i), (len(grad), w.shape[1]))
                    if w.shape[0] == 1:
                        # one unit: an outer product, slow through gemm; it
                        # differs only in a zero's sign, which the sums that
                        # follow erase (module docstring)
                        grad = np.multiply(grad, w, out=dx)
                    else:
                        grad = np.matmul(grad, w, out=dx)
                elif input_grad:
                    # fresh, so the returned input gradient is the caller's
                    grad = grad @ w
        return grads, (grad if input_grad else None)

    def _conv_forward(self, i, x, w, b):
        batch, c, h, wd = x.shape
        f = w.shape[0]
        # channel-major im2col: row (c, i, j) holds, for every pixel (n, y, x)
        # in order, padded[n, c, y + i, x + j]; a last row of ones carries
        # the bias, which the gemm then adds last
        cols = self._buffer(("im2col", i), (c * 9 + 1, batch * h * wd))
        np.copyto(cols[:-1].reshape(c, 3, 3, batch, h, wd),
                  _windows(x).transpose(1, 4, 5, 0, 2, 3))
        cols[-1] = 1.0
        wb = np.concatenate((w.reshape(f, c * 9), b[:, None]), axis=1)
        out = np.matmul(wb, cols,
                        out=self._buffer(("conv", i), (f, batch * h * wd)))
        return out.reshape(f, batch, h, wd).transpose(1, 0, 2, 3), x

    def _conv_backward(self, i, grad, x, w, input_grad):
        batch, c, h, wd = x.shape
        f = w.shape[0]
        # the row-major patches and the NHWC gradient of a fresh im2col, so
        # that dw and db keep their bits; the patches go in the buffer that
        # held the columns, the NHWC copy in the layer's output buffer, both
        # dead by now
        windows = _windows(x)
        patches = self._buffer(("im2col", i), (batch, h, wd, c, 3, 3))
        # one copy per window offset: its rows run along x on both sides
        for di in range(3):
            for dj in range(3):
                patches[..., di, dj] = windows[..., di, dj].transpose(0, 2, 3, 1)
        patches = patches.reshape(batch * h * wd, c * 9)
        grad_m, copied = self._reshape(grad.transpose(0, 2, 3, 1),
                                       (batch * h * wd, f), ("conv", i))
        dw = (grad_m.T @ patches).reshape(f, c, 3, 3)
        # on a copy with f > 1, einsum adds the rows in sum(axis=0)'s order,
        # faster; a one-filter copy comes from a later conv's input gradient
        if copied and f > 1:
            db = np.einsum("ij->j", grad_m)
        else:
            db = grad_m.sum(axis=0)
        if not input_grad:
            return (dw, db), None
        dpatches = (grad_m @ w.reshape(f, c * 9)).reshape(batch, h, wd, c, 3, 3)
        dpadded = np.zeros((batch, c, h + 2, wd + 2), dtype=self.dtype)
        for di in range(3):
            for dj in range(3):
                dpadded[:, :, di : di + h, dj : dj + wd] += dpatches[
                    :, :, :, :, di, dj
                ].transpose(0, 3, 1, 2)
        return (dw, db), dpadded[:, :, 1 : h + 1, 1 : wd + 1]

    def _pool_forward(self, x):
        batch, c, h, wd = x.shape
        h2, w2 = h // 2, wd // 2
        # every cell against its right neighbour, over each image as one
        # contiguous run (reshape copies an image whose rows are not one
        # run); maximum() keeps its second argument on a tie, so the left
        # cell wins. A row's last cell meets the next row's first, and no
        # window reads that pair. pairs is a temporary: kept as a buffer it
        # would hold a convolution output's size for good.
        flat = x.reshape(batch, c, h * wd)
        pairs = np.empty((batch, c, h * wd), dtype=self.dtype)
        np.maximum(flat[..., 1:], flat[..., :-1], out=pairs[..., :-1])
        # then each window's bottom pair against its top pair, the top one
        # winning a tie: the first maximum in row-major order
        rows = pairs.reshape(batch, c, h, wd)
        out = np.maximum(rows[:, :, 1 : 2 * h2 : 2, 0 : 2 * w2 : 2],
                         rows[:, :, 0 : 2 * h2 : 2, 0 : 2 * w2 : 2])
        return out, (x, out)

    def _pool_backward(self, grad, x, out):
        # each window's gradient goes to its first corner equal to the max,
        # or that is NaN when the max is NaN
        dx = np.zeros(x.shape, dtype=self.dtype)
        unrouted = np.ones(out.shape, dtype=bool)
        for corner, dcorner in zip(_corners(x), _corners(dx)):
            hit = unrouted & ((corner == out) | np.isnan(corner))
            np.copyto(dcorner, grad, where=hit)
            unrouted &= ~hit
        return dx

    # -- parameter updates -----------------------------------------------------

    def sgd_step(self, grads, lr: float) -> None:
        """params <- params - lr * grads, elementwise, in place."""
        if lr < 0:
            raise ConfigError(f"lr must be >= 0, got {lr}")
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

    def astype(self, dtype) -> "Network":
        """A copy of this network computing in dtype; it shares no array
        with this one."""
        clone = type(self)(self.layers, self.input_shape, dtype=dtype)
        clone.params = [
            None if p is None else (p[0].astype(dtype), p[1].astype(dtype))
            for p in self.params
        ]
        return clone
