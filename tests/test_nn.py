import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from rlsched.errors import ConfigError, ShapeError
from rlsched.nn import (
    LayerSpec,
    Network,
    conv3,
    dense,
    flatten,
    gradient_check,
    load_params,
    maxpool2,
    save_params,
    softmax,
)


def rng_input(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).standard_normal((1,) + shape) * scale)


# -- softmax --------------------------------------------------------------------


def test_softmax_uniform_on_equal_logits():
    assert np.allclose(softmax(np.zeros(3)), [1 / 3, 1 / 3, 1 / 3])


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.0, 0.0])
    assert np.allclose(softmax(x), softmax(x + 57.0), atol=1e-12)


def test_softmax_large_logits_no_overflow():
    p = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_simplex_random_inputs():
    rng = np.random.default_rng(4)
    for _ in range(200):
        logits = rng.uniform(-50, 50, size=rng.integers(2, 9))
        p = softmax(logits)
        assert (p > 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


# -- forward --------------------------------------------------------------------


def test_dense_identity_weights_pass_input_through():
    net = Network([dense(4)], input_shape=(4,), seed=0)
    net.params[0] = (np.eye(4, dtype=np.float32), np.zeros(4, dtype=np.float32))
    x = np.array([[1.0, -2.0, 3.0, 0.5]], dtype=np.float32)
    out, _ = net.forward(x)
    assert np.allclose(out, x)


def test_conv_zero_input_yields_bias():
    net = Network([conv3(3, activation="none")], input_shape=(1, 5, 6), seed=1)
    w, b = net.params[0]
    net.params[0] = (w, np.array([0.5, -1.0, 2.0], dtype=np.float32))
    out, _ = net.forward(np.zeros((1, 1, 5, 6), dtype=np.float32))
    for f, bias in enumerate([0.5, -1.0, 2.0]):
        assert np.allclose(out[0, f], bias)


def test_conv_relu_clamps_bias():
    net = Network([conv3(1, activation="relu")], input_shape=(1, 4, 4), seed=1)
    w, _ = net.params[0]
    net.params[0] = (w, np.array([-3.0], dtype=np.float32))
    out, _ = net.forward(np.zeros((1, 1, 4, 4), dtype=np.float32))
    assert (out == 0).all()


def test_maxpool_against_exhaustive_scan():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    net = Network([maxpool2()], input_shape=(3, 4, 4))
    out, _ = net.forward(x)
    assert out.shape == (2, 3, 2, 2)
    for b in range(2):
        for c in range(3):
            for i in range(2):
                for j in range(2):
                    block = x[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert out[b, c, i, j] == block.max()


def test_maxpool_odd_dims_crop():
    net = Network([maxpool2()], input_shape=(1, 5, 7))
    out, _ = net.forward(np.ones((1, 1, 5, 7), dtype=np.float32))
    assert out.shape == (1, 1, 2, 3)


def window_cells(x):
    """Each 2x2 window's four cells of x (batch, c, h, w) in row-major order
    on a last axis; an odd last row or column is dropped."""
    batch, c, h, wd = x.shape
    h2, w2 = h // 2, wd // 2
    return (x[:, :, : 2 * h2, : 2 * w2]
            .reshape(batch, c, h2, 2, w2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(batch, c, h2, w2, 4))


def pool_oracle(x, grad):
    """Max-pool forward and backward by argmax (the first maximum, or the
    first NaN) and a gather/scatter over window_cells."""
    batch, c, h, wd = x.shape
    h2, w2 = h // 2, wd // 2
    windows = window_cells(x)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    dwindows = np.zeros(windows.shape, dtype=x.dtype)
    np.put_along_axis(dwindows, idx[..., None], grad[..., None], axis=-1)
    dx = np.zeros(x.shape, dtype=x.dtype)
    dx[:, :, : 2 * h2, : 2 * w2] = (dwindows.reshape(batch, c, h2, w2, 2, 2)
                                    .transpose(0, 1, 2, 4, 3, 5)
                                    .reshape(batch, c, 2 * h2, 2 * w2))
    return out, dx


def assert_same_bits(got, want):
    """float32 arrays equal bit for bit (so -0.0 != 0.0); NaNs must sit at
    the same positions, whatever their payload."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    got_bits = np.ascontiguousarray(got).view(np.uint32)
    want_bits = np.ascontiguousarray(want).view(np.uint32)
    assert np.array_equal(got_bits[~nan], want_bits[~nan])


TIE_VALUES = np.array([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan],
                      dtype=np.float32)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(2, 3, 4, 4), (1, 2, 5, 7), (2, 1, 6, 3),
                                   (1, 1, 2, 2)])
def test_maxpool_matches_argmax_oracle_bit_for_bit(shape, seed):
    rng = np.random.default_rng(seed)
    # odd seeds leave NaN out, so equal-valued ties decide more windows
    values = TIE_VALUES[: len(TIE_VALUES) - seed % 2]
    x = values[rng.integers(0, len(values), shape)]
    batch, c, h, wd = shape
    grad = TIE_VALUES[rng.integers(0, len(TIE_VALUES), (batch, c, h // 2, wd // 2))]
    net = Network([maxpool2()], input_shape=shape[1:])
    # a conv output reaches the pool as a strided (NHWC-backed) view
    for x_in in (x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
        out, caches = net.forward(x_in)
        _, dx = net.backward(caches, grad, input_grad=True)
        want_out, want_dx = pool_oracle(x, grad)
        assert_same_bits(out, want_out)
        assert_same_bits(dx, want_dx)


def test_maxpool_four_way_tie_routes_gradient_to_top_left():
    x = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
    net = Network([maxpool2()], input_shape=(1, 2, 2))
    out, caches = net.forward(x)
    _, dx = net.backward(caches, np.array([[[[5.0]]]], dtype=np.float32),
                         input_grad=True)
    assert out[0, 0, 0, 0] == 3.0
    assert dx[0, 0].tolist() == [[5.0, 0.0], [0.0, 0.0]]


def test_forward_shape_mismatch_raises():
    net = Network([flatten(), dense(2)], input_shape=(1, 3, 3))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 1, 4, 3)))


def test_bad_chains_rejected():
    with pytest.raises(ConfigError):
        Network([dense(3)], input_shape=(1, 3, 3))  # dense needs flat input
    with pytest.raises(ConfigError):
        Network([conv3(4)], input_shape=(9,))
    with pytest.raises(ConfigError):
        Network([conv3(0)], input_shape=(1, 3, 3))


@pytest.mark.parametrize("layers, shape, message", [
    ([LayerSpec("dense", units=2, activation="tanh")], (3,),
     "unknown activation 'tanh'"),
    ([LayerSpec("conv5", units=2)], (1, 3, 3), "unknown layer kind 'conv5'"),
    ([maxpool2()], (12,), "maxpool2 needs (C, H, W) input, got (12,)"),
    ([maxpool2()], (1, 1, 4), "maxpool2 input too small: (1, 1, 4)"),
    ([LayerSpec("maxpool2", activation="relu")], (1, 4, 4),
     "maxpool2 takes no activation, got 'relu'"),
    ([LayerSpec("flatten", activation="relu")], (1, 4, 4),
     "flatten takes no activation, got 'relu'"),
    ([dense(0)], (3,), "dense needs width >= 1, got 0"),
], ids=["unknown-activation", "unknown-kind", "pool-on-flat-input",
        "pool-on-small-input", "pool-with-activation", "flatten-with-activation",
        "zero-width-dense"])
def test_chain_checks_name_the_bad_value(layers, shape, message):
    with pytest.raises(ConfigError) as err:
        Network(layers, input_shape=shape)
    assert str(err.value) == message


def test_forward_deterministic():
    net = Network([conv3(4), flatten(), dense(3)], input_shape=(1, 6, 5), seed=3)
    x = rng_input((1, 6, 5), seed=9)
    a, _ = net.forward(x)
    b, _ = net.forward(x)
    assert np.array_equal(a, b)


# -- backward -------------------------------------------------------------------


def test_zero_output_grad_gives_zero_gradients():
    net = Network([conv3(2), flatten(), dense(3)], input_shape=(1, 4, 4), seed=2)
    x = rng_input((1, 4, 4), seed=3)
    out, caches = net.forward(x)
    grads, dx = net.backward(caches, np.zeros_like(out), input_grad=True)
    assert not dx.any()
    for g in grads:
        if g is not None:
            assert not g[0].any() and not g[1].any()


def test_dense_backward_closed_form():
    # y = Wx + b: dW = g x^T, db = g, dx = W^T g
    net = Network([dense(3)], input_shape=(4,), seed=5, init_scale=0.5)
    x = np.array([[0.5, -1.0, 2.0, 0.25]], dtype=np.float32)
    g = np.array([[1.0, -2.0, 0.5]], dtype=np.float32)
    _, caches = net.forward(x)
    grads, dx = net.backward(caches, g, input_grad=True)
    w, _ = net.params[0]
    assert np.allclose(grads[0][0], g.T @ x)
    assert np.allclose(grads[0][1], g[0])
    assert np.allclose(dx, g @ w)


def test_relu_backward_zero_where_inactive():
    net = Network([dense(6, activation="relu")], input_shape=(6,), seed=8,
                  init_scale=1.0)
    net.params[0] = (np.eye(6, dtype=np.float32), np.zeros(6, dtype=np.float32))
    x = np.array([[-2.0, -0.1, 0.0, 0.1, 3.0, -5.0]], dtype=np.float32)
    out, caches = net.forward(x)
    _, dx = net.backward(caches, np.ones_like(out), input_grad=True)
    assert np.array_equal(dx[0] != 0, x[0] > 0)


def test_input_gradient_only_when_asked():
    net = Network([conv3(2), flatten(), dense(3)], input_shape=(1, 4, 4), seed=2)
    x = rng_input((1, 4, 4), seed=3)
    out, caches = net.forward(x)
    grads, dx = net.backward(caches, np.ones_like(out))
    assert dx is None
    assert all(g is not None for g in (grads[0], grads[2]))


def conv_forward_oracle(x, w, b):
    """3x3 same convolution by im2col: a sliding_window_view copy of the
    zero-padded input, one matmul, a fresh bias add."""
    batch, c, h, wd = x.shape
    f = w.shape[0]
    padded = np.zeros((batch, c, h + 2, wd + 2), dtype=x.dtype)
    padded[:, :, 1 : h + 1, 1 : wd + 1] = x
    windows = sliding_window_view(padded, (3, 3), axis=(2, 3))
    patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h * wd, c * 9)
    out = patches @ w.reshape(f, c * 9).T + b
    return out.reshape(batch, h, wd, f).transpose(0, 3, 1, 2), patches


def conv_backward_oracle(grad, patches, x_shape, w):
    batch, c, h, wd = x_shape
    f = w.shape[0]
    grad_m = grad.transpose(0, 2, 3, 1).reshape(batch * h * wd, f)
    dw = (grad_m.T @ patches).reshape(f, c, 3, 3)
    db = grad_m.sum(axis=0)
    dpatches = (grad_m @ w.reshape(f, c * 9)).reshape(batch, h, wd, c, 3, 3)
    dpadded = np.zeros((batch, c, h + 2, wd + 2), dtype=grad.dtype)
    for i in range(3):
        for j in range(3):
            dpadded[:, :, i : i + h, j : j + wd] += dpatches[
                :, :, :, :, i, j
            ].transpose(0, 3, 1, 2)
    return (dw, db), dpadded[:, :, 1 : h + 1, 1 : wd + 1]


def chain_oracle(net, x, grad_out):
    """Forward and backward through net's layers with a fresh array for every
    intermediate and the input gradient of every layer; returns (output,
    parameter grads, input gradient)."""
    x = np.asarray(x, dtype=net.dtype)
    caches = []
    for spec, params in zip(net.layers, net.params):
        if spec.kind == "conv3":
            shape = x.shape
            x, patches = conv_forward_oracle(x, *params)
            cache = (patches, shape)
        elif spec.kind == "maxpool2":
            cache = x
            x, _ = pool_oracle(x, np.float32(0.0))  # no gradient yet
        elif spec.kind == "flatten":
            cache = x.shape
            x = x.reshape(x.shape[0], -1)
        elif spec.kind == "dense":
            w, b = params
            cache = x
            x = x @ w.T + b
        if spec.activation == "relu":
            x = np.maximum(x, 0.0)
            cache = (cache, x)
        caches.append(cache)
    grad = np.asarray(grad_out, dtype=net.dtype)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        spec, cache = net.layers[i], caches[i]
        if spec.activation == "relu":
            cache, act = cache
            grad = grad * (act > 0)
        if spec.kind == "conv3":
            grads[i], grad = conv_backward_oracle(grad, *cache, net.params[i][0])
        elif spec.kind == "maxpool2":
            _, grad = pool_oracle(cache, grad)
        elif spec.kind == "flatten":
            grad = grad.reshape(cache)
        elif spec.kind == "dense":
            w = net.params[i][0]
            grads[i] = (grad.T @ cache, grad.sum(axis=0))
            grad = grad @ w
    return x, grads, grad


ORACLE_CHAINS = {
    "conv16": [conv3(16, activation="relu"), flatten(), dense(6)],
    "conv16_pool": [conv3(16, activation="relu"), maxpool2(), flatten(), dense(6)],
    "conv32_pool": [conv3(32, activation="relu"), maxpool2(), flatten(), dense(6)],
    "fc": [flatten(), dense(24, activation="relu"), dense(1)],
    # critic heads: a one-unit dense layer's input gradient feeds a conv
    "conv16_critic": [conv3(16, activation="relu"), flatten(), dense(1)],
    "conv32_pool_critic": [conv3(32, activation="relu"), maxpool2(), flatten(),
                           dense(1)],
    "conv2_critic": [conv3(2, activation="relu"), flatten(), dense(1)],
}

# the default cluster's encode_state image, which holds only 0s and 1s
STATE_SHAPE = (1, 20, 123)

ORACLE_CASES = (
    [pytest.param(arch, (1, 7, 9), id=arch) for arch in sorted(ORACLE_CHAINS)]
    + [pytest.param(arch, STATE_SHAPE, id=f"{arch}-state")
       for arch in sorted(ORACLE_CHAINS)]
)


@pytest.mark.parametrize("arch, shape", ORACLE_CASES)
def test_chain_matches_fresh_array_oracle_bit_for_bit(arch, shape):
    net = Network(ORACLE_CHAINS[arch], input_shape=shape, seed=3, init_scale=0.5)
    rng = np.random.default_rng(11)
    # one network over changing batch sizes: a stale or wrongly sliced
    # buffer shows as a mismatch
    for step, batch in enumerate((6, 1, 5, 6, 2)):
        if shape == STATE_SHAPE:
            x = (rng.random((batch,) + shape) < 0.3).astype(np.float32)
        else:
            x = rng.standard_normal((batch,) + shape).astype(np.float32)
            x[rng.random(x.shape) < 0.3] = 0.0  # exact zeros, as in a state image
        input_grad = step % 2 == 1
        out, caches = net.forward(x)
        grad_out = rng.standard_normal(out.shape)
        if arch.endswith("_critic"):
            grad_out[-1] = 0.0  # the bootstrap row of ActorCriticAgent.update
        grads, dx = net.backward(caches, grad_out, input_grad=input_grad)
        want_out, want_grads, want_dx = chain_oracle(net, x, grad_out)
        assert_same_bits(out, want_out)
        for got, want in zip(grads, want_grads):
            assert (got is None) == (want is None)
            if got is not None:
                assert_same_bits(got[0], want[0])
                assert_same_bits(got[1], want[1])
        if input_grad:
            assert_same_bits(dx, want_dx)
        else:
            assert dx is None


@pytest.mark.parametrize("head", [6, 1, None], ids=["actor", "critic", "bare"])
@pytest.mark.parametrize("filters", [16, 32], ids=["conv16_pool", "conv32_pool"])
def test_pool_chain_matches_oracle_on_nan_inf_and_ties(filters, head):
    """A conv that feeds a max-pool pools its window-major corner blocks and
    runs its ReLU on the pooled array; the chain still matches the oracle
    (full conv, ReLU, argmax pool) bit for bit when conv outputs hold NaN
    windows, a NaN past a window's first corner, all-negative windows and
    exact ties. Without a head the pool's output is the network's, so the
    output gradient can hold +-inf and NaN: a window with no positive value
    then sends NaN (inf * 0) to its top-left corner, as the oracle does."""
    shape = (1, 10, 13)
    layers = [conv3(filters, activation="relu"), maxpool2()]
    if head is not None:
        layers += [flatten(), dense(head)]
    net = Network(layers, input_shape=shape, seed=3, init_scale=0.5)
    # an all-zero input patch makes conv outputs equal the bias: exact ties,
    # positive for even filters and all negative for odd ones
    w = net.params[0][0]
    b = np.where(np.arange(filters) % 2, -0.25, 0.25).astype(np.float32)
    net.params[0] = (w, b)
    rng = np.random.default_rng(5)
    for batch in (5, 1):
        x = rng.standard_normal((batch,) + shape).astype(np.float32)
        x[:, :, :5, :5] = 0.0
        x[:, :, 2, 8] = np.nan  # window (0, 3) is NaN at its last corner only
        x[:, :, 7, 2] = np.inf
        x[:, :, 8, 10] = -np.inf
        cells = window_cells(conv_forward_oracle(x, w, b)[0])
        nan = np.isnan(cells)
        assert (nan[..., 3] & ~nan[..., :3].any(axis=-1)).any()
        assert (nan[..., 0] & nan[..., 3]).any()
        assert (cells < 0).all(axis=-1).any()
        top = cells.max(axis=-1, keepdims=True)
        assert ((cells == top).sum(axis=-1) == 4)[top[..., 0] > 0].any()
        assert np.isinf(cells).any()
        # inf - inf and inf * 0 make NaNs here on purpose
        with np.errstate(invalid="ignore"):
            out, caches = net.forward(x)
            grad_out = rng.standard_normal(out.shape)
            if head is None:
                grad_out[rng.random(out.shape) < 0.1] = np.inf
                grad_out[rng.random(out.shape) < 0.1] = -np.inf
                grad_out[rng.random(out.shape) < 0.05] = np.nan
            grads, dx = net.backward(caches, grad_out, input_grad=True)
            want_out, want_grads, want_dx = chain_oracle(net, x, grad_out)
        assert_same_bits(out, want_out)
        for got, want in zip(grads, want_grads):
            if got is not None:
                assert_same_bits(got[0], want[0])
                assert_same_bits(got[1], want[1])
        assert_same_bits(dx, want_dx)


_POOL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
    st.floats(-1e3, 1e3, width=32))


@st.composite
def _pool_input(draw):
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    return draw(hnp.arrays(np.float32, shape, elements=_POOL_VALUES))


@settings(max_examples=200, deadline=None)
@given(_pool_input())
def test_relu_after_pool_equals_pool_after_relu(x):
    """Max commutes with ReLU bit for bit, the sign of zero included, at odd
    and even h and w, so a conv's ReLU can run on its pooled output:
    np.maximum(v, 0.0) is +0.0 for -0.0 and every negative, NaN for NaN."""
    pool = Network([maxpool2()], input_shape=x.shape[1:])
    pooled, _ = pool.forward(x)
    after = np.maximum(pooled, 0.0, out=pooled)
    before, _ = pool.forward(np.maximum(x, 0.0))
    assert_same_bits(after, before)


# Network.backward relies on two numpy rules; a numpy that breaks one fails
# here, not in a training digest three layers away.

def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _summands(dtype):
    # exact zeros of both signs among values of mixed magnitude, so that a
    # different summation order would show in the rounding
    return st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-1e4, 1e4, width=np.dtype(dtype).itemsize * 8))


@st.composite
def _sum_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 130)), draw(st.integers(2, 17)))
    return draw(hnp.arrays(dtype, shape, elements=_summands(dtype)))


@settings(max_examples=200, deadline=None)
@given(_sum_case())
def test_einsum_column_sum_keeps_the_bits_of_sum(a):
    """On a C-contiguous (N, f >= 2) array, einsum("ij->j") adds the rows in
    the order sum(axis=0) does, so a conv's bias gradient keeps its bits."""
    assert a.flags.c_contiguous
    assert np.array_equal(_bits(np.einsum("ij->j", a)), _bits(a.sum(axis=0)))


@st.composite
def _head_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows, width = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    grad = draw(hnp.arrays(dtype, (rows, 1), elements=_summands(dtype)))
    w = draw(hnp.arrays(dtype, (1, width), elements=_summands(dtype)))
    return grad, w


@settings(max_examples=200, deadline=None)
@given(_head_case())
def test_one_unit_input_gradient_as_a_product_matches_matmul(case):
    """A one-unit dense layer's input gradient as np.multiply equals np.matmul
    in value, and in bits wherever it is not zero: gemm sums from +0.0, so
    only a zero product's sign may differ (grad or w is 0, or it underflows),
    and a later sum from +0.0 erases that sign."""
    grad, w = case
    product, gemm = np.multiply(grad, w), np.matmul(grad, w)
    assert np.array_equal(product, gemm)
    live = gemm != 0
    assert np.array_equal(_bits(product)[live], _bits(gemm)[live])
    assert not np.signbit(gemm[~live]).any()
    zeros = product[~live]
    assert not np.signbit(np.add.reduce(zeros)) and not np.signbit(
        np.einsum("i->", zeros))


@pytest.mark.parametrize("shape", [(1, 7, 9), STATE_SHAPE], ids=["small", "state"])
def test_one_filter_bias_gradient_from_a_conv_keeps_its_bits(shape):
    """A one-filter conv before another conv gets a strided input gradient,
    which backward copies to an (N, 1) array; there sum(axis=0) adds pairwise,
    so its bias gradient must not take the row-by-row einsum. Only db is
    compared: a one-filter conv's forward may differ in the last bit (see
    the network module docstring), and with no ReLU db does not depend on
    it."""
    net = Network([conv3(1, activation="none"), conv3(2, activation="none"),
                   flatten(), dense(3)], input_shape=shape, seed=3, init_scale=0.5)
    rng = np.random.default_rng(11)
    for batch in (6, 1, 5, 2):
        x = rng.standard_normal((batch,) + shape).astype(np.float32)
        out, caches = net.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grads, _ = net.backward(caches, grad_out)
        _, want_grads, _ = chain_oracle(net, x, grad_out)
        assert_same_bits(grads[0][1], want_grads[0][1])


@pytest.mark.parametrize("arch", ["conv16", "conv32_pool"])
def test_buffers_do_not_grow_with_batch_sizes_seen(arch):
    """A buffer serves every batch size from one flat array: after batches
    6, 1, 5 and 2 the network holds as many buffer bytes as after 6 alone."""
    net = Network(ORACLE_CHAINS[arch], input_shape=STATE_SHAPE, seed=3)
    rng = np.random.default_rng(4)

    def step(batch):
        x = (rng.random((batch,) + STATE_SHAPE) < 0.3).astype(np.float32)
        out, caches = net.forward(x)
        net.backward(caches, rng.standard_normal(out.shape))
        return sum(buf.nbytes for buf in net._buffers.values())

    after_six = step(6)
    assert [step(batch) for batch in (1, 5, 2)] == [after_six] * 3


@pytest.mark.parametrize("layers", [
    [conv3(3, activation="relu")],
    [conv3(3, activation="relu"), maxpool2()],
    [conv3(3, activation="relu"), flatten()],
    [conv3(3, activation="relu"), maxpool2(), flatten(), dense(4)],
    [flatten(), dense(5, activation="relu"), dense(2)],
], ids=["conv", "pool", "flatten", "dense", "fc"])
def test_returned_arrays_are_not_reused(layers):
    shape = (2, 4, 6)
    net = Network(layers, input_shape=shape, seed=1, init_scale=0.5)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3,) + shape)
    out, caches = net.forward(x)
    grads, dx = net.backward(caches, rng.standard_normal(out.shape),
                             input_grad=True)
    kept = [out, dx] + [a for g in grads if g is not None for a in g]
    copies = [a.copy() for a in kept]
    for batch in (3, 5, 1):
        y = rng.standard_normal((batch,) + shape)
        out2, caches2 = net.forward(y)
        net.backward(caches2, rng.standard_normal(out2.shape), input_grad=True)
    for a, before in zip(kept, copies):
        assert np.array_equal(a, before)


def test_astype_clone_shares_no_buffer():
    layers = [conv3(4, activation="relu"), flatten(), dense(3)]
    net = Network(layers, input_shape=(1, 5, 6), seed=4, init_scale=0.5)
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 4, 1, 5, 6))
    g = rng.standard_normal((4, 3))
    want, _ = net.backward(net.forward(x)[1], g)
    clone = net.astype(np.float32)
    _, caches = net.forward(x)
    clone.forward(y)  # would overwrite shared buffers, and with them caches
    grads, _ = net.backward(caches, g)
    for got, expect in zip(grads, want):
        if got is not None:
            assert_same_bits(got[0], expect[0])
            assert_same_bits(got[1], expect[1])


def test_flatten_of_contiguous_input_is_a_view():
    net = Network([flatten(), dense(3)], input_shape=(1, 4, 5), seed=0)
    x = np.ones((2, 1, 4, 5), dtype=np.float32)
    _, caches = net.forward(x)
    assert np.shares_memory(caches[1], x)


# -- sgd_step -------------------------------------------------------------------


def test_sgd_zero_grads_no_change():
    net = Network([dense(2)], input_shape=(3,), seed=0)
    before = [a.copy() for a in net.parameter_arrays()]
    zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in net.params]
    net.sgd_step(zero, lr=0.5)
    for a, b in zip(before, net.parameter_arrays()):
        assert np.array_equal(a, b)


def test_sgd_scalar_arithmetic():
    net = Network([dense(1)], input_shape=(1,), seed=0)
    net.params[0] = (
        np.array([[1.0]], dtype=np.float32),
        np.zeros(1, dtype=np.float32),
    )
    net.sgd_step([(np.array([[0.5]]), np.zeros(1))], lr=0.1)
    assert net.params[0][0][0, 0] == pytest.approx(0.95)
    net.sgd_step([(np.array([[123.0]]), np.zeros(1))], lr=0.0)
    assert net.params[0][0][0, 0] == pytest.approx(0.95)


def test_sgd_shape_mismatch_raises():
    net = Network([dense(2)], input_shape=(3,), seed=0)
    with pytest.raises(ShapeError):
        net.sgd_step([(np.zeros((9, 9)), np.zeros(2))], lr=0.1)


@pytest.mark.parametrize("grads, lr, error, message", [
    ([(np.zeros((2, 3)), np.zeros(2))], -0.1, ConfigError, "lr must be >= 0, got -0.1"),
    ([], 0.1, ShapeError, "gradient list does not match parameter list"),
    ([None], 0.1, ShapeError, "gradient/parameter structure mismatch"),
], ids=["negative-lr", "wrong-length", "wrong-structure"])
def test_sgd_step_checks_name_the_fault(grads, lr, error, message):
    net = Network([dense(2)], input_shape=(3,), seed=0)
    before = [a.copy() for a in net.parameter_arrays()]
    with pytest.raises(error) as err:
        net.sgd_step(grads, lr=lr)
    assert str(err.value) == message
    assert all(np.array_equal(a, b) for a, b in zip(before, net.parameter_arrays()))


# -- gradient check -------------------------------------------------------------


def quadratic_head(out):
    return float(0.5 * (out**2).sum()), out.copy()


def projection_head(seed, width):
    g = np.random.default_rng(seed).standard_normal(width)

    def head(out):
        return float((out @ g).sum()), np.tile(g, (out.shape[0], 1))

    return head


def test_linear_net_gradient_nearly_exact():
    net = Network([flatten(), dense(3)], input_shape=(1, 4, 5), seed=0,
                  init_scale=0.5).astype(np.float64)
    x = rng_input((1, 4, 5), seed=1)
    assert gradient_check(net, x, quadratic_head, num_samples=60) < 1e-8


def test_conv_policy_chain_gradient_check():
    net = Network(
        [conv3(16, activation="relu"), flatten(), dense(5)],
        input_shape=(1, 8, 9),
        seed=4,
        init_scale=0.05,
    ).astype(np.float64)
    x = rng_input((1, 8, 9), seed=2)
    err = gradient_check(net, x, projection_head(3, 5), num_samples=200)
    assert err < 1e-4


def test_pool_chain_gradient_check():
    net = Network(
        [conv3(4, activation="relu"), maxpool2(), flatten(), dense(3)],
        input_shape=(1, 8, 10),
        seed=6,
        init_scale=0.05,
    ).astype(np.float64)
    x = rng_input((1, 8, 10), seed=5)
    assert gradient_check(net, x, projection_head(7, 3), num_samples=200) < 1e-4


def test_gradient_check_catches_corrupted_backward():
    class Corrupted(Network):
        def backward(self, caches, grad_out):
            grads, dx = super().backward(caches, grad_out)
            flipped = [
                None if g is None else (-g[0], -g[1]) for g in grads
            ]
            return flipped, dx

    net = Corrupted([flatten(), dense(3)], input_shape=(1, 3, 4), seed=1,
                    init_scale=0.5).astype(np.float64)
    x = rng_input((1, 3, 4), seed=8)
    assert gradient_check(net, x, quadratic_head, num_samples=40) > 0.1


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    net = Network([conv3(4), flatten(), dense(2)], input_shape=(1, 5, 5), seed=9)
    path = tmp_path / "params.npz"
    save_params(net, path)
    other = Network([conv3(4), flatten(), dense(2)], input_shape=(1, 5, 5), seed=77)
    load_params(other, path)
    for a, b in zip(net.parameter_arrays(), other.parameter_arrays()):
        assert np.array_equal(a, b)
    x = rng_input((1, 5, 5), seed=3)
    assert np.array_equal(net.forward(x)[0], other.forward(x)[0])


def test_checkpoint_architecture_mismatch(tmp_path):
    net = Network([flatten(), dense(2)], input_shape=(1, 5, 5), seed=9)
    path = tmp_path / "params.npz"
    save_params(net, path)
    other = Network([flatten(), dense(3)], input_shape=(1, 5, 5), seed=9)
    with pytest.raises(ConfigError):
        load_params(other, path)


def _rewrite_checkpoint(path, meta=None, **arrays):
    with np.load(path) as data:
        saved = dict(data)
    if meta is not None:
        saved["meta"] = np.array(json.dumps({**json.loads(str(saved["meta"])),
                                             **meta}))
    np.savez(path, **{**saved, **arrays})


@pytest.mark.parametrize("change, message", [
    ({"meta": {"format": 2}}, "unsupported format 2"),
    ({"w2": np.zeros((4, 3), dtype=np.float32)},
     "parameter shape mismatch at layer 2"),
    ({"w2": np.zeros((2, 3), dtype=np.complex64)},
     "array w2 is complex64, not real floating point"),
    ({"b2": np.zeros(2, dtype=bool)}, "array b2 is bool, not real floating point"),
    ({"b2": np.zeros(2, dtype=np.int64)},
     "array b2 is int64, not real floating point"),
], ids=["unsupported-format", "shape-mismatch", "complex-weights", "bool-biases",
        "integer-biases"])
def test_checkpoint_load_rejects_bad_arrays(tmp_path, change, message):
    """A checkpoint of the network's architecture with another format, or
    whose last layer's arrays do not fit, fails with a ConfigError that
    names the file; no cast drops an imaginary part or reads flags as
    weights, and the first layer is not loaded either."""
    layers = [flatten(), dense(3), dense(2)]
    path = tmp_path / "params.npz"
    save_params(Network(layers, input_shape=(1, 5, 5), seed=9), path)
    _rewrite_checkpoint(path, **change)
    net = Network(layers, input_shape=(1, 5, 5), seed=1)
    before = [a.copy() for a in net.parameter_arrays()]
    with pytest.raises(ConfigError) as err:
        load_params(net, path)
    assert str(err.value) == f"{path}: {message}"
    assert all(np.array_equal(a, b) for a, b in zip(before, net.parameter_arrays()))


def test_astype_is_independent():
    net = Network([dense(2)], input_shape=(3,), seed=0)
    clone = net.astype(np.float32)
    net.params[0][0][0, 0] += 1.0
    assert clone.params[0][0][0, 0] != net.params[0][0][0, 0]
