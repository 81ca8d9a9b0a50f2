"""Gradient, shape, and determinism checks for the autodiff engine."""

import math

import numpy as np
import pytest

from ilseg import tensor as T

import _oracles as O

FD_TOL = 1e-5
N_INSTANCES = 20


def _leaf(rng, shape, positive=False, away_from=None, margin=0.3):
    arr = rng.standard_normal(shape)
    if positive:
        arr = np.abs(arr) + 0.5
    if away_from is not None:
        # push values off the kink so central differences stay one-sided-free
        arr = np.where(np.abs(arr - away_from) < margin,
                       arr + np.sign(arr - away_from + 1e-12) * margin, arr)
    return T.Tensor(arr, requires_grad=True)


def _weigher(rng, shape):
    """Reduce to a scalar through random constant weights so gradients
    are position dependent (catches transposed or misrouted adjoints)."""
    w = T.Tensor(rng.standard_normal(shape))

    def reduce(t):
        return T.tsum(T.mul(t, w))

    return reduce


def _binary_shapes(rng):
    pairs = [((3, 4), (3, 4)), ((3, 4), (1, 4)), ((3, 4), (3, 1)), ((3, 4), (4,)), ((2, 3, 4), (3, 4))]
    return pairs[int(rng.integers(0, len(pairs)))]


def _build_add(rng):
    sa, sb = _binary_shapes(rng)
    a, b = _leaf(rng, sa), _leaf(rng, sb)
    red = _weigher(rng, sa)
    return lambda a, b: red(T.add(a, b)), [a, b]


def _build_sub(rng):
    sa, sb = _binary_shapes(rng)
    a, b = _leaf(rng, sa), _leaf(rng, sb)
    red = _weigher(rng, sa)
    return lambda a, b: red(T.sub(a, b)), [a, b]


def _build_mul(rng):
    sa, sb = _binary_shapes(rng)
    a, b = _leaf(rng, sa), _leaf(rng, sb)
    red = _weigher(rng, sa)
    return lambda a, b: red(T.mul(a, b)), [a, b]


def _build_div(rng):
    sa, sb = _binary_shapes(rng)
    a, b = _leaf(rng, sa), _leaf(rng, sb, positive=True)
    red = _weigher(rng, sa)
    return lambda a, b: red(T.div(a, b)), [a, b]


def _build_scalar_mul(rng):
    a = _leaf(rng, (3, 4))
    s = float(rng.uniform(-2.0, 2.0))
    red = _weigher(rng, (3, 4))
    return lambda a: red(T.scalar_mul(a, s)), [a]


def _build_neg(rng):
    a = _leaf(rng, (2, 5))
    red = _weigher(rng, (2, 5))
    return lambda a: red(T.neg(a)), [a]


def _build_relu(rng):
    a = _leaf(rng, (3, 4), away_from=0.0)
    red = _weigher(rng, (3, 4))
    return lambda a: red(T.relu(a)), [a]


def _build_exp(rng):
    a = T.Tensor(rng.standard_normal((3, 4)) * 0.5, requires_grad=True)
    red = _weigher(rng, (3, 4))
    return lambda a: red(T.exp(a)), [a]


def _build_log(rng):
    a = _leaf(rng, (3, 4), positive=True)
    red = _weigher(rng, (3, 4))
    return lambda a: red(T.log(a)), [a]


def _build_sqrt(rng):
    a = _leaf(rng, (3, 4), positive=True)
    red = _weigher(rng, (3, 4))
    return lambda a: red(T.sqrt(a)), [a]


def _build_clamp_min(rng):
    lo = float(rng.uniform(-0.5, 0.5))
    a = _leaf(rng, (3, 4), away_from=lo)
    red = _weigher(rng, (3, 4))
    return lambda a: red(T.clamp_min(a, lo)), [a]


def _build_sum(rng):
    a = _leaf(rng, (2, 3, 4))
    axis = [None, 0, 1, 2, (0, 2)][int(rng.integers(0, 5))]
    keepdims = bool(rng.integers(0, 2))
    probe = T.tsum(T.Tensor(a.data), axis=axis, keepdims=keepdims)
    red = _weigher(rng, probe.data.shape)
    return lambda a: red(T.tsum(a, axis=axis, keepdims=keepdims)), [a]


def _build_mean(rng):
    a = _leaf(rng, (2, 3, 4))
    axis = [None, 0, 1, 2, (1, 2)][int(rng.integers(0, 5))]
    keepdims = bool(rng.integers(0, 2))
    probe = T.tmean(T.Tensor(a.data), axis=axis, keepdims=keepdims)
    red = _weigher(rng, probe.data.shape)
    return lambda a: red(T.tmean(a, axis=axis, keepdims=keepdims)), [a]


def _build_reshape(rng):
    a = _leaf(rng, (3, 4))
    red = _weigher(rng, (2, 6))
    return lambda a: red(T.reshape(a, (2, 6))), [a]


def _build_transpose2d(rng):
    a = _leaf(rng, (3, 4))
    red = _weigher(rng, (4, 3))
    return lambda a: red(T.transpose2d(a)), [a]


def _build_narrow(rng):
    a = _leaf(rng, (2, 5, 3))
    axis = int(rng.integers(0, 3))
    length = int(rng.integers(1, a.data.shape[axis] + 1))
    start = int(rng.integers(0, a.data.shape[axis] - length + 1))
    out_shape = list(a.data.shape)
    out_shape[axis] = length
    red = _weigher(rng, tuple(out_shape))
    return lambda a: red(T.narrow(a, axis, start, length)), [a]


def _build_concat(rng):
    a = _leaf(rng, (2, 2, 3, 3))
    b = _leaf(rng, (2, 4, 3, 3))
    red = _weigher(rng, (2, 6, 3, 3))
    return lambda a, b: red(T.concat([a, b], axis=1)), [a, b]


def _build_masked_gather(rng):
    a = _leaf(rng, (2, 3, 4, 4))
    mask = rng.random((2, 4, 4)) < 0.4
    mask[0, 0, 0] = True  # keep at least one position selected
    n = int(mask.sum())
    red = _weigher(rng, (n, 3))
    return lambda a: red(T.masked_gather(a, mask)), [a]


def _build_matmul(rng):
    a, b = _leaf(rng, (3, 4)), _leaf(rng, (4, 2))
    red = _weigher(rng, (3, 2))
    return lambda a, b: red(T.matmul(a, b)), [a, b]


def _build_dot(rng):
    a, b = _leaf(rng, (5,)), _leaf(rng, (5,))
    s = float(rng.uniform(0.5, 2.0))
    return lambda a, b: T.scalar_mul(T.dot(a, b), s), [a, b]


def _build_norm(rng):
    a = _leaf(rng, (6,))
    s = float(rng.uniform(0.5, 2.0))
    return lambda a: T.scalar_mul(T.norm(a), s), [a]


def _build_channel_mix(rng):
    a = _leaf(rng, (2, 3, 4, 4))
    mat = rng.standard_normal((2, 3))
    red = _weigher(rng, (2, 2, 4, 4))
    return lambda a: red(T.channel_mix(a, mat)), [a]


def _build_log_softmax(rng):
    if rng.integers(0, 2):
        a = _leaf(rng, (2, 3, 4, 4))
        red = _weigher(rng, (2, 3, 4, 4))
        return lambda a: red(T.log_softmax(a, axis=1)), [a]
    a = _leaf(rng, (5, 4))
    red = _weigher(rng, (5, 4))
    return lambda a: red(T.log_softmax(a, axis=-1)), [a]


def _build_conv2d(rng):
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    x = _leaf(rng, (1, 2, 6, 6))
    w = _leaf(rng, (3, 2, 3, 3))
    b = _leaf(rng, (3,))
    probe = T.conv2d(T.Tensor(x.data), T.Tensor(w.data), None, stride, padding)
    red = _weigher(rng, probe.data.shape)
    if rng.integers(0, 2):
        return lambda x, w, b: red(T.conv2d(x, w, b, stride, padding)), [x, w, b]
    return lambda x, w: red(T.conv2d(x, w, None, stride, padding)), [x, w]


def _build_upsample(rng):
    a = _leaf(rng, (1, 2, 3, 3))
    red = _weigher(rng, (1, 2, 6, 6))
    return lambda a: red(T.upsample_nearest2(a)), [a]


def _build_instance_norm(rng):
    x = _leaf(rng, (2, 3, 4, 4))
    g = _leaf(rng, (3,), positive=True)
    b = _leaf(rng, (3,))
    red = _weigher(rng, (2, 3, 4, 4))
    return lambda x, g, b: red(T.instance_norm(x, g, b)), [x, g, b]


FD_BUILDERS = {
    "add": _build_add,
    "sub": _build_sub,
    "mul": _build_mul,
    "scalar_mul": _build_scalar_mul,
    "div": _build_div,
    "neg": _build_neg,
    "relu": _build_relu,
    "exp": _build_exp,
    "log": _build_log,
    "sqrt": _build_sqrt,
    "clamp_min": _build_clamp_min,
    "sum": _build_sum,
    "mean": _build_mean,
    "reshape": _build_reshape,
    "transpose2d": _build_transpose2d,
    "narrow": _build_narrow,
    "concat": _build_concat,
    "masked_gather": _build_masked_gather,
    "matmul": _build_matmul,
    "dot": _build_dot,
    "norm": _build_norm,
    "channel_mix": _build_channel_mix,
    "log_softmax": _build_log_softmax,
    "conv2d": _build_conv2d,
    "upsample_nearest2": _build_upsample,
    "instance_norm": _build_instance_norm,
}


def test_every_registered_primitive_has_a_gradient_check():
    assert set(FD_BUILDERS) == set(T.PRIMITIVES)


@pytest.mark.parametrize("name", sorted(FD_BUILDERS))
def test_gradients_match_finite_differences(name):
    order = sorted(FD_BUILDERS)
    worst = 0.0
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(np.random.SeedSequence(101, spawn_key=(order.index(name), i)))
        f, inputs = FD_BUILDERS[name](rng)
        worst = max(worst, T.finite_difference_check(f, inputs))
    assert worst < FD_TOL


def test_composite_helpers_match_finite_differences():
    rng = np.random.default_rng(55)
    x = T.Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    w = T.Tensor(rng.standard_normal((2, 3, 4, 4)))
    assert T.finite_difference_check(lambda x: T.tsum(T.mul(T.softmax(x, axis=1), w)), [x]) < FD_TOL
    mask = rng.random((2, 4, 4)) < 0.5
    mask[0, 1, 1] = True
    wv = T.Tensor(rng.standard_normal(3))
    y = T.Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    assert T.finite_difference_check(lambda y: T.dot(T.masked_mean(y, mask), wv), [y]) < FD_TOL


# bitwise agreement with the reference lowering (tests/_oracles.py)

# (batch, cin, cout, height, width, kernel, stride, padding, input requires grad)
CONV_CASES = [
    (2, 16, 16, 64, 64, 3, 1, 1, True),
    (2, 32, 32, 32, 32, 3, 1, 1, True),
    (2, 64, 64, 16, 16, 3, 1, 1, True),
    (2, 128, 64, 8, 8, 3, 1, 1, True),
    (3, 5, 4, 9, 9, 3, 1, 1, True),
    (2, 16, 32, 64, 64, 3, 2, 1, True),
    (3, 4, 6, 9, 9, 3, 2, 1, True),
    (2, 32, 3, 64, 64, 1, 1, 0, True),
    (2, 1, 16, 64, 64, 3, 1, 1, False),
    (1, 3, 2, 7, 5, 3, 1, 0, True),
    (1, 2, 3, 6, 6, 5, 1, 2, True),
]
NORM_SHAPES = [(2, 16, 64, 64), (2, 32, 32, 32), (2, 64, 16, 16), (2, 128, 8, 8), (3, 4, 9, 9)]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", CONV_CASES)
@pytest.mark.parametrize("with_bias", [True, False])
def test_conv2d_bitwise_matches_reference(case, dtype, with_bias):
    b, cin, cout, h, w, k, stride, padding, x_grad = case
    rng = np.random.default_rng(abs(hash(case)) % 2**32)
    x = rng.standard_normal((b, cin, h, w)).astype(dtype)
    kern = rng.standard_normal((cout, cin, k, k)).astype(dtype)
    bias = rng.standard_normal(cout).astype(dtype) if with_bias else None
    ref, ref_vjp = O.conv2d_oracle(x, kern, bias, stride, padding)
    out = T.conv2d(
        T.Tensor(x.copy(), requires_grad=x_grad),
        T.Tensor(kern.copy(), requires_grad=True),
        T.Tensor(bias.copy(), requires_grad=True) if with_bias else None,
        stride=stride,
        padding=padding,
    )
    assert _same_bits(out.data, ref)
    g = rng.standard_normal(ref.shape).astype(dtype)
    expected, got = ref_vjp(g), out._vjp(g)
    assert len(got) == len(expected)
    if x_grad:
        assert _same_bits(got[0], expected[0])
    else:
        assert got[0] is None
    for e, a in zip(expected[1:], got[1:]):
        assert _same_bits(a, e)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_instance_norm_bitwise_matches_reference(shape, dtype):
    rng = np.random.default_rng(shape[-1] * 1000 + shape[1])
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    gamma = rng.standard_normal(shape[1]).astype(dtype)
    beta = rng.standard_normal(shape[1]).astype(dtype)
    ref, ref_vjp = O.instance_norm_oracle(x, gamma, beta)
    out = T.instance_norm(T.Tensor(x.copy(), True), T.Tensor(gamma.copy(), True), T.Tensor(beta.copy(), True))
    assert _same_bits(out.data, ref)
    g = rng.standard_normal(shape).astype(dtype)
    for e, a in zip(ref_vjp(g), out._vjp(g)):
        assert _same_bits(a, e)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bitwise_matches_reference(dtype):
    rng = np.random.default_rng(9)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 1e-45, -1e-45], dtype=dtype)
    # runs of -0.0 of several lengths and strides reach different fmax loops
    zeros = [np.full(n, -0.0, dtype) for n in (1, 7, 16)] + [np.full(1000, -0.0, dtype)[::2]]
    for x in [special, rng.standard_normal((2, 16, 64, 64)).astype(dtype)] + zeros:
        ref, ref_vjp = O.relu_oracle(x)
        out = T.relu(T.Tensor(x.copy(), requires_grad=True))
        assert _same_bits(out.data, ref)
        with np.errstate(invalid="ignore"):
            for g in (rng.standard_normal(x.shape).astype(dtype), np.full(x.shape, -np.inf, dtype), np.full(x.shape, np.nan, dtype)):
                assert _same_bits(out._vjp(g)[0], ref_vjp(g)[0])


def test_instance_norm_float32_large_mean_matches_reference():
    """9x9 planes far from zero: the statistics must come from the centred
    values as np.var forms them, not from a one-pass E[x^2] - mean^2."""
    rng = np.random.default_rng(81)
    x = (rng.standard_normal((3, 4, 9, 9)) * 3.0 + 1.0e4).astype(np.float32)
    gamma = rng.standard_normal(4).astype(np.float32)
    beta = rng.standard_normal(4).astype(np.float32)
    ref, ref_vjp = O.instance_norm_oracle(x, gamma, beta)
    out = T.instance_norm(T.Tensor(x.copy(), True), T.Tensor(gamma.copy(), True), T.Tensor(beta.copy(), True))
    assert _same_bits(out.data, ref)
    g = rng.standard_normal(x.shape).astype(np.float32)
    for e, a in zip(ref_vjp(g), out._vjp(g)):
        assert _same_bits(a, e)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 16, 32, 32), (2, 32, 16, 16), (3, 5, 3, 7), (2, 3, 4, 1), (1, 1, 1, 1)])
def test_upsample_nearest2_bitwise_matches_reference(shape, dtype):
    rng = np.random.default_rng(shape[1] * 100 + shape[2])
    x = rng.standard_normal(shape).astype(dtype)
    ref, ref_vjp = O.upsample_nearest2_oracle(x)
    out = T.upsample_nearest2(T.Tensor(x.copy(), requires_grad=True))
    assert _same_bits(out.data, ref)
    b, c, h, w = ref.shape
    # the decoder hands it a crop of the next conv's padded input adjoint
    padded = (rng.standard_normal((b, c + 2, h + 2, w + 2)) * rng.choice([1e-3, 1.0, 1e4], (b, c + 2, h + 2, w + 2))).astype(dtype)
    crop = padded[:, 1 : c + 1, 1 : h + 1, 1 : w + 1]
    layouts = (crop, np.ascontiguousarray(crop), np.asfortranarray(crop), crop[..., ::-1], np.broadcast_to(crop[:1, :1, :1, :1], crop.shape))
    for g in layouts:
        assert _same_bits(out._vjp(g)[0], ref_vjp(g)[0])


def test_conv_block_backward_bitwise_matches_reference():
    """conv -> instance_norm -> relu through `backward`, as the model runs it."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
    kern = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
    bias, gamma, beta = (rng.standard_normal(8).astype(np.float32) for _ in range(3))
    weights = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)

    c, c_vjp = O.conv2d_oracle(x, kern, bias, 1, 1)
    n, n_vjp = O.instance_norm_oracle(c, gamma, beta)
    r, r_vjp = O.relu_oracle(n)
    (gn,) = r_vjp(weights)
    gc, ggamma, gbeta = n_vjp(gn)
    gx, gk, gb = c_vjp(gc)

    leaves = [T.Tensor(a.copy(), requires_grad=True) for a in (x, kern, bias, gamma, beta)]
    out = T.relu(T.instance_norm(T.conv2d(leaves[0], leaves[1], leaves[2], 1, 1), leaves[3], leaves[4]))
    assert _same_bits(out.data, r)
    T.backward(T.tsum(T.mul(out, T.Tensor(weights))))
    for leaf, expected in zip(leaves, (gx, gk, gb, ggamma, gbeta)):
        assert _same_bits(leaf.grad, expected)


# hand-checked forward values


def test_add_hand_value():
    out = T.add(T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0]))
    assert np.array_equal(out.data, np.array([4.0, 6.0], dtype=np.float32))


def test_relu_hand_value():
    out = T.relu(T.tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, np.array([0.0, 0.0, 2.0], dtype=np.float32))


def test_conv2d_ones_counts_overlap():
    x = T.Tensor(np.ones((1, 1, 5, 5)))
    w = T.Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, w, None, stride=1, padding=1)
    assert out.data.shape == (1, 1, 5, 5)
    assert out.data[0, 0, 2, 2] == 9.0
    assert out.data[0, 0, 0, 0] == 4.0
    assert out.data[0, 0, 0, 2] == 6.0


def test_conv2d_stride_two_shape():
    x = T.Tensor(np.ones((1, 1, 8, 8)))
    w = T.Tensor(np.ones((2, 1, 3, 3)))
    out = T.conv2d(x, w, None, stride=2, padding=1)
    assert out.data.shape == (1, 2, 4, 4)


def test_log_softmax_hand_values():
    out = T.log_softmax(T.Tensor(np.array([0.0, 0.0])), axis=0)
    assert np.allclose(out.data, math.log(0.5), atol=1e-12)
    big = T.log_softmax(T.Tensor(np.array([1000.0, 1000.0])), axis=0)
    assert np.all(np.isfinite(big.data))
    assert np.allclose(big.data, math.log(0.5), atol=1e-12)
    skew = T.log_softmax(T.Tensor(np.array([0.0, math.log(3.0)])), axis=0)
    assert np.allclose(skew.data, [math.log(0.25), math.log(0.75)], atol=1e-12)


def test_log_softmax_normalizes_ten_thousand_vectors():
    rng = np.random.default_rng(0)
    scale = rng.choice([1.0, 10.0, 1000.0], size=(10000, 1))
    logits = rng.standard_normal((10000, 7)) * scale
    out = T.log_softmax(T.Tensor(logits), axis=1)
    sums = np.exp(out.data).sum(axis=1)
    assert float(np.abs(sums - 1.0).max()) < 1e-6


def test_upsample_hand_value():
    x = T.Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    out = T.upsample_nearest2(x)
    assert np.array_equal(out.data[0, 0], np.array([[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]], dtype=np.float64))


def test_instance_norm_zero_mean_unit_variance():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((2, 3, 8, 8)))
    out = T.instance_norm(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))).data
    assert np.abs(out.mean(axis=(2, 3))).max() < 1e-10
    assert np.abs(out.var(axis=(2, 3)) - 1.0).max() < 1e-4


# backward semantics


def test_backward_simple_product():
    x = T.Tensor(np.array([3.0]), requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    assert np.allclose(x.grad, [6.0])


def test_backward_relu_subgradient_zero_at_kink():
    x = T.Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    T.backward(T.tsum(T.relu(x)))
    assert np.array_equal(x.grad, np.array([0.0, 0.0, 1.0]))


def test_backward_clamped_coordinates_get_zero_gradient():
    x = T.Tensor(np.array([-2.0, 5.0]), requires_grad=True)
    T.backward(T.tsum(T.clamp_min(x, 0.0)))
    assert np.array_equal(x.grad, np.array([0.0, 1.0]))


def test_backward_log_softmax_is_onehot_minus_softmax():
    logits = np.array([0.2, -1.0, 0.5])
    x = T.Tensor(logits, requires_grad=True)
    pick = T.Tensor(np.array([0.0, 1.0, 0.0]))
    T.backward(T.tsum(T.mul(T.log_softmax(x, axis=0), pick)))
    sm = np.exp(logits - logits.max())
    sm /= sm.sum()
    assert np.allclose(x.grad, pick.data - sm, atol=1e-12)


def test_backward_accumulates_until_cleared():
    x = T.Tensor(np.array([3.0]), requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    T.backward(T.tsum(T.mul(x, x)))
    assert np.allclose(x.grad, [12.0])
    x.grad = None
    T.backward(T.tsum(T.mul(x, x)))
    assert np.allclose(x.grad, [6.0])


def test_backward_consumes_the_graph_and_keeps_values():
    rng = np.random.default_rng(12)
    leaves = [T.Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 3, 4, 4), (3, 3, 3, 3), (3,), (3,), (3,))]
    x, w, bias, gamma, beta = leaves
    h = T.relu(T.instance_norm(T.conv2d(x, w, bias, 1, 1), gamma, beta))
    out = T.tsum(T.mul(T.upsample_nearest2(h), T.Tensor(rng.standard_normal((2, 3, 8, 8)))))
    nodes = T.trace(out)
    values = [t.data.tobytes() for t in nodes]
    T.backward(out)
    for t, before in zip(nodes, values):
        assert t.data.tobytes() == before
        if any(t is leaf for leaf in leaves):
            assert t.requires_grad and t.grad is not None
        else:
            assert t._vjp is None and t._parents == () and not t.requires_grad
    assert len(nodes) == len(leaves) + 6
    with pytest.raises(ValueError):
        T.backward(out)


def test_backward_rejects_non_scalar_output():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(T.add(x, x))


def test_backward_rejects_disconnected_output():
    out = T.tsum(T.Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        T.backward(out)


def test_forward_backward_bitwise_reproducible():
    def once():
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        g = T.Tensor(np.abs(rng.standard_normal(4)) + 0.1, requires_grad=True)
        b = T.Tensor(rng.standard_normal(4), requires_grad=True)
        h = T.instance_norm(T.conv2d(x, w, None, 1, 1), g, b)
        out = T.tsum(T.mul(T.log_softmax(h, axis=1), T.Tensor(rng.standard_normal(h.data.shape))))
        T.backward(out)
        return (out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes(), g.grad.tobytes(), b.grad.tobytes())

    assert once() == once()


# shape and dtype rules


def test_binary_op_rejects_dtype_mismatch():
    a = T.Tensor(np.ones(3, dtype=np.float32))
    b = T.Tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(TypeError):
        T.add(a, b)


def test_binary_op_rejects_incompatible_broadcast():
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))


def test_matmul_rejects_inner_mismatch():
    with pytest.raises(T.ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_conv2d_shape_rules():
    x = T.Tensor(np.ones((1, 2, 6, 6)))
    with pytest.raises(T.ShapeError):
        T.conv2d(x, T.Tensor(np.ones((3, 3, 3, 3))), None, 1, 1)  # channel mismatch
    with pytest.raises(T.ShapeError):
        T.conv2d(x, T.Tensor(np.ones((3, 2, 3, 2))), None, 1, 1)  # non-square kernel
    with pytest.raises(T.ShapeError):
        T.conv2d(x, T.Tensor(np.ones((3, 2, 3, 3))), None, 3, 1)  # unsupported stride
    with pytest.raises(T.ShapeError):
        T.conv2d(T.Tensor(np.ones((1, 1, 2, 2))), T.Tensor(np.ones((1, 1, 3, 3))), None, 1, 0)


def test_concat_rules():
    with pytest.raises(T.ShapeError):
        T.concat([], axis=0)
    a = T.Tensor(np.ones((2, 3)))
    with pytest.raises(T.ShapeError):
        T.concat([a, T.Tensor(np.ones((3, 3)))], axis=1)


def test_masked_gather_rules():
    x = T.Tensor(np.ones((2, 3, 4, 4)))
    with pytest.raises(T.ShapeError):
        T.masked_gather(x, np.zeros((2, 4, 4), dtype=bool))  # nothing selected
    with pytest.raises(T.ShapeError):
        T.masked_gather(x, np.ones((2, 4, 5), dtype=bool))


def test_narrow_rejects_out_of_range():
    x = T.Tensor(np.ones((2, 5)))
    with pytest.raises(T.ShapeError):
        T.narrow(x, 1, 4, 3)


def test_reshape_rejects_size_change():
    with pytest.raises(T.ShapeError):
        T.reshape(T.Tensor(np.ones((2, 3))), (4, 2))


def test_dot_and_norm_reject_bad_ranks():
    with pytest.raises(T.ShapeError):
        T.dot(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((2, 2))))
    with pytest.raises(T.ShapeError):
        T.dot(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))
    with pytest.raises(T.ShapeError):
        T.norm(T.Tensor(np.ones((2, 2))))


def test_channel_mix_rejects_width_mismatch():
    x = T.Tensor(np.ones((1, 3, 2, 2)))
    with pytest.raises(T.ShapeError):
        T.channel_mix(x, np.ones((2, 4)))


def test_instance_norm_rejects_affine_mismatch():
    x = T.Tensor(np.ones((1, 3, 4, 4)))
    with pytest.raises(T.ShapeError):
        T.instance_norm(x, T.Tensor(np.ones(2)), T.Tensor(np.ones(3)))


def test_upsample_rejects_non_4d():
    with pytest.raises(T.ShapeError):
        T.upsample_nearest2(T.Tensor(np.ones((3, 3))))


# verification harness


def test_fd_check_flags_nondeterministic_function():
    state = {"calls": 0}

    def f(x):
        state["calls"] += 1
        return T.scalar_mul(T.tsum(x), float(state["calls"]))

    with pytest.raises(T.NondeterministicError):
        T.finite_difference_check(f, [T.Tensor(np.ones(3), requires_grad=True)])


def test_tensor_factory_dtypes():
    assert T.tensor([1, 2]).data.dtype == np.float32
    assert T.tensor(np.ones(2, dtype=np.float64)).data.dtype == np.float64
    assert not T.constant(np.ones(2)).requires_grad


def test_tensor_factory_preserves_zero_rank():
    assert T.tensor(np.zeros(())).data.shape == ()
    assert T.constant(np.float64(3.5), dtype=np.float64).data.shape == ()
    assert float(T.constant(np.zeros(())).data) == 0.0
