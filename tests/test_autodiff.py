"""Tensor ops, reverse-mode gradients against finite differences, Adam,
and the parameter archive."""

import threading

import numpy as np
import pytest

from fedseg.autodiff import (Adam, Tensor, add, concat, conv, deserialize_params,
                             log_softmax, matmul, max_pool, mul, no_grad, relu,
                             serialize_params, softmax, sub, tmean, tsum,
                             upsample_nearest)
from fedseg.network import NetConfig, SegModel, ce_loss
from helpers import gradient_check, max_rel_error, reshape, take_rows, transpose


def test_add_elementwise():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_softmax_uniform_on_equal_logits():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_simplex_invariant():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.normal(scale=20, size=(3, 5, 4, 4)))
    probs = softmax(logits, axis=1).data
    assert probs.min() >= 0
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_conv_identity_shaped_kernel_scales():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.full((1, 1, 1, 1), 2.0))
    out = conv(x, w)
    assert out.shape == (1, 1, 3, 3)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))


def test_conv_shape_mismatch_names_both_shapes():
    x = Tensor(np.ones((1, 3, 4, 4)))
    w = Tensor(np.ones((2, 1, 3, 3)))
    with pytest.raises(ValueError, match=r"\(1, 3, 4, 4\).*\(2, 1, 3, 3\)"):
        conv(x, w)


def test_add_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_backward_square_sum():
    x = Tensor([3.0], requires_grad=True)
    tsum(mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_mean():
    x = Tensor(np.arange(4.0), requires_grad=True)
    tmean(x).backward()
    np.testing.assert_allclose(x.grad, [0.25] * 4)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        mul(x, x).backward()


def test_repeated_backward_accumulates_on_leaves():
    x = Tensor([2.0], requires_grad=True)
    loss = tsum(mul(x, x))
    loss.backward()
    loss.backward()
    np.testing.assert_allclose(x.grad, [8.0])  # 2 calls x d/dx x^2 = 4


def test_broadcast_add_grad():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)), requires_grad=True)
    b = Tensor(np.random.default_rng(1).normal(size=(1, 3, 1, 1)), requires_grad=True)
    err = gradient_check(lambda: tsum(mul(add(x, b), add(x, b))), [x, b])
    assert err < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_random_graph_gradients_match_finite_differences(seed):
    """Composite graphs mixing every differentiable op, <= 100 parameters."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
    w1 = Tensor(rng.normal(scale=0.5, size=(3, 2, 3, 3)), requires_grad=True)
    b1 = Tensor(rng.normal(scale=0.1, size=(1, 3, 1, 1)), requires_grad=True)
    w2 = Tensor(rng.normal(scale=0.5, size=(2, 3, 2, 2)), requires_grad=True)
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def f():
        h = relu(add(conv(x, w1, padding=1), b1))
        h = max_pool(h, 2)
        h = conv(h, w2)
        h = upsample_nearest(h, 2)
        flat = reshape(h, (2, 2 * 2 * 2))
        prod = matmul(transpose(flat, (1, 0)), Tensor(rng2_const))
        mixed = concat([prod, matmul(Tensor(np.ones((5, 3))), transpose(m, (1, 0)))], axis=0)
        lp = log_softmax(mixed, axis=1)
        picked = take_rows(lp, np.array([0, 1, 2, 5, 7, 9, 12]))
        return tmean(mul(sub(picked, 0.1), sub(picked, 0.1)))

    global rng2_const
    rng2_const = np.random.default_rng(seed + 100).normal(size=(2, 4))
    assert gradient_check(f, [x, w1, b1, w2, m]) < 1e-4


def test_conv3d_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(1, 2, 4, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.4, size=(2, 2, 3, 3, 3)), requires_grad=True)

    def f():
        return tmean(mul(conv(x, w, padding=1), conv(x, w, padding=1)))

    assert gradient_check(f, [x, w]) < 1e-4


def test_relu_passes_nan_through():
    out = relu(Tensor([np.nan, -1.0, -0.0, 0.0, 2.0])).data
    assert np.isnan(out[0])
    np.testing.assert_array_equal(out[1:], [0.0, 0.0, 0.0, 2.0])
    assert not np.signbit(out[1:]).any()


def direct_conv(x, w, padding):
    """Plain-loop cross-correlation: one multiply-add per output, channel and
    kernel tap."""
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    kernel = w.shape[2:]
    out_spatial = tuple(s - k + 1 for s, k in zip(xp.shape[2:], kernel))
    out = np.zeros((x.shape[0], w.shape[0]) + out_spatial)
    for b in range(x.shape[0]):
        for co in range(w.shape[0]):
            for pos in np.ndindex(*out_spatial):
                total = 0.0
                for ci in range(x.shape[1]):
                    for k in np.ndindex(*kernel):
                        at = tuple(p + q for p, q in zip(pos, k))
                        total += w[(co, ci) + k] * xp[(b, ci) + at]
                out[(b, co) + pos] = total
    return out


def direct_conv_grads(x, w, padding, g):
    """Plain-loop adjoint of direct_conv for the output gradient g: dx, dw
    and the bias gradient db, one multiply-add per output, channel and tap."""
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(x.shape[0]):
        for co in range(w.shape[0]):
            for pos in np.ndindex(*g.shape[2:]):
                go = g[(b, co) + pos]
                for ci in range(x.shape[1]):
                    for k in np.ndindex(*w.shape[2:]):
                        at = (b, ci) + tuple(p + q for p, q in zip(pos, k))
                        dxp[at] += w[(co, ci) + k] * go
                        dw[(co, ci) + k] += xp[at] * go
    inner = (slice(None),) * 2 + tuple(slice(p, p + s) for p, s in zip(padding, x.shape[2:]))
    return dxp[inner], dw, g.sum(axis=(0,) + tuple(range(2, g.ndim)))


CONV_CASES = [
    ((2, 3, 5, 7), (3, 3), (1, 1)),
    ((2, 3, 5, 7), (3, 3), (0, 0)),
    ((1, 2, 4, 6), (1, 1), (0, 0)),
    ((2, 2, 6, 4), (3, 1), (1, 0)),
    ((1, 2, 3, 3), (3, 3), (0, 0)),        # 1x1 output
    ((1, 1, 3, 5), (3, 1), (0, 0)),        # one output row
    ((2, 2, 3, 4, 5), (3, 3, 3), (1, 1, 1)),
    ((1, 2, 4, 3, 5), (3, 1, 3), (1, 0, 0)),
    ((2, 1, 2, 3, 4), (1, 1, 1), (0, 0, 0)),
    ((1, 2, 3, 3, 3), (3, 3, 3), (0, 0, 0)),  # 1x1x1 output
    ((4, 1, 32, 32), (3, 3), (1, 1)),      # enc0 of the default net
    ((2, 5, 6, 5), (3, 3), (1, 1)),        # cin > cout, as in the decoder
]


@pytest.mark.parametrize("x_shape, kernel, padding", CONV_CASES)
def test_conv_matches_direct_sum(x_shape, kernel, padding):
    """Plain, biased, and biased-and-rectified conv against the loop."""
    rng = np.random.default_rng(sum(x_shape) + sum(kernel))
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(3, x_shape[1]) + kernel)
    b = rng.normal(size=3)
    expected = direct_conv(x, w, padding)
    biased = expected + b.reshape((1, 3) + (1,) * len(kernel))
    pad = padding[0] if len(set(padding)) == 1 else padding
    for out, want in [
        (conv(Tensor(x), Tensor(w), padding=pad), expected),
        (conv(Tensor(x), Tensor(w), pad, b=Tensor(b)), biased),
        (conv(Tensor(x), Tensor(w), pad, b=Tensor(b), rectify=True),
         np.maximum(biased, 0.0)),
    ]:
        assert out.shape == want.shape
        assert out.data.base is None  # owns its data, holds no wide buffer
        assert max_rel_error(out.data, want, floor=1.0) < 1e-12


@pytest.mark.parametrize("x_shape, kernel, padding", CONV_CASES)
def test_conv_gradients_match_direct_adjoint(x_shape, kernel, padding):
    """dx, dw and db of the plain, biased, and biased-and-rectified conv
    against the loop, to rounding: pins the head room and the shifts that
    the finite-difference checks only see to 1e-4."""
    rng = np.random.default_rng(sum(x_shape) + sum(kernel) + 1)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(3, x_shape[1]) + kernel)
    b = rng.normal(size=3)
    biased = direct_conv(x, w, padding) + b.reshape((1, 3) + (1,) * len(kernel))
    g = rng.normal(size=biased.shape)
    pad = padding[0] if len(set(padding)) == 1 else padding
    for bias, rectify in [(False, False), (True, False), (True, True)]:
        xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
        out = conv(xt, wt, pad, b=bt if bias else None, rectify=rectify)
        tsum(mul(out, Tensor(g))).backward()
        want = direct_conv_grads(x, w, padding, g * (biased > 0) if rectify else g)
        got = [xt.grad, wt.grad] + ([bt.grad] if bias else [])
        for name, have, expect in zip(("dx", "dw", "db"), got, want):
            assert have.shape == expect.shape, name
            assert max_rel_error(have, expect, floor=1.0) < 1e-12, name


@pytest.mark.parametrize("x_shape, kernel, padding, rectify", [
    ((2, 3, 5, 4), (3, 3), 1, True),
    ((2, 3, 5, 4), (3, 3), 1, False),
    ((2, 1, 5, 6), (3, 3), 1, True),       # one input channel
    ((2, 1, 4, 5), (3, 2), 0, False),
    ((1, 2, 3, 4, 3), (3, 3, 3), 1, True),
    ((1, 1, 3, 4, 3), (3, 1, 3), (1, 0, 1), True),
])
def test_fused_conv_gradients(x_shape, kernel, padding, rectify):
    rng = np.random.default_rng(len(x_shape) + x_shape[1] + int(rectify))
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(scale=0.4, size=(3, x_shape[1]) + kernel), requires_grad=True)
    b = Tensor(rng.normal(scale=0.3, size=3), requires_grad=True)
    out_shape = conv(x, w, padding, b=b).shape
    fixed = Tensor(rng.normal(size=out_shape))

    def f():
        return tsum(mul(conv(x, w, padding, b=b, rectify=rectify), fixed))

    assert gradient_check(f, [x, w, b]) < 1e-4


def test_conv_rejects_a_bias_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"bias shape \(2,\) != \(3,\)"):
        conv(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2, 3, 3))),
             b=Tensor(np.ones(2)))


@pytest.mark.parametrize("cin", [1, 2])
def test_fused_relu_passes_nan_through(cin):
    values = np.array([np.nan, -1.0, -0.0, 0.0, 2.0])
    x = np.repeat(values.reshape(1, 1, 1, 5), cin, axis=1) / cin
    w = np.ones((1, cin, 1, 1))
    out = conv(Tensor(x), Tensor(w), b=Tensor(np.zeros(1)), rectify=True).data.ravel()
    assert np.isnan(out[0])
    np.testing.assert_array_equal(out[1:], [0.0, 0.0, 0.0, 2.0])
    assert not np.signbit(out[1:]).any()


def test_conv3d_per_axis_padding_gradients():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 2, 3, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.4, size=(2, 2, 3, 1, 3)), requires_grad=True)

    def f():
        out = conv(x, w, padding=(1, 0, 0))
        return tmean(mul(out, out))

    assert gradient_check(f, [x, w]) < 1e-4


UPSAMPLE_CASES = [
    ((2, 3, 4, 5), 5),         # non-square, cin < cout
    ((2, 6, 3, 2), 2),         # cin > cout
    ((1, 4, 1, 3), 3),         # a 1-pixel low-res axis
    ((2, 1, 3, 4), 4),         # one input channel
    ((2, 3, 2, 3, 4), 2),      # rank 3, cin > cout
    ((1, 2, 1, 3, 2), 5),      # rank 3, a 1-pixel axis, cin < cout
]


@pytest.mark.parametrize("bias, rectify", [(False, False), (True, False), (False, True),
                                           (True, True)])
@pytest.mark.parametrize("x_shape, cout", UPSAMPLE_CASES)
def test_upsample_conv_matches_conv_of_the_upsampled_input(x_shape, cout, bias, rectify):
    """conv(x, w, 1, upsample=2) against conv(upsample_nearest(x, 2), w, 1):
    the output and dx, dw and db agree to rounding."""
    rng = np.random.default_rng(sum(x_shape) + cout)
    rank = len(x_shape) - 2
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(cout, x_shape[1]) + (3,) * rank)
    b = rng.normal(size=cout)
    g = rng.normal(size=(x_shape[0], cout) + tuple(2 * s for s in x_shape[2:]))
    results = []
    for fused in (True, False):
        xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
        bt = bt if bias else None
        if fused:
            out = conv(xt, wt, 1, b=bt, rectify=rectify, upsample=2)
        else:
            out = conv(upsample_nearest(xt, 2), wt, 1, b=bt, rectify=rectify)
        tsum(mul(out, Tensor(g))).backward()
        results.append([out.data, xt.grad, wt.grad] + ([bt.grad] if bias else []))
    assert results[0][0].base is None  # owns its data, holds no wide buffer
    for name, have, want in zip(("out", "dx", "dw", "db"), *results):
        assert have.shape == want.shape, name
        assert max_rel_error(have, want, floor=1.0) < 1e-12, name


@pytest.mark.parametrize("x_shape", [(2, 3, 3, 2), (1, 2, 2, 1, 2)], ids=["rank2", "rank3"])
def test_upsample_conv_gradients(x_shape):
    rng = np.random.default_rng(len(x_shape))
    rank = len(x_shape) - 2
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(scale=0.4, size=(3, x_shape[1]) + (3,) * rank), requires_grad=True)
    b = Tensor(rng.normal(scale=0.3, size=3), requires_grad=True)
    fixed = Tensor(rng.normal(size=(x_shape[0], 3) + tuple(2 * s for s in x_shape[2:])))

    def f():
        return tsum(mul(conv(x, w, 1, b=b, rectify=True, upsample=2), fixed))

    assert gradient_check(f, [x, w, b]) < 1e-4


@pytest.mark.parametrize("kernel, padding", [
    ((3, 3), 0), ((1, 1), 0), ((3, 1), 1), ((3, 3), (1, 0)),
])
def test_upsample_conv_needs_kernel_3_at_padding_1(kernel, padding):
    x, w = Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2) + kernel))
    pad = tuple(padding) if isinstance(padding, tuple) else (padding, padding)
    with pytest.raises(ValueError) as err:
        conv(x, w, padding, upsample=2)
    assert f"kernel {kernel}" in str(err.value)
    assert f"padding {pad}" in str(err.value)
    with pytest.raises(ValueError, match="upsample must be 1 or 2, got 3"):
        conv(x, Tensor(np.ones((3, 2, 3, 3))), 1, upsample=3)


def test_max_pool_gradients():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)

    def f():
        return tsum(max_pool(x, 2))

    assert gradient_check(f, [x]) < 1e-4


def test_take_rows_accumulates_duplicate_indices():
    t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    weights = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    tsum(mul(take_rows(t, [2, 0, 2, 2]), Tensor(weights))).backward()
    np.testing.assert_array_equal(t.grad, [[2.0, 20.0], [0.0, 0.0], [8.0, 80.0]])


def argmax_pool(x, k):
    """Max pooling by moving each window into a last axis and taking argmax;
    returns the pooled values and the argmax-routed gradient of their sum
    weighted by g."""
    rank = x.ndim - 2
    out_spatial = tuple(s // k for s in x.shape[2:])
    split = x.shape[:2] + sum(((o, k) for o in out_spatial), ())
    order = [0, 1] + [2 + 2 * i for i in range(rank)] + [3 + 2 * i for i in range(rank)]
    flat = x.reshape(split).transpose(order).reshape(x.shape[:2] + out_spatial + (-1,))
    arg = flat.argmax(axis=-1)[..., None]

    def grad(g):
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg, g[..., None], axis=-1)
        blocks = dflat.reshape(x.shape[:2] + out_spatial + (k,) * rank)
        return blocks.transpose(np.argsort(order)).reshape(x.shape)

    return np.take_along_axis(flat, arg, axis=-1)[..., 0], grad


@pytest.mark.parametrize("shape, k", [
    ((2, 3, 8, 6), 2),
    ((1, 2, 6, 9), 3),
    ((2, 2, 4, 6, 2), 2),
])
def test_max_pool_routes_ties_to_the_first_max(shape, k):
    rng = np.random.default_rng(len(shape) + k)
    # few distinct values, so most windows hold tied maxima
    x = Tensor(rng.integers(-2, 2, size=shape).astype(np.float64), requires_grad=True)
    x.data[0, 0, :k, :k] = np.nan
    x.data[-1, -1, :k, :k] = [[1.0] + [np.nan] * (k - 1)] + [[1.0] * k] * (k - 1)
    expected, expected_grad = argmax_pool(x.data, k)
    out = max_pool(x, k)
    np.testing.assert_array_equal(out.data, expected)
    g = rng.normal(size=out.shape)
    tsum(mul(out, Tensor(g))).backward()
    np.testing.assert_array_equal(x.grad, expected_grad(g))


def same_bits(have, want):
    """Equal as arrays (NaN equal to NaN) and in the sign of every zero."""
    return (have.shape == want.shape and np.array_equal(have, want, equal_nan=True)
            and np.array_equal(np.signbit(have[have == 0]), np.signbit(want[want == 0])))


def pooled_inputs(case, rng):
    """x, w, b and the output gradient g of a pooled-conv case, built so
    that windows tie, go all-negative, meet -0.0 or hold a NaN."""
    x_shape, cout = {"ties": ((3, 2, 6, 4), 3), "one-channel": ((2, 1, 4, 6), 4),
                     "signed-zeros": ((2, 2, 4, 4), 2), "nan": ((2, 3, 4, 6), 2),
                     "rank3": ((2, 2, 4, 2, 4), 3)}[case]
    rank = len(x_shape) - 2
    x = rng.integers(-2, 3, size=x_shape).astype(np.float64)
    w = rng.integers(-1, 2, size=(cout, x_shape[1]) + (3,) * rank).astype(np.float64)
    b = rng.integers(-2, 2, size=cout).astype(np.float64)
    b[0] = -100.0  # every window of channel 0 is all-negative
    if case == "signed-zeros":
        x[:, :, :2] = -0.0
        b[1:] = -0.0
    if case == "nan":
        x[0, 0, 1, 1] = np.nan
    g = rng.integers(-2, 3, size=(x_shape[0], cout) + tuple(s // 2 for s in x_shape[2:]))
    g = g.astype(np.float64)
    g[g == 0] = -0.0  # a zero gradient times a closed ReLU keeps its sign
    g.flat[0] = np.inf  # on channel 0: inf times a closed ReLU is a NaN in dx
    return x, w, b, g


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("rectify", [True, False], ids=["rectify", "linear"])
@pytest.mark.parametrize("case", ["ties", "one-channel", "signed-zeros", "nan", "rank3"])
def test_pooled_conv_equals_max_pool_of_conv_bit_for_bit(case, rectify):
    """conv(..., pool=2) against max_pool(conv(...), 2): output, dx, dw and
    db are the same bits, so the gradient of each window reaches the same
    element, with the same sign of zero, as max_pool's routing gives it."""
    x, w, b, g = pooled_inputs(case, np.random.default_rng(len(case) + rectify))
    results = []
    for fused in (True, False):
        xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
        if fused:
            out = conv(xt, wt, 1, b=bt, rectify=rectify, pool=2)
        else:
            out = max_pool(conv(xt, wt, 1, b=bt, rectify=rectify), 2)
        tsum(mul(out, Tensor(g))).backward()
        results.append((out.data, xt.grad, wt.grad, bt.grad))
    assert results[0][0].base is None  # owns its data, holds no wide buffer
    for name, have, want in zip(("out", "dx", "dw", "db"), *results):
        assert same_bits(have, want), name


def test_pooled_conv_without_gradients_matches_the_recorded_forward():
    x, w, b, _ = pooled_inputs("ties", np.random.default_rng(3))
    recorded = conv(Tensor(x, requires_grad=True), Tensor(w), 1, b=Tensor(b),
                    rectify=True, pool=2)
    with no_grad():
        free = conv(Tensor(x, requires_grad=True), Tensor(w), 1, b=Tensor(b),
                    rectify=True, pool=2)
    assert free._backward is None
    assert same_bits(free.data, recorded.data)


@pytest.mark.parametrize("x_shape, kwargs, complaint", [
    ((1, 2, 5, 4), dict(pool=2), r"even output shape, got upsample=1 with output shape \(5, 4\)"),
    ((1, 2, 4, 4), dict(pool=2, upsample=2), "pool=2 needs upsample=1"),
    ((1, 2, 4, 4), dict(pool=3), "pool must be 1 or 2, got 3"),
], ids=["odd-extent", "with-upsample", "pool-3"])
def test_pooled_conv_rejects_what_it_cannot_pool(x_shape, kwargs, complaint):
    with pytest.raises(ValueError, match=complaint):
        conv(Tensor(np.ones(x_shape)), Tensor(np.ones((3, 2, 3, 3))), 1, **kwargs)


@pytest.mark.parametrize("x_shape, w_shape, kwargs, complaint", [
    ((1, 2, 2, 2), (3, 2, 5, 5), dict(), "does not fit input spatial shape"),
    ((1, 2, 4, 4), (3, 2, 3, 3), dict(upsample=2), r"kernel \(3, 3\) with padding \(0, 0\)"),
    ((1, 2, 4, 4), (3, 2, 3, 3), dict(padding=1, upsample=3), "upsample must be 1 or 2"),
    ((1, 2, 4, 4), (3, 2, 3, 3), dict(padding=(1, 1, 1)), "padding must have 2 entries"),
    ((1, 2, 5, 4), (3, 2, 3, 3), dict(padding=1, pool=2), "even output shape"),
    ((1, 2, 4, 4), (3, 3, 3, 3), dict(padding=1), "kernel channels 3"),
    ((1, 2, 4, 4), (3, 2, 3), dict(padding=1), "disagree"),
    ((1, 2, 4, 4), (3, 2, 3, 3), dict(padding=1, b=Tensor(np.ones(2))), "bias shape"),
])
def test_conv_shape_errors_raise_with_the_plan_cached(x_shape, w_shape, kwargs, complaint):
    """The layout is cached per shape; a bad shape still raises each time,
    also after a good call on the same input shape filled the cache."""
    x = Tensor(np.ones(x_shape))
    conv(x, Tensor(np.ones((3, x_shape[1], 1, 1))))
    for _ in range(2):
        with pytest.raises(ValueError, match=complaint):
            conv(x, Tensor(np.ones(w_shape)), **kwargs)


@pytest.mark.parametrize("shape, factor", [((2, 3, 3, 2), 4), ((1, 2, 2, 3, 2), 2)])
def test_upsample_gradients(shape, factor):
    rng = np.random.default_rng(factor)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    fixed = Tensor(rng.normal(size=shape[:2] + tuple(s * factor for s in shape[2:])))

    def f():
        return tsum(mul(upsample_nearest(x, factor), fixed))

    assert gradient_check(f, [x]) < 1e-4


def test_forward_backward_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 1, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        loss = tmean(mul(conv(x, w, padding=1), conv(x, w, padding=1)))
        loss.backward()
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


# -- Adam ----------------------------------------------------------------------


def test_no_grad_records_no_graph():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = relu(mul(w, 3.0))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    np.testing.assert_array_equal(out.data, 3.0)
    assert mul(w, 3.0).requires_grad


def test_no_grad_restores_state_after_exception():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            with no_grad():
                pass
            assert not mul(w, 2.0).requires_grad
            raise RuntimeError("inside the block")
    out = mul(w, 2.0)
    assert out.requires_grad and out._parents


def test_no_grad_is_thread_local():
    w = Tensor(np.ones(3), requires_grad=True)
    held, done = threading.Event(), threading.Event()
    seen = {}

    def holder():
        with no_grad():
            held.set()
            done.wait(timeout=30)
            seen["a"] = mul(w, 2.0).requires_grad

    def other():
        held.wait(timeout=30)
        out = mul(w, 2.0)
        seen["b"] = out.requires_grad and len(out._parents) == 2
        done.set()

    threads = [threading.Thread(target=holder), threading.Thread(target=other)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert seen == {"a": False, "b": True}


def test_backward_after_predict_fills_every_grad():
    cfg = NetConfig(depth=1, base_width=3, latent_dim=4)
    model = SegModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 1, 8, 8))
    model.predict_probs(x)
    ce_loss(model.forward(Tensor(x)), rng.integers(0, 2, size=(3, 8, 8))).backward()
    for name, p in model.parameters().items():
        assert p.grad is not None and p.grad.shape == p.shape, name
        assert np.any(p.grad != 0), name


def test_adam_single_step_matches_hand_rule():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    g = np.array([0.3, -0.7, 0.01])
    p.grad = g.copy()
    opt = Adam({"p": p}, learning_rate=1e-3)
    before = p.data.copy()
    opt.step()
    # Fresh state: m_hat = g, v_hat = g^2, so the step is -lr * g / (|g| + eps).
    expected = before - 1e-3 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)
    assert np.all(np.abs(p.data - before) <= 1e-3 + 1e-12)


def test_adam_zero_gradient_zero_update():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam({"p": p})
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_adam_two_steps_bookkeeping():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p})
    for _ in range(2):
        p.grad = np.array([0.5])
        opt.step()
    assert opt.step_count == 2
    assert np.isfinite(opt.m["p"]).all() and np.isfinite(opt.v["p"]).all()


def test_adam_flat_buffer_matches_the_per_parameter_rule():
    """Three steps over parameters of several shapes, one of them 0-d,
    against the per-parameter update written out: the same bits, and m and
    v read per name. The parameters start at 0, so that no bit of the
    update is lost to a larger parameter."""
    rng = np.random.default_rng(12)
    shapes = {"a": (2, 3), "b": (4,), "c": ()}
    params = {n: Tensor(np.zeros(s), requires_grad=True) for n, s in shapes.items()}
    want = {n: p.data.copy() for n, p in params.items()}
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    lr, b1, b2, eps = 3e-3, 0.8, 0.99, 1e-7
    opt = Adam(params, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    for t in range(1, 4):
        for n, p in params.items():
            p.grad = rng.normal(size=shapes[n])
            p.grad.flat[0] = -0.0 if t == 2 else p.grad.flat[0]
            m[n] = b1 * m[n] + (1.0 - b1) * p.grad
            v[n] = b2 * v[n] + (1.0 - b2) * p.grad * p.grad
            m_hat, v_hat = m[n] / (1.0 - b1**t), v[n] / (1.0 - b2**t)
            want[n] = want[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for n, p in params.items():
            assert np.array_equal(p.data, want[n]), (n, t)
            assert np.array_equal(opt.m[n], m[n]) and np.array_equal(opt.v[n], v[n]), (n, t)
            assert opt.m[n].shape == shapes[n]


@pytest.mark.parametrize("name, value", [
    ("learning_rate", np.nan), ("learning_rate", np.inf), ("learning_rate", 0.0),
    ("learning_rate", -1e-3), ("epsilon", np.nan), ("epsilon", np.inf), ("epsilon", 0.0),
    ("beta1", np.nan), ("beta1", 1.0), ("beta2", 0.0), ("beta2", np.nan),
])
def test_adam_rejects_a_bad_hyperparameter_naming_it(name, value):
    with pytest.raises(ValueError, match=f"adam: {name} must be"):
        Adam({"p": Tensor(np.ones(2), requires_grad=True)}, **{name: value})


def test_adam_missing_grad_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.1])
    opt = Adam({"p": p, "q": q})
    with pytest.raises(ValueError, match="'q'"):
        opt.step()


# -- parameter archive -------------------------------------------------------------


def test_archive_round_trip_bit_exact():
    rng = np.random.default_rng(9)
    params = {"a.w": rng.normal(size=(3, 2)), "a.b": rng.normal(size=(3,)),
              "scalar": np.array(2.5)}
    back = deserialize_params(serialize_params(params))
    assert set(back) == set(params)
    for name in params:
        np.testing.assert_array_equal(back[name], np.asarray(params[name]))


def test_archive_deterministic_bytes():
    params = {"b": np.ones(3), "a": np.zeros((2, 2))}
    assert serialize_params(params) == serialize_params(dict(reversed(params.items())))


def test_archive_bad_magic_rejected():
    blob = serialize_params({"a": np.ones(2)})
    with pytest.raises(ValueError, match="offset 0"):
        deserialize_params(b"XXXX" + blob[4:])


def test_archive_truncation_rejected():
    blob = serialize_params({"a": np.ones(4)})
    with pytest.raises(ValueError, match="truncated"):
        deserialize_params(blob[:-5])
