"""Tensor ops, reverse-mode gradients against finite differences, Adam,
and the parameter archive."""

import numpy as np
import pytest

from fedseg.autodiff import (Adam, Tensor, add, concat, conv, deserialize_params,
                             log_softmax, matmul, max_pool, mul, relu, reshape,
                             serialize_params, softmax, sub, take_per_column,
                             take_rows, tmean, transpose, tsum, upsample_nearest)
from helpers import gradient_check, max_rel_error


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
        mixed = concat([prod, matmul(Tensor(np.ones((5, 3))), m.transpose((1, 0)))], axis=0)
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


def test_max_pool_and_take_per_column_gradients():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
    pts = Tensor(rng.normal(size=(6, 3)), requires_grad=True)

    def f():
        pooled = tsum(max_pool(x, 2))
        order = np.argsort(pts.data, axis=0, kind="stable")
        ordered = take_per_column(pts, order)
        return add(pooled, tsum(mul(ordered, Tensor(fixed))))

    fixed = np.random.default_rng(6).normal(size=(6, 3))
    assert gradient_check(f, [x, pts]) < 1e-4


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
