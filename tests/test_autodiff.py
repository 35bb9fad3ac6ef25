"""Gradient, optimizer, and checkpoint tests for the numeric core."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import check_grads, rel_err

from rangegen import autodiff as ad
from rangegen.checkpoint import MAGIC, VERSION, read_checkpoint, write_checkpoint
from rangegen.errors import ConfigError, NumericError, ShapeError, TrainingError
from rangegen.optim import AdamW

SEEDS = range(20)


# ---------------------------------------------------------------------------
# Elementwise and reduction gradients vs central finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_elementwise_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    for fn in (ad.exp, ad.tanh, ad.sigmoid, ad.silu, ad.softplus):
        check_grads(lambda t, fn=fn: ad.tsum(fn(t)), [x], tol=1e-5)
    check_grads(lambda t: ad.tsum(ad.log(t)), [np.abs(x) + 0.5], tol=1e-5)
    check_grads(lambda t: ad.tsum(ad.power(t, 3.0)), [x], tol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_add_mul_broadcast_grads(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4,))
    check_grads(lambda x, y: ad.tsum(ad.mul(ad.add(x, y), x)), [a, b], tol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_reduction_and_shape_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4))

    def fn(t):
        r = ad.reshape(t, (6, 4))
        r = ad.transpose(r, (1, 0))
        r = ad.concat([r, ad.mul(r, 2.0)], axis=0)
        r = ad.narrow(r, 0, 2, 4)
        return ad.tmean(ad.mul(r, r))

    check_grads(fn, [x], tol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_grads(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    check_grads(lambda x, y: ad.tsum(ad.matmul(x, y)), [a, b], tol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(5)
    w = rng.standard_normal(5)
    check_grads(lambda t: ad.tsum(ad.mul(ad.softmax(t), w)), [x], tol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 6))
    g = rng.standard_normal(6)
    b = rng.standard_normal(6)
    weight = rng.standard_normal((2, 6))
    check_grads(
        lambda t, gg, bb: ad.tsum(ad.mul(ad.layer_norm(t, gg, bb), weight)),
        [x, g, b], tol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, 4, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    check_grads(lambda xx, ww, bb: ad.tsum(ad.conv2d(xx, ww, bb)),
                [x, w, b], tol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_strided_and_upsample_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, 4, 8))
    w = rng.standard_normal((2, 2, 3, 3))

    def fn(xx, ww):
        h = ad.conv2d(xx, ww, stride=2)
        return ad.tsum(ad.mul(ad.upsample2x(h), 0.5))

    check_grads(fn, [x, w], tol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_recurrence_grads(seed):
    rng = np.random.default_rng(seed)
    abar = rng.uniform(0.2, 0.95, (2, 5, 3))
    q = rng.standard_normal((2, 5, 3))
    check_grads(lambda a, b: ad.tsum(ad.recurrence(a, b)), [abar, q], tol=1e-5)


@pytest.mark.parametrize("seed", range(5))
def test_recurrence_matches_closed_form(seed):
    # h[s] = sum_{k<=s} (prod_{k<j<=s} abar[j]) q[k]
    rng = np.random.default_rng(seed)
    B, L, C = 2, 11, 3
    abar = rng.uniform(0.1, 0.99, (B, L, C))
    q = rng.standard_normal((B, L, C))
    expect = np.zeros((B, L, C))
    for s in range(L):
        for k in range(s + 1):
            expect[:, s, :] += np.prod(abar[:, k + 1 : s + 1, :], axis=1) * q[:, k, :]
    np.testing.assert_allclose(ad.recurrence(abar, q).data, expect,
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_grads(seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((4, 3))
    idx = rng.integers(0, 4, size=5)
    check_grads(lambda t: ad.tsum(ad.mul(ad.embedding(t, idx), 2.0)),
                [table], tol=1e-6)


# ---------------------------------------------------------------------------
# Worked examples and error contracts
# ---------------------------------------------------------------------------

def test_matmul_identity():
    out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor([[3.0, 4.0], [5.0, 6.0]]))
    np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_example():
    out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"2.*3"):
        ad.matmul(ad.Tensor(np.zeros((1, 2))), ad.Tensor(np.zeros((3, 1))))


def test_softmax_symmetry_and_sum():
    out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = ad.softmax(ad.Tensor(rng.standard_normal((4, 7))), axis=-1)
        assert np.all(s.data >= 0)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_softmax_stabilized():
    out = ad.softmax(ad.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_nonfinite_input_rejected():
    with pytest.raises(NumericError):
        ad.softmax(ad.Tensor([np.nan, 0.0]))


def test_layer_norm_constant_vector_is_zero():
    out = ad.layer_norm(ad.Tensor([5.0, 5.0, 5.0]),
                        ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_layer_norm_two_point_example():
    out = ad.layer_norm(ad.Tensor([1.0, 3.0]),
                        ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 1, 3, 5))
    w = np.ones((1, 1, 1, 1))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w))
    np.testing.assert_allclose(out.data, x)


def test_conv2d_circular_horizontal_wrap():
    H, W = 3, 6
    x = np.zeros((1, 1, H, W))
    x[0, 0, 1, 0] = 1.0
    w = np.ones((1, 1, 3, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w)).data[0, 0]
    cols = np.nonzero(out.sum(axis=0))[0]
    assert set(cols) == {0, 1, W - 1}
    np.testing.assert_allclose(out[:, 2:W - 1], 0.0)


def test_conv2d_even_kernel_rejected():
    with pytest.raises(ConfigError):
        ad.conv2d(ad.Tensor(np.zeros((1, 1, 4, 4))),
                  ad.Tensor(np.zeros((1, 1, 2, 2))))


def test_conv2d_channel_mismatch_rejected():
    with pytest.raises(ShapeError):
        ad.conv2d(ad.Tensor(np.zeros((1, 2, 4, 4))),
                  ad.Tensor(np.zeros((1, 3, 3, 3))))


def test_backward_requires_scalar():
    t = ad.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.mul(t, 2.0).backward()
    with pytest.raises(ShapeError):
        ad.recurrence(ad.Tensor(np.zeros((1, 2, 3))),
                      ad.Tensor(np.zeros((1, 2, 4))))


def test_composite_chain_rule_matches_manual_composition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3))
    fused = ad.Tensor(x, requires_grad=True)
    ad.tsum(ad.tanh(ad.matmul(fused, fused))).backward()

    manual = ad.Tensor(x, requires_grad=True)
    inner = ad.matmul(manual, manual)
    ad.tsum(ad.tanh(inner)).backward()
    np.testing.assert_allclose(fused.grad, manual.grad, rtol=1e-12)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_adamw_zero_grad_no_decay_leaves_params():
    p = ad.Tensor(np.array([1.5, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    AdamW(lr=0.1).step({"p": p})
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_adamw_single_step_closed_form():
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = AdamW(lr=0.1, betas=(0.0, 0.0), eps=1e-8)
    opt.step({"p": p})
    # m = v = 1 after bias correction; update = lr * 1 / (1 + eps)
    np.testing.assert_allclose(p.data, [-0.1 / (1.0 + 1e-8)], rtol=1e-12)


def test_adamw_decoupled_decay_scaling():
    p = ad.Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    AdamW(lr=0.1, weight_decay=0.01).step({"p": p})
    np.testing.assert_allclose(p.data, [2.0 * (1.0 - 0.1 * 0.01)], rtol=1e-12)


def test_adamw_nan_gradient_rejected():
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingError, match="p"):
        AdamW().step({"p": p})


def test_adamw_nan_gradient_leaves_state_untouched():
    a = ad.Tensor(np.array([1.0]), requires_grad=True)
    b = ad.Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW(lr=0.1)
    a.grad, b.grad = np.array([1.0]), np.array([1.0])
    opt.step({"a": a, "b": b})
    before = (a.data.copy(), b.data.copy(),
              {k: v.copy() for k, v in opt.m.items()},
              {k: v.copy() for k, v in opt.v.items()}, opt.step_count)
    a.grad, b.grad = np.array([1.0]), np.array([np.nan])
    with pytest.raises(TrainingError, match="'b'"):
        opt.step({"a": a, "b": b})
    np.testing.assert_array_equal(a.data, before[0])
    np.testing.assert_array_equal(b.data, before[1])
    for moments, saved in ((opt.m, before[2]), (opt.v, before[3])):
        assert moments.keys() == saved.keys()
        for name in saved:
            np.testing.assert_array_equal(moments[name], saved[name])
    assert opt.step_count == before[4]


def test_adamw_nan_gradient_on_first_step_creates_no_state():
    a = ad.Tensor(np.array([1.0]), requires_grad=True)
    b = ad.Tensor(np.array([2.0]), requires_grad=True)
    a.grad, b.grad = np.array([1.0]), np.array([np.nan])
    opt = AdamW(lr=0.1)
    with pytest.raises(TrainingError):
        opt.step({"a": a, "b": b})
    np.testing.assert_array_equal(a.data, [1.0])
    assert opt.m == {} and opt.v == {} and opt.step_count == 0


def test_adamw_step_count_increments():
    opt = AdamW()
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    for expected in (1, 2, 3):
        p.grad = np.array([1.0])
        opt.step({"p": p})
        assert opt.step_count == expected


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    buffers = {
        "w": rng.standard_normal((3, 4)).astype(np.float32),
        "nested.bias": rng.standard_normal(7).astype(np.float32),
        "scalarish": np.float32(rng.standard_normal(1)),
    }
    path = tmp_path / "state.olck"
    write_checkpoint(path, buffers)
    back = read_checkpoint(path)
    assert set(back) == set(buffers)
    for name, arr in buffers.items():
        np.testing.assert_array_equal(back[name], np.asarray(arr, np.float32))


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.olck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigError):
        read_checkpoint(path)


def _checkpoint_bytes(tmp_path):
    buffers = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
               "b": np.float32(1.5)}
    path = tmp_path / "valid.olck"
    write_checkpoint(path, buffers)
    return path.read_bytes()


def test_checkpoint_every_truncation_rejected(tmp_path):
    raw = _checkpoint_bytes(tmp_path)
    path = tmp_path / "cut.olck"
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(ConfigError, match="cut.olck"):
            read_checkpoint(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ConfigError):
        read_checkpoint(path)


def test_checkpoint_bad_utf8_name_rejected(tmp_path):
    raw = _checkpoint_bytes(tmp_path)
    # The first buffer ("b") has its one-byte name right after the
    # 10-byte header and the 2-byte name length.
    assert raw[12:13] == b"b"
    path = tmp_path / "bad_name.olck"
    path.write_bytes(raw[:12] + b"\xff" + raw[13:])
    with pytest.raises(ConfigError, match="UTF-8"):
        read_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=128), st.booleans())
def test_checkpoint_garbage_after_magic_raises_config_error(tmp_path, tail,
                                                            keep_version):
    head = MAGIC + (struct.pack("<H", VERSION) if keep_version else b"")
    path = tmp_path / "fuzz.olck"
    path.write_bytes(head + tail)
    try:
        read_checkpoint(path)
    except ConfigError:
        pass

