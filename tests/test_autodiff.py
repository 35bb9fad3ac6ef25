"""Gradient, optimizer, and checkpoint tests for the numeric core."""

import os
import signal
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import (TOY_DENOISER_CONFIG, bits, check_grads,
                      conv2d_col2im_reference, conv2d_reference,
                      layer_norm_reference, rel_err, silu_reference,
                      upsample2x_backward_reference)

from rangegen import autodiff as ad
from rangegen import backend, diffusion
from rangegen.checkpoint import MAGIC, VERSION, read_checkpoint, write_checkpoint
from rangegen.denoiser import init_denoiser
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
    for fn in (ad.exp, ad.tanh, ad.silu, ad.softplus):
        check_grads(lambda t, fn=fn: ad.tsum(fn(t)), [x], tol=1e-5)
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


def _conv_reference(x, w, b, stride):
    """Direct sum over (c, i, j) of each zero-padded (rows) and circularly
    padded (columns) window: the definition conv2d must match."""
    O, C, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (pw, pw)), mode="wrap")
    xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (0, 0)))
    B, _, H, W = x.shape
    Hs, Ws = len(range(0, H, stride)), len(range(0, W, stride))
    out = np.zeros((B, O, Hs, Ws))
    for n in range(B):
        for o in range(O):
            for h in range(Hs):
                for v in range(Ws):
                    win = xp[n, :, h * stride : h * stride + kh,
                             v * stride : v * stride + kw]
                    out[n, o, h, v] = (win * w[o]).sum() + b[o]
    return out


# (kernel, stride, width): 3x3 and 1x1 kernels, stride 1 and 2, and an odd
# width at stride 2.
CONV_CASES = [(3, 1, 6), (3, 2, 8), (3, 2, 7), (1, 1, 6), (1, 2, 7)]


@pytest.mark.parametrize("k, stride, W", CONV_CASES)
def test_conv2d_matches_direct_sum(k, stride, W):
    rng = np.random.default_rng(k * 100 + stride * 10 + W)
    x = rng.standard_normal((2, 3, 5, W))
    w = rng.standard_normal((4, 3, k, k))
    b = rng.standard_normal(4)
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride=stride)
    np.testing.assert_allclose(out.data, _conv_reference(x, w, b, stride),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k, stride, W", CONV_CASES)
@pytest.mark.parametrize("seed", range(4))
def test_conv2d_batched_weighted_grads(seed, k, stride, W):
    # B = 2 and a random upstream gradient, so a batch or channel mix-up in
    # the column layout cannot cancel out.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 5, W))
    w = rng.standard_normal((4, 3, k, k))
    b = rng.standard_normal(4)
    weight = rng.standard_normal((2, 4, len(range(0, 5, stride)),
                                  len(range(0, W, stride))))
    check_grads(
        lambda xx, ww, bb: ad.tsum(ad.mul(ad.conv2d(xx, ww, bb, stride=stride),
                                          weight)),
        [x, w, b], tol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_channel_axis_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4, 5))
    g = rng.standard_normal(3)
    b = rng.standard_normal(3)
    weight = rng.standard_normal((2, 3, 4, 5))
    check_grads(
        lambda t, gg, bb: ad.tsum(ad.mul(ad.layer_norm(t, gg, bb, axis=1),
                                         weight)),
        [x, g, b], tol=1e-5)


def _composed_layer_norm(x, gain, bias, axis, eps=1e-5):
    """Layer norm built primitive by primitive: the reference for the fused op."""
    shape = [1] * x.data.ndim
    shape[axis] = x.data.shape[axis]
    mu = ad.tmean(x, axis=axis, keepdims=True)
    xc = x - mu
    var = ad.tmean(ad.mul(xc, xc), axis=axis, keepdims=True)
    inv = ad.power(ad.add(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv), ad.reshape(gain, shape)),
                  ad.reshape(bias, shape))


@pytest.mark.parametrize("axis, shape", [(1, (2, 5, 3, 4)), (-1, (3, 4, 7))])
def test_layer_norm_matches_composed_formula(axis, shape):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) * 3.0 + 1.5
    n = shape[axis]
    g, b = rng.standard_normal(n), rng.standard_normal(n)
    weight = rng.standard_normal(shape)
    grads = []
    for fn in (ad.layer_norm, _composed_layer_norm):
        ts = [ad.Tensor(a, requires_grad=True) for a in (x, g, b)]
        out = fn(*ts, axis=axis)
        ad.tsum(ad.mul(out, weight)).backward()
        grads.append((out.data, *[t.grad for t in ts]))
    for fused, composed in zip(*grads):
        np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)


def test_sigmoid_extremes_raise_no_floating_point_warning():
    for dtype in (np.float64, np.float32):
        x = np.array([-1e4, -50.0, -0.0, 0.0, 50.0, 1e4], dtype=dtype)
        g = np.array([1.0, -2.0, 0.5, -0.0, 3.0, -1.0], dtype=dtype)
        with np.errstate(all="raise"):
            s = backend._sigmoid_np(x)
            t = ad.Tensor(x, requires_grad=True)
            ad.tsum(ad.silu(t)).backward()
            u = ad.Tensor(x, requires_grad=True)
            ad.silu(u)._backward(g)
        assert s.dtype == dtype
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert s[2] == s[3] == 0.5 and s[0] == 0.0 and s[-1] == 1.0
        assert np.all(np.isfinite(t.grad))
        # The gate recomputed in backward gives the bits of the formula on
        # the forward pass's gate.
        assert np.array_equal(bits(t.grad), bits(1.0 * (s + x * s * (1.0 - s))))
        assert np.array_equal(bits(u.grad), bits(g * (s + x * s * (1.0 - s))))


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
# Hot-path kernels: bit-identical to their plain definitions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ph, pw", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("stride", [1, 2])
def test_pad_conv_and_im2col_match_np_pad_reference(ph, pw, stride):
    rng = np.random.default_rng(ph * 10 + pw * 2 + stride)
    x = rng.standard_normal((2, 3, 5, 7)).astype(np.float32)
    ref = np.pad(x, ((0, 0), (0, 0), (0, 0), (pw, pw)), mode="wrap")
    ref = np.pad(ref, ((0, 0), (0, 0), (ph, ph), (0, 0)))
    xp = backend._pad_conv(x, ph, pw)
    assert xp.dtype == x.dtype and xp.flags.c_contiguous
    np.testing.assert_array_equal(xp, ref)
    kh, kw = 2 * ph + 1, 2 * pw + 1
    win = np.lib.stride_tricks.sliding_window_view(ref, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    B, C, Hs, Ws = win.shape[:4]
    ref_cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(B, C * kh * kw, Hs * Ws)
    cols = backend._im2col(xp, kh, kw, stride)
    assert cols.flags.c_contiguous
    np.testing.assert_array_equal(cols, ref_cols)


def _signed(rng, shape, dtype):
    """Normal values of which about a quarter are +0.0 and a quarter -0.0."""
    a = rng.standard_normal(shape)
    u = rng.random(shape)
    a[u < 0.5] = 0.0
    a[u < 0.25] = -0.0
    return a.astype(dtype)


def _layout(a, how):
    """`a` in memory order `how`: C, F (all axes reversed), channels last
    (as after a transpose), or a channel slice of a larger C-ordered array
    (as concat's backward hands out)."""
    if how == "F":
        return np.asfortranarray(a)
    if how == "transposed":
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if how == "channel_slice":
        return np.concatenate([a, a], axis=1)[:, a.shape[1]:]
    return a


def _conv_run(op, x, w, b, stride, g):
    """Output and x, w, b gradients of one conv op node fed upstream `g`."""
    ts = [ad.Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = op(*ts, stride=stride)
    out._backward(g)
    return [out.data] + [t.grad for t in ts]


def _conv_case(seed, k, stride, W, dtype, layout="C", B=2, C=3, H=5, O=4):
    rng = np.random.default_rng(seed)
    x = _signed(rng, (B, C, H, W), dtype)
    w = _signed(rng, (O, C, k, k), dtype)
    b = _signed(rng, (O,), dtype)
    g = _signed(rng, (B, O, len(range(0, H, stride)), len(range(0, W, stride))),
                dtype)
    g[:, :, 0] = -0.0  # rows and a channel whose every term is a signed zero
    g[:, 1] = -0.0
    return x, w, b, _layout(g, layout)


# For the blocked inputs below: one batch item's shape (C, H, W) and O per
# kernel size at which the row tiles and channel blocks stay above 10^6
# multiply-adds each, as the 16 MiB blocks of a training step do, and three
# rows of the input gradient's columns (O*k*k*W each) fit the block limit.
# Smaller products may go to a BLAS kernel that rounds a row differently
# when the rows around it change.
_BIG_ITEM = {1: ((32, 32, 384), 64), 3: ((11, 48, 384), 16)}


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("W", [7, 8, 64, "batch", "item"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_reference_lowering_bitwise(monkeypatch, stride, k, W,
                                                   dtype, layout):
    # W is an image width that fits one block, or a block limit below the
    # columns of the whole batch ("batch": five small items, two per block
    # of the largest lowering) or of one item ("item": row tiles and channel
    # blocks). Blocked, the last block is ragged and every block's copied
    # columns stay within the limit.
    split = W if W in ("batch", "item") else None
    B, C, H, O = 2, 3, 5, 4
    if split == "batch":
        B, W = 5, 64
    elif split == "item":
        (C, H, W), O = _BIG_ITEM[k]
    x, w, b, g = _conv_case(W + 10 * k + stride, k, stride, W, dtype, layout,
                            B=B, C=C, H=H, O=O)
    ref = _conv_run(conv2d_reference, x, w, b, stride, g)
    seen, copied = [], []
    if split:
        # Columns per item: the forward's and the weight gradient's, and the
        # input gradient's (over the dilated gradient, none for a 1x1 kernel).
        Hs, Ws = len(range(0, H, stride)), len(range(0, W, stride))
        unit = k * k * np.dtype(dtype).itemsize
        item = C * Hs * Ws * unit
        if split == "batch":
            limit = 2 * max(item, O * H * W * unit if k > 1 else 0)
        else:
            limit = 2 * item // 5
        monkeypatch.setattr(backend, "_BLOCK_BYTES", limit)
        shipped_blocks, shipped_im2col = backend._blocks, backend._im2col

        def recorded_blocks(*args):
            seen.append(list(shipped_blocks(*args)))
            return seen[-1]

        def recorded_im2col(xp, *args):
            cols = shipped_im2col(xp, *args)
            if not np.may_share_memory(cols, xp):  # 1x1 columns: a view
                copied.append(cols.nbytes)
            return cols

        monkeypatch.setattr(backend, "_blocks", recorded_blocks)
        monkeypatch.setattr(backend, "_im2col", recorded_im2col)
    got = _conv_run(ad.conv2d, x, w, b, stride, g)
    for a, r in zip(got, ref):
        assert a.dtype == r.dtype and a.shape == r.shape
        assert np.array_equal(bits(a), bits(r))
    if split:
        assert max(copied, default=0) <= limit
        assert copied or k == stride == 1
        forward, wgrad, xgrad = seen
        if split == "batch":
            # Whole items only; the largest lowering takes two per block.
            assert all(len({bs.start for bs, _ in blk}) == len(blk)
                       for blk in seen)
            assert max(([bs.stop for bs, _ in blk] for blk in seen),
                       key=len) == [2, 4, 6]
        else:
            assert len({cs.stop - cs.start for _, cs in wgrad}) == 2
            assert len(forward) > 1 or k == stride == 1
            assert len(xgrad) > 1 or k == 1


@pytest.mark.parametrize("W", [7, 8, 64])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_input_grad_matches_col2im(stride, k, W):
    # The adjoint convolution of the dilated gradient gives the input
    # gradient that scattering w^T @ g back onto the padded input does.
    x, w, b, g = _conv_case(W + 10 * k + stride, k, stride, W, np.float64)
    _, dx, _, _ = _conv_run(ad.conv2d, x, w, b, stride, g)
    oracle = conv2d_col2im_reference(w, g, *x.shape[2:], stride)
    assert rel_err(dx, oracle) <= 1e-12


@pytest.mark.parametrize("first_bigger", [False, True])
def test_conv2d_interleaved_backward_keeps_gradients(first_bigger):
    # Conv A's backward runs after conv B's forward and backward; A keeps
    # nothing that B's calls write, so its gradients are unchanged.
    small = _conv_case(1, 3, 1, 8, np.float32)
    big = _conv_case(2, 3, 2, 64, np.float32)
    case_a, case_b = (big, small) if first_bigger else (small, big)
    stride_a, stride_b = (2, 1) if first_bigger else (1, 2)
    alone_a = _conv_run(ad.conv2d, *case_a[:3], stride_a, case_a[3])
    alone_b = _conv_run(ad.conv2d, *case_b[:3], stride_b, case_b[3])

    ta = [ad.Tensor(a, requires_grad=True) for a in case_a[:3]]
    out_a = ad.conv2d(*ta, stride=stride_a)
    tb = [ad.Tensor(a, requires_grad=True) for a in case_b[:3]]
    out_b = ad.conv2d(*tb, stride=stride_b)
    out_b._backward(case_b[3])
    out_a._backward(case_a[3])
    for out, ts, alone in ((out_a, ta, alone_a), (out_b, tb, alone_b)):
        for a, r in zip([out.data] + [t.grad for t in ts], alone):
            assert np.array_equal(bits(a), bits(r))


class _Libc:
    """A C library whose `mallopt` records each call and accepts those of
    the parameters in `accepted`."""

    def __init__(self, accepted):
        self.calls, self.accepted = [], accepted

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return int(param in self.accepted)


@pytest.mark.parametrize("accepted, calls", [
    ((-3, -1), [(-3, 32 << 20), (-1, 128 << 20)]),
    ((-1,), [(-3, 32 << 20)]),
    ((), [(-3, 32 << 20)])])
def test_memory_policy_sets_trim_threshold_only_after_mmap_threshold(
        accepted, calls):
    # M_MMAP_THRESHOLD (-3) first; M_TRIM_THRESHOLD (-1) only if that was
    # accepted, since the trim threshold alone would pin glibc's mmap
    # threshold at 128 KiB.
    libc = _Libc(accepted)
    backend._keep_freed_memory(libc)
    assert libc.calls == calls


def test_memory_policy_without_mallopt_does_nothing():
    backend._keep_freed_memory(object())  # another C library: no call, no error


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["C", "channel_slice", "F", "transposed"])
def test_upsample2x_backward_matches_reshape_sum_bitwise(dtype, layout):
    # numpy's reshape-sum associates in g's memory order; the strided adds
    # always take its C-order association and give a C-ordered gradient.
    rng = np.random.default_rng(5)
    g = _signed(rng, (2, 6, 8, 16), dtype)
    g[:, :, :2] = -0.0  # whole 2x2 blocks of -0.0 sum to +0.0
    ref = upsample2x_backward_reference(g)
    x = ad.Tensor(np.zeros((2, 6, 4, 8), dtype), requires_grad=True)
    ad.upsample2x(x)._backward(_layout(g, layout))
    assert x.grad.dtype == dtype and x.grad.flags.c_contiguous
    assert np.array_equal(bits(x.grad), bits(ref))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [1, -1])
@pytest.mark.parametrize("x_layout", ["C", "transposed"])
@pytest.mark.parametrize("g_layout", ["C", "F", "transposed", "channel_slice"])
def test_layer_norm_input_gradient_matches_closed_form_bitwise(
        dtype, axis, x_layout, g_layout):
    # Bits and memory layout of the literal closed-form expression.
    rng = np.random.default_rng(7)
    shape = (2, 6, 5, 7)
    x = _layout(rng.standard_normal(shape).astype(dtype), x_layout)
    gy = _layout(_signed(rng, shape, dtype), g_layout)
    n = shape[axis]
    gain = rng.standard_normal(n).astype(dtype)
    t = ad.Tensor(x, requires_grad=True)
    ad.layer_norm(t, ad.Tensor(gain), ad.Tensor(np.zeros(n, dtype)),
                  axis=axis)._backward(gy)
    feat = [1] * 4
    feat[axis] = n
    xhat = x - x.mean(axis=axis, keepdims=True)
    inv = (xhat * xhat).mean(axis=axis, keepdims=True)
    inv += 1e-5
    inv **= -0.5
    xhat *= inv
    d = gy * gain.reshape(feat)
    ref = inv * (d - d.mean(axis=axis, keepdims=True)
                 - xhat * (d * xhat).mean(axis=axis, keepdims=True))
    assert t.grad.strides == ref.strides
    assert np.array_equal(bits(t.grad), bits(ref))


# ---------------------------------------------------------------------------
# Row tiles of the memory-bound ops: the bits and layout of the whole-array op
# ---------------------------------------------------------------------------

def _spy_tiles(monkeypatch):
    """Record the rows of every tile `_each_tile` runs, a range, or ... for
    a whole array."""
    seen = []
    each_tile = backend._each_tile

    def spy(fn, arrays, axis, nbytes):
        whole = nbytes < backend._TILE_BYTES or axis is None or axis < 0
        start = arrays[0].__array_interface__["data"][0]

        def record(*parts):
            if whole:
                seen.append(...)
            else:
                first = (parts[0].__array_interface__["data"][0] - start
                         ) // arrays[0].strides[axis]
                seen.append(range(first, first + parts[0].shape[axis]))
            fn(*parts)
        each_tile(record, arrays, axis, nbytes)

    monkeypatch.setattr(backend, "_each_tile", spy)
    return seen


def _whole_and_tiled(monkeypatch, run, floor):
    """run() inline, then in tiles with the floor at `floor` bytes; checks
    that the second run split into tiles of unequal length, so the last
    tile was ragged."""
    seen = _spy_tiles(monkeypatch)
    monkeypatch.setattr(backend, "_TILE_BYTES", float("inf"))
    whole = run()
    assert all(i is ... for i in seen)
    seen.clear()
    monkeypatch.setattr(backend, "_TILE_BYTES", floor)
    tiled = run()
    assert len({len(rows) for rows in seen if rows is not ...}) >= 2, \
        "no ragged tile"
    return whole, tiled


def _assert_same_arrays(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.strides == b.strides
        assert np.array_equal(bits(a), bits(b))


def _node_run(op, arrays, g, **kw):
    """Output and input gradients of one op node fed upstream `g`."""
    ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts, **kw)
    out._backward(g)
    return [out.data] + [t.grad for t in ts]


# (B, C, H, W) with H = 11 rows: a floor at the array's own size gives tiles
# of 2 rows and a last one of 1.
_TILE_SHAPE = (2, 6, 11, 7)
_LAYOUTS = ["C", "F", "transposed", "channel_slice"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("g_layout", _LAYOUTS)
def test_silu_tiles_match_whole_bitwise(monkeypatch, dtype, g_layout):
    rng = np.random.default_rng(11)
    x = _signed(rng, _TILE_SHAPE, dtype)
    g = _layout(_signed(rng, _TILE_SHAPE, dtype), g_layout)
    whole, tiled = _whole_and_tiled(
        monkeypatch, lambda: _node_run(ad.silu, [x], g), x.nbytes)
    _assert_same_arrays(tiled, whole)


def _norm_case(seed, dtype, axis, g_layout):
    rng = np.random.default_rng(seed)
    x = _signed(rng, _TILE_SHAPE, dtype)
    x[0, :, 0] = -0.0  # whole normalized vectors of signed zeros
    n = _TILE_SHAPE[axis]
    gain = _signed(rng, (n,), dtype)
    bias = _signed(rng, (n,), dtype)
    g = _layout(_signed(rng, _TILE_SHAPE, dtype), g_layout)
    return [x, gain, bias], g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [1, -1])
@pytest.mark.parametrize("silu", [False, True])
@pytest.mark.parametrize("g_layout", _LAYOUTS)
def test_layer_norm_tiles_match_whole_bitwise(monkeypatch, dtype, axis, silu,
                                              g_layout):
    arrays, g = _norm_case(12, dtype, axis, g_layout)
    whole, tiled = _whole_and_tiled(
        monkeypatch,
        lambda: _node_run(ad.layer_norm, arrays, g, axis=axis, silu=silu),
        arrays[0].nbytes)
    _assert_same_arrays(tiled, whole)


def test_layer_norm_tiles_along_the_sequence_axis(monkeypatch):
    # The directional scan's norm: (B, L, C) over C, tiled along L.
    rng = np.random.default_rng(13)
    x = _signed(rng, (4, 11, 8), np.float32)
    gain, bias = _signed(rng, (2, 8), np.float32)
    g = _signed(rng, x.shape, np.float32)
    whole, tiled = _whole_and_tiled(
        monkeypatch, lambda: _node_run(ad.layer_norm, [x, gain, bias], g),
        x.nbytes)
    _assert_same_arrays(tiled, whole)


@pytest.mark.parametrize("silu", [False, True])
@pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
def test_layer_norm_tiles_match_whole_with_a_wider_bias(monkeypatch, silu,
                                                        g_dtype):
    # float32 x and gain with a float64 bias: `y += b` keeps float32 inline,
    # and the tiles' outputs must take the same dtypes.
    arrays, g = _norm_case(15, np.float32, 1, "C")
    arrays[2] = arrays[2].astype(np.float64)
    whole, tiled = _whole_and_tiled(
        monkeypatch,
        lambda: _node_run(ad.layer_norm, arrays, g.astype(g_dtype),
                          axis=1, silu=silu),
        arrays[0].nbytes)
    _assert_same_arrays(tiled, whole)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [1, -1])
@pytest.mark.parametrize("g_layout", _LAYOUTS)
@pytest.mark.parametrize("floor", ["inline", "tiled"])
def test_fused_norm_silu_matches_composition_bitwise(monkeypatch, dtype, axis,
                                                     g_layout, floor):
    # Forward and all three gradients of the fused op, inline or in tiles,
    # against silu(layer_norm(...)) as two inline nodes.
    arrays, g = _norm_case(14, dtype, axis, g_layout)

    def composed():
        ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
        y = ad.layer_norm(*ts, axis=axis)
        z = ad.silu(y)
        z._backward(g)
        y._backward(y.grad)
        return [z.data] + [t.grad for t in ts]

    def fused():
        return _node_run(ad.layer_norm, arrays, g, axis=axis, silu=True)

    ref, _ = _whole_and_tiled(monkeypatch, composed, arrays[0].nbytes)
    monkeypatch.setattr(backend, "_TILE_BYTES", float("inf") if floor == "inline"
                        else arrays[0].nbytes)
    _assert_same_arrays(fused(), ref)


@pytest.mark.parametrize("x_layout", ["C", "transposed"])
def test_fused_norm_silu_matches_references_at_elision_size(x_layout):
    # From 256 KiB numpy computes silu's backward g * (...) in place in the
    # temporary, so the gradient takes x's layout (channels last after a
    # transpose), and the norm's gain and bias sums read it in that order.
    # The fused op, inline here, must keep those bits.
    rng = np.random.default_rng(18)
    shape = (2, 16, 32, 64)
    x = _layout(_signed(rng, shape, np.float32), x_layout)
    gain, bias = _signed(rng, (2, 16), np.float32)
    g = _signed(rng, shape, np.float32)
    assert g.nbytes >= 256 << 10
    ts = [ad.Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    z = silu_reference(layer_norm_reference(*ts, axis=1))
    y = z._node._parents[0]
    z._backward(g)
    y._backward(y.grad)
    ref = [z.data] + [t.grad for t in ts]
    got = _node_run(ad.layer_norm, [x, gain, bias], g, axis=1, silu=True)
    _assert_same_arrays(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_layout", ["C", "transposed"])
@pytest.mark.parametrize("stride", [1, 2])
def test_pad_conv_and_im2col_tiles_match_whole_bitwise(monkeypatch, dtype,
                                                       x_layout, stride):
    rng = np.random.default_rng(15)
    # 9 channels: a floor at the padded input's size gives tiles of 5 rows
    # and a last one of 1; at one item's columns, tiles of 4 channels and a
    # last one of 1.
    x = _layout(_signed(rng, (2, 9, 11, 7), dtype), x_layout)
    xp_whole, xp_tiled = _whole_and_tiled(
        monkeypatch, lambda: backend._pad_conv(x, 1, 1), (2 * 9 * 13 * 9) * x.itemsize)
    _assert_same_arrays([xp_tiled], [xp_whole])
    cols_bytes = backend._im2col(xp_whole, 3, 3, stride).nbytes // 2
    cols_whole, cols_tiled = _whole_and_tiled(
        monkeypatch, lambda: backend._im2col(xp_whole, 3, 3, stride).copy(),
        cols_bytes)
    _assert_same_arrays([cols_tiled], [cols_whole])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("first", ["C", "transposed"])
@pytest.mark.parametrize("g_layout", _LAYOUTS)
def test_accum_tiles_match_whole_bitwise(monkeypatch, dtype, first, g_layout):
    rng = np.random.default_rng(16)
    g1 = _layout(_signed(rng, _TILE_SHAPE, dtype), first)
    g2 = _layout(_signed(rng, _TILE_SHAPE, dtype), g_layout)

    def run():
        t = ad.Tensor(np.zeros(_TILE_SHAPE, dtype), requires_grad=True)
        ad._accum(t, g1)
        ad._accum(t, g2)
        return [t.grad]

    whole, tiled = _whole_and_tiled(monkeypatch, run, g1.nbytes)
    _assert_same_arrays(tiled, whole)


def test_tile_pool_never_exceeds_the_cores():
    cores = len(os.sched_getaffinity(0))
    pool = backend._tile_pool()
    assert 1 <= backend._threads <= cores
    if pool is None:
        assert backend._threads == 1
    else:
        assert pool._max_workers == backend._threads - 1
    # A tiled op starts no thread beyond the pool's.
    x = np.ones((4, 32, 64, 64), np.float32)
    assert x.nbytes >= backend._TILE_BYTES
    ad.silu(ad.Tensor(x))
    workers = [t for t in threading.enumerate()
               if t.name.startswith("rangegen-tile")]
    assert len(workers) + 1 <= cores or not workers


def _gemm_case():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((64, 576)).astype(np.float32)
    b = rng.standard_normal((576, 4096)).astype(np.float32)
    return a, b


def _split_gemms_or_skip():
    backend._tile_pool()
    if backend._pool is None:
        pytest.skip("one core: no workers to split the GEMMs across")
    if not backend._split_gemms:
        pytest.skip("numpy's BLAS is not an OpenBLAS: GEMMs are not split")


def _spy_gemm_pieces(monkeypatch):
    """Record the (a, b, out) operands of every piece of every product that
    `_gemm` shares out in more than one piece."""
    pieces = []
    share = backend._share

    def spy(fn, jobs):
        if len(jobs) > 1:
            pieces.extend(jobs)
        share(fn, jobs)

    monkeypatch.setattr(backend, "_share", spy)
    return pieces


# (a, b) shapes and whether _gemm splits them on more than one thread: the
# head's 1x1 weight gradient, whose halves would fall under OpenBLAS's
# small-matrix kernel; the stacked scan-weight gradient, whose columns
# would too; and a conv forward product with a broadcast kernel matrix.
_GEMM_CASES = {
    "head_wgrad": ((32, 16384), (16384, 2), False),
    "scan_wgrad": ((16, 32, 1024), (16, 1024, 32), True),
    "conv_forward": ((32, 288), (1, 288, 8192), True),
    "wide": ((64, 576), (576, 4096), True),
}


@pytest.mark.parametrize("case", list(_GEMM_CASES))
def test_gemm_pieces_keep_the_bits_of_the_whole_product(monkeypatch, case):
    # OpenBLAS computes every piece with the kernel it gives the whole
    # product, so each output element has the same bits with OpenBLAS on
    # one thread, with OpenBLAS on its own threads and split by _gemm.
    _split_gemms_or_skip()
    sa, sb, splits = _GEMM_CASES[case]
    rng = np.random.default_rng(23)
    a = rng.standard_normal(sa).astype(np.float32)
    b = rng.standard_normal(sb).astype(np.float32)
    set_threads = backend._openblas()
    try:
        set_threads(backend._threads)
        own = np.matmul(a, b)
    finally:
        set_threads(1)
    one = np.matmul(a, b)
    pieces = _spy_gemm_pieces(monkeypatch)
    got = backend._gemm(a, b)
    assert got.dtype == own.dtype and got.strides == own.strides
    assert np.array_equal(bits(got), bits(own))
    assert np.array_equal(bits(one), bits(own))
    assert bool(pieces) == splits
    m, k, n = sa[-2], sa[-1], sb[-1]
    for pa, pb, po in pieces:
        if a.ndim == 3:  # runs of whole products
            assert pa.shape[-2:] == (m, k) and pb.shape[-2:] == (k, n)
        else:
            pm, pn = po.shape[-2:]
            assert min(pm, pn) >= 2 and pm * pn * k > backend._SMALL_GEMM


def test_gemm_without_openblas_makes_no_pool_and_does_not_split(monkeypatch):
    # Where _openblas() finds nothing, OpenBLAS's threads are left alone and
    # every product runs whole; and _gemm never makes the pool itself, so
    # a process with no tiled op never pays the workers' handoff.
    monkeypatch.setattr(backend, "_openblas", lambda: None)
    monkeypatch.setattr(backend, "_threads", 0)
    monkeypatch.setattr(backend, "_pool", None)
    monkeypatch.setattr(backend, "_split_gemms", False)
    pieces = _spy_gemm_pieces(monkeypatch)
    a, b = _gemm_case()
    ref = np.matmul(a, b)
    assert np.array_equal(bits(backend._gemm(a, b)), bits(ref))
    assert backend._pool is None and backend._threads == 0
    pool = backend._tile_pool()
    try:
        assert not backend._split_gemms
        assert np.array_equal(bits(backend._gemm(a, b)), bits(ref))
    finally:
        if pool is not None:
            pool.shutdown()
    assert not pieces


def test_gemms_from_two_threads_at_once_complete():
    _split_gemms_or_skip()
    a, b = _gemm_case()
    ref = np.matmul(a, b)
    results = []

    def work():
        for _ in range(10):
            results.append(backend._gemm(a, b))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 20
    assert all(np.array_equal(bits(r), bits(ref)) for r in results)


def test_forked_child_runs_gemms_on_openblas_threads():
    # The workers do not exist in a forked child: it drops the pool, and
    # _gemm runs each product whole on OpenBLAS without making a new pool.
    _split_gemms_or_skip()
    a, b = _gemm_case()
    ref = np.matmul(a, b)
    pid = os.fork()
    if pid == 0:
        ok = (backend._pool is None
              and np.array_equal(bits(backend._gemm(a, b)), bits(ref))
              and backend._pool is None)
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


def test_tiles_run_once_each_under_thread_contention(monkeypatch):
    # More workers than cores and a short switch interval: every tile still
    # runs exactly once and the result keeps its bits.
    rng = np.random.default_rng(17)
    x = _signed(rng, (2, 6, 101, 7), np.float32)
    ref = ad.silu(ad.Tensor(x)).data
    seen = _spy_tiles(monkeypatch)
    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(backend, "_pool", pool)
    monkeypatch.setattr(backend, "_threads", 5)
    monkeypatch.setattr(backend, "_TILE_BYTES", 256)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            seen.clear()
            out = ad.silu(ad.Tensor(x)).data
            assert sorted(r for rows in seen for r in rows) == list(range(101))
            assert np.array_equal(bits(out), bits(ref))
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)


def _scan_reference(abar, q, g):
    """The recurrence and its backward as plain per-step loops."""
    B, L, C = q.shape
    h = np.empty_like(q)
    prev = np.zeros((B, C), dtype=q.dtype)
    for s in range(L):
        prev = abar[:, s] * prev + q[:, s]
        h[:, s] = prev
    dabar, dq = np.zeros_like(q), np.empty_like(q)
    acc = np.zeros((B, C), dtype=q.dtype)
    for s in range(L - 1, -1, -1):
        acc = g[:, s] + acc
        dq[:, s] = acc
        if s > 0:
            dabar[:, s] = acc * h[:, s - 1]
        acc = abar[:, s] * acc
    return h, dabar, dq


@pytest.mark.parametrize("L", [1, 2, 9])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scan_kernels_match_sequential_loop(L, dtype):
    rng = np.random.default_rng(L)
    abar, q, g = (rng.uniform(0.1, 0.99, (3, L, 4)).astype(dtype),
                  rng.standard_normal((3, L, 4)).astype(dtype),
                  rng.standard_normal((3, L, 4)).astype(dtype))
    h_ref, dabar_ref, dq_ref = _scan_reference(abar, q, g)
    h = backend.scan_forward(abar, q)
    # The upstream gradient may arrive as a non-contiguous view.
    g_view = np.asfortranarray(g)
    dabar, dq = backend.scan_backward(abar, h, g_view)
    for got, ref in ((h, h_ref), (dabar, dabar_ref), (dq, dq_ref)):
        assert got.dtype == dtype and got.flags.c_contiguous
        assert np.array_equal(got, ref)


def test_further_gradient_leaves_shared_first_gradient_unchanged():
    rng = np.random.default_rng(0)
    a = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    g = rng.standard_normal((2, 3))
    ad.add(a, b)._backward(g)  # both parents take g as their first gradient
    more = rng.standard_normal((2, 3))
    ad._accum(a, more)
    np.testing.assert_array_equal(b.grad, g)
    np.testing.assert_array_equal(a.grad, g + more)


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


def test_backward_keeps_leaf_gradients_and_frees_the_others():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = ad.mul(x, x)
    loss = ad.tsum(ad.add(h, x))
    loss.backward()
    np.testing.assert_array_equal(x.grad, [3.0, 5.0])
    assert h.grad is None and loss.grad is None


def test_output_tensors_keep_the_tracer_contract(monkeypatch):
    # perfbench's span tracer wraps each public op, replaces the
    # `_backward` of every output it returns and counts it as one tape
    # node. A replaced closure must be the one backward() calls, once per
    # node; the tape must reach every node; and an output that records no
    # node must say so.
    wrapped, calls = [], []

    def traced(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            bwd = out._backward if isinstance(out, ad.Tensor) else None
            # A composite op (softmax) returns its last primitive's output.
            if bwd is not None and not hasattr(bwd, "traced"):
                def timed(g):
                    calls.append(timed)
                    bwd(g)
                timed.traced = True
                out._backward = timed
                assert out._backward is timed
                wrapped.append(timed)
            return out
        return wrapper

    for name, fn in list(vars(ad).items()):
        if (callable(fn) and not name.startswith("_")
                and getattr(fn, "__module__", None) == ad.__name__
                and not isinstance(fn, type)):
            monkeypatch.setattr(ad, name, traced(fn))
    cfg = TOY_DENOISER_CONFIG
    params = init_denoiser(cfg, np.random.default_rng(0), dtype=np.float32)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, (2, 2, 16, 64)).astype(np.float32)
    zc = rng.standard_normal((2, cfg.token_count, cfg.cond_dim)).astype(
        np.float32)
    loss = diffusion.diffusion_loss(params, cfg, diffusion.cosine_schedule(64),
                                    x0, zc, np.array([0, 1]), rng)
    order = ad._toposort(loss._node)
    assert order[-1] is loss._node and len(wrapped) > 100
    assert sorted(id(n._backward) for n in order) == sorted(map(id, wrapped))
    loss.backward()
    assert sorted(map(id, calls)) == sorted(map(id, wrapped))
    assert all(p.grad is not None for p in params.values())
    plain = ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))))
    assert plain._backward is None and plain._node is None
    assert not plain.requires_grad and plain.grad is None


def test_leaf_owns_a_node_without_parents():
    leaf = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    assert type(leaf._node) is ad._Node and leaf._node._parents == ()
    assert leaf._backward is None and leaf.grad is None
    with pytest.raises(AttributeError):
        setattr(leaf, "requires_grad", False)
    assert leaf.requires_grad
    plain = ad.tsum(ad.Tensor(np.array([1.0, 2.0])))
    plain.backward()
    assert plain._node is None and plain.grad is None


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
    AdamW(lr=0.1, weight_decay=0.0).step({"p": p})
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_adamw_single_step_closed_form():
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = AdamW(lr=0.1, weight_decay=0.0)
    opt.step({"p": p})
    # At step 1 bias correction divides m = (1 - beta1) * g and
    # v = (1 - beta2) * g^2 by exactly those factors, so m_hat = g = 1 and
    # v_hat = g^2 = 1; update = lr * 1 / (1 + eps)
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
        AdamW(lr=0.1, weight_decay=0.0).step({"p": p})


def test_adamw_nan_gradient_leaves_state_untouched():
    a = ad.Tensor(np.array([1.0]), requires_grad=True)
    b = ad.Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW(lr=0.1, weight_decay=0.0)
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
    opt = AdamW(lr=0.1, weight_decay=0.0)
    with pytest.raises(TrainingError):
        opt.step({"a": a, "b": b})
    np.testing.assert_array_equal(a.data, [1.0])
    assert opt.m == {} and opt.v == {} and opt.step_count == 0


def test_adamw_step_count_increments():
    opt = AdamW(lr=0.1, weight_decay=0.0)
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    for expected in (1, 2, 3):
        p.grad = np.array([1.0])
        opt.step({"p": p})
        assert opt.step_count == expected


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

META = {"step": 3, "seed": 0, "lr": 1e-3, "widths": [8, 16], "name": "é"}


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    buffers = {
        "w": rng.standard_normal((3, 4)).astype(np.float32),
        "nested.bias": rng.standard_normal(7).astype(np.float32),
        "scalarish": np.float32(rng.standard_normal(1)),
    }
    path = tmp_path / "state.olck"
    write_checkpoint(path, buffers, META)
    back, meta = read_checkpoint(path)
    assert meta == META
    assert set(back) == set(buffers)
    for name, arr in buffers.items():
        np.testing.assert_array_equal(back[name], np.asarray(arr, np.float32))
    # Key order does not reach the file: the bytes are deterministic.
    again = tmp_path / "again.olck"
    write_checkpoint(again, buffers, dict(reversed(list(META.items()))))
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.olck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigError):
        read_checkpoint(path)


def _checkpoint_bytes(tmp_path):
    buffers = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
               "b": np.float32(1.5)}
    path = tmp_path / "valid.olck"
    write_checkpoint(path, buffers, META)
    return path.read_bytes()


def _meta_end(raw):
    """Offset of the buffer count, just past the metadata section."""
    (meta_len,) = struct.unpack_from("<I", raw, 6)
    return 10 + meta_len


def test_checkpoint_every_truncation_rejected(tmp_path):
    raw = _checkpoint_bytes(tmp_path)
    assert _meta_end(raw) > 20  # cuts land inside the metadata too
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
    # The first buffer ("b") has its one-byte name after the buffer count
    # and the 2-byte name length.
    at = _meta_end(raw) + 4 + 2
    assert raw[at : at + 1] == b"b"
    path = tmp_path / "bad_name.olck"
    path.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
    with pytest.raises(ConfigError, match="UTF-8"):
        read_checkpoint(path)


@pytest.mark.parametrize("version, meta, match", [
    (VERSION, b'{"step": 1', "bad checkpoint metadata"),
    (VERSION, b'{"name": "\xff"}', "bad checkpoint metadata"),
    (VERSION, b"[1, 2]", "not a JSON object"),
    (VERSION, b"[" * 100_000, "bad checkpoint metadata"),
    (1, b"{}", "unsupported OLCK version 1"),
])
def test_checkpoint_bad_meta_or_version_rejected(tmp_path, version, meta,
                                                  match):
    path = tmp_path / "bad_meta.olck"
    path.write_bytes(MAGIC + struct.pack("<HI", version, len(meta)) + meta
                     + struct.pack("<I", 0))
    with pytest.raises(ConfigError, match=match):
        read_checkpoint(path)


class _FailingBuffer:
    """Array-like whose conversion fails, so a write stops partway."""

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("disk went away")


def test_checkpoint_torn_write_keeps_previous_file(tmp_path):
    path = tmp_path / "state.olck"
    write_checkpoint(path, {"w": np.ones(4, np.float32)}, {"step": 1})
    before = path.read_bytes()
    buffers = {"a": np.zeros(1000, np.float32), "b": _FailingBuffer()}
    with pytest.raises(RuntimeError, match="disk went away"):
        write_checkpoint(path, buffers, {"step": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["state.olck"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=128), st.integers(0, 2))
def test_checkpoint_garbage_after_magic_raises_config_error(tmp_path, tail,
                                                            keep):
    # Random bytes after the magic, after the version, or after a valid
    # metadata section.
    raw = _checkpoint_bytes(tmp_path)
    head = raw[: (4, 6, _meta_end(raw))[keep]]
    path = tmp_path / "fuzz.olck"
    path.write_bytes(head + tail)
    try:
        read_checkpoint(path)
    except ConfigError:
        pass
