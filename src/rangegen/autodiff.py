"""Reverse-mode autodiff over dense numpy arrays.

A recorded-tape design: every operation returns a new Tensor holding the
result plus closures that push gradients to its parents. Tensors are
immutable after creation; ``backward()`` from a scalar loss populates
``.grad`` on every reachable tensor flagged ``requires_grad``.

Tests run everything in float64; training uses float32 for speed and so
checkpoints round-trip bit-exactly.
"""

import numpy as np

from . import backend
from .errors import NumericError, ShapeError


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul(other, -1.0))
        return add(self, -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / other)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if id(p) not in seen and p._parents:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
            seen.add(id(p))
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _wrap(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a = _wrap(a, b if isinstance(b, Tensor) else None)
    b = _wrap(b, a)
    data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bwd)


def mul(a, b):
    a = _wrap(a, b if isinstance(b, Tensor) else None)
    b = _wrap(b, a)
    data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bwd)


def power(a, p):
    a = _wrap(a)
    data = a.data ** p

    def bwd(g):
        _accum(a, g * p * a.data ** (p - 1))

    return _make(data, (a,), bwd)


def exp(a):
    a = _wrap(a)
    data = np.exp(a.data)

    def bwd(g):
        _accum(a, g * data)

    return _make(data, (a,), bwd)


def tanh(a):
    a = _wrap(a)
    data = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - data * data))

    return _make(data, (a,), bwd)


def _sigmoid_np(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(a):
    a = _wrap(a)
    s = _sigmoid_np(a.data)
    data = a.data * s

    def bwd(g):
        _accum(a, g * (s + a.data * s * (1.0 - s)))

    return _make(data, (a,), bwd)


def softplus(a):
    a = _wrap(a)
    data = np.logaddexp(0.0, a.data)

    def bwd(g):
        _accum(a, g * _sigmoid_np(a.data))

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return _make(data, (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[i] for i in np.atleast_1d(axis)]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape):
    a = _wrap(a)
    data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(data, (a,), bwd)


def transpose(a, axes):
    a = _wrap(a)
    data = np.transpose(a.data, axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accum(a, np.transpose(g, inv))

    return _make(data, (a,), bwd)


def concat(tensors, axis):
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(data, tuple(tensors), bwd)


def narrow(a, axis, start, length):
    a = _wrap(a)
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = a.data[sl]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        _accum(a, full)

    return _make(data, (a,), bwd)


def embedding(table, idx):
    """Row lookup table[idx] with scatter-add backward into the table."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= table.data.shape[0]:
        raise IndexError(
            f"embedding index out of range [0, {table.data.shape[0]})"
        )
    data = table.data[idx]

    def bwd(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            _accum(table, full)

    return _make(data, (table,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.data.shape))
        _accum(b, _unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), bwd)


def softmax(a, axis=-1):
    a = _wrap(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax: non-finite input")
    m = a.data.max(axis=axis, keepdims=True)
    e = exp(add(a, Tensor(-m)))
    return mul(e, power(tsum(e, axis=axis, keepdims=True), -1.0))


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    mu = tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = tmean(mul(xc, xc), axis=-1, keepdims=True)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(xc, inv), gain), bias)


# ---------------------------------------------------------------------------
# Convolution (zero padding vertically, circular padding horizontally:
# the horizontal image axis is the 360-degree azimuth sweep)
# ---------------------------------------------------------------------------

def _pad_conv(x, ph, pw):
    if pw:
        x = np.pad(x, ((0, 0), (0, 0), (0, 0), (pw, pw)), mode="wrap")
    if ph:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (0, 0)), mode="constant")
    return x


def conv2d(x, w, b=None, stride=1):
    """2D convolution of BCHW input with OCKhKw kernel. Odd kernels only."""
    from .errors import ConfigError

    x = _wrap(x)
    w = _wrap(w)
    kh, kw = w.data.shape[2], w.data.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"conv2d: channel mismatch, input {x.shape} kernel {w.shape}"
        )
    ph, pw = kh // 2, kw // 2
    B, C, H, W = x.data.shape
    xp = _pad_conv(x.data, ph, pw)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    data = np.einsum("bchwij,ocij->bohw", win, w.data, optimize=True)
    parents = [x, w]
    if b is not None:
        b = _wrap(b)
        data = data + b.data[:, None, None]
        parents.append(b)

    def bwd(g):
        if w.requires_grad:
            _accum(w, np.einsum("bohw,bchwij->ocij", g, win, optimize=True))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            Hs, Ws = g.shape[2], g.shape[3]
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * Hs : stride,
                        j : j + stride * Ws : stride] += np.einsum(
                        "bohw,oc->bchw", g, w.data[:, :, i, j], optimize=True
                    )
            dx = dxp[:, :, ph : ph + H, :] if ph else dxp
            if pw:
                core = dx[:, :, :, pw : pw + W].copy()
                core[:, :, :, : pw] += dx[:, :, :, W + pw :]
                core[:, :, :, W - pw :] += dx[:, :, :, :pw]
                dx = core
            _accum(x, dx)

    return _make(data, parents, bwd)


def upsample2x(x):
    """Nearest-neighbor 2x spatial upsampling of a BCHW tensor."""
    x = _wrap(x)
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def bwd(g):
        B, C, H2, W2 = g.shape
        _accum(x, g.reshape(B, C, H2 // 2, 2, W2 // 2, 2).sum(axis=(3, 5)))

    return _make(data, (x,), bwd)


# ---------------------------------------------------------------------------
# Sequential linear recurrence (selective-scan core), backed by the numpy
# kernel pair in `backend`.
# ---------------------------------------------------------------------------

def recurrence(abar, q):
    """h[s] = abar[s] * h[s-1] + q[s] along axis 1 of (B, L, C) tensors."""
    abar, q = _wrap(abar), _wrap(q)
    if abar.data.shape != q.data.shape:
        raise ShapeError(f"recurrence: {abar.shape} vs {q.shape}")
    h = backend.scan_forward(abar.data, q.data)

    def bwd(g):
        dabar, dq = backend.scan_backward(abar.data, h, np.ascontiguousarray(g))
        _accum(abar, dabar)
        _accum(q, dq)

    return _make(h, (abar, q), bwd)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def fan_in_uniform(rng, shape, fan_in, dtype=np.float64):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(
        rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True
    )


def zeros_param(shape, dtype=np.float64):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
