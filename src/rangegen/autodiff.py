"""Reverse-mode autodiff over dense numpy arrays.

A recorded-tape design: every tensor that needs a gradient owns exactly
one tape node (``_Node``): its gradient slot, dtype and shape, its
parents' nodes and the backward closure that pushes a gradient to them.
``Tensor(x, requires_grad=True)`` (a leaf, such as a parameter) makes a
node with no parents and no closure; an operation returns a new Tensor
holding the result and, when one of its operands has a node, a node of
its own. A Tensor's ``requires_grad`` is whether it has a node, and its
``grad`` and ``_backward`` are its node's. A node takes its dtype and
shape when it is made, so code that replaces a leaf's ``data`` (loading
a checkpoint) keeps both. Tensors are immutable after creation;
``backward()`` from a scalar loss populates ``.grad`` on every reachable
leaf. An op's output keeps its gradient only until its closure has
pushed it to the parents; then ``backward()`` sets it back to None, so a
step's intermediate gradients do not pile up.

Tests run everything in float64; training and sampling use float32 for
speed (the sampler runs the network in its parameters' dtype), and
checkpoints round-trip bit-exactly.

Tape lifetime. An op records a node only when one of its operands has
one; otherwise its result is a plain Tensor with no node. The graph
holds exactly what backward reads: a node holds no array, and a closure
captures the arrays its backward reads, the shapes it needs and its
parents' nodes, never a Tensor (the saved-tensor design of PyTorch's
autograd, Paszke et al. 2019). So an activation is freed as soon as the
forward code drops its Tensor, unless some closure reads it, and nothing
is recomputed for it. A tape lives from its forward pass until its
training step ends: the training loop drops the loss after the optimizer
step, checkpointing and logging, so the next forward pass never builds
its graph beside the last one. The sampler needs no gradients, so it
wraps each parameter's array in a plain ``Tensor(p.data)`` (a view,
without ``requires_grad``) and its forward passes record nothing. There
is no global switch for this.

Gradient ownership and layout. ``_accum`` stores a tensor's first
gradient as is, without a copy, when it is C-contiguous and already has
the tensor's dtype; any other first gradient is copied with its layout
kept (numpy's "K" order). Each later gradient is added out of place into
a new buffer of the stored gradient's layout. So a stored gradient may be
shared with another tensor (``add(a, b)`` hands both parents the same
array) or be a view of one, and nothing may write into it: code that
rescales gradients, such as gradient clipping, replaces ``.grad``. The
layout rule is part of the numerics, not only of the speed. Reductions
such as a gradient norm or a bias gradient read memory in layout order,
and an upstream ``g`` may be a transposed view, so building a result in a
C-ordered buffer where the plain expression would follow ``g``'s layout
changes the last bit of later sums.

What a closure keeps. Only what its backward reads, and of an operand
only what the other operands' gradients read: ``add``, ``tsum``,
``reshape``, ``transpose``, ``concat``, ``narrow``, ``embedding`` and
``upsample2x`` keep no operand data, only shapes and dtypes; ``mul`` and
``matmul`` keep each operand whose partner needs a gradient; ``power``,
``silu``, ``softplus``, ``layer_norm`` (its input) and ``conv2d`` (input
and kernel) keep inputs; ``exp``, ``tanh`` and ``recurrence`` keep their
own output (``recurrence`` its ``abar`` too). Beyond that a closure keeps
only what it cannot cheaply rebuild from what it reads (Chen et al. 2016
trade memory for recomputation the same way): ``layer_norm`` keeps its
per-position mean and inverse deviation (1/C of its input) and rebuilds
``xhat``, ``silu`` recomputes its gate, and ``conv2d`` re-pads its input.
A rebuilt value comes from the same expression on the same data, so it
has the bits and layout the forward pass's value had, and no gradient
changes. The fused ``layer_norm(..., silu=True)`` goes one step further
(as InPlace-ABN, Rota Bulò et al. 2018, does for batch norm): it keeps no
norm output at all and rebuilds ``xhat``, the affine output and the gate
from its mean and inverse deviation. ``narrow`` and ``embedding`` build
their C-ordered gradients from the shape and dtype alone.

The numpy kernels the ops run (SiLU, the norm, the convolution lowering,
the scan recurrence) and the worker pool that tiles them are in
``backend``, whose docstring gives their rules.
"""

import numpy as np

from . import backend
from .errors import ConfigError, NumericError, ShapeError


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        # None when no gradient is needed; `_make` sets an op output's.
        self._node = _Node(self.data, (), None) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        # A constant takes this tensor's dtype, as `add` would give it.
        return add(self, mul(_wrap(other, self), -1.0))

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        if self._node is None:
            return
        self._node.grad = np.ones_like(self.data)
        for node in reversed(_toposort(self._node)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # pushed to the parents; free it now


class _Node:
    """A tensor on the tape: its gradient slot, dtype and shape, the nodes
    of its parents that need a gradient, and its backward closure (a leaf
    has neither). It holds no array, so an op output's data lives only as
    long as its Tensor or a closure that reads it."""
    __slots__ = ("grad", "dtype", "shape", "_parents", "_backward")

    def __init__(self, data, parents, backward):
        self.grad = None
        self.dtype = data.dtype
        self.shape = data.shape
        self._parents = parents
        self._backward = backward


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
    """The op's output Tensor, with a node on the tape when any of the
    parents' nodes is not None. `backward` may read only what it
    captured, never a Tensor."""
    out = Tensor(data)
    parents = tuple(filter(None, parents))
    if parents:
        out._node = _Node(out.data, parents, backward)
    return out


def _accum(t, g):
    """Add gradient `g` into `t.grad` for the node t, if any (see the module
    docstring's ownership rule: a C-ordered first gradient of the right
    dtype is stored as is, and nothing ever writes into a stored gradient)."""
    if t is None:
        return
    if t.grad is None:
        if (isinstance(g, np.ndarray) and g.dtype == t.dtype
                and g.flags.c_contiguous):
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.dtype, copy=True)
    else:
        out = np.empty_like(t.grad)
        axis = out.ndim - 2 if np.shape(g) == out.shape else None
        backend._each_tile(np.add, (t.grad, g, out), axis, out.nbytes)
        t.grad = out



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
    na, nb, sa, sb = a._node, b._node, a.data.shape, b.data.shape

    def bwd(g):
        _accum(na, _unbroadcast(g, sa))
        _accum(nb, _unbroadcast(g, sb))

    return _make(a.data + b.data, (na, nb), bwd)


def mul(a, b):
    a = _wrap(a, b if isinstance(b, Tensor) else None)
    b = _wrap(b, a)
    na, nb, sa, sb = a._node, b._node, a.data.shape, b.data.shape
    # Each operand is kept only for its partner's gradient.
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def bwd(g):
        if na is not None:
            _accum(na, _unbroadcast(g * xb, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(g * xa, sb))

    return _make(a.data * b.data, (na, nb), bwd)


def power(a, p):
    a = _wrap(a)
    na, x = a._node, a.data

    def bwd(g):
        _accum(na, g * p * x ** (p - 1))

    return _make(x ** p, (na,), bwd)


def exp(a):
    a = _wrap(a)
    na, data = a._node, np.exp(a.data)

    def bwd(g):
        _accum(na, g * data)

    return _make(data, (na,), bwd)


def tanh(a):
    a = _wrap(a)
    na, data = a._node, np.tanh(a.data)

    def bwd(g):
        _accum(na, g * (1.0 - data * data))

    return _make(data, (na,), bwd)


def silu(a):
    a = _wrap(a)
    na, x = a._node, a.data
    data, = backend._tiled(lambda x, out: (backend._silu_np(x, out[0]),), (x,))

    def bwd(g):
        dx, = backend._tiled(
            lambda x, g, out: (backend._silu_grad_np(g, x, out[0]),), (x, g))
        _accum(na, dx)

    return _make(data, (na,), bwd)


def softplus(a):
    a = _wrap(a)
    na, x = a._node, a.data

    def bwd(g):
        _accum(na, g * backend._sigmoid_np(x))

    return _make(np.logaddexp(0.0, x), (na,), bwd)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    na, shape = a._node, a.data.shape

    def bwd(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(na, np.broadcast_to(gg, shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (na,), bwd)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[i] for i in np.atleast_1d(axis)]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape):
    a = _wrap(a)
    na, old = a._node, a.data.shape

    def bwd(g):
        _accum(na, g.reshape(old))

    return _make(a.data.reshape(shape), (na,), bwd)


def transpose(a, axes):
    a = _wrap(a)
    na, inv = a._node, tuple(np.argsort(axes))

    def bwd(g):
        _accum(na, np.transpose(g, inv))

    return _make(np.transpose(a.data, axes), (na,), bwd)


def concat(tensors, axis):
    tensors = [_wrap(t) for t in tensors]
    nodes = [t._node for t in tensors]
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        for n, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _accum(n, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), nodes,
                 bwd)


def narrow(a, axis, start, length):
    a = _wrap(a)
    na, shape, dtype = a._node, a.data.shape, a.data.dtype
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def bwd(g):
        full = np.zeros(shape, dtype)
        full[sl] = g
        _accum(na, full)

    return _make(a.data[sl], (na,), bwd)


def embedding(table, idx):
    """Row lookup table[idx] with scatter-add backward into the table."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= table.data.shape[0]:
        raise IndexError(
            f"embedding index out of range [0, {table.data.shape[0]})"
        )
    nt, shape, dtype = table._node, table.data.shape, table.data.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        _accum(nt, full)

    return _make(table.data[idx], (nt,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    na, nb, sa, sb = a._node, b._node, a.data.shape, b.data.shape
    # Each operand is kept only for its partner's gradient.
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def bwd(g):
        if na is not None:
            _accum(na, _unbroadcast(backend._gemm(g, np.swapaxes(xb, -1, -2)),
                                    sa))
        if nb is not None:
            _accum(nb, _unbroadcast(backend._gemm(np.swapaxes(xa, -1, -2), g),
                                    sb))

    return _make(backend._gemm(a.data, b.data), (na, nb), bwd)


def softmax(a, axis=-1):
    a = _wrap(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax: non-finite input")
    m = a.data.max(axis=axis, keepdims=True)
    e = exp(add(a, Tensor(-m)))
    return mul(e, power(tsum(e, axis=axis, keepdims=True), -1.0))


def layer_norm(x, gain, bias, axis=-1, silu=False):
    """Normalize over `axis` (variance floor 1e-5), then scale and shift by
    per-feature gain and bias; with `silu`, then SiLU, as one op.

    One tape node with the closed-form backward (Ba et al. 2016): with
    d = gy * gain, dx = inv * (d - mean(d) - xhat * mean(d * xhat)). The
    fused SiLU keeps no norm output on the tape: backward rebuilds it, and
    the result has the bits of silu(layer_norm(x, gain, bias, axis)).
    """
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    nx, ng, nb = x._node, gain._node, bias._node
    gshape, bshape = gain.data.shape, bias.data.shape
    xd = x.data
    nd = xd.ndim
    axis %= nd
    feat = [1] * nd
    feat[axis] = xd.shape[axis]
    g = gain.data.reshape(feat)
    b = bias.data.reshape(feat)
    data, mean, inv = backend._tiled(
        lambda x, out: backend._norm_np(x, g, b, axis, silu, out), (xd,), axis)
    others = tuple(i for i in range(nd) if i != axis)

    def bwd(gy):
        dx, p, *fused = backend._tiled(
            lambda x, gy, mean, inv, out: backend._norm_grad_np(
                gy, x, mean, inv, g, b, axis, silu, out),
            (xd, gy, mean, inv), axis)
        dy = fused[0] if silu else gy
        # The gain and bias sums cross tiles: whole, in the plain order.
        if ng is not None:
            _accum(ng, p.sum(axis=others).reshape(gshape))
        if nb is not None:
            _accum(nb, dy.sum(axis=others).reshape(bshape))
        _accum(nx, dx)

    return _make(data, (nx, ng, nb), bwd)


# ---------------------------------------------------------------------------
# Convolution (zero padding vertically, circular padding horizontally:
# the horizontal image axis is the 360-degree azimuth sweep)
# ---------------------------------------------------------------------------

def conv2d(x, w, b=None, stride=1):
    """2D convolution of BCHW input with OCKhKw kernel. Odd kernels only."""
    x = _wrap(x)
    w = _wrap(w)
    O, _, kh, kw = w.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"conv2d: channel mismatch, input {x.shape} kernel {w.shape}"
        )
    ph, pw = kh // 2, kw // 2
    B, C, H, W = x.data.shape
    if pw > W:
        raise ShapeError(f"conv2d: kernel {w.shape} is wider than 2*{W}+1")
    Hs, Ws = (H - 1) // stride + 1, (W - 1) // stride + 1
    kk = kh * kw
    data = backend._conv_forward(backend._pad_conv(x.data, ph, pw),
                                 w.data.reshape(O, C * kk), kh, kw, stride,
                                 Hs, Ws)
    nx, nw, nb = x._node, w._node, None
    if b is not None:
        b = _wrap(b)
        data += b.data[:, None, None]
        nb = b._node
    # The input is kept only for the kernel's gradient, and the kernel only
    # for the input's.
    xd = x.data if nw is not None else None
    wd = w.data if nx is not None else None

    def bwd(g):
        if nw is not None:
            xp = backend._pad_conv(xd, ph, pw)  # re-padded: cheaper than keeping it
            g2 = g.reshape(B, O, Hs * Ws)
            gw = np.empty((C * kk, O), np.result_type(xp, g2))
            # Blocks of batch items, and of input channels when one item's
            # columns do not fit: each gives its rows of the weight gradient.
            for bs, cs in backend._blocks(B, C, kk * Hs * Ws * xp.itemsize):
                rows = slice(cs.start * kk, cs.stop * kk)
                # (cols @ g^T)^T: faster with OpenBLAS than g @ cols^T. The
                # sum over the batch runs in item order across batch blocks.
                part = backend._gemm(backend._im2col(xp, kh, kw, stride, bs, cs),
                                     g2[bs].transpose(0, 2, 1))
                if bs.start == 0:
                    np.sum(part, axis=0, out=gw[rows])
                else:
                    for p in part:
                        gw[rows] += p
                del part
            _accum(nw, gw.T.reshape(O, C, kh, kw))
        if nb is not None:
            _accum(nb, g.sum(axis=(0, 2, 3)))
        if nx is not None:
            # The adjoint convolution: the stride-dilated gradient, padded
            # as the input was, convolved with the flipped, transposed kernel.
            gd = g
            if stride > 1:
                gd = np.zeros((B, O, H, W), g.dtype)
                gd[:, :, ::stride, ::stride] = g
            wt = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, O * kk)
            _accum(nx, backend._conv_forward(backend._pad_conv(gd, ph, pw), wt,
                                             kh, kw, 1, H, W))

    return _make(data, (nx, nw, nb), bwd)


def upsample2x(x):
    """Nearest-neighbor 2x spatial upsampling of a BCHW tensor."""
    x = _wrap(x)
    nx = x._node
    B, C, H, W = x.data.shape
    # Columns by a repeat, rows by one broadcast copy of whole rows: twice
    # as fast as a broadcast copy of single pixels, whose inner run is 2.
    cols = x.data.repeat(2, axis=3)
    data = np.broadcast_to(cols[:, :, :, None], (B, C, H, 2, 2 * W)).reshape(
        B, C, 2 * H, 2 * W)

    def bwd(g):
        # The four 2x2 phases summed by strided adds, associated as numpy's
        # reshape(B, C, H, 2, W, 2).sum(axis=(3, 5)) does for a C-ordered g:
        # ((g00 + 0.0) + g01) + (g10 + g11), the + 0.0 turning -0.0 into +0.0.
        dx = np.empty((B, C, H, W), dtype=g.dtype)
        np.add(g[:, :, 0::2, 0::2], 0.0, out=dx)
        dx += g[:, :, 0::2, 1::2]
        dx += g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2]
        _accum(nx, dx)

    return _make(data, (nx,), bwd)


# ---------------------------------------------------------------------------
# Sequential linear recurrence (selective-scan core), backed by the numpy
# kernel pair in `backend`.
# ---------------------------------------------------------------------------

def recurrence(abar, q):
    """h[s] = abar[s] * h[s-1] + q[s] along axis 1 of (B, L, C) tensors."""
    abar, q = _wrap(abar), _wrap(q)
    if abar.data.shape != q.data.shape:
        raise ShapeError(f"recurrence: {abar.shape} vs {q.shape}")
    na, nq, ad = abar._node, q._node, abar.data
    h = backend.scan_forward(ad, q.data)

    def bwd(g):
        dabar, dq = backend.scan_backward(ad, h, g)
        _accum(na, dabar)
        _accum(nq, dq)

    return _make(h, (na, nq), bwd)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def fan_in_uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_param(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape):
    return Tensor(np.ones(shape), requires_grad=True)
