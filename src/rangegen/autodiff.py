"""Reverse-mode autodiff over dense numpy arrays.

A recorded-tape design: every operation returns a new Tensor holding the
result plus closures that push gradients to its parents. Tensors are
immutable after creation; ``backward()`` from a scalar loss populates
``.grad`` on every reachable leaf (a tensor with no closure, such as a
parameter) flagged ``requires_grad``. An op's output keeps its gradient
only until its closure has pushed it to the parents; then ``backward()``
sets it back to None, so a step's intermediate gradients do not pile up.

Tests run everything in float64; training and sampling use float32 for
speed (the sampler runs the network in its parameters' dtype), and
checkpoints round-trip bit-exactly.

Tape lifetime. An op records a tape node (its parents and backward
closure) only when one of its operands has ``requires_grad``; otherwise
its result is a plain Tensor with no parents and no closure. A tape
lives from its forward pass until its training step ends: the training
loop drops the loss after the optimizer step, checkpointing and logging,
so the next forward pass never builds its graph beside the last one. The
sampler needs no gradients, so it wraps each parameter's array in a plain
``Tensor(p.data)`` (a view, without ``requires_grad``) and its forward
passes record nothing. There is no global switch for this.

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

What a closure keeps. A backward closure holds its parents, whose data
the tape keeps anyway, its own output, and beyond them only what it
cannot cheaply rebuild from that data (Chen et al. 2016 trade memory for
recomputation the same way): ``layer_norm`` keeps its per-position mean
and inverse deviation (1/C of its input) and rebuilds ``xhat``, ``silu``
recomputes its gate, and ``conv2d`` re-pads its input. A rebuilt value
comes from the same expression on the same data, so it has the bits and
layout the forward pass's value had, and no gradient changes.

Convolution is lowered to matrix products (im2col, Chellapilla et al.
2006). ``_pad_conv`` fills one new buffer with the input, ph zero rows
above and below and pw wrapped azimuth columns on each side (a 1x1
kernel pads nothing and uses the input as is). The padded input ``xp``
of shape (B, C, Hp, Wp) is unfolded into columns of shape
(B, C*kh*kw, Hs*Ws), channel-major: row ``(c, i, j)`` holds
``xp[:, c, i + stride*h, j + stride*w]`` for every output pixel
``(h, w)``. ``_im2col`` copies them from one strided
(B, C, kh, kw, Hs, Ws) view of ``xp``. ``_conv_forward`` then takes one
matmul per batch item with the (O, C*kh*kw) kernel matrix, whose
(B, O, Hs*Ws) result is already contiguous BCHW. Backward takes the
weight gradient as ``(cols @ g^T)^T`` summed over the batch. The columns
are kh*kw times the size of the input, so backward rebuilds them (and
``xp``) from the input rather than keeping them on the tape.

Input gradient by the adjoint convolution (Dumoulin & Visin 2016).
Backward runs ``_conv_forward`` a second time, at stride 1: over ``gd``,
the (B, O, H, W) gradient dilated by the stride (``g`` itself at stride
1, else zeros with ``g`` at every stride-th row and column), padded as
the input was, with the flipped, transposed (C, O, kh, kw) kernel
``w[:, :, ::-1, ::-1]``. Input pixel (y, x) then collects
``w[o, c, i, j] * g[o, h, w]`` exactly when ``i + stride*h = y + ph`` and
``j + stride*w = x + pw`` modulo W, the forward's own pairing of input
and output pixels: zero rows and wrapped azimuth columns are their own
adjoint under a flipped kernel, at odd widths too, so nothing is cropped
or folded afterwards, and the input gradient needs no lowering of its own.

Blocks. ``conv2d`` builds its columns one block at a time, each within
``_BLOCK_BYTES`` (16 MiB), so its memory does not grow with B*H*W*C; a
convolution that fits takes one block and runs as if unblocked.
``_blocks`` splits the batch first, and the units of one batch item
(output rows in ``_conv_forward``, input channels for the weight
gradient) only when that item's share does not fit. Blocking keeps every
summation order. A row tile computes whole output pixels, each still a
sum over all of its kernel matrix's columns; a channel block computes
whole rows of the weight gradient, each a sum over all pixels; and the
batch sum of the weight gradient runs in item order across blocks.
What blocking changes is the shape of each GEMM, which BLAS must not
round differently: OpenBLAS sends a one-row product to a matrix-vector
kernel and, on some CPUs, a product of at most 10^6 multiply-adds to a
small-matrix kernel, and both sum in another order than its general
kernel. So unit runs are near-equal and at least two long, and a split
inside one item leaves blocks of several MB, whose products stay far
above that size; a split of the batch leaves each item's GEMM as it was.

Workspace ownership. The columns of the forward pass, of the weight
gradient and of the input gradient are written into one module-level
workspace, ``_workspace``, which grows to the largest block, at most
``_BLOCK_BYTES`` whenever three units of a batch item fit in it, and is
reused by every call, so the large per-call buffers cost no fresh pages.
Only ``conv2d`` and its backward closure touch it, and only between
entry and return: nothing else may hold a view of it, and no output or
stored gradient aliases it. It is not thread-safe, and nothing here runs
convolutions concurrently.
"""

import math

import numpy as np

from . import backend
from .errors import ConfigError, NumericError, ShapeError


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
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

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul(other, -1.0))
        return add(self, -other)

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # pushed to the parents; free it now


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
    """Add gradient `g` into `t.grad` (see the module docstring's ownership
    rule: a C-ordered first gradient of the right dtype is stored as is, and
    nothing ever writes into a stored gradient)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if (isinstance(g, np.ndarray) and g.dtype == t.data.dtype
                and g.flags.c_contiguous):
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))


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
    """Logistic sigmoid as 0.5 * (1 + tanh(x / 2)).

    No overflow and no boolean masks for any x. The error is absolute,
    within about one ulp of 1, so values near 0 lose relative precision.
    """
    s = np.tanh(0.5 * x)
    s += 1.0
    s *= 0.5
    return s


def silu(a):
    a = _wrap(a)
    data = a.data * _sigmoid_np(a.data)

    def bwd(g):
        s = _sigmoid_np(a.data)  # recomputed: cheaper than keeping it
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


def layer_norm(x, gain, bias, axis=-1):
    """Normalize over `axis` (variance floor 1e-5), then scale and shift by
    per-feature gain and bias.

    One tape node with the closed-form backward (Ba et al. 2016): with
    d = gy * gain, dx = inv * (d - mean(d) - xhat * mean(d * xhat)).
    """
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    nd = x.data.ndim
    axis %= nd
    feat = [1] * nd
    feat[axis] = x.data.shape[axis]
    g = gain.data.reshape(feat)
    mean = x.data.mean(axis=axis, keepdims=True)
    xhat = x.data - mean
    inv = (xhat * xhat).mean(axis=axis, keepdims=True)
    inv += 1e-5
    inv **= -0.5
    xhat *= inv
    data = xhat * g
    data += bias.data.reshape(feat)
    others = tuple(i for i in range(nd) if i != axis)

    def bwd(gy):
        # xhat rebuilt from the small mean and inv by the forward's own
        # expression, so it has the same bits and layout.
        xhat = x.data - mean
        xhat *= inv
        if gain.requires_grad:
            _accum(gain, (gy * xhat).sum(axis=others).reshape(gain.data.shape))
        if bias.requires_grad:
            _accum(bias, gy.sum(axis=others).reshape(bias.data.shape))
        if x.requires_grad:
            # The closed form in two buffers: t = d * xhat takes the layout
            # that inv * (d - mean(d) - xhat * mean(t)) would have, and
            # every step rounds as that expression does.
            d = gy * g
            t = d * xhat
            tm = t.mean(axis=axis, keepdims=True)
            d -= d.mean(axis=axis, keepdims=True)
            np.multiply(xhat, tm, out=t)
            np.subtract(d, t, out=t)
            t *= inv
            _accum(x, t)

    return _make(data, (x, gain, bias), bwd)


# ---------------------------------------------------------------------------
# Convolution (zero padding vertically, circular padding horizontally:
# the horizontal image axis is the 360-degree azimuth sweep)
# ---------------------------------------------------------------------------

def _pad_conv(x, ph, pw):
    """x padded by ph zero rows and pw wrapped azimuth columns on each side,
    filled into one new C-ordered buffer (needs pw <= W). With nothing to
    pad, x itself, or a C-ordered copy if it is not C-contiguous."""
    if not ph and not pw:
        return np.ascontiguousarray(x)
    B, C, H, W = x.shape
    xp = np.empty((B, C, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    xp[:, :, :ph] = 0
    xp[:, :, ph + H:] = 0
    rows = xp[:, :, ph : ph + H]
    rows[..., pw : pw + W] = x
    if pw:
        rows[..., :pw] = x[..., W - pw:]
        rows[..., pw + W:] = x[..., :pw]
    return xp


# conv2d's scratch memory for the columns of its three lowerings, and the
# most of it that one block of a convolution may take; see the module
# docstring's ownership and block rules.
_workspace = np.empty(0, dtype=np.uint8)
_BLOCK_BYTES = 16 << 20


def _scratch(shape, dtype):
    """A C-ordered array of `shape` over the start of the shared workspace,
    valid until the next call. The workspace grows to the largest request."""
    global _workspace
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if _workspace.nbytes < nbytes:
        _workspace = None  # free the smaller buffer before taking the larger
        _workspace = np.empty(nbytes, dtype=np.uint8)
    return np.ndarray(shape, dtype, _workspace)


def _blocks(B, n, unit_bytes):
    """(batch slice, unit slice) blocks covering B batch items of n units of
    `unit_bytes` each, every block within _BLOCK_BYTES whenever three units
    fit. The batch is split first, since each item has its own GEMM anyway;
    the units only when one item's share does not fit, into near-equal runs
    of at least two units (see the module docstring)."""
    item = n * unit_bytes
    if item <= _BLOCK_BYTES:
        nb, k = max(1, _BLOCK_BYTES // max(item, 1)), 1
    else:
        nb, k = 1, -(-n // max(3, _BLOCK_BYTES // unit_bytes))
    for b0 in range(0, B, nb):
        for i in range(k):
            yield slice(b0, b0 + nb), slice(i * n // k, (i + 1) * n // k)


_ALL = slice(None)


def _im2col(xp, kh, kw, stride, bs=_ALL, cs=_ALL, hs=_ALL):
    """Columns (b, c*kh*kw, h*Ws) of the padded input for batch items `bs`,
    channels `cs` and output rows `hs`, channel-major, copied from one
    strided (B, C, kh, kw, Hs, Ws) window view of `xp` into the workspace.
    A 1x1 stride-1 kernel's columns are a view of `xp` itself."""
    B, C, Hp, Wp = xp.shape
    if kh == kw == stride == 1:
        part = xp[bs, cs, hs]
        return part.reshape(*part.shape[:2], -1)
    Hs, Ws = (Hp - kh) // stride + 1, (Wp - kw) // stride + 1
    sB, sC, sH, sW = xp.strides
    win = np.ndarray((B, C, kh, kw, Hs, Ws), xp.dtype, xp, 0,
                     (sB, sC, sH, sW, stride * sH, stride * sW))
    win = win[bs, cs, :, :, hs]
    cols = _scratch(win.shape, xp.dtype)
    np.copyto(cols, win)
    b, c, _, _, h, _ = win.shape
    return cols.reshape(b, c * kh * kw, h * Ws)


def _conv_forward(xp, w2, kh, kw, stride, Hs, Ws):
    """(B, O, Hs, Ws) convolution of the padded input `xp` with the
    (O, C*kh*kw) kernel matrix `w2`, in blocks of batch items and output
    rows: each block's columns, then its GEMM into its slice of the output.
    A 1x1 stride-1 kernel's columns are its input, so it takes one block."""
    B, C = xp.shape[:2]
    O = w2.shape[0]
    dtype = np.result_type(w2, xp)
    out = np.empty((B, O, Hs * Ws), dtype)
    row_bytes = (0 if kh == kw == stride == 1
                 else C * kh * kw * Ws * dtype.itemsize)
    for bs, hs in _blocks(B, Hs, row_bytes):
        np.matmul(w2, _im2col(xp, kh, kw, stride, bs, _ALL, hs),
                  out=out[bs, :, hs.start * Ws : hs.stop * Ws])
    return out.reshape(B, O, Hs, Ws)


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
    w2 = w.data.reshape(O, C * kk)
    data = _conv_forward(_pad_conv(x.data, ph, pw), w2, kh, kw, stride,
                         Hs, Ws)
    parents = [x, w]
    if b is not None:
        b = _wrap(b)
        data += b.data[:, None, None]
        parents.append(b)

    def bwd(g):
        if w.requires_grad:
            xp = _pad_conv(x.data, ph, pw)  # re-padded: cheaper than keeping it
            g2 = g.reshape(B, O, Hs * Ws)
            gw = np.empty((C * kk, O), np.result_type(xp, g2))
            # Blocks of batch items, and of input channels when one item's
            # columns do not fit: each gives its rows of the weight gradient.
            for bs, cs in _blocks(B, C, kk * Hs * Ws * xp.itemsize):
                rows = slice(cs.start * kk, cs.stop * kk)
                # (cols @ g^T)^T: faster with OpenBLAS than g @ cols^T. The
                # sum over the batch runs in item order across batch blocks.
                part = np.matmul(_im2col(xp, kh, kw, stride, bs, cs),
                                 g2[bs].transpose(0, 2, 1))
                if bs.start == 0:
                    np.sum(part, axis=0, out=gw[rows])
                else:
                    for p in part:
                        gw[rows] += p
                del part
            _accum(w, gw.T.reshape(w.data.shape))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            # The adjoint convolution: the stride-dilated gradient, padded
            # as the input was, convolved with the flipped, transposed kernel.
            gd = g
            if stride > 1:
                gd = np.zeros((B, O, H, W), g.dtype)
                gd[:, :, ::stride, ::stride] = g
            wt = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(
                C, O * kk)
            _accum(x, _conv_forward(_pad_conv(gd, ph, pw), wt, kh, kw, 1,
                                    H, W))

    return _make(data, parents, bwd)


def upsample2x(x):
    """Nearest-neighbor 2x spatial upsampling of a BCHW tensor."""
    x = _wrap(x)
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
        _accum(x, dx)

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
        dabar, dq = backend.scan_backward(abar.data, h, g)
        _accum(abar, dabar)
        _accum(q, dq)

    return _make(h, (abar, q), bwd)


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
