"""Numpy kernels: SiLU, the norm, the convolution lowering and the scan
recurrence; the worker pool that runs them in tiles and splits the large
GEMMs; and the allocation policy.

Convolution is lowered to matrix products (im2col, Chellapilla et al.
2006). ``_pad_conv`` fills one new buffer with the input, ph zero rows
above and below and pw wrapped azimuth columns on each side (a 1x1
kernel pads nothing and uses the input as is). The padded input ``xp``
of shape (B, C, Hp, Wp) is unfolded into channel-major columns of shape
(B, C*kh*kw, Hs*Ws): row ``(c, i, j)`` holds
``xp[:, c, i + stride*h, j + stride*w]`` for every output pixel
``(h, w)``, copied by ``_im2col`` from one strided (B, C, kh, kw, Hs, Ws)
view of ``xp``. ``_conv_forward`` takes one matmul per batch item with the
(O, C*kh*kw) kernel matrix, whose (B, O, Hs*Ws) result is already
contiguous BCHW. The weight gradient is ``(cols @ g^T)^T`` summed over the
batch; the columns are kh*kw times the size of the input, so backward
rebuilds them (and ``xp``) rather than keeping them on the tape.

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

GEMM shapes. A piece of a product must round as the whole does, but
OpenBLAS sends a one-row product to a matrix-vector kernel and, on some
CPUs, one of at most 10^6 multiply-adds (``_SMALL_GEMM``) to a
small-matrix kernel, both summing in another order than its general
kernel. So every split here keeps whole products, or leaves pieces at
least two wide and above that size. ``conv2d`` builds its columns in
blocks within ``_BLOCK_BYTES`` (16 MiB), so its memory does not grow with
B*H*W*C: ``_blocks`` splits the batch first, and the units of one item
(output rows in ``_conv_forward``, input channels for the weight
gradient) only when its share does not fit, into near-equal runs at least
two long of several MB each. Each output pixel and weight-gradient row is
still one whole sum, and the batch sum runs in item order across blocks.

Memory policy. Freeing activations during the forward pass leaves holes
that glibc's defaults hand back to the kernel (heap trimming, and mmap
for arrays above a threshold that tracks the largest freed one), so the
next step's arrays land on fresh pages: about 2 700 minor faults per toy
training step (16x64, batch 8). At import this module sets glibc's mmap
threshold to 32 MiB, the ceiling of its own dynamic threshold, and then
its trim threshold to 128 MiB (in that order: the trim threshold alone
pins the mmap threshold at 128 KiB), so freed memory stays in the process
and a steady toy step takes 1-2 faults.

Threads. numpy's ufuncs run on one core, and about half of a paper-width
training step is memory-bound work in them. So the SiLU forward and
backward, ``layer_norm``'s forward and input gradient (fused SiLU tail
included), ``_pad_conv``, ``_im2col``'s copy and ``_accum``'s out-of-place
add split their arrays into tiles, run by the calling thread and the
workers of one module-level pool: min(cores, ``_MAX_THREADS``) threads in
all, the caller included, made on first use. Arrays below ``_TILE_BYTES``
(2 MiB) run whole and inline; for ``_im2col`` the size is that of one
batch item's columns, so a block of many small items (a toy-shape batch)
copies inline too. A tile is a run of rows of H (of the sequence axis
for a (B, L, C) norm, of channels for ``_im2col``), about
``_TILE_BYTES`` / 2 bytes. Only elementwise work and per-position
reductions over the norm's own axis are tiled: each output element is
computed from the same inputs by the same expression whatever the tiling,
so it has the same bits, and a tiled output takes the C order the whole
expression gives a C-ordered input (an input in any other layout runs
whole). Sums across positions (``layer_norm``'s gain and bias gradients,
``conv2d``'s bias gradient, ``_unbroadcast``) stay whole and in their
order. A worker touches only numpy and private helpers, never a public
function of this package, which a tracer may wrap without being
thread-safe. OpenBLAS's own threads spin for about 0.1 s after each call,
each holding a core, so between a step's GEMMs the tiles would find no
free core. So making the pool puts OpenBLAS on one thread, and ``_gemm``
runs each large product on the caller and the workers: a stack in runs of
whole products, a single product in pieces along its longer output axis.
A forked child drops the pool; its products run whole until it makes one.
"""

import ctypes
import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# There is no compiled backend; perfbench/run.py prints this in its env line.
USE_NUMBA = False


def _keep_freed_memory(libc):
    """The module docstring's memory policy through glibc's `mallopt`; no
    change where libc has no `mallopt` or refuses the mmap threshold."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None and mallopt(-3, 32 << 20) == 1:  # M_MMAP_THRESHOLD
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


if os.name == "posix":
    _keep_freed_memory(ctypes.CDLL(None))


# The worker threads (see the module docstring's Threads): the size from
# which an op is split into tiles, and the most threads in all.
_TILE_BYTES = 2 << 20
_MAX_THREADS = 8
_ALL = slice(None)
_threads = 0     # threads in all, the caller's included; set on first use
_pool = None     # the _threads - 1 workers beside the caller, None on one core
_split_gemms = False  # OpenBLAS was put on one thread when the pool was made
_SMALL_GEMM = 10 ** 6  # the most multiply-adds of a small-matrix product


def _tile_pool():
    """The workers, made on first use: min(cores, _MAX_THREADS) threads in
    all, the calling thread being one of them. Making them puts OpenBLAS on
    one thread, so that `_gemm` splits the large products instead."""
    global _threads, _pool, _split_gemms
    if not _threads:
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        _threads = min(cores, _MAX_THREADS)
        if _threads > 1:
            _pool = ThreadPoolExecutor(_threads - 1, "rangegen-tile")
            set_threads = _openblas()
            if set_threads is not None:
                set_threads(1)
                _split_gemms = True
            os.register_at_fork(after_in_child=_forget_pool)
    return _pool


def _forget_pool():
    """In a forked child, where the parent's workers do not run: no pool."""
    global _threads, _pool
    _threads, _pool = 0, None


def _openblas():
    """set_num_threads of the OpenBLAS this process loaded, or None: another
    BLAS, or no /proc/self/maps."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                return fn
    return None


def _share(fn, jobs):
    """fn(*job) for each of `jobs`, taken in turn by the calling thread and
    the workers; returns when all are done."""
    take = itertools.count()  # one next() at a time, under the GIL

    def drain():
        for k in take:
            if k >= len(jobs):
                return
            fn(*jobs[k])

    helpers = min(_threads, len(jobs)) - 1 if _pool else 0
    futures = [_pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        for f in futures:
            f.result()


def _each_tile(fn, arrays, axis, nbytes):
    """fn(*arrays) in tiles: fn(*(a[i] for a in arrays)) for index tuples i
    that cover the arrays' common extent along `axis`.

    Below _TILE_BYTES, or with no axis to split (None or negative), this is
    one inline call fn(*arrays). Otherwise the tiles are runs of the axis of
    about _TILE_BYTES / 2 each (an op at the floor makes two), taken in turn
    by the calling thread and the workers. `fn` may only touch numpy and
    private helpers.
    """
    if nbytes < _TILE_BYTES or axis is None or axis < 0:
        fn(*arrays)
        return
    n = arrays[0].shape[axis]
    step = max(1, n * _TILE_BYTES // (2 * nbytes))
    tiles = [(_ALL,) * axis + (slice(k, k + step),) for k in range(0, n, step)]
    _tile_pool()
    _share(fn, [tuple(a[t] for a in arrays) for t in tiles])


def _pieces(n, unit_macs, least):
    """Near-equal runs covering range(n): one per thread, but fewer where a
    run would be under `least` units or at most _SMALL_GEMM multiply-adds
    at `unit_macs` a unit."""
    k = max(1, min(_threads, n // least))
    while k > 1 and n // k * unit_macs <= _SMALL_GEMM:
        k -= 1
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def _gemm(a, b, out=None):
    """np.matmul(a, b, out), run by the calling thread and the workers when
    OpenBLAS was put on one thread beside them; never makes the pool. A
    stack (up to 3-D) splits into runs of whole products, a single product
    along its longer output axis (see the module docstring's GEMM shapes).
    """
    # numpy may take a @ a.T by syrk, whose bits no split product matches.
    if (not _split_gemms or _pool is None or min(a.ndim, b.ndim) < 2
            or max(a.ndim, b.ndim) > 3 or np.may_share_memory(a, b)):
        return np.matmul(a, b, out=out)
    (m, k), n = a.shape[-2:], b.shape[-1]
    if out is None:
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.empty(batch + (m, n), np.result_type(a, b))
    if out.ndim == 3 and len(out) > 1:
        jobs = [tuple(x[s] if x.ndim == 3 and len(x) > 1 else x
                      for x in (a, b, out))
                for s in _pieces(len(out), m * n * k, 1)]
    else:
        a2, b2, o2 = (x[0] if x.ndim == 3 else x for x in (a, b, out))
        if min(m, n) < 2:
            jobs = [(a2, b2, o2)]
        elif m >= n:
            jobs = [(a2[s], b2, o2[s]) for s in _pieces(m, n * k, 2)]
        else:
            jobs = [(a2, b2[:, s], o2[:, s]) for s in _pieces(n, m * k, 2)]
    _share(lambda x, y, o: np.matmul(x, y, out=o), jobs)
    return out


def _tiled(kernel, arrays, skip=None):
    """The outputs of kernel(*arrays, out), an elementwise or per-position
    function of arrays shaped as the first, x (or as x with size 1 along
    `skip`), that returns one array per entry of out.

    Inline as kernel(*arrays, (None, None, None)), where numpy allocates
    each output as the plain expression does, when x is below _TILE_BYTES,
    is not C-contiguous, or has no axis but the last and `skip`. Otherwise
    tiles of the last axis but one other than `skip` write into C-ordered
    outputs (the layout the plain expression gives when x is C-ordered,
    whatever the layout of the others), each of the dtype and shape that
    the kernel gives on an empty run of that axis, with its extent put back.
    """
    x = arrays[0]
    axis = None
    if x.nbytes >= _TILE_BYTES and x.flags.c_contiguous:
        axis = max((k for k in range(x.ndim - 1) if k != skip), default=None)
    if axis is None:
        return kernel(*arrays, (None, None, None))
    run = (slice(None),) * axis + (slice(0),)
    outs = tuple(np.empty(o.shape[:axis] + x.shape[axis:axis + 1]
                          + o.shape[axis + 1:], o.dtype)
                 for o in kernel(*(a[run] for a in arrays), (None,) * 3))
    k = len(arrays)
    _each_tile(lambda *parts: kernel(*parts[:k], parts[k:]), arrays + outs,
               axis, x.nbytes)
    return outs


# ---------------------------------------------------------------------------
# Elementwise and norm kernels
# ---------------------------------------------------------------------------

def _sigmoid_np(x):
    """Logistic sigmoid as 0.5 * (1 + tanh(x / 2)).

    No overflow and no boolean masks for any x. The error is absolute,
    within about one ulp of 1, so values near 0 lose relative precision.
    """
    s = np.tanh(0.5 * x)
    s += 1.0
    s *= 0.5
    return s


def _silu_np(x, out=None):
    return np.multiply(x, _sigmoid_np(x), out)


def _silu_grad_np(g, x, out=None):
    """SiLU's input gradient for upstream g, its gate recomputed from x:
    cheaper than keeping it.

    Without `out`, the one expression g * (...): numpy then computes it in
    place in the temporary (...) when that is large enough, so the result
    takes x's layout, not the one g and x would give a fresh array.
    """
    s = _sigmoid_np(x)
    if out is None:
        return g * (s + x * s * (1.0 - s))
    return np.multiply(g, s + x * s * (1.0 - s), out)


def _norm_np(x, g, b, axis, silu, out):
    """layer_norm's output, with the SiLU tail if `silu`, and its mean and
    inverse deviation, written into `out` (None entries: fresh arrays)."""
    mean = x.mean(axis, None, out[1], True)
    xhat = x - mean
    inv = (xhat * xhat).mean(axis, None, out[2], True)
    inv += 1e-5
    inv **= -0.5
    xhat *= inv
    y = np.multiply(xhat, g, None if silu else out[0])
    y += b
    return (_silu_np(y, out[0]) if silu else y), mean, inv


def _norm_grad_np(gy, x, mean, inv, g, b, axis, silu, out):
    """(dx, gy' * xhat) and, with the SiLU tail, gy': layer_norm's input
    gradient, the product its gain gradient sums, and the gradient gy' at
    the norm's output (gy itself without the tail).

    xhat, and with the tail the norm's output and gate, are rebuilt from the
    kept mean and inv by the forward's own expressions, so they have its
    bits. The closed form runs in two buffers: t = d * xhat takes the layout
    that inv * (d - mean(d) - xhat * mean(t)) would have, and every step
    rounds as that expression does.
    """
    xhat = x - mean
    xhat *= inv
    if silu:
        y = xhat * g
        y += b
        gy = _silu_grad_np(gy, y, out[2])
    p = np.multiply(gy, xhat, out[1])
    d = gy * g
    t = np.multiply(d, xhat, out[0])
    tm = t.mean(axis=axis, keepdims=True)
    d -= d.mean(axis=axis, keepdims=True)
    np.multiply(xhat, tm, out=t)
    np.subtract(d, t, out=t)
    t *= inv
    return (t, p, gy) if silu else (t, p)


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
    _each_tile(_wrap_rows, (xp[:, :, ph : ph + H], x), 2, xp.nbytes)
    return xp


def _wrap_rows(rows, x):
    """Rows of a padded buffer, W + 2*pw wide: x in the middle and its pw
    wrapped azimuth columns on each side."""
    W = x.shape[-1]
    pw = (rows.shape[-1] - W) // 2
    rows[..., pw : pw + W] = x
    if pw:
        rows[..., :pw] = x[..., W - pw:]
        rows[..., pw + W:] = x[..., :pw]


_BLOCK_BYTES = 16 << 20  # the most a conv block's columns take (GEMM shapes)


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


def _im2col(xp, kh, kw, stride, bs=_ALL, cs=_ALL, hs=_ALL):
    """Columns (b, c*kh*kw, h*Ws) of the padded input for batch items `bs`,
    channels `cs` and output rows `hs`, channel-major, copied from one
    strided (B, C, kh, kw, Hs, Ws) window view of `xp` into a new array.
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
    cols = np.empty(win.shape, xp.dtype)
    b, c, _, _, h, _ = win.shape
    # Tiles of channels, by the size of one item's columns: a block of many
    # small items (a toy-shape batch) copies inline.
    _each_tile(np.copyto, (cols, win), 1, cols.nbytes // b)
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
        _gemm(w2, _im2col(xp, kh, kw, stride, bs, _ALL, hs),
              out[bs, :, hs.start * Ws : hs.stop * Ws])
    return out.reshape(B, O, Hs, Ws)


# ---------------------------------------------------------------------------
# Linear recurrence h[s] = abar[s] * h[s-1] + q[s]  (the sequential core of
# the selective scan; everything around it is vectorized numpy).
# ---------------------------------------------------------------------------

def scan_forward(abar, q):
    """h (B, L, C), C-ordered, in q's dtype.

    The loop runs over time-major (L, B, C) copies in the operands' common
    dtype, so each step is two `out=` ufuncs on contiguous rows and the
    state is rounded to q's dtype once, at the end.
    """
    B, L, C = q.shape
    dt = np.result_type(abar, q)
    a = np.ascontiguousarray(abar.transpose(1, 0, 2), dtype=dt)
    qt = np.ascontiguousarray(q.transpose(1, 0, 2), dtype=dt)
    h = np.empty((L, B, C), dtype=dt)
    prev = np.zeros((B, C), dtype=dt)
    for a_s, q_s, h_s in zip(a, qt, h):
        np.multiply(a_s, prev, out=h_s)
        np.add(h_s, q_s, out=h_s)
        prev = h_s
    return np.ascontiguousarray(h.transpose(1, 0, 2), dtype=q.dtype)


def scan_backward(abar, h, gh):
    """Backward of the recurrence.

    Returns (d_abar, d_q), C-ordered (B, L, C) in h's dtype, given the
    upstream gradient gh w.r.t. h. The d_q loop runs time-major like
    `scan_forward`; d_abar[s] = d_q[s] * h[s-1] is one product after it.
    """
    B, L, C = h.shape
    dt = np.result_type(abar, h, gh)
    a = np.ascontiguousarray(abar.transpose(1, 0, 2), dtype=dt)
    g = np.ascontiguousarray(gh.transpose(1, 0, 2), dtype=dt)
    dq = np.empty((L, B, C), dtype=dt)
    acc = np.zeros((B, C), dtype=dt)
    for a_s, g_s, dq_s in zip(a[::-1], g[::-1], dq[::-1]):
        np.add(g_s, acc, out=dq_s)
        np.multiply(a_s, dq_s, out=acc)
    dq = dq.transpose(1, 0, 2)
    dabar = np.empty((B, L, C), dtype=h.dtype)
    dabar[:, :1] = 0.0
    np.multiply(dq[:, 1:], h[:, :-1], out=dabar[:, 1:])
    return dabar, np.ascontiguousarray(dq, dtype=h.dtype)
