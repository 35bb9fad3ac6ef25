"""Numpy kernels for the scan recurrence and nearest-return rasterization."""

import numpy as np

# There is no compiled backend. The flag and this module stay because the
# benchmark reads them: perfbench/run.py prints `backend.USE_NUMBA` in its
# `env` line, perfbench/spans.py lists `backend` in MODULES, and
# `backend.scan_forward` / `backend.scan_backward` are traced per-layer metrics.
USE_NUMBA = False


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


# ---------------------------------------------------------------------------
# Nearest-return rasterization: per-pixel minimum range with lowest-index
# tie-break over N projected points.
# ---------------------------------------------------------------------------

def rasterize_points(px_v, px_u, ranges, height, width):
    """Return (best_range, best_index) grids; best_index -1 where empty."""
    n = ranges.shape[0]
    pix = px_v.astype(np.int64) * width + px_u.astype(np.int64)
    # Sort by (pixel, range, index): first hit per pixel is the winner.
    order = np.lexsort((np.arange(n), ranges, pix))
    pix_sorted = pix[order]
    first = np.ones(n, dtype=bool)
    first[1:] = pix_sorted[1:] != pix_sorted[:-1]
    win = order[first]
    best_r = np.zeros(height * width, dtype=ranges.dtype)
    best_i = np.full(height * width, -1, dtype=np.int64)
    best_r[pix[win]] = ranges[win]
    best_i[pix[win]] = win
    return best_r.reshape(height, width), best_i.reshape(height, width)
