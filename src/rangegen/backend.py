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
    B, L, C = q.shape
    h = np.empty_like(q)
    prev = np.zeros((B, C), dtype=q.dtype)
    for s in range(L):
        prev = abar[:, s, :] * prev + q[:, s, :]
        h[:, s, :] = prev
    return h


def scan_backward(abar, h, gh):
    """Backward of the recurrence.

    Returns (d_abar, d_q) given upstream gradient gh w.r.t. h.
    """
    B, L, C = h.shape
    dq = np.empty_like(h)
    dabar = np.empty_like(h)
    acc = np.zeros((B, C), dtype=h.dtype)
    for s in range(L - 1, -1, -1):
        acc = gh[:, s, :] + acc
        dq[:, s, :] = acc
        if s > 0:
            dabar[:, s, :] = acc * h[:, s - 1, :]
        else:
            dabar[:, s, :] = 0.0
        acc = abar[:, s, :] * acc
    return dabar, dq


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
