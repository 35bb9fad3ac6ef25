"""Shared test helpers: finite-difference oracles and error measures."""

import numpy as np

from rangegen import autodiff as ad
from rangegen import geometry, metrics


def rel_err(approx, exact):
    """Relative error in the 2-norm, guarded against a zero reference."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(np.linalg.norm(exact), 1e-8)
    return np.linalg.norm(approx - exact) / denom


def fd_grad(scalar_fn, arrays, eps=1e-6):
    """Central finite-difference gradient of scalar_fn(*arrays) per array."""
    grads = []
    for base in arrays:
        g = np.zeros(base.shape, dtype=np.float64)
        flat = base.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = scalar_fn(*arrays)
            flat[i] = orig - eps
            fm = scalar_fn(*arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def check_grads(fn, arrays, tol=1e-5, eps=1e-6):
    """Backprop through fn (Tensor in, scalar Tensor out) vs central FD."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    fn(*tensors).backward()

    def scalar(*arrs):
        return float(fn(*[ad.Tensor(a) for a in arrs]).data)

    numeric = fd_grad(scalar, [a.copy() for a in arrays], eps)
    for t, n in zip(tensors, numeric):
        err = rel_err(t.grad, n)
        assert err <= tol, f"gradient mismatch: rel err {err:.3e} > {tol}"


def directional_fd(scalar_fn, arrays, grads, rng, eps=1e-5):
    """Directional-derivative check for large composites.

    Draws one random unit direction over all inputs and compares the
    central finite difference of the scalar along it with the dot
    product of the analytic gradients. Returns the relative error.
    """
    dirs = [rng.standard_normal(a.shape) for a in arrays]
    norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    plus = [a + eps * d for a, d in zip(arrays, dirs)]
    minus = [a - eps * d for a, d in zip(arrays, dirs)]
    fd = (scalar_fn(*plus) - scalar_fn(*minus)) / (2.0 * eps)
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, dirs))
    return abs(fd - analytic) / max(abs(fd), 1e-8)


# ---------------------------------------------------------------------------
# Reference eval path: the full-grid ray table and np.histogram2d
# ---------------------------------------------------------------------------

def unproject_reference(img):
    """Points and intensity from a full (H, W, 3) ray table and a mask."""
    az, el = geometry.pixel_angles(img.config)
    cos_el = np.cos(el)[:, None]
    dirs = np.empty((img.config.height, img.config.width, 3))
    dirs[:, :, 0] = cos_el * np.cos(az)[None, :]
    dirs[:, :, 1] = cos_el * np.sin(az)[None, :]
    dirs[:, :, 2] = np.sin(el)[:, None]
    mask = img.valid
    pts = dirs[mask] * img.range[mask].astype(np.float64)[:, None]
    return pts, img.intensity[mask].astype(np.float64)


def bev_histogram_reference(points):
    """np.histogram2d over the BEV edges; normalized counts and emptiness."""
    edges = np.linspace(-metrics.BEV_EXTENT, metrics.BEV_EXTENT,
                        metrics.BEV_BINS + 1)
    counts, _, _ = np.histogram2d(points[:, 0], points[:, 1],
                                  bins=(edges, edges))
    total = counts.sum()
    if total == 0:
        return counts, True
    return counts / total, False
