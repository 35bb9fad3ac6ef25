"""Shared test helpers: finite-difference oracles and error measures."""

import os
import struct

import numpy as np

from rangegen import autodiff as ad
from rangegen import backend, cli, forge, geometry, metrics, toy
from rangegen import denoiser as dn
from rangegen.errors import ConfigError

# The denoiser a `toy = true` run trains.
TOY_DENOISER_CONFIG = cli.denoiser_config_from(
    cli.RunConfig(toy=True, **toy.TOY_PRESET), len(toy.toy_domain_specs()))

# A smaller denoiser still, for unit tests of the network and the sampler.
TINY_CONFIG = dn.DenoiserConfig(
    widths=(4, 8), attn_stages=(2,), cdfm_stages=(2,), groups=4,
    time_width=8, cond_dim=8, dk=4, token_count=4, num_domains=2,
)


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


# ---------------------------------------------------------------------------
# Reference convolution and upsampling: fresh im2col columns, an unblocked
# adjoint convolution for the input gradient and a reshape-sum upsampling
# backward. The shipped kernels must match these bit for bit.
# ---------------------------------------------------------------------------

def _pad_conv_reference(x, ph, pw):
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


def _im2col_reference(xp, kh, kw, stride):
    B, C, Hp, Wp = xp.shape
    Hs, Ws = (Hp - kh) // stride + 1, (Wp - kw) // stride + 1
    sB, sC, sH, sW = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (B, C, kh, kw, Hs, Ws),
        (sB, sC, sH, sW, stride * sH, stride * sW), writeable=False)
    return win.reshape(B, C * kh * kw, Hs * Ws)


def conv2d_reference(x, w, b=None, stride=1):
    """Drop-in for `ad.conv2d`: the same arithmetic by the plain lowering."""
    x, w = ad._wrap(x), ad._wrap(w)
    O, _, kh, kw = w.data.shape
    ph, pw = kh // 2, kw // 2
    B, C, H, W = x.data.shape
    Hs, Ws = (H - 1) // stride + 1, (W - 1) // stride + 1
    xp = _pad_conv_reference(x.data, ph, pw)
    wd = w.data
    data = np.matmul(wd.reshape(O, C * kh * kw),
                     _im2col_reference(xp, kh, kw, stride))
    data = data.reshape(B, O, Hs, Ws)
    nx, nw, nb = x._node, w._node, None
    if b is not None:
        b = ad._wrap(b)
        data += b.data[:, None, None]
        nb = b._node

    def bwd(g):
        g2 = g.reshape(B, O, Hs * Ws)
        if nw is not None:
            cols = _im2col_reference(xp, kh, kw, stride)
            gw = np.matmul(cols, g2.transpose(0, 2, 1)).sum(axis=0)
            ad._accum(nw, gw.T.reshape(wd.shape))
        if nb is not None:
            ad._accum(nb, g.sum(axis=(0, 2, 3)))
        if nx is not None:
            # The adjoint convolution: the stride-dilated gradient, padded as
            # the input was, convolved with the flipped, transposed kernel.
            gd = np.zeros((B, O, H, W), dtype=g.dtype)
            gd[:, :, ::stride, ::stride] = g
            wt = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            dx = np.matmul(wt.reshape(C, O * kh * kw), _im2col_reference(
                _pad_conv_reference(gd, ph, pw), kh, kw, 1))
            ad._accum(nx, dx.reshape(B, C, H, W))

    return ad._make(data, (nx, nw, nb), bwd)


def conv2d_col2im_reference(w, g, H, W, stride):
    """The input gradient of a conv2d of height H and width W by col2im:
    the column gradient w^T @ g scattered back onto the padded input by a
    kh x kw strided loop, cropped, and its wrapped azimuth columns folded
    in. An independent oracle for the adjoint convolution."""
    O, C, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    B, _, Hs, Ws = g.shape
    dcols = np.matmul(w.reshape(O, C * kh * kw).T, g.reshape(B, O, Hs * Ws))
    dcols = dcols.reshape(B, C, kh, kw, Hs, Ws)
    dxp = np.zeros((B, C, H + 2 * ph, W + 2 * pw), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * Hs : stride,
                j : j + stride * Ws : stride] += dcols[:, :, i, j]
    dx = dxp[:, :, ph : ph + H]
    if pw:
        core = dx[:, :, :, pw : pw + W].copy()
        core[:, :, :, : pw] += dx[:, :, :, W + pw :]
        core[:, :, :, W - pw :] += dx[:, :, :, :pw]
        dx = core
    return dx


def upsample2x_backward_reference(g):
    B, C, H2, W2 = g.shape
    return g.reshape(B, C, H2 // 2, 2, W2 // 2, 2).sum(axis=(3, 5))


def upsample2x_reference(x):
    """Drop-in for `ad.upsample2x` with the reshape-sum backward."""
    x = ad._wrap(x)
    nx = x._node
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def bwd(g):
        ad._accum(nx, upsample2x_backward_reference(g))

    return ad._make(data, (nx,), bwd)


# ---------------------------------------------------------------------------
# Reference SiLU and layer norm whose closures keep the gate and xhat from
# the forward pass; the shipped ops rebuild them in backward and must give
# the same bits.
# ---------------------------------------------------------------------------

def silu_reference(a):
    """Drop-in for `ad.silu` that keeps its gate for backward."""
    a = ad._wrap(a)
    na, x = a._node, a.data
    s = backend._sigmoid_np(x)

    def bwd(g):
        ad._accum(na, g * (s + x * s * (1.0 - s)))

    return ad._make(x * s, (na,), bwd)


def layer_norm_reference(x, gain, bias, eps=1e-5, axis=-1, silu=False):
    """Drop-in for `ad.layer_norm` that keeps xhat for backward; its fused
    SiLU tail is `silu_reference` of the norm's output."""
    if silu:
        return silu_reference(layer_norm_reference(x, gain, bias, eps, axis))
    x, gain, bias = ad._wrap(x), ad._wrap(gain), ad._wrap(bias)
    nx, ng, nb = x._node, gain._node, bias._node
    nd = x.data.ndim
    axis %= nd
    feat = [1] * nd
    feat[axis] = x.data.shape[axis]
    g = gain.data.reshape(feat)
    xhat = x.data - x.data.mean(axis=axis, keepdims=True)
    inv = (xhat * xhat).mean(axis=axis, keepdims=True)
    inv += eps
    inv **= -0.5
    xhat *= inv
    data = xhat * g
    data += bias.data.reshape(feat)
    others = tuple(i for i in range(nd) if i != axis)

    def bwd(gy):
        if ng is not None:
            ad._accum(ng, (gy * xhat).sum(axis=others).reshape(ng.shape))
        if nb is not None:
            ad._accum(nb, gy.sum(axis=others).reshape(nb.shape))
        if nx is not None:
            d = gy * g
            ad._accum(nx, inv * (d - d.mean(axis=axis, keepdims=True)
                                 - xhat * (d * xhat).mean(axis=axis, keepdims=True)))

    return ad._make(data, (nx, ng, nb), bwd)


# ---------------------------------------------------------------------------
# Reference directional fusion: one scan pass per direction. The shipped
# block stacks both directions into one pass and must match it bit for bit
# in the forward pass.
# ---------------------------------------------------------------------------

def cdfm_block_reference(z, params, groups):
    """Drop-in for `denoiser.cdfm_block`: the two directions in two passes."""
    B, H, W, C = z.shape
    fused = []
    for direction in ("horizontal", "vertical"):
        s = dn.scan_flatten(z, direction)
        m = dn._grouped_scan(ad.layer_norm(s, params["ln_g"], params["ln_b"]),
                             params["scan"], groups)
        fused.append(dn.scan_unflatten(ad.add(s, m), H, W, direction))
    avg = ad.mul(ad.add(fused[0], fused[1]), 0.5)
    seq = ad.reshape(avg, (B, H * W, C))
    proj = ad.add(ad.matmul(seq, params["proj_w"]), params["proj_b"])
    return ad.reshape(ad.add(seq, proj), (B, H, W, C))


def bits(a):
    """The raw bits of a float array, so that -0.0 and +0.0 differ."""
    a = np.ascontiguousarray(a)
    return a.view(f"i{a.itemsize}")


# ---------------------------------------------------------------------------
# Reference corpus build: domain by domain, one read of each base scan per
# domain, corruption by masked writes and OLRI planes written from copies.
# The shipped build reads each base scan once and corrupts with bitwise
# selects; it must write the same bytes.
# ---------------------------------------------------------------------------

def corrupt_reference(img, spec, severity, rng):
    """Drop-in for `forge.corrupt` by masked writes."""
    level = spec.severity_levels[severity]
    slope = float(level.get("dropout_slope", 0.0))
    atten = float(level.get("intensity_attenuation", 1.0))
    scatter_count = int(level.get("scatter_count", 0))
    scatter_range = float(level.get("scatter_range", 10.0))

    cfg = img.config
    rng_img = img.range.copy()
    inten = img.intensity.copy()
    valid = img.valid.copy()

    target = forge.detect_ground(img) if spec.kind == "wet_ground" else valid
    p_drop = np.minimum(1.0, slope * rng_img.astype(np.float64))
    draw = rng.random(rng_img.shape)
    drop = target & (draw < p_drop)
    valid &= ~drop
    rng_img[drop] = 0.0
    inten[drop] = 0.0
    survivors = target & valid
    np.copyto(inten, np.clip(inten * atten, 0.0, 1.0), where=survivors)

    if spec.kind == "snow" and scatter_count > 0:
        vs = rng.integers(0, cfg.height, scatter_count)
        us = rng.integers(0, cfg.width, scatter_count)
        rr = rng.uniform(0.5, scatter_range, scatter_count)
        ii = rng.uniform(0.0, 1.0, scatter_count) * atten
        rng_img[vs, us] = rr.astype(np.float32)
        inten[vs, us] = ii.astype(np.float32)
        valid[vs, us] = True

    return geometry.RangeImage(rng_img, inten, valid, cfg)


def write_olri_reference(path, img):
    cfg = img.config
    with open(path, "wb") as f:
        f.write(geometry.OLRI_MAGIC)
        f.write(struct.pack("<HIII", geometry.OLRI_VERSION, cfg.height,
                            cfg.width, 2))
        f.write(struct.pack("<fff", cfg.f_up, cfg.f_down, cfg.r_max))
        f.write(np.ascontiguousarray(img.range, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(img.intensity, dtype="<f4").tobytes())
        f.write(img.valid.astype(np.uint8).tobytes())


def build_dataset_reference(base, specs, out_dir, seed):
    """Drop-in for `forge.build_dataset`, domain by domain."""
    os.makedirs(out_dir, exist_ok=True)
    index = forge.DatasetIndex()
    summary = {"skipped": []}
    for spec in specs:
        if spec.base_key not in base:
            raise ConfigError(
                f"domain {spec.id}: no base corpus for key {spec.base_key!r}"
            )
        dom_dir = os.path.join(out_dir, spec.id)
        os.makedirs(dom_dir, exist_ok=True)
        for path, split in base[spec.base_key]:
            try:
                img = geometry.read_olri(path)
            except (OSError, ConfigError) as exc:
                summary["skipped"].append((spec.id, path, str(exc)))
                continue
            reason = forge._sensor_mismatch(img.config, spec.sensor)
            if reason:
                summary["skipped"].append((spec.id, path, reason))
                continue
            rng = forge.scan_rng(seed, spec.id, os.path.basename(path))
            if spec.corruption is not None:
                severity = int(rng.integers(len(spec.corruption.severity_levels)))
                img = corrupt_reference(img, spec.corruption, severity, rng)
            elif spec.beam_reduce:
                img = forge.reduce_beams(img)
            stem = os.path.splitext(os.path.basename(path))[0]
            rel = os.path.join(spec.id, f"{stem}.olri")
            write_olri_reference(os.path.join(out_dir, rel), img)
            index.records.append((rel, spec.id, split))
    summary["counts"] = {spec.id: 0 for spec in specs} | index.counts()
    index.save(os.path.join(out_dir, "index.tsv"))
    keep = {os.path.realpath(p) for entries in base.values() for p, _ in entries}
    keep |= {os.path.realpath(os.path.join(out_dir, rel))
             for rel, _, _ in index.records}
    summary["removed"] = 0
    for spec in specs:
        dom_dir = os.path.join(out_dir, spec.id)
        for name in os.listdir(dom_dir):
            path = os.path.join(dom_dir, name)
            if name.endswith(".olri") and os.path.realpath(path) not in keep:
                os.remove(path)
                summary["removed"] += 1
    return index, summary
