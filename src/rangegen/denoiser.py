"""Conditional UNet noise predictor for range images.

Encoder/decoder convolutional stages with timestep embeddings, text
cross-attention at the deeper resolutions, directional sequence
modeling over azimuth- and elevation-flattened feature maps at the
bottleneck (two passes through one shared causal scan layer, averaged),
and per-domain bounded affine modulation of decoder activations.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import conditioning
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class DenoiserConfig:
    widths: tuple = (32, 64, 128)   # channel width per stage, shallow to deep
    attn_stages: tuple = (2, 3)     # 1-based stages carrying cross-attention
    cdfm_stages: tuple = (3,)       # 1-based stages carrying directional scans
    groups: int = 4                 # channel groups sharing the scan layer
    time_width: int = 64
    cond_dim: int = conditioning.EMBED_DIM
    dk: int = 32                    # attention query/key (= value) width
    token_count: int = conditioning.TOKEN_COUNT
    num_domains: int = 8
    dafs_bound: float = 0.1         # lambda: tanh modulation bound
    use_cdfm: bool = True
    use_dafs: bool = True
    in_channels: int = 2

    def __post_init__(self):
        for w in self.widths:
            if w % self.groups:
                raise ConfigError(
                    f"stage width {w} not divisible by group count {self.groups}"
                )
        if self.time_width % 2:
            raise ConfigError("time_width must be even")


TINY_CONFIG = DenoiserConfig(
    widths=(4, 8), attn_stages=(2,), cdfm_stages=(2,), groups=4,
    time_width=8, cond_dim=8, dk=4, token_count=4, num_domains=2,
)


# ---------------------------------------------------------------------------
# Timestep embedding
# ---------------------------------------------------------------------------

def timestep_embedding(t, width, t_max=None):
    """Sinusoidal encoding at geometric frequencies; shape (..., width)."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0) or (t_max is not None and np.any(t > t_max)):
        raise ValueError(f"timestep out of range [0, {t_max}]")
    half = width // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


# ---------------------------------------------------------------------------
# Scan-aligned flatten/unflatten
# ---------------------------------------------------------------------------

def scan_flatten(z, direction):
    """(B, H, W, C) -> (B, H*W, C) sequence along one scan axis.

    horizontal: sequence index s = v*W + u (azimuth-major);
    vertical:   sequence index s = u*H + v (elevation-major).
    """
    B, H, W, C = z.shape
    if direction == "horizontal":
        return ad.reshape(z, (B, H * W, C))
    if direction == "vertical":
        return ad.reshape(ad.transpose(z, (0, 2, 1, 3)), (B, W * H, C))
    raise ValueError(f"unknown scan direction {direction!r}")


def scan_unflatten(s, height, width, direction):
    B, L, C = s.shape
    if L != height * width:
        raise ShapeError(f"sequence length {L} != {height}x{width}")
    if direction == "horizontal":
        return ad.reshape(s, (B, height, width, C))
    if direction == "vertical":
        return ad.transpose(ad.reshape(s, (B, width, height, C)), (0, 2, 1, 3))
    raise ValueError(f"unknown scan direction {direction!r}")


# ---------------------------------------------------------------------------
# Selective scan (diagonal state-space recurrence with input-dependent gates)
# ---------------------------------------------------------------------------

def init_scan(rng, channels, dtype=np.float64):
    return {
        "a": ad.zeros_param((channels,), dtype),          # decay = -exp(a)
        "wd": ad.fan_in_uniform(rng, (channels,), 1, dtype),
        "bd": ad.zeros_param((channels,), dtype),
        "wb": ad.fan_in_uniform(rng, (channels, channels), channels, dtype),
        "wc": ad.fan_in_uniform(rng, (channels, channels), channels, dtype),
        "skip": ad.Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
    }


def selective_scan(x, params):
    """Causal linear-time scan over (B, L, c) sequences.

    delta_s = softplus(wd*x_s + bd); abar_s = exp(-delta_s * exp(a));
    h_s = abar_s*h_{s-1} + delta_s*(W_B x_s) (.) x_s;
    y_s = (W_C x_s) (.) h_s + skip (.) x_s.
    """
    delta = ad.softplus(ad.add(ad.mul(x, params["wd"]), params["bd"]))
    decay = ad.mul(ad.exp(params["a"]), -1.0)
    abar = ad.exp(ad.mul(delta, decay))
    p = ad.matmul(x, ad.transpose(params["wb"], (1, 0)))
    q = ad.mul(ad.mul(delta, p), x)
    h = ad.recurrence(abar, q)
    r = ad.matmul(x, ad.transpose(params["wc"], (1, 0)))
    return ad.add(ad.mul(r, h), ad.mul(x, params["skip"]))


def _grouped_scan(s, params, groups):
    B, L, C = s.shape
    cg = C // groups
    x = ad.reshape(s, (B, L, groups, cg))
    x = ad.transpose(x, (0, 2, 1, 3))
    x = ad.reshape(x, (B * groups, L, cg))
    y = selective_scan(x, params)
    y = ad.reshape(y, (B, groups, L, cg))
    y = ad.transpose(y, (0, 2, 1, 3))
    return ad.reshape(y, (B, L, C))


def init_cdfm(rng, channels, groups, dtype=np.float64):
    if channels % groups:
        raise ConfigError(f"channels {channels} not divisible by {groups} groups")
    return {
        "scan": init_scan(rng, channels // groups, dtype),
        "ln_g": ad.Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
        "ln_b": ad.zeros_param((channels,), dtype),
        "proj_w": ad.fan_in_uniform(rng, (channels, channels), channels, dtype),
        "proj_b": ad.zeros_param((channels,), dtype),
    }


def cdfm_block(z, params, groups):
    """Directional two-pass scan fusion over a (B, H, W, C) feature map.

    Both directional passes go through the same scan parameter buffers;
    the per-direction update is S + scan(LN(S)). The two unflattened
    results are averaged and passed through a residual channel
    projection for cross-group mixing.
    """
    B, H, W, C = z.shape
    if C % groups:
        raise ConfigError(f"channels {C} not divisible by {groups} groups")
    fused = []
    for direction in ("horizontal", "vertical"):
        s = scan_flatten(z, direction)
        m = _grouped_scan(ad.layer_norm(s, params["ln_g"], params["ln_b"]),
                          params["scan"], groups)
        fused.append(scan_unflatten(ad.add(s, m), H, W, direction))
    avg = ad.mul(ad.add(fused[0], fused[1]), 0.5)
    seq = ad.reshape(avg, (B, H * W, C))
    proj = ad.add(ad.matmul(seq, params["proj_w"]), params["proj_b"])
    return ad.reshape(ad.add(seq, proj), (B, H, W, C))


# ---------------------------------------------------------------------------
# Domain-adaptive feature scaling
# ---------------------------------------------------------------------------

def init_dafs(num_domains, channels, dtype=np.float64):
    # Zero init makes the modulation an exact identity before training.
    return ad.zeros_param((num_domains, 2 * channels), dtype)


def dafs_modulate(f, domain_idx, table, bound):
    """(1 + tanh(gamma)*bound) (.) F + tanh(beta)*bound, per channel."""
    B, C = f.shape[0], f.shape[1]
    row = ad.embedding(table, np.asarray(domain_idx, dtype=np.int64))
    gamma = ad.mul(ad.tanh(ad.narrow(row, 1, 0, C)), bound)
    beta = ad.mul(ad.tanh(ad.narrow(row, 1, C, C)), bound)
    gamma = ad.reshape(gamma, (B, C, 1, 1))
    beta = ad.reshape(beta, (B, C, 1, 1))
    return ad.add(ad.mul(ad.add(gamma, 1.0), f), beta)


# ---------------------------------------------------------------------------
# UNet assembly
# ---------------------------------------------------------------------------

def channel_norm(x, gain, bias, eps=1e-5):
    """Layer norm over the channel axis of a BCHW tensor."""
    C = x.shape[1]
    mu = ad.tmean(x, axis=1, keepdims=True)
    xc = x - mu
    var = ad.tmean(ad.mul(xc, xc), axis=1, keepdims=True)
    inv = ad.power(ad.add(var, eps), -0.5)
    g = ad.reshape(gain, (1, C, 1, 1))
    b = ad.reshape(bias, (1, C, 1, 1))
    return ad.add(ad.mul(ad.mul(xc, inv), g), b)


def _init_resblock(rng, cin, cout, time_width, dtype):
    p = {
        "ln1_g": ad.Tensor(np.ones(cin, dtype=dtype), requires_grad=True),
        "ln1_b": ad.zeros_param((cin,), dtype),
        "w1": ad.fan_in_uniform(rng, (cout, cin, 3, 3), cin * 9, dtype),
        "b1": ad.zeros_param((cout,), dtype),
        "tw": ad.fan_in_uniform(rng, (time_width, cout), time_width, dtype),
        "tb": ad.zeros_param((cout,), dtype),
        "ln2_g": ad.Tensor(np.ones(cout, dtype=dtype), requires_grad=True),
        "ln2_b": ad.zeros_param((cout,), dtype),
        "w2": ad.fan_in_uniform(rng, (cout, cout, 3, 3), cout * 9, dtype),
        "b2": ad.zeros_param((cout,), dtype),
    }
    if cin != cout:
        p["ws"] = ad.fan_in_uniform(rng, (cout, cin, 1, 1), cin, dtype)
        p["bs"] = ad.zeros_param((cout,), dtype)
    return p


def _resblock(x, p, temb):
    B = x.shape[0]
    cout = p["w1"].shape[0]
    h = ad.conv2d(ad.silu(channel_norm(x, p["ln1_g"], p["ln1_b"])), p["w1"], p["b1"])
    tproj = ad.add(ad.matmul(temb, p["tw"]), p["tb"])
    h = ad.add(h, ad.reshape(tproj, (B, cout, 1, 1)))
    h = ad.conv2d(ad.silu(channel_norm(h, p["ln2_g"], p["ln2_b"])), p["w2"], p["b2"])
    skip = ad.conv2d(x, p["ws"], p["bs"]) if "ws" in p else x
    return ad.add(skip, h)


def _flat(prefix, d, out):
    for k, v in d.items():
        if isinstance(v, dict):
            _flat(f"{prefix}{k}.", v, out)
        else:
            out[f"{prefix}{k}"] = v
    return out


def init_denoiser(config, rng, dtype=np.float64):
    """All learnable buffers of the denoiser as a flat name -> Tensor dict."""
    cfg = config
    S = len(cfg.widths)
    tw = cfg.time_width
    p = {}
    p["temb"] = {
        "l1_w": ad.fan_in_uniform(rng, (tw, tw), tw, dtype),
        "l1_b": ad.zeros_param((tw,), dtype),
        "l2_w": ad.fan_in_uniform(rng, (tw, tw), tw, dtype),
        "l2_b": ad.zeros_param((tw,), dtype),
    }
    c1 = cfg.widths[0]
    p["stem"] = {
        "w": ad.fan_in_uniform(rng, (c1, cfg.in_channels, 3, 3),
                               cfg.in_channels * 9, dtype),
        "b": ad.zeros_param((c1,), dtype),
    }
    for i in range(1, S):
        ci = cfg.widths[i - 1]
        stage = {"res": _init_resblock(rng, ci, ci, tw, dtype)}
        if i in cfg.attn_stages:
            stage["attn"] = conditioning.init_cross_attention(
                rng, ci, cfg.cond_dim, cfg.dk, dtype=dtype)
        if cfg.use_cdfm and i in cfg.cdfm_stages:
            stage["cdfm"] = init_cdfm(rng, ci, cfg.groups, dtype)
        p[f"enc{i}"] = stage
        p[f"down{i}"] = {
            "w": ad.fan_in_uniform(rng, (cfg.widths[i], ci, 3, 3), ci * 9, dtype),
            "b": ad.zeros_param((cfg.widths[i],), dtype),
        }
    cS = cfg.widths[-1]
    mid = {"res1": _init_resblock(rng, cS, cS, tw, dtype)}
    if S in cfg.attn_stages:
        mid["attn"] = conditioning.init_cross_attention(
            rng, cS, cfg.cond_dim, cfg.dk, dtype=dtype)
    if cfg.use_cdfm and S in cfg.cdfm_stages:
        mid["cdfm"] = init_cdfm(rng, cS, cfg.groups, dtype)
    mid["res2"] = _init_resblock(rng, cS, cS, tw, dtype)
    p["mid"] = mid
    for i in range(S - 1, 0, -1):
        ci = cfg.widths[i - 1]
        cdeep = cfg.widths[i]
        stage = {"res": _init_resblock(rng, cdeep + ci, ci, tw, dtype)}
        if i in cfg.attn_stages:
            stage["attn"] = conditioning.init_cross_attention(
                rng, ci, cfg.cond_dim, cfg.dk, dtype=dtype)
        if cfg.use_dafs:
            stage["dafs"] = init_dafs(cfg.num_domains, ci, dtype)
        p[f"dec{i}"] = stage
    p["head"] = {
        "ln_g": ad.Tensor(np.ones(c1, dtype=dtype), requires_grad=True),
        "ln_b": ad.zeros_param((c1,), dtype),
        "w": ad.fan_in_uniform(rng, (cfg.in_channels, c1, 1, 1), c1, dtype),
        "b": ad.zeros_param((cfg.in_channels,), dtype),
    }
    return _flat("", p, {})


def _nest(params):
    """Inverse of `_flat`: dotted names back to nested dicts."""
    out = {}
    for k, v in params.items():
        *parents, leaf = k.split(".")
        d = out
        for part in parents:
            d = d.setdefault(part, {})
        d[leaf] = v
    return out


def _attn_bchw(h, zc, attn_params):
    z = ad.transpose(h, (0, 2, 3, 1))
    z = conditioning.cross_attention(z, zc, attn_params)
    return ad.transpose(z, (0, 3, 1, 2))


def _cdfm_bchw(h, cdfm_params, groups):
    z = ad.transpose(h, (0, 2, 3, 1))
    z = cdfm_block(z, cdfm_params, groups)
    return ad.transpose(z, (0, 3, 1, 2))


def denoise(params, config, x, t, zc, domain_idx, t_max=None):
    """Predict the injected noise for a batch of noisy range images.

    x: (B, 2, H, W) tensor/array; t: (B,) integer timesteps; zc:
    (B, L_c, d) token embeddings; domain_idx: (B,) domain table rows.
    Output shape equals input shape.
    """
    cfg = config
    S = len(cfg.widths)
    if not isinstance(x, ad.Tensor):
        x = ad.Tensor(x)
    if not isinstance(zc, ad.Tensor):
        zc = ad.Tensor(np.asarray(zc, dtype=x.dtype))
    B, C, H, W = x.shape
    if C != cfg.in_channels:
        raise ShapeError(f"expected {cfg.in_channels} input channels, got {C}")
    if H % (1 << (S - 1)) or W % (1 << (S - 1)):
        raise ShapeError(f"{H}x{W} input not divisible by 2^{S - 1}")

    p = _nest(params)
    sin = timestep_embedding(t, cfg.time_width, t_max=t_max).astype(x.dtype)
    te = p["temb"]
    temb = ad.matmul(ad.Tensor(sin), te["l1_w"]) + te["l1_b"]
    temb = ad.matmul(ad.silu(temb), te["l2_w"]) + te["l2_b"]

    stem = p["stem"]
    h = ad.conv2d(x, stem["w"], stem["b"])
    skips = []
    for i in range(1, S):
        stage = p[f"enc{i}"]
        h = _resblock(h, stage["res"], temb)
        if "attn" in stage:
            h = _attn_bchw(h, zc, stage["attn"])
        if "cdfm" in stage:
            h = _cdfm_bchw(h, stage["cdfm"], cfg.groups)
        skips.append(h)
        down = p[f"down{i}"]
        h = ad.conv2d(h, down["w"], down["b"], stride=2)

    mid = p["mid"]
    h = _resblock(h, mid["res1"], temb)
    if "attn" in mid:
        h = _attn_bchw(h, zc, mid["attn"])
    if "cdfm" in mid:
        h = _cdfm_bchw(h, mid["cdfm"], cfg.groups)
    h = _resblock(h, mid["res2"], temb)

    for i in range(S - 1, 0, -1):
        stage = p[f"dec{i}"]
        h = ad.upsample2x(h)
        h = ad.concat([h, skips[i - 1]], axis=1)
        h = _resblock(h, stage["res"], temb)
        if "attn" in stage:
            h = _attn_bchw(h, zc, stage["attn"])
        if "dafs" in stage:
            h = dafs_modulate(h, domain_idx, stage["dafs"], cfg.dafs_bound)

    head = p["head"]
    h = ad.silu(channel_norm(h, head["ln_g"], head["ln_b"]))
    return ad.conv2d(h, head["w"], head["b"])
