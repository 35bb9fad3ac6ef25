"""Conditional UNet noise predictor for range images.

Encoder/decoder convolutional stages with timestep embeddings, text
cross-attention at the deeper resolutions, directional sequence
modeling over azimuth- and elevation-flattened feature maps at the
bottleneck (one shared causal scan layer over both directions, stacked
along the batch axis and run as one pass, then averaged), and per-domain
bounded affine modulation of decoder activations.

Every stage runs its residual block, then whichever of these blocks the
config gives it, in this order: cross-attention (`attn_stages`), the
directional scan (`cdfm_stages`, encoder and middle only) and the
domain modulation (decoder only). The middle stage ends in a second
residual block.
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

    def __post_init__(self):
        for w in self.widths:
            if w % self.groups:
                raise ConfigError(
                    f"stage width {w} not divisible by group count {self.groups}"
                )
        if self.time_width % 2:
            raise ConfigError("time_width must be even")


# Range and intensity, as geometry.normalize stacks them.
IN_CHANNELS = 2


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

def init_scan(rng, channels):
    return {
        "a": ad.zeros_param((channels,)),          # decay = -exp(a)
        "wd": ad.fan_in_uniform(rng, (channels,), 1),
        "bd": ad.zeros_param((channels,)),
        "wb": ad.fan_in_uniform(rng, (channels, channels), channels),
        "wc": ad.fan_in_uniform(rng, (channels, channels), channels),
        "skip": ad.ones_param((channels,)),
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


_DIRECTIONS = ("horizontal", "vertical")


def init_cdfm(rng, channels, groups):
    if channels % groups:
        raise ConfigError(f"channels {channels} not divisible by {groups} groups")
    return {
        "scan": init_scan(rng, channels // groups),
        "ln_g": ad.ones_param((channels,)),
        "ln_b": ad.zeros_param((channels,)),
        "proj_w": ad.fan_in_uniform(rng, (channels, channels), channels),
        "proj_b": ad.zeros_param((channels,)),
    }


def cdfm_block(z, params, groups):
    """Directional scan fusion over a (B, H, W, C) feature map.

    Both directions go through the same scan parameter buffers; the
    per-direction update is S + scan(LN(S)). The horizontal and the
    vertical sequences are stacked along the batch axis, (2B, H*W, C), so
    the norm, the scan and the residual add run once over both: the
    stack's first half is the horizontal result and its second half the
    vertical one. Each row is computed as it would be alone, so the output
    has the bits of one pass per direction; a shared parameter's gradient
    is one reduction over all 2B rows. The two unflattened results are
    averaged and passed through a residual channel projection for
    cross-group mixing.
    """
    B, H, W, C = z.shape
    if C % groups:
        raise ConfigError(f"channels {C} not divisible by {groups} groups")
    s = ad.concat([scan_flatten(z, d) for d in _DIRECTIONS], axis=0)
    m = _grouped_scan(ad.layer_norm(s, params["ln_g"], params["ln_b"]),
                      params["scan"], groups)
    u = ad.add(s, m)
    fused = [scan_unflatten(ad.narrow(u, 0, k * B, B), H, W, d)
             for k, d in enumerate(_DIRECTIONS)]
    avg = ad.mul(ad.add(fused[0], fused[1]), 0.5)
    seq = ad.reshape(avg, (B, H * W, C))
    proj = ad.add(ad.matmul(seq, params["proj_w"]), params["proj_b"])
    return ad.reshape(ad.add(seq, proj), (B, H, W, C))


# ---------------------------------------------------------------------------
# Domain-adaptive feature scaling
# ---------------------------------------------------------------------------

def init_dafs(num_domains, channels):
    # Zero init makes the modulation an exact identity before training.
    return ad.zeros_param((num_domains, 2 * channels))


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

def channel_norm(x, gain, bias):
    """Layer norm over the channel axis of a BCHW tensor."""
    return ad.layer_norm(x, gain, bias, axis=1)


def _init_resblock(rng, cin, cout, time_width):
    p = {
        "ln1_g": ad.ones_param((cin,)),
        "ln1_b": ad.zeros_param((cin,)),
        "w1": ad.fan_in_uniform(rng, (cout, cin, 3, 3), cin * 9),
        "b1": ad.zeros_param((cout,)),
        "tw": ad.fan_in_uniform(rng, (time_width, cout), time_width),
        "tb": ad.zeros_param((cout,)),
        "ln2_g": ad.ones_param((cout,)),
        "ln2_b": ad.zeros_param((cout,)),
        "w2": ad.fan_in_uniform(rng, (cout, cout, 3, 3), cout * 9),
        "b2": ad.zeros_param((cout,)),
    }
    if cin != cout:
        p["ws"] = ad.fan_in_uniform(rng, (cout, cin, 1, 1), cin)
        p["bs"] = ad.zeros_param((cout,))
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


def _init_extras(rng, cfg, i, c, decoder):
    """Stage i's blocks after its residual block, in forward order."""
    extras = {}
    if i in cfg.attn_stages:
        extras["attn"] = conditioning.init_cross_attention(rng, c, cfg.cond_dim,
                                                           cfg.dk)
    if not decoder and cfg.use_cdfm and i in cfg.cdfm_stages:
        extras["cdfm"] = init_cdfm(rng, c, cfg.groups)
    if decoder and cfg.use_dafs:
        extras["dafs"] = init_dafs(cfg.num_domains, c)
    return extras


def _extras(h, stage, zc, domain_idx, cfg):
    """Run the blocks `_init_extras` gave `stage` on a BCHW tensor."""
    if "attn" in stage:
        z = conditioning.cross_attention(ad.transpose(h, (0, 2, 3, 1)), zc,
                                         stage["attn"])
        h = ad.transpose(z, (0, 3, 1, 2))
    if "cdfm" in stage:
        z = cdfm_block(ad.transpose(h, (0, 2, 3, 1)), stage["cdfm"], cfg.groups)
        h = ad.transpose(z, (0, 3, 1, 2))
    if "dafs" in stage:
        h = dafs_modulate(h, domain_idx, stage["dafs"], cfg.dafs_bound)
    return h


def _flat(prefix, d, out):
    for k, v in d.items():
        if isinstance(v, dict):
            _flat(f"{prefix}{k}.", v, out)
        else:
            out[f"{prefix}{k}"] = v
    return out


def init_denoiser(config, rng, dtype=np.float64):
    """All learnable buffers of the denoiser as a flat name -> Tensor dict.

    Every draw is made in float64 and cast to `dtype` once, at the end.
    """
    cfg = config
    S = len(cfg.widths)
    tw = cfg.time_width
    p = {}
    p["temb"] = {
        "l1_w": ad.fan_in_uniform(rng, (tw, tw), tw),
        "l1_b": ad.zeros_param((tw,)),
        "l2_w": ad.fan_in_uniform(rng, (tw, tw), tw),
        "l2_b": ad.zeros_param((tw,)),
    }
    c1 = cfg.widths[0]
    p["stem"] = {
        "w": ad.fan_in_uniform(rng, (c1, IN_CHANNELS, 3, 3), IN_CHANNELS * 9),
        "b": ad.zeros_param((c1,)),
    }
    for i in range(1, S):
        ci = cfg.widths[i - 1]
        p[f"enc{i}"] = {"res": _init_resblock(rng, ci, ci, tw),
                        **_init_extras(rng, cfg, i, ci, False)}
        p[f"down{i}"] = {
            "w": ad.fan_in_uniform(rng, (cfg.widths[i], ci, 3, 3), ci * 9),
            "b": ad.zeros_param((cfg.widths[i],)),
        }
    cS = cfg.widths[-1]
    p["mid"] = {"res1": _init_resblock(rng, cS, cS, tw),
                **_init_extras(rng, cfg, S, cS, False),
                "res2": _init_resblock(rng, cS, cS, tw)}
    for i in range(S - 1, 0, -1):
        ci = cfg.widths[i - 1]
        p[f"dec{i}"] = {"res": _init_resblock(rng, cfg.widths[i] + ci, ci, tw),
                        **_init_extras(rng, cfg, i, ci, True)}
    p["head"] = {
        "ln_g": ad.ones_param((c1,)),
        "ln_b": ad.zeros_param((c1,)),
        "w": ad.fan_in_uniform(rng, (IN_CHANNELS, c1, 1, 1), c1),
        "b": ad.zeros_param((IN_CHANNELS,)),
    }
    return {name: ad.Tensor(t.data.astype(dtype, copy=False),
                            requires_grad=True)
            for name, t in _flat("", p, {}).items()}


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
    if C != IN_CHANNELS:
        raise ShapeError(f"expected {IN_CHANNELS} input channels, got {C}")
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
        h = _extras(_resblock(h, stage["res"], temb), stage, zc, domain_idx, cfg)
        skips.append(h)
        down = p[f"down{i}"]
        h = ad.conv2d(h, down["w"], down["b"], stride=2)

    mid = p["mid"]
    h = _extras(_resblock(h, mid["res1"], temb), mid, zc, domain_idx, cfg)
    h = _resblock(h, mid["res2"], temb)

    for i in range(S - 1, 0, -1):
        stage = p[f"dec{i}"]
        h = ad.upsample2x(h)
        h = ad.concat([h, skips[i - 1]], axis=1)
        h = _extras(_resblock(h, stage["res"], temb), stage, zc, domain_idx, cfg)

    head = p["head"]
    h = ad.silu(channel_norm(h, head["ln_g"], head["ln_b"]))
    return ad.conv2d(h, head["w"], head["b"])
