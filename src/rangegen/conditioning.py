"""Prompt embedding and cross-attention conditioning.

Prompts are turned into a fixed-length token matrix by a deterministic
hash embedder (a stand-in for an external frozen text encoder with the
same interface). The token matrix is injected into feature-map
sequences through single-head cross-attention with residual and
feed-forward refinement.
"""

import hashlib

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

TOKEN_COUNT = 8   # L_c: pad/truncate every prompt to this many tokens
EMBED_DIM = 64    # d: embedding width of the default hash embedder


def _token_vector(token, dim):
    """Fixed pseudo-random unit vector from a stable 64-bit token hash."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    seed = int.from_bytes(digest, "little")
    g = np.random.default_rng(seed)
    vec = g.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def embed_prompt(prompt, token_count=TOKEN_COUNT, dim=EMBED_DIM):
    """Deterministic (token_count x dim) embedding of one prompt string."""
    if not prompt or not prompt.strip():
        raise ConfigError("cannot embed an empty prompt")
    tokens = prompt.lower().split()
    out = np.zeros((token_count, dim), dtype=np.float64)
    for i, tok in enumerate(tokens[:token_count]):
        out[i] = _token_vector(tok, dim)
    return out


# ---------------------------------------------------------------------------
# Cross-attention block
# ---------------------------------------------------------------------------

def init_cross_attention(rng, channels, embed_dim, dk):
    """Parameter dict for one cross-attention block (single head, dk = dv)."""
    ff = 2 * channels
    return {
        "wq": ad.fan_in_uniform(rng, (channels, dk), channels),
        "wk": ad.fan_in_uniform(rng, (embed_dim, dk), embed_dim),
        "wv": ad.fan_in_uniform(rng, (embed_dim, dk), embed_dim),
        "wo": ad.fan_in_uniform(rng, (dk, channels), dk),
        "ff1_w": ad.fan_in_uniform(rng, (channels, ff), channels),
        "ff1_b": ad.zeros_param((ff,)),
        "ff2_w": ad.fan_in_uniform(rng, (ff, channels), ff),
        "ff2_b": ad.zeros_param((channels,)),
        "ln1_g": ad.ones_param((channels,)),
        "ln1_b": ad.zeros_param((channels,)),
        "ln2_g": ad.ones_param((channels,)),
        "ln2_b": ad.zeros_param((channels,)),
    }


def attention_weights(zt_seq, zc, params):
    """Softmax attention distribution per query; (B, L_t, L_c)."""
    dk = params["wq"].shape[1]
    q = ad.matmul(zt_seq, params["wq"])
    k = ad.matmul(zc, params["wk"])
    logits = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dk))
    return ad.softmax(logits, axis=-1)


def cross_attention(zt, zc, params):
    """Condition a (B, H, W, C) feature map on (B, L_c, d) token embeddings.

    Pre-norm single-head attention with residual, then a 2-layer
    feed-forward with residual; output shape equals input shape.
    """
    B, H, W, C = zt.shape
    if C != params["wq"].shape[0]:
        raise ShapeError(
            f"feature channels {C} != attention width {params['wq'].shape[0]}"
        )
    if zc.shape[-1] != params["wk"].shape[0]:
        raise ShapeError(
            f"token width {zc.shape[-1]} != key input width {params['wk'].shape[0]}"
        )
    seq = ad.reshape(zt, (B, H * W, C))
    normed = ad.layer_norm(seq, params["ln1_g"], params["ln1_b"])
    attn = attention_weights(normed, zc, params)
    v = ad.matmul(zc, params["wv"])
    out = ad.matmul(ad.matmul(attn, v), params["wo"])
    seq = ad.add(seq, out)
    normed2 = ad.layer_norm(seq, params["ln2_g"], params["ln2_b"])
    hidden = ad.silu(ad.add(ad.matmul(normed2, params["ff1_w"]), params["ff1_b"]))
    ff = ad.add(ad.matmul(hidden, params["ff2_w"]), params["ff2_b"])
    seq = ad.add(seq, ff)
    return ad.reshape(seq, (B, H, W, C))
