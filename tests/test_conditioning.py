"""Prompt embedding and cross-attention block tests."""

import itertools

import numpy as np
import pytest
from conftest import check_grads

from rangegen import autodiff as ad
from rangegen import conditioning as cond
from rangegen import forge
from rangegen.errors import ConfigError, ShapeError


# ---------------------------------------------------------------------------
# Hash prompt embedder
# ---------------------------------------------------------------------------

def test_embed_prompt_deterministic():
    a = cond.embed_prompt("a driving scene with falling snow and low visibility")
    b = cond.embed_prompt("a driving scene with falling snow and low visibility")
    np.testing.assert_array_equal(a, b)


def test_embed_prompt_shape_and_padding():
    emb = cond.embed_prompt("snow", token_count=8, dim=64)
    assert emb.shape == (8, 64)
    assert np.linalg.norm(emb[0]) == pytest.approx(1.0)
    np.testing.assert_array_equal(emb[1:], 0.0)


def test_embed_prompt_truncates_long_prompts():
    words = " ".join(f"tok{i}" for i in range(12))
    emb = cond.embed_prompt(words, token_count=8, dim=16)
    assert emb.shape == (8, 16)
    assert np.all(np.linalg.norm(emb, axis=1) > 0.99)


def test_embed_prompt_empty_rejected():
    with pytest.raises(ConfigError):
        cond.embed_prompt("")
    with pytest.raises(ConfigError):
        cond.embed_prompt("   ")


def test_shipped_vocabulary_tokens_nearly_orthogonal():
    vocab = sorted({tok for pool in forge.DEFAULT_PROMPTS.values()
                    for prompt in pool for tok in prompt.lower().split()})
    vecs = {tok: cond._token_vector(tok, cond.EMBED_DIM) for tok in vocab}
    for a, b in itertools.combinations(vocab, 2):
        cos = float(np.dot(vecs[a], vecs[b]))
        assert cos < 0.99, f"tokens {a!r}/{b!r} nearly collinear"


# ---------------------------------------------------------------------------
# Cross-attention block
# ---------------------------------------------------------------------------

def _params(rng, c=6, d=5, dk=4):
    return cond.init_cross_attention(rng, c, d, dk)


def test_attention_weights_are_distributions():
    rng = np.random.default_rng(1)
    p = _params(rng)
    zt = ad.Tensor(rng.standard_normal((2, 12, 6)))
    zc = ad.Tensor(rng.standard_normal((2, 3, 5)))
    w = cond.attention_weights(zt, zc, p).data
    assert np.all(w >= 0)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_output_shape_matches_input():
    rng = np.random.default_rng(2)
    p = _params(rng)
    zt = ad.Tensor(rng.standard_normal((2, 3, 4, 6)))
    zc = ad.Tensor(rng.standard_normal((2, 3, 5)))
    assert cond.cross_attention(zt, zc, p).shape == (2, 3, 4, 6)


def test_single_key_attention_is_value_broadcast():
    rng = np.random.default_rng(3)
    c = dk = 4
    p = _params(rng, c=c, d=5, dk=dk)
    # identity output projection, zero feed-forward
    p["wo"].data = np.eye(dk)
    p["ff2_w"].data[:] = 0.0
    zt = ad.Tensor(rng.standard_normal((1, 2, 3, c)))
    zc = ad.Tensor(rng.standard_normal((1, 1, 5)))
    out = cond.cross_attention(zt, zc, p).data
    v = zc.data[0, 0] @ p["wv"].data
    np.testing.assert_allclose(out, zt.data + v[None, None, None, :],
                               atol=1e-12)


def test_zero_query_projection_gives_uniform_mean_of_values():
    rng = np.random.default_rng(4)
    c = dk = 4
    p = _params(rng, c=c, d=5, dk=dk)
    p["wq"].data[:] = 0.0
    p["wo"].data = np.eye(dk)
    p["ff2_w"].data[:] = 0.0
    zt = ad.Tensor(rng.standard_normal((1, 2, 2, c)))
    zc = ad.Tensor(rng.standard_normal((1, 3, 5)))
    out = cond.cross_attention(zt, zc, p).data
    vmean = (zc.data[0] @ p["wv"].data).mean(axis=0)
    np.testing.assert_allclose(out, zt.data + vmean[None, None, None, :],
                               atol=1e-12)


def test_zero_tokens_leave_only_feedforward_path():
    rng = np.random.default_rng(5)
    p = _params(rng)
    zt = rng.standard_normal((1, 2, 3, 6))
    zc_zero = ad.Tensor(np.zeros((1, 4, 5)))
    out = cond.cross_attention(ad.Tensor(zt), zc_zero, p).data
    # With V = 0 the attention path vanishes; compare against the
    # feed-forward residual computed directly.
    seq = zt.reshape(1, 6, 6)
    normed = ad.layer_norm(ad.Tensor(seq), p["ln2_g"], p["ln2_b"]).data
    hidden = normed @ p["ff1_w"].data + p["ff1_b"].data
    hidden = hidden * (1.0 / (1.0 + np.exp(-hidden)))
    expect = seq + hidden @ p["ff2_w"].data + p["ff2_b"].data
    np.testing.assert_allclose(out.reshape(1, 6, 6), expect, atol=1e-12)


def test_token_permutation_invariance_under_uniform_attention():
    rng = np.random.default_rng(6)
    p = _params(rng)
    p["wq"].data[:] = 0.0
    zt = ad.Tensor(rng.standard_normal((1, 2, 3, 6)))
    zc = rng.standard_normal((1, 4, 5))
    out_a = cond.cross_attention(zt, ad.Tensor(zc), p).data
    out_b = cond.cross_attention(zt, ad.Tensor(zc[:, [2, 0, 3, 1]]), p).data
    np.testing.assert_allclose(out_a, out_b, atol=1e-12)


def test_shape_mismatches_rejected():
    rng = np.random.default_rng(7)
    p = _params(rng)
    with pytest.raises(ShapeError):
        cond.cross_attention(ad.Tensor(np.zeros((1, 2, 2, 5))),
                             ad.Tensor(np.zeros((1, 3, 5))), p)
    with pytest.raises(ShapeError):
        cond.cross_attention(ad.Tensor(np.zeros((1, 2, 2, 6))),
                             ad.Tensor(np.zeros((1, 3, 4))), p)


@pytest.mark.parametrize("seed", range(20))
def test_cross_attention_block_gradients(seed):
    rng = np.random.default_rng(seed)
    p = _params(rng, c=4, d=3, dk=3)
    zc = rng.standard_normal((1, 2, 3))
    weight = rng.standard_normal((1, 2, 2, 4))

    names = sorted(p)

    def fn(zt_a, *param_tensors):
        local = dict(zip(names, param_tensors))
        out = cond.cross_attention(zt_a, ad.Tensor(zc), local)
        return ad.tsum(ad.mul(out, weight))

    arrays = [rng.standard_normal((1, 2, 2, 4))] + [p[k].data for k in names]
    check_grads(fn, arrays, tol=1e-4)
