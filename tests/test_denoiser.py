"""Denoiser structure: scans, directional fusion, domain modulation, UNet."""

import dataclasses

import numpy as np
import pytest
from conftest import (TINY_CONFIG, bits, cdfm_block_reference, check_grads,
                      directional_fd, rel_err)

from rangegen import autodiff as ad
from rangegen import denoiser as dn
from rangegen.errors import ConfigError, ShapeError


def _scan_params(rng, c=3):
    p = dn.init_scan(rng, c)
    # nonzero gates/decay so gradients flow through every term
    p["a"].data = rng.uniform(-1.0, 0.5, c)
    p["bd"].data = rng.uniform(-0.5, 0.5, c)
    return p


# ---------------------------------------------------------------------------
# Timestep embedding
# ---------------------------------------------------------------------------

def test_timestep_embedding_t0_closed_form():
    e = dn.timestep_embedding(np.array([0]), 8)
    np.testing.assert_array_equal(e[0, :4], 0.0)
    np.testing.assert_array_equal(e[0, 4:], 1.0)


def test_timestep_embedding_injective_and_shaped():
    e = dn.timestep_embedding(np.arange(65), 16, t_max=64)
    assert e.shape == (65, 16)
    for t in range(1, 65):
        assert np.linalg.norm(e[t] - e[t - 1]) > 0


def test_timestep_embedding_range_check():
    with pytest.raises(ValueError):
        dn.timestep_embedding(np.array([-1]), 8)
    with pytest.raises(ValueError):
        dn.timestep_embedding(np.array([65]), 8, t_max=64)


# ---------------------------------------------------------------------------
# Directional flatten/unflatten
# ---------------------------------------------------------------------------

def test_flatten_index_examples_2x3():
    z = np.arange(6, dtype=np.float64).reshape(1, 2, 3, 1)
    h = dn.scan_flatten(ad.Tensor(z), "horizontal").data
    v = dn.scan_flatten(ad.Tensor(z), "vertical").data
    # pixel (v=1, u=2): horizontal index 1*3+2 = 5; vertical 2*2+1 = 5
    assert h[0, 5, 0] == z[0, 1, 2, 0]
    assert v[0, 5, 0] == z[0, 1, 2, 0]
    # a second pixel to pin the whole layout: (v=0, u=1) -> 1 and 2
    assert h[0, 1, 0] == z[0, 0, 1, 0]
    assert v[0, 2, 0] == z[0, 0, 1, 0]


@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
def test_flatten_unflatten_bitwise_inverse(direction):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 3, 5, 4))
    s = dn.scan_flatten(ad.Tensor(z), direction)
    back = dn.scan_unflatten(s, 3, 5, direction).data
    np.testing.assert_array_equal(back, z)


def test_unflatten_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        dn.scan_unflatten(ad.Tensor(np.zeros((1, 7, 2))), 2, 3, "horizontal")


def test_unknown_direction_rejected():
    with pytest.raises(ValueError):
        dn.scan_flatten(ad.Tensor(np.zeros((1, 2, 3, 4))), "diagonal")


# ---------------------------------------------------------------------------
# Selective scan
# ---------------------------------------------------------------------------

def test_selective_scan_zero_input_is_zero():
    rng = np.random.default_rng(1)
    p = _scan_params(rng)
    y = dn.selective_scan(ad.Tensor(np.zeros((2, 5, 3))), p)
    np.testing.assert_array_equal(y.data, 0.0)


def test_selective_scan_single_step_closed_form():
    rng = np.random.default_rng(2)
    c = 3
    p = _scan_params(rng, c)
    x = rng.standard_normal((1, 1, c))
    y = dn.selective_scan(ad.Tensor(x), p).data
    delta = np.logaddexp(0.0, p["wd"].data * x + p["bd"].data)
    abar = np.exp(-delta * np.exp(p["a"].data))
    h = abar * 0.0 + delta * (x @ p["wb"].data.T) * x
    expect = (x @ p["wc"].data.T) * h + p["skip"].data * x
    np.testing.assert_allclose(y, expect, atol=1e-12)


def test_selective_scan_decay_strictly_inside_unit_interval():
    rng = np.random.default_rng(3)
    p = _scan_params(rng)
    x = ad.Tensor(rng.standard_normal((1, 6, 3)) * 10)
    delta = ad.softplus(ad.add(ad.mul(x, p["wd"]), p["bd"])).data
    abar = np.exp(-delta * np.exp(p["a"].data))
    assert np.all(abar > 0.0) and np.all(abar < 1.0)


def test_selective_scan_causality_100_sequences():
    rng = np.random.default_rng(4)
    p = _scan_params(rng)
    for _ in range(100):
        L = int(rng.integers(3, 12))
        s = int(rng.integers(0, L))
        x = rng.standard_normal((1, L, 3))
        base = dn.selective_scan(ad.Tensor(x), p).data
        xp = x.copy()
        xp[0, s] += rng.standard_normal(3)
        pert = dn.selective_scan(ad.Tensor(xp), p).data
        if s > 0:
            np.testing.assert_array_equal(pert[:, :s], base[:, :s])
        assert np.abs(pert[:, s:] - base[:, s:]).max() > 0


@pytest.mark.parametrize("seed", range(20))
def test_selective_scan_gradients(seed):
    rng = np.random.default_rng(seed)
    p = _scan_params(rng)
    names = sorted(p)
    weight = rng.standard_normal((1, 4, 3))

    def fn(x, *params):
        out = dn.selective_scan(x, dict(zip(names, params)))
        return ad.tsum(ad.mul(out, weight))

    arrays = [rng.standard_normal((1, 4, 3))] + [p[k].data for k in names]
    check_grads(fn, arrays, tol=1e-4)


# ---------------------------------------------------------------------------
# Directional fusion block
# ---------------------------------------------------------------------------

def test_cdfm_identity_when_scan_and_projection_vanish():
    rng = np.random.default_rng(5)
    p = dn.init_cdfm(rng, 8, 4)
    p["scan"]["wc"].data[:] = 0.0
    p["scan"]["skip"].data[:] = 0.0
    p["proj_w"].data[:] = 0.0
    z = rng.standard_normal((1, 2, 3, 8))
    out = dn.cdfm_block(ad.Tensor(z), p, 4).data
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_cdfm_directional_passes_share_parameters():
    rng = np.random.default_rng(6)
    p = dn.init_cdfm(rng, 8, 4)
    z = ad.Tensor(rng.standard_normal((1, 2, 3, 8)))

    def directional_outputs(params):
        outs = []
        for direction in ("horizontal", "vertical"):
            s = dn.scan_flatten(z, direction)
            m = dn._grouped_scan(
                ad.layer_norm(s, params["ln_g"], params["ln_b"]),
                params["scan"], 4)
            outs.append(m.data.copy())
        return outs

    base_h, base_v = directional_outputs(p)
    p["scan"]["wb"].data[0, 0] += 0.5  # mutate one shared scan weight
    new_h, new_v = directional_outputs(p)
    assert np.abs(new_h - base_h).max() > 0
    assert np.abs(new_v - base_v).max() > 0


def test_cdfm_channel_group_mismatch_rejected():
    rng = np.random.default_rng(7)
    with pytest.raises(ConfigError):
        dn.init_cdfm(rng, 6, 4)
    p = dn.init_cdfm(rng, 8, 4)
    with pytest.raises(ConfigError):
        dn.cdfm_block(ad.Tensor(np.zeros((1, 2, 3, 6))), p, 4)


def _cdfm_run(block, z, flat, weight, groups):
    """Output of `block` and the gradients of sum(out * weight) for the input
    and for every parameter, on fresh leaves."""
    zt = ad.Tensor(z, requires_grad=True)
    leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in flat.items()}
    out = block(zt, dn._nest(leaves), groups)
    ad.tsum(ad.mul(out, ad.Tensor(weight))).backward()
    return out.data, zt.grad, {k: t.grad for k, t in leaves.items()}


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cdfm_block_matches_two_pass_reference(dtype, B):
    # Both directions in one stacked pass give the two-pass output bit for
    # bit. Gradients move only by summation order: a shared parameter's
    # gradient is one reduction over 2B rows, not two reductions added.
    rng = np.random.default_rng(40 + B)
    H, W, C, groups = 3, 5, 8, 4
    p = {}
    dn._flat("", dn.init_cdfm(rng, C, groups), p)
    flat = {k: rng.uniform(-0.8, 0.8, t.shape).astype(dtype)
            for k, t in p.items()}
    z = rng.standard_normal((B, H, W, C)).astype(dtype)
    weight = rng.standard_normal((B, H, W, C)).astype(dtype)
    out, dz, grads = _cdfm_run(dn.cdfm_block, z, flat, weight, groups)
    ref, ref_dz, ref_grads = _cdfm_run(cdfm_block_reference, z, flat, weight,
                                       groups)
    assert out.dtype == ref.dtype == dtype
    assert np.array_equal(bits(out), bits(ref))
    tol = 1e-12 if dtype == np.float64 else 1e-5

    def max_rel(a, r):
        return np.abs(a - r).max() / np.abs(r).max()

    assert max_rel(dz, ref_dz) <= tol
    assert sorted(grads) == sorted(ref_grads) == sorted(flat)
    for k in flat:
        assert grads[k].dtype == dtype
        assert max_rel(grads[k], ref_grads[k]) <= tol, k


@pytest.mark.parametrize("seed", range(20))
def test_cdfm_block_gradients(seed):
    rng = np.random.default_rng(seed)
    p = dn.init_cdfm(rng, 8, 4)
    p["scan"]["a"].data = rng.uniform(-1.0, 0.5, 2)
    flat = {}
    dn._flat("", p, flat)
    names = sorted(flat)
    weight = rng.standard_normal((1, 2, 3, 8))

    def fn(z, *params):
        local = dn._nest(dict(zip(names, params)))
        out = dn.cdfm_block(z, local, 4)
        return ad.tsum(ad.mul(out, weight))

    arrays = [rng.standard_normal((1, 2, 3, 8))] + [flat[k].data for k in names]
    check_grads(fn, arrays, tol=1e-4)


# ---------------------------------------------------------------------------
# Domain-adaptive feature scaling
# ---------------------------------------------------------------------------

def test_dafs_zero_row_is_exact_identity():
    table = dn.init_dafs(3, 4)
    f = np.random.default_rng(8).standard_normal((2, 4, 3, 5))
    out = dn.dafs_modulate(ad.Tensor(f), np.array([0, 2]), table, 0.1).data
    np.testing.assert_array_equal(out, f)


def test_dafs_delta_bound_on_random_inputs():
    rng = np.random.default_rng(9)
    bound = 0.1
    table = ad.Tensor(rng.standard_normal((4, 8)) * 5, requires_grad=True)
    for _ in range(100):
        f = rng.standard_normal((1, 4, 10, 10)) * rng.uniform(0.1, 10)
        d = rng.integers(0, 4, size=1)
        out = dn.dafs_modulate(ad.Tensor(f), d, table, bound).data
        assert np.all(np.abs(out - f) <= bound * (np.abs(f) + 1.0) + 1e-12)


def test_dafs_zero_bound_is_identity_for_all_rows():
    rng = np.random.default_rng(10)
    table = ad.Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    f = rng.standard_normal((3, 4, 2, 2))
    out = dn.dafs_modulate(ad.Tensor(f), np.array([0, 1, 2]), table, 0.0).data
    np.testing.assert_array_equal(out, f)


def test_dafs_out_of_range_domain_rejected():
    table = dn.init_dafs(2, 4)
    with pytest.raises(IndexError):
        dn.dafs_modulate(ad.Tensor(np.zeros((1, 4, 2, 2))), np.array([2]),
                         table, 0.1)


@pytest.mark.parametrize("seed", range(20))
def test_dafs_gradients(seed):
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((2, 3, 2, 2))
    idx = np.array([1, 0])

    def fn(f, table):
        out = dn.dafs_modulate(f, idx, table, 0.1)
        return ad.tsum(ad.mul(out, weight))

    check_grads(fn, [rng.standard_normal((2, 3, 2, 2)),
                     rng.standard_normal((2, 6))], tol=1e-5)


# ---------------------------------------------------------------------------
# Full denoiser
# ---------------------------------------------------------------------------

def _tiny_setup(seed=0):
    cfg = TINY_CONFIG
    rng = np.random.default_rng(seed)
    params = dn.init_denoiser(cfg, rng)
    x = rng.standard_normal((1, 2, 8, 16))
    zc = rng.standard_normal((1, cfg.token_count, cfg.cond_dim))
    return cfg, params, x, zc, rng


def test_denoise_output_shape_matches_input():
    cfg, params, x, zc, _ = _tiny_setup()
    out = dn.denoise(params, cfg, x, np.array([5]), zc, np.array([0]), t_max=64)
    assert out.shape == (1, 2, 8, 16)


def test_denoise_shape_errors():
    cfg, params, x, zc, _ = _tiny_setup()
    with pytest.raises(ShapeError):
        dn.denoise(params, cfg, np.zeros((1, 3, 8, 16)), np.array([1]), zc,
                   np.array([0]))
    with pytest.raises(ShapeError):
        dn.denoise(params, cfg, np.zeros((1, 2, 7, 16)), np.array([1]), zc,
                   np.array([0]))


def test_denoise_domain_sensitivity_with_nonzero_table():
    cfg, params, x, zc, rng = _tiny_setup(1)
    for name, p in params.items():
        if "dafs" in name:
            p.data = rng.standard_normal(p.data.shape)
    a = dn.denoise(params, cfg, x, np.array([3]), zc, np.array([0]), t_max=64)
    b = dn.denoise(params, cfg, x, np.array([3]), zc, np.array([1]), t_max=64)
    assert np.abs(a.data - b.data).max() > 0


def test_denoise_prompt_sensitivity():
    cfg, params, x, zc, rng = _tiny_setup(2)
    other = zc + rng.standard_normal(zc.shape)
    a = dn.denoise(params, cfg, x, np.array([3]), zc, np.array([0]), t_max=64)
    b = dn.denoise(params, cfg, x, np.array([3]), other, np.array([0]), t_max=64)
    assert np.abs(a.data - b.data).max() > 0


_WIDE = dn.DenoiserConfig(
    widths=(4, 8, 8), attn_stages=(1, 3), cdfm_stages=(1, 3), groups=4,
    time_width=8, cond_dim=8, dk=4, token_count=4, num_domains=2)


# Each case's config and the blocks each of its stages must hold, in order.
@pytest.mark.parametrize("cfg, blocks", [
    (TINY_CONFIG, {"enc1": ["res"], "mid": ["res1", "attn", "cdfm", "res2"],
                      "dec1": ["res", "dafs"]}),
    (dataclasses.replace(TINY_CONFIG, use_cdfm=False),
     {"enc1": ["res"], "mid": ["res1", "attn", "res2"], "dec1": ["res", "dafs"]}),
    (dataclasses.replace(TINY_CONFIG, use_dafs=False),
     {"enc1": ["res"], "mid": ["res1", "attn", "cdfm", "res2"], "dec1": ["res"]}),
    (_WIDE, {"enc1": ["res", "attn", "cdfm"], "enc2": ["res"],
             "mid": ["res1", "attn", "cdfm", "res2"], "dec2": ["res", "dafs"],
             "dec1": ["res", "attn", "dafs"]}),
], ids=["tiny", "no_cdfm", "no_dafs", "stage1_and_mid"])
def test_denoise_every_parameter_receives_gradient(cfg, blocks):
    rng = np.random.default_rng(3)
    params = dn.init_denoiser(cfg, rng)
    held = {}
    for stage, block in dict.fromkeys(tuple(name.split(".")[:2])
                                      for name in params):
        if stage.startswith(("enc", "mid", "dec")):
            held.setdefault(stage, []).append(block)
    assert list(held.items()) == list(blocks.items())
    for name, p in params.items():
        if "dafs" in name:
            p.data = np.random.default_rng(0).standard_normal(p.data.shape)
    x = rng.standard_normal((1, 2, 8, 16))
    zc = rng.standard_normal((1, cfg.token_count, cfg.cond_dim))
    out = dn.denoise(params, cfg, x, np.array([4]), zc, np.array([1]), t_max=64)
    ad.tsum(ad.mul(out, out)).backward()
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached {name}"
        assert np.all(np.isfinite(p.grad)), f"non-finite gradient at {name}"


@pytest.mark.parametrize("cfg", [TINY_CONFIG, _WIDE], ids=["tiny", "wide"])
def test_init_denoiser_float32_is_the_float64_init_cast(cfg):
    wide = dn.init_denoiser(cfg, np.random.default_rng(4))
    narrow = dn.init_denoiser(cfg, np.random.default_rng(4), np.float32)
    assert list(narrow) == list(wide)
    for name, p in narrow.items():
        assert p.dtype == np.float32 and p.requires_grad
        assert p.data.tobytes() == wide[name].data.astype(np.float32).tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_denoise_end_to_end_directional_gradient(seed):
    # Full-network check: central finite difference of the MSE loss along
    # a random direction through all parameters vs the analytic gradient.
    cfg, params, x, zc, rng = _tiny_setup(seed)
    target = rng.standard_normal(x.shape)
    names = sorted(params)

    def loss_value(arrays):
        local = {k: ad.Tensor(a) for k, a in zip(names, arrays)}
        out = dn.denoise(local, cfg, x, np.array([4]), zc, np.array([0]),
                         t_max=64)
        diff = out - ad.Tensor(target)
        return float(ad.tmean(ad.mul(diff, diff)).data)

    tensors = {k: ad.Tensor(params[k].data.copy(), requires_grad=True)
               for k in names}
    out = dn.denoise(tensors, cfg, x, np.array([4]), zc, np.array([0]),
                     t_max=64)
    diff = out - ad.Tensor(target)
    ad.tmean(ad.mul(diff, diff)).backward()
    grads = [tensors[k].grad for k in names]
    arrays = [params[k].data.copy() for k in names]
    err = directional_fd(lambda *a: loss_value(a), arrays, grads, rng)
    assert err <= 1e-4, f"directional gradient error {err:.3e}"
