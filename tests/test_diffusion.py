"""Noise schedule, forward noising, loss, and sampler tests."""

import tracemalloc

import numpy as np
import pytest

from conftest import TINY_CONFIG, TOY_DENOISER_CONFIG, bits
from rangegen import backend
from rangegen import denoiser as dn
from rangegen import diffusion as df
from rangegen.errors import ConfigError, ShapeError, TrainingError


# ---------------------------------------------------------------------------
# Cosine schedule
# ---------------------------------------------------------------------------

def test_schedule_starts_at_one():
    assert df.cosine_schedule(64).alpha_bar[0] == 1.0


def test_schedule_terminal_value_small():
    sched = df.cosine_schedule(64)
    assert 0.0 < sched.alpha_bar[-1] <= 1e-3


def test_schedule_strictly_decreasing():
    for T in (16, 64, 256):
        ab = df.cosine_schedule(T).alpha_bar
        assert np.all(np.diff(ab) < 0)


def test_schedule_betas_in_unit_interval():
    ab = df.cosine_schedule(64).alpha_bar
    betas = 1.0 - ab[1:] / ab[:-1]
    assert np.all(betas > 0) and np.all(betas <= 0.999)


def test_schedule_rejects_bad_length():
    with pytest.raises(ConfigError):
        df.cosine_schedule(0)


# ---------------------------------------------------------------------------
# Forward noising
# ---------------------------------------------------------------------------

def test_q_sample_endpoints():
    sched = df.cosine_schedule(64)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((2, 3))
    eps = rng.standard_normal((2, 3))
    np.testing.assert_allclose(df.q_sample(x0, 0, eps, sched), x0)
    xt = df.q_sample(x0, 64, eps, sched)
    # at the terminal step the signal contribution is nearly gone
    np.testing.assert_allclose(xt, eps, atol=0.2)


def test_q_sample_per_sample_timesteps():
    sched = df.cosine_schedule(64)
    x0 = np.ones((2, 1, 2, 2))
    eps = np.zeros_like(x0)
    out = df.q_sample(x0, np.array([0, 32]), eps, sched)
    np.testing.assert_allclose(out[0], 1.0)
    np.testing.assert_allclose(out[1], np.sqrt(sched.alpha_bar[32]))


def test_q_sample_shape_mismatch_rejected():
    sched = df.cosine_schedule(8)
    with pytest.raises(ConfigError):
        df.q_sample(np.zeros((2, 3)), 1, np.zeros((3, 2)), sched)


def test_q_sample_monte_carlo_moments():
    sched = df.cosine_schedule(64)
    rng = np.random.default_rng(1)
    x0 = np.array([0.7])
    t = 20
    draws = df.q_sample(np.broadcast_to(x0, (10_000, 1)), t,
                        rng.standard_normal((10_000, 1)), sched)
    ab = sched.alpha_bar[t]
    mean_se = np.sqrt((1.0 - ab) / 10_000)
    assert abs(draws.mean() - np.sqrt(ab) * 0.7) <= 4 * mean_se
    assert abs(draws.var() - (1.0 - ab)) / (1.0 - ab) <= 0.05


# ---------------------------------------------------------------------------
# Training objective
# ---------------------------------------------------------------------------

def _zero_net_params(cfg):
    params = dn.init_denoiser(cfg, np.random.default_rng(0))
    params["head.w"].data[:] = 0.0
    params["head.b"].data[:] = 0.0
    return params


def test_loss_of_zero_net_near_one():
    cfg = TINY_CONFIG
    params = _zero_net_params(cfg)
    sched = df.cosine_schedule(64)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((8, 2, 8, 16)) * 0.5
    zc = rng.standard_normal((8, cfg.token_count, cfg.cond_dim))
    loss = df.diffusion_loss(params, cfg, sched, x0, zc,
                             np.zeros(8, dtype=np.int64), rng)
    # predicting zero noise leaves E||eps||^2 = 1 per element
    n = x0.size
    assert abs(float(loss.data) - 1.0) <= 4 * np.sqrt(2.0 / n)
    assert float(loss.data) >= 0.0


def test_loss_deterministic_given_seed():
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(1))
    sched = df.cosine_schedule(64)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((2, 2, 8, 16))
    zc = rng.standard_normal((2, cfg.token_count, cfg.cond_dim))
    a = df.diffusion_loss(params, cfg, sched, x0, zc, np.zeros(2, np.int64),
                          np.random.default_rng(42))
    b = df.diffusion_loss(params, cfg, sched, x0, zc, np.zeros(2, np.int64),
                          np.random.default_rng(42))
    assert float(a.data) == float(b.data)


def test_loss_nonfinite_names_offending_samples():
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(1))
    params["head.b"].data[:] = np.inf
    sched = df.cosine_schedule(64)
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((2, 2, 8, 16))
    zc = rng.standard_normal((2, cfg.token_count, cfg.cond_dim))
    with pytest.raises(TrainingError, match=r"\[0, 1\]"):
        df.diffusion_loss(params, cfg, sched, x0, zc, np.zeros(2, np.int64),
                          rng)


def test_loss_populates_gradients():
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(5))
    sched = df.cosine_schedule(64)
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((2, 2, 8, 16))
    zc = rng.standard_normal((2, cfg.token_count, cfg.cond_dim))
    loss = df.diffusion_loss(params, cfg, sched, x0, zc,
                             np.array([0, 1]), rng)
    loss.backward()
    grads = [p for p in params.values() if p.grad is not None]
    assert len(grads) > 0.9 * len(params)


def test_paper_width_step_does_not_depend_on_conv_block_size(monkeypatch):
    # One float32 training step at paper widths on a 64x256 batch of two:
    # its convolutions split into row tiles and channel blocks under both
    # limits, and the loss and every gradient keep their bits.
    cfg = dn.DenoiserConfig()
    rng = np.random.default_rng(20)
    x0 = rng.uniform(-1.0, 1.0, (2, dn.IN_CHANNELS, 64, 256)).astype(np.float32)
    zc = rng.standard_normal((2, cfg.token_count, cfg.cond_dim)).astype(
        np.float32)

    def step(limit):
        monkeypatch.setattr(backend, "_BLOCK_BYTES", limit)
        params = dn.init_denoiser(cfg, np.random.default_rng(21),
                                  dtype=np.float32)
        loss = df.diffusion_loss(params, cfg, df.cosine_schedule(64), x0, zc,
                                 np.array([0, 5]), np.random.default_rng(22))
        loss.backward()
        return loss.data, {k: p.grad for k, p in params.items()}

    loss16, grads16 = step(16 << 20)
    loss2, grads2 = step(2 << 20)
    assert np.array_equal(bits(loss16), bits(loss2))
    for k in grads16:
        assert np.array_equal(bits(grads16[k]), bits(grads2[k])), k


# ---------------------------------------------------------------------------
# Strided sub-schedule
# ---------------------------------------------------------------------------

def test_sample_timesteps_strided():
    tau = df.sample_timesteps(64, 8)
    assert tau[0] == 0 and tau[-1] == 64
    assert np.all(np.diff(tau) > 0)
    assert len(tau) == 9


def test_sample_timesteps_full_schedule_is_identity():
    np.testing.assert_array_equal(df.sample_timesteps(16, 16), np.arange(17))


def test_sample_timesteps_rejects_excess_steps():
    with pytest.raises(ConfigError):
        df.sample_timesteps(16, 17)


# ---------------------------------------------------------------------------
# Ancestral sampler
# ---------------------------------------------------------------------------

def _sample(cfg, params, sched, steps, seed, batch=1):
    rng = np.random.default_rng(seed)
    zc = np.zeros((batch, cfg.token_count, cfg.cond_dim))
    return df.ddpm_sample(params, cfg, sched, zc, np.zeros(batch, np.int64),
                          rng, steps=steps, shape=(8, 16))


def test_sampler_output_shape_and_range():
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(7))
    sched = df.cosine_schedule(16)
    out = _sample(cfg, params, sched, steps=8, seed=0, batch=2)
    assert out.shape == (2, 2, 8, 16)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_sampler_batch_follows_domain_idx():
    # One scan per domain index, the noise drawn at that batch size.
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(20))
    sched = df.cosine_schedule(16)
    dom = np.array([1, 0, 1])
    zc = np.zeros((3, cfg.token_count, cfg.cond_dim))
    out = df.ddpm_sample(params, cfg, sched, zc, dom,
                         np.random.default_rng(21), steps=2, shape=(8, 16))
    assert out.shape == (3, 2, 8, 16)
    ref = _recording_reference_sample(params, cfg, sched, zc, dom,
                                      np.random.default_rng(21), 2, (8, 16))
    assert np.array_equal(out, ref)


def test_sampler_takes_one_prompt_or_one_per_domain_index():
    # One prompt serves every scan; two prompts for three scans stop at the
    # top instead of failing to broadcast inside the cross-attention.
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(20))
    sched = df.cosine_schedule(16)
    dom = np.array([1, 0, 1])

    def run(prompts):
        zc = np.zeros((prompts, cfg.token_count, cfg.cond_dim))
        return df.ddpm_sample(params, cfg, sched, zc, dom,
                              np.random.default_rng(21), steps=2,
                              shape=(8, 16))

    assert run(1).shape == (3, 2, 8, 16)
    with pytest.raises(ShapeError, match="2 prompts for 3 domain"):
        run(2)


def test_sampler_bit_reproducible():
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(8))
    sched = df.cosine_schedule(16)
    a = _sample(cfg, params, sched, steps=8, seed=5)
    b = _sample(cfg, params, sched, steps=8, seed=5)
    np.testing.assert_array_equal(a, b)


def test_sampler_rejects_excess_steps():
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(9))
    sched = df.cosine_schedule(8)
    with pytest.raises(ConfigError):
        _sample(cfg, params, sched, steps=9, seed=0)


def test_sampler_zero_net_matches_two_step_oracle():
    # With the noise prediction forced to zero, the ancestral chain is an
    # explicit affine recursion in the injected Gaussians; replay it by hand.
    cfg = TINY_CONFIG
    params = _zero_net_params(cfg)
    ab = np.array([1.0, 0.6, 0.2])
    sched = df.NoiseSchedule(ab)
    seed = 11
    out = _sample(cfg, params, sched, steps=2, seed=seed)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, 8, 16))
    # t=2 -> t=1: x0_hat = x / sqrt(ab_2), clipped, then the posterior mean.
    alpha = ab[2] / ab[1]
    beta = 1.0 - alpha
    x0 = np.clip(x / np.sqrt(ab[2]), -1.0, 1.0)
    mean = (np.sqrt(ab[1]) * beta * x0
            + np.sqrt(alpha) * (1.0 - ab[1]) * x) / (1.0 - ab[2])
    var = (1.0 - ab[1]) / (1.0 - ab[2]) * beta
    x = mean + np.sqrt(var) * rng.standard_normal(x.shape)
    # t=1 -> t=0: ab_0 = 1, so the posterior mean is the clipped x0_hat.
    x = np.clip(x / np.sqrt(ab[1]), -1.0, 1.0)
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_sampler_uses_conditioning():
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(10))
    sched = df.cosine_schedule(16)
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    zc_a = np.zeros((1, cfg.token_count, cfg.cond_dim))
    zc_b = np.ones((1, cfg.token_count, cfg.cond_dim))
    a = df.ddpm_sample(params, cfg, sched, zc_a, np.zeros(1, np.int64),
                       rng_a, steps=8, shape=(8, 16))
    b = df.ddpm_sample(params, cfg, sched, zc_b, np.zeros(1, np.int64),
                       rng_b, steps=8, shape=(8, 16))
    assert np.abs(a - b).max() > 0


def _recording_reference_sample(params, cfg, sched, zc, domain_idx, rng,
                                steps, shape):
    # The sampler loop with the parameters as given, so every denoiser call
    # records its tape. The network runs in the parameters' dtype, the chain
    # in float64.
    tau = df.sample_timesteps(sched.T, steps)
    ab = sched.alpha_bar
    x = rng.standard_normal((len(domain_idx), dn.IN_CHANNELS) + shape)
    net_dtype = params["stem.w"].dtype
    zc = np.asarray(zc, dtype=net_dtype)
    for i in range(len(tau) - 1, 0, -1):
        t, tprev = tau[i], tau[i - 1]
        eps_hat = dn.denoise(params, cfg, x.astype(net_dtype),
                             np.full(len(x), t), zc, domain_idx,
                             t_max=sched.T).data
        alpha = ab[t] / ab[tprev]
        beta = 1.0 - alpha
        x0_hat = np.clip((x - np.sqrt(1.0 - ab[t]) * eps_hat) / np.sqrt(ab[t]),
                         -1.0, 1.0)
        mean = (np.sqrt(ab[tprev]) * beta * x0_hat
                + np.sqrt(alpha) * (1.0 - ab[tprev]) * x) / (1.0 - ab[t])
        if tprev > 0:
            var = (1.0 - ab[tprev]) / (1.0 - ab[t]) * beta
            x = mean + np.sqrt(var) * rng.standard_normal(x.shape)
        else:
            x = mean
    return np.clip(x, -1.0, 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sampler_matches_recording_reference_loop(dtype):
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(12), dtype=dtype)
    sched = df.cosine_schedule(16)
    zc = np.random.default_rng(13).standard_normal(
        (2, cfg.token_count, cfg.cond_dim)).astype(dtype)
    dom = np.array([0, 1])
    out = df.ddpm_sample(params, cfg, sched, zc, dom,
                         np.random.default_rng(14), steps=8, shape=(8, 16))
    ref = _recording_reference_sample(params, cfg, sched, zc, dom,
                                      np.random.default_rng(14), 8, (8, 16))
    assert np.array_equal(out, ref)


def test_sampler_runs_float32_network_in_float32(monkeypatch):
    # A float32 model sees float32 inputs and prompt tokens at every step,
    # while the chain it drives stays in float64.
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(19), dtype=np.float32)
    inputs = []
    shipped_denoise = dn.denoise

    def denoise(params, config, x, t, zc, *args, **kwargs):
        inputs.append((x.dtype, zc.dtype))
        return shipped_denoise(params, config, x, t, zc, *args, **kwargs)

    monkeypatch.setattr(dn, "denoise", denoise)
    out = _sample(cfg, params, df.cosine_schedule(16), steps=4, seed=1)
    assert inputs == [(np.float32, np.float32)] * 4
    assert out.dtype == np.float64


def test_sampler_records_no_tape_and_sets_no_grad(monkeypatch):
    cfg = TINY_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(15))
    outputs = []
    recording_denoise = dn.denoise

    def denoise(*args, **kwargs):
        outputs.append(recording_denoise(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(dn, "denoise", denoise)
    _sample(cfg, params, df.cosine_schedule(16), steps=4, seed=0)
    assert len(outputs) == 4
    for out in outputs:
        assert out._node is None
    for p in params.values():
        assert p.requires_grad and p.grad is None


def test_sampler_traced_peak_below_one_recording_forward():
    # tracemalloc counts numpy buffers. A whole 4-step sampling run must
    # peak well below one denoiser call that records its tape.
    cfg = TOY_DENOISER_CONFIG
    params = dn.init_denoiser(cfg, np.random.default_rng(16),
                              dtype=np.float32)
    zc = np.zeros((1, cfg.token_count, cfg.cond_dim), dtype=np.float32)
    dom = np.zeros(1, np.int64)
    x = np.random.default_rng(17).standard_normal((1, 2, 16, 64))

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    recording = traced_peak(lambda: dn.denoise(params, cfg, x, np.array([3]),
                                               zc, dom, t_max=8))
    sampling = traced_peak(lambda: df.ddpm_sample(
        params, cfg, df.cosine_schedule(8), zc, dom,
        np.random.default_rng(18), steps=4, shape=(16, 64)))
    assert sampling <= 0.7 * recording
