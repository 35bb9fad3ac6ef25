"""Noise schedule, forward noising, training objective, ancestral sampler."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import denoiser as dn
from .errors import ConfigError, ShapeError, TrainingError


@dataclass(frozen=True)
class NoiseSchedule:
    alpha_bar: np.ndarray  # length T+1, alpha_bar[0] = 1, strictly decreasing

    @property
    def T(self):
        return len(self.alpha_bar) - 1


def cosine_schedule(T):
    """Squared-cosine cumulative schedule, normalized so alpha_bar[0] = 1,
    with Nichol & Dhariwal's offset s = 0.008 and each beta capped at 0.999."""
    if T < 1:
        raise ConfigError(f"schedule needs T >= 1, got {T}")
    s = 0.008
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos((t / T + s) / (1.0 + s) * np.pi / 2.0) ** 2
    ab = f / f[0]
    beta = 1.0 - ab[1:] / ab[:-1]
    beta = np.minimum(beta, 0.999)
    ab = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return NoiseSchedule(ab)


def q_sample(x0, t, eps, schedule):
    """X_t = sqrt(ab_t)*X_0 + sqrt(1-ab_t)*eps; t may be per-sample."""
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if x0.shape != eps.shape:
        raise ConfigError(f"shape mismatch: x0 {x0.shape}, eps {eps.shape}")
    ab = schedule.alpha_bar[np.asarray(t)]
    extra = x0.ndim - np.ndim(ab)
    ab = np.reshape(ab, np.shape(ab) + (1,) * extra)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def diffusion_loss(params, config, schedule, x0, zc, domain_idx, rng):
    """Noise-prediction MSE over one batch; returns the scalar loss Tensor.

    Per sample: t ~ Uniform{1..T}, eps ~ N(0, I); the caller backprops
    and steps the optimizer.
    """
    x0 = np.asarray(x0)
    B = x0.shape[0]
    t = rng.integers(1, schedule.T + 1, size=B)
    eps = rng.standard_normal(x0.shape).astype(x0.dtype)
    xt = q_sample(x0, t, eps, schedule).astype(x0.dtype)
    pred = dn.denoise(params, config, xt, t, zc, domain_idx, t_max=schedule.T)
    diff = pred - ad.Tensor(eps)
    loss = ad.tmean(ad.mul(diff, diff))
    if not np.isfinite(loss.data):
        bad = [i for i in range(B)
               if not np.isfinite(pred.data[i]).all()]
        raise TrainingError(f"non-finite loss; offending sample indices {bad}")
    return loss


def sample_timesteps(T, steps):
    """Strided sub-schedule tau_0=0 < ... < tau_steps=T."""
    if steps > T:
        raise ConfigError(f"steps {steps} exceeds schedule length {T}")
    tau = np.unique(np.round(np.linspace(0, T, steps + 1)).astype(np.int64))
    return tau


def ddpm_sample(params, config, schedule, zc, domain_idx, rng, steps, shape):
    """Ancestral sampling from pure noise; output clamped to [-1, 1].

    Each step predicts x0_hat = (x_t - sqrt(1-ab_t) * eps_hat)/sqrt(ab_t),
    clips it to [-1, 1] and takes the posterior mean
    (sqrt(ab_prev)*beta*x0_hat + sqrt(alpha)*(1-ab_prev)*x_t)/(1-ab_t)
    with variance beta_tilde over a strided sub-schedule of `steps` steps,
    as the clipped sampler of Ho et al. 2020 does. The clip keeps an error
    in eps_hat near t = T, which x0_hat scales by sqrt((1-ab_t)/ab_t), from
    driving the samples onto the bounds. Draws one scan per entry of
    `domain_idx`, under one prompt `zc` for all or one per entry, and
    returns an array of shape (len(domain_idx), 2, *shape).
    """
    batch = len(domain_idx)
    if np.shape(zc)[0] not in (1, batch):
        raise ShapeError(f"{np.shape(zc)[0]} prompts for {batch} domain "
                         "indices: give one prompt, or one per index")
    H, W = shape
    tau = sample_timesteps(schedule.T, steps)
    ab = schedule.alpha_bar
    x = rng.standard_normal((batch, dn.IN_CHANNELS, H, W))
    # Plain views of the parameters and the prompt tokens: no operand of the
    # forward pass has requires_grad, so no op records a tape. The network
    # runs in the parameters' dtype; the chain stays in float64, and eps_hat
    # is promoted to it by the update.
    params = {name: ad.Tensor(p.data) for name, p in params.items()}
    net_dtype = next(iter(params.values())).dtype
    zc = ad.Tensor(np.asarray(zc, dtype=net_dtype))
    for i in range(len(tau) - 1, 0, -1):
        t, tprev = tau[i], tau[i - 1]
        t_batch = np.full(batch, t)
        eps_hat = dn.denoise(params, config, x.astype(net_dtype, copy=False),
                             t_batch, zc, domain_idx, t_max=schedule.T).data
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
