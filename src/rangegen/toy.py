"""Synthetic two-domain corpus so the full pipeline runs with no data.

Two geometric scene families with well-separated range statistics:
"ToyNear" scans sit a few meters out, "ToyFar" scans tens of meters
out. Useful for smoke training and for checking that conditioning
actually steers generation.
"""

import dataclasses
import os

import numpy as np

from .forge import DomainSpec
from .geometry import DEFAULT_SENSOR, RangeImage, write_olri

TOY_SENSOR = dataclasses.replace(DEFAULT_SENSOR, height=16, width=64)

# Run-config values that a `toy = true` config takes for every key it
# leaves unset.
TOY_PRESET = {
    "image_height": TOY_SENSOR.height, "image_width": TOY_SENSOR.width,
    "schedule_t": 64, "sampler_steps": 64, "batch_size": 8, "lr": 1e-3,
    "train_steps": 1500, "widths": (8, 16), "attn_stages": (2,),
    "cdfm_stages": (2,), "time_width": 32, "cond_dim": 16, "dk": 8,
    "data_dir": "data/toy",
}

TOY_RANGES = {"ToyNear": (4.0, 8.0), "ToyFar": (30.0, 50.0)}

TOY_PROMPTS = {
    "ToyNear": (
        "a synthetic scene with close surroundings",
        "a toy scan of a nearby enclosure",
    ),
    "ToyFar": (
        "a synthetic scene with distant surroundings",
        "a toy scan of a far open area",
    ),
}


def toy_domain_specs():
    return [
        DomainSpec(id=dom, prompt_pool=TOY_PROMPTS[dom], sensor=TOY_SENSOR,
                   base_key=dom.lower())
        for dom in ("ToyNear", "ToyFar")
    ]


def _toy_scan(rng, lo, hi, cfg):
    base = rng.uniform(lo, hi)
    u = np.arange(cfg.width) / cfg.width
    v = np.arange(cfg.height) / cfg.height
    ripple = 0.05 * base * np.sin(2 * np.pi * (2 * u[None, :] + v[:, None]))
    noise = 0.01 * base * rng.standard_normal((cfg.height, cfg.width))
    rng_img = np.clip(base + ripple + noise, 0.5, cfg.r_max).astype(np.float32)
    inten = (0.5 + 0.4 * np.sin(2 * np.pi * u)[None, :]
             + 0.05 * rng.standard_normal((cfg.height, cfg.width)))
    inten = np.clip(inten, 0.0, 1.0).astype(np.float32)
    valid = np.ones((cfg.height, cfg.width), dtype=bool)
    return RangeImage(rng_img, inten, valid, cfg)


def make_toy_corpus(out_dir, n_per_domain, seed):
    """Write base OLRI scans, the last 15% of each domain (at least one)
    in the val split; returns {base_key: [(path, split), ...]}."""
    cfg = TOY_SENSOR
    base = {}
    n_val = max(1, int(round(n_per_domain * 0.15)))
    for dom_i, (dom, (lo, hi)) in enumerate(TOY_RANGES.items()):
        key = dom.lower()
        dom_dir = os.path.join(out_dir, "base", key)
        os.makedirs(dom_dir, exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence([seed, dom_i]))
        entries = []
        for i in range(n_per_domain):
            img = _toy_scan(rng, lo, hi, cfg)
            path = os.path.join(dom_dir, f"scan_{i:04d}.olri")
            write_olri(path, img)
            split = "val" if i >= n_per_domain - n_val else "train"
            entries.append((path, split))
        base[key] = entries
    return base
