"""Command-line entry point: build-data, train, sample, eval.

Configuration comes from a line-based "key = value" file; command-line
flags override file values. Every command is deterministic given its
config and seed. Exit codes: 0 success, 1 user/config error,
2 internal invariant violation.
"""

import argparse
import dataclasses
import glob
import json
import math
import os
import sys

import numpy as np

from . import conditioning, diffusion, forge, geometry, metrics, toy, training
from .denoiser import DenoiserConfig, init_denoiser
from .errors import ConfigError, MetricError, TrainingError
from .optim import AdamW
from .training import load_training_checkpoint, save_training_checkpoint


@dataclasses.dataclass
class RunConfig:
    out_dir: str = "runs/default"
    data_dir: str = "data/built"
    seed: int = 0
    image_height: int = 64
    image_width: int = 1024
    fov_up_deg: float = 3.0
    fov_down_deg: float = -25.0
    r_max: float = 80.0
    schedule_t: int = 1024
    sampler_steps: int = 256
    batch_size: int = 16
    lr: float = 1e-4
    weight_decay: float = 0.0
    train_steps: int = 500_000
    sampler: str = "cdts"
    widths: tuple = (32, 64, 128)
    attn_stages: tuple = (2, 3)
    cdfm_stages: tuple = (3,)
    groups: int = 4
    time_width: int = 64
    cond_dim: int = 64
    dk: int = 32
    token_count: int = 8
    dafs_bound: float = 0.1
    use_cdfm: bool = True
    use_dafs: bool = True
    grad_clip: float = 0.0
    ckpt_every: int = 100
    z_ground: float = forge.GROUND_Z_DEFAULT
    corruption_file: str = ""
    base_vehicle_index: str = ""
    base_drone_index: str = ""
    base_quadruped_index: str = ""
    toy: bool = False
    toy_scans: int = 48


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key, value):
    """Typed value of one config entry; ValueError if it does not parse."""
    kind = _FIELD_TYPES[key]
    if kind is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError("expected a boolean")
    if kind is tuple:
        return tuple(int(x) for x in value.split(",") if x.strip())
    if kind in (int, float):
        return kind(value)
    return value


def parse_config(path, overrides=None):
    """Read a key=value config file into a RunConfig; unknown keys fail.

    `overrides` (already-typed values) take precedence over file values
    and participate in toy-preset resolution.
    """
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            raw = raw.strip()
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: config key {key!r}: "
                                  f"bad value {raw!r} ({exc})") from None
    if overrides:
        for key, value in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = value
    if values.get("toy"):
        for key, preset in toy.TOY_PRESET.items():
            values.setdefault(key, preset)
    return RunConfig(**values)


def sensor_from_config(cfg):
    return geometry.SensorConfig(
        cfg.image_height, cfg.image_width,
        math.radians(cfg.fov_up_deg), math.radians(cfg.fov_down_deg),
        cfg.r_max)


def domain_specs_from_config(cfg):
    if cfg.toy:
        return toy.toy_domain_specs()
    specs = forge.default_domain_specs(sensor_from_config(cfg))
    if cfg.corruption_file:
        tables = forge.parse_corruption_file(cfg.corruption_file)
        specs = [
            dataclasses.replace(
                s, corruption=forge.CorruptionSpec(
                    s.corruption.kind, tables[s.corruption.kind]))
            if s.corruption is not None and s.corruption.kind in tables else s
            for s in specs
        ]
    return specs


def denoiser_config_from(cfg, num_domains):
    return DenoiserConfig(
        widths=tuple(cfg.widths), attn_stages=tuple(cfg.attn_stages),
        cdfm_stages=tuple(cfg.cdfm_stages), groups=cfg.groups,
        time_width=cfg.time_width, cond_dim=cfg.cond_dim, dk=cfg.dk,
        token_count=cfg.token_count, num_domains=num_domains,
        dafs_bound=cfg.dafs_bound, use_cdfm=cfg.use_cdfm,
        use_dafs=cfg.use_dafs)


def _read_base_index(path):
    entries = []
    root = os.path.dirname(os.path.abspath(path))
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigError(f"{path}: expected 'path<TAB>split' lines")
            scan, split = parts
            if not os.path.isabs(scan):
                scan = os.path.join(root, scan)
            entries.append((scan, split))
    return entries


def _base_corpora(cfg):
    if cfg.toy:
        return toy.make_toy_corpus(cfg.data_dir, cfg.toy_scans, cfg.seed)
    base = {}
    for key, path in (("vehicle", cfg.base_vehicle_index),
                      ("drone", cfg.base_drone_index),
                      ("quadruped", cfg.base_quadruped_index)):
        if not path:
            raise ConfigError(f"config key base_{key}_index is required")
        if not os.path.exists(path):
            raise ConfigError(f"base index not found: {path}")
        base[key] = _read_base_index(path)
    return base


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_build_data(args):
    cfg = parse_config(args.config, {"toy": True} if args.toy else None)
    base = _base_corpora(cfg)
    specs = domain_specs_from_config(cfg)
    index, summary = forge.build_dataset(base, specs, cfg.data_dir, cfg.seed)
    print(f"built {len(index.records)} scans over {len(specs)} domains "
          f"into {cfg.data_dir}")
    for dom, count in summary["counts"].items():
        print(f"  {dom}: {count}")
    for dom, path, reason in summary["skipped"]:
        print(f"  skipped [{dom}] {path}: {reason}")
    with open(os.path.join(cfg.data_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return 0


def _ckpt_extra(cfg, dconf):
    return {
        "denoiser": dataclasses.asdict(dconf) | {
            "widths": list(dconf.widths),
            "attn_stages": list(dconf.attn_stages),
            "cdfm_stages": list(dconf.cdfm_stages)},
        "schedule_t": cfg.schedule_t,
        "image_height": cfg.image_height,
        "image_width": cfg.image_width,
        "fov_up_deg": cfg.fov_up_deg,
        "fov_down_deg": cfg.fov_down_deg,
        "r_max": cfg.r_max,
        "toy": cfg.toy,
    }


def cmd_train(args):
    cfg = parse_config(args.config)
    if args.sampler:
        cfg = dataclasses.replace(cfg, sampler=args.sampler)
    if args.steps is not None:
        cfg = dataclasses.replace(cfg, train_steps=args.steps)
    specs = domain_specs_from_config(cfg)
    index_path = os.path.join(cfg.data_dir, "index.tsv")
    if not os.path.exists(index_path):
        raise ConfigError(f"dataset index not found: {index_path} "
                          "(run build-data first)")
    index = forge.DatasetIndex.load(index_path)
    dconf = denoiser_config_from(cfg, len(specs))
    rng = np.random.default_rng(cfg.seed)
    params = init_denoiser(dconf, rng, dtype=np.float32)
    schedule = diffusion.cosine_schedule(cfg.schedule_t)

    def log(step, value):
        print(f"step {step}: loss {value:.5f}")

    opt, trace = training.train(
        params, dconf, schedule, cfg.data_dir, index, specs,
        steps=cfg.train_steps, seed=cfg.seed, batch_size=cfg.batch_size,
        lr=cfg.lr, weight_decay=cfg.weight_decay, sampler=cfg.sampler,
        out_dir=cfg.out_dir, ckpt_every=cfg.ckpt_every,
        resume_from=args.resume, grad_clip=cfg.grad_clip or None, log_fn=log)
    final = os.path.join(cfg.out_dir, "ckpt_final.olck")
    save_training_checkpoint(final, params, opt, cfg.train_steps, cfg.seed,
                             extra=_ckpt_extra(cfg, dconf))
    print(f"final checkpoint: {final}")
    return 0


def _load_for_sampling(checkpoint):
    with open(checkpoint + ".meta.json") as f:
        meta = json.load(f)
    if "denoiser" not in meta:
        raise ConfigError(f"{checkpoint}: no denoiser config in metadata "
                          "(use the final checkpoint written by train)")
    d = dict(meta["denoiser"])
    for key in ("widths", "attn_stages", "cdfm_stages"):
        d[key] = tuple(d[key])
    dconf = DenoiserConfig(**d)
    params = init_denoiser(dconf, np.random.default_rng(0), dtype=np.float32)
    load_training_checkpoint(checkpoint, params, AdamW())
    return params, dconf, meta


def _write_ppm(path, arr):
    """Grayscale render of the normalized range channel for eyeballing."""
    gray = np.clip((arr[0] + 1.0) * 127.5, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (gray.shape[1], gray.shape[0]))
        f.write(gray.tobytes())


def cmd_sample(args):
    cfg = parse_config(args.config)
    specs = domain_specs_from_config(cfg)
    by_id = {s.id: s for s in specs}
    if args.domain not in by_id:
        raise ConfigError(f"unknown domain {args.domain!r}; known: "
                          + ", ".join(sorted(by_id)))
    params, dconf, meta = _load_for_sampling(args.checkpoint)
    schedule = diffusion.cosine_schedule(int(meta["schedule_t"]))
    steps = args.steps if args.steps else cfg.sampler_steps
    seed = cfg.seed if args.seed is None else args.seed
    sensor = geometry.SensorConfig(
        int(meta["image_height"]), int(meta["image_width"]),
        math.radians(meta["fov_up_deg"]), math.radians(meta["fov_down_deg"]),
        meta["r_max"])
    spec = by_id[args.domain]
    prompt = forge.sample_prompt(spec, "infer")
    emb = conditioning.embed_prompt(prompt, dconf.token_count,
                                    dconf.cond_dim).astype(np.float32)
    dom_idx = [s.id for s in specs].index(args.domain)
    out_dir = args.out or os.path.join(cfg.out_dir, "samples", args.domain)
    os.makedirs(out_dir, exist_ok=True)
    for i in range(args.count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, dom_idx, i]))
        batch = diffusion.ddpm_sample(
            params, dconf, schedule, emb[None].astype(np.float32),
            np.array([dom_idx]), rng, steps=steps,
            shape=(sensor.height, sensor.width))
        img = geometry.denormalize(batch[0], sensor)
        stem = f"{args.domain}_s{seed}_{i:04d}"
        geometry.write_olri(os.path.join(out_dir, stem + ".olri"), img)
        if args.write_points:
            geometry.write_xyz(os.path.join(out_dir, stem + ".xyz"),
                               geometry.unproject(img))
        if args.ppm:
            _write_ppm(os.path.join(out_dir, stem + ".ppm"), batch[0])
    print(f"wrote {args.count} samples for {args.domain} "
          f"(prompt: {prompt!r}, steps={steps}) to {out_dir}")
    return 0


def _histograms_from_dir(path):
    files = sorted(glob.glob(os.path.join(path, "*.olri")))
    if not files:
        raise ConfigError(f"no OLRI files in {path}")
    hists = []
    for f in files:
        img = geometry.read_olri(f)
        hist = metrics.bev_histogram(geometry.unproject(img))
        if hist.empty:
            raise ConfigError(f"{f}: no points inside the occupancy extent")
        hists.append(hist)
    return hists


def cmd_eval(args):
    gen = _histograms_from_dir(args.generated)
    ref = _histograms_from_dir(args.reference)
    report = metrics.metric_report(gen, ref)
    sys.stdout.write(report["text"])
    out_dir = args.out or args.generated
    with open(os.path.join(out_dir, "metrics.txt"), "w") as f:
        f.write(report["text"])
    with open(os.path.join(out_dir, "metrics.csv"), "w") as f:
        f.write(report["csv"])
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="rangegen",
        description="Multi-domain LiDAR range-image diffusion pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-data", help="materialize the domain corpus")
    b.add_argument("--config", required=True)
    b.add_argument("--toy", action="store_true",
                   help="generate the synthetic two-domain corpus in-process")
    b.set_defaults(fn=cmd_build_data)

    t = sub.add_parser("train", help="train the denoiser")
    t.add_argument("--config", required=True)
    t.add_argument("--sampler", choices=sorted(training.SAMPLERS))
    t.add_argument("--steps", type=int)
    t.add_argument("--resume", help="checkpoint to continue from")
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("sample", help="draw scans from a checkpoint")
    s.add_argument("--config", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--domain", required=True)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--steps", type=int, default=0,
                   help="sampling steps (default from config, 256)")
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.add_argument("--write-points", action="store_true")
    s.add_argument("--ppm", action="store_true")
    s.set_defaults(fn=cmd_sample)

    e = sub.add_parser("eval", help="distribution metrics between scan sets")
    e.add_argument("--generated", required=True)
    e.add_argument("--reference", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_eval)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MetricError, TrainingError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
