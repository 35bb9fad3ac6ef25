"""Command-line entry point: build-data, train, sample, eval.

Configuration comes from a line-based "key = value" file; command-line
flags override file values. Every command is deterministic given its
config and seed. Exit codes: 0 success, 1 user/config error,
2 internal invariant violation; with RANGEGEN_TRACEBACK=1 in the
environment, an internal error also prints its traceback to stderr.
"""

import argparse
import dataclasses
import glob
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import conditioning, diffusion, forge, geometry, metrics, toy, training
from .checkpoint import _replacing, read_checkpoint
from .denoiser import DenoiserConfig, init_denoiser
from .errors import ConfigError, MetricError, TrainingError
from .training import _load_params, save_training_checkpoint


@dataclasses.dataclass
class RunConfig:
    """Every value of a run, each type- and range-checked on construction;
    model and sensor defaults are DenoiserConfig's and DEFAULT_SENSOR's."""
    out_dir: str = "runs/default"
    data_dir: str = "data/built"
    seed: int = 0
    image_height: int = geometry.DEFAULT_SENSOR.height
    image_width: int = geometry.DEFAULT_SENSOR.width
    fov_up_deg: float = geometry.DEFAULT_FOV_UP_DEG
    fov_down_deg: float = geometry.DEFAULT_FOV_DOWN_DEG
    r_max: float = geometry.DEFAULT_SENSOR.r_max
    schedule_t: int = 1024
    sampler_steps: int = 256
    batch_size: int = 16
    lr: float = 1e-4
    weight_decay: float = 0.0
    train_steps: int = 500_000
    sampler: str = "cdts"
    widths: tuple = DenoiserConfig.widths
    attn_stages: tuple = DenoiserConfig.attn_stages
    cdfm_stages: tuple = DenoiserConfig.cdfm_stages
    groups: int = DenoiserConfig.groups
    time_width: int = DenoiserConfig.time_width
    cond_dim: int = DenoiserConfig.cond_dim
    dk: int = DenoiserConfig.dk
    token_count: int = DenoiserConfig.token_count
    dafs_bound: float = DenoiserConfig.dafs_bound
    use_cdfm: bool = DenoiserConfig.use_cdfm
    use_dafs: bool = DenoiserConfig.use_dafs
    grad_clip: float = 0.0
    ckpt_every: int = 100
    corruption_file: str = ""
    base_vehicle_index: str = ""
    base_drone_index: str = ""
    base_quadruped_index: str = ""
    toy: bool = False
    toy_scans: int = 48

    def __post_init__(self):
        for key, kind in _FIELD_TYPES.items():
            setattr(self, key, _checked(key, kind, getattr(self, key)))
        for key in ("attn_stages", "cdfm_stages"):
            stages = getattr(self, key)
            if any(stage > len(self.widths) for stage in stages):
                raise ConfigError(
                    f"config key {key!r} must name stages 1..{len(self.widths)}"
                    f" of widths {list(self.widths)}, got {list(stages)}")
        for key in ("out_dir", "data_dir"):
            if not getattr(self, key):
                raise ConfigError(f"config key {key!r} must name a directory")
        # Each stage but the last halves the grid.
        depth = 2 ** (len(self.widths) - 1)
        for key in ("image_height", "image_width"):
            if getattr(self, key) % depth:
                raise ConfigError(
                    f"config key {key!r} must be divisible by {depth} for the "
                    f"{len(self.widths)} stages of widths {list(self.widths)},"
                    f" got {getattr(self, key)}")
        # The sensor and the denoiser check how values fit together: the
        # FOV order, r_max > 0, the grid size and the widths per group.
        sensor_from_config(self)
        denoiser_config_from(self, 1)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}

# The smallest value of each bounded number; a tuple's bound applies to
# each entry.
_MINIMUM = {
    "seed": 0, "schedule_t": 1, "sampler_steps": 1, "batch_size": 1,
    "lr": 0.0, "weight_decay": 0.0, "train_steps": 1, "widths": 1,
    "attn_stages": 1, "cdfm_stages": 1, "groups": 1, "time_width": 2,
    "cond_dim": 1, "dk": 1, "token_count": 1, "dafs_bound": 0.0,
    "grad_clip": 0.0, "ckpt_every": 1, "toy_scans": 1,
}

# The largest model sizes. A product of two stays far below numpy's 2^63-byte
# limit on one array, which it would refuse with a ValueError (exit 2).
_MAXIMUM = {key: 2**20 for key in
            ("widths", "time_width", "cond_dim", "dk", "token_count")}

# The RunConfig fields that DenoiserConfig shares, and what every checkpoint
# records for `sample` and `train --resume`: the model, sensor and schedule.
_MODEL_KEYS = tuple(f.name for f in dataclasses.fields(DenoiserConfig)
                    if f.name in _FIELD_TYPES)
_CHECKPOINT_KEYS = (*_MODEL_KEYS, "image_height", "image_width", "fov_up_deg",
                    "fov_down_deg", "r_max", "schedule_t")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(key, kind, value):
    """`value` as config key `key` of type `kind` (a list becomes a tuple,
    an int a float); ConfigError naming the key if it is not one."""
    low, high = _MINIMUM.get(key, -math.inf), _MAXIMUM.get(key, math.inf)
    bound = (f" in [{low}, {high}]" if key in _MAXIMUM
             else f" >= {low}" if key in _MINIMUM else "")
    if kind is tuple:
        need = 1 if key == "widths" else 0  # the UNet needs one stage
        ok = (isinstance(value, (list, tuple)) and len(value) >= need
              and all(_is_int(v) and low <= v <= high for v in value))
        what = ("a non-empty " if need else "a ") + "list of integers" + bound
    elif kind in (int, float):
        ok = _is_int(value) or kind is float and isinstance(value, float)
        if ok and kind is float:
            try:  # an int beyond the float range overflows
                value = float(value)
            except OverflowError:
                ok = False
        ok = (ok and (kind is int or math.isfinite(value))
              and low <= value <= high)
        what = ("an integer" if kind is int else "a finite number") + bound
    else:
        ok = isinstance(value, kind)
        what = f"a {kind.__name__}"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return kind(value)


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


def parse_config(path):
    """Read a `key = value` config file (the syntax of
    `forge.read_key_values`, without sections) into a RunConfig; unknown
    keys fail. A `toy = true` file takes the toy preset for every key it
    leaves unset."""
    (_, _, entries), *sections = forge.read_key_values(path)
    if sections:
        raise ConfigError(f"{path}:{sections[0][1]}: expected 'key = value'")
    values = {}
    for key, (lineno, raw) in entries.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: config key {key!r}: "
                              f"bad value {raw!r} ({exc})") from None
    if values.get("toy"):
        for key, preset in toy.TOY_PRESET.items():
            values.setdefault(key, preset)
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
        # Snow returns are drawn out to scatter_range and written as valid,
        # so a range past the sensor's r_max would make returns it cannot see.
        # Their scatter_count draws are allocated at once: refuse more draws
        # than the sensor has pixels before any allocation is tried.
        pixels = cfg.image_height * cfg.image_width
        for level, table in enumerate(tables.get("snow", ())):
            where = f"{cfg.corruption_file}: [snow.{level}]"
            if table.get("scatter_range", 0.0) > cfg.r_max:
                raise ConfigError(
                    f"{where}: scatter_range = {table['scatter_range']:g} is "
                    f"beyond the sensor's r_max = {cfg.r_max:g}")
            if table.get("scatter_count", 0) > pixels:
                raise ConfigError(
                    f"{where}: scatter_count = {table['scatter_count']:.0f} is "
                    f"more than the {cfg.image_height}x{cfg.image_width} = "
                    f"{pixels} pixels of the sensor")
        specs = [
            dataclasses.replace(
                s, corruption=forge.CorruptionSpec(
                    s.corruption.kind, tables[s.corruption.kind]))
            if s.corruption is not None and s.corruption.kind in tables else s
            for s in specs
        ]
    return specs


def denoiser_config_from(cfg, num_domains):
    return DenoiserConfig(num_domains=num_domains,
                          **{key: getattr(cfg, key) for key in _MODEL_KEYS})


def _read_base_index(path):
    """(scan path, split) pairs, a relative path taken from the index's
    directory."""
    root = os.path.dirname(os.path.abspath(path))
    return [(os.path.join(root, scan), split)
            for scan, split in forge.read_table(path, ("path", "split"))]


def _check_toy_sensor(cfg):
    """A toy corpus is always taken by TOY_SENSOR, so a toy config that names
    another sensor would train on one and store the other in its checkpoint.
    `sample` may parse such a config: it takes the sensor from the
    checkpoint."""
    if not cfg.toy:
        return
    reason = forge._sensor_mismatch(toy.TOY_SENSOR, sensor_from_config(cfg))
    if reason:
        raise ConfigError(
            "a toy = true config needs the toy sensor's image_height, "
            "image_width, fov_up_deg, fov_down_deg and r_max: the toy corpus "
            f"holds a {reason}")


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
    cfg = parse_config(args.config)
    _check_toy_sensor(cfg)
    specs = domain_specs_from_config(cfg)
    base = _base_corpora(cfg)
    index, summary = forge.build_dataset(base, specs, cfg.data_dir, cfg.seed)
    print(f"built {len(index.records)} scans over {len(specs)} domains "
          f"into {cfg.data_dir}")
    for dom, count in summary["counts"].items():
        print(f"  {dom}: {count}")
    for dom, path, reason in summary["skipped"]:
        print(f"  skipped [{dom}] {path}: {reason}")
    if summary["removed"]:
        print(f"  removed {summary['removed']} stale scans")
    with _replacing(os.path.join(cfg.data_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return 0


def _check_sampler_steps(cfg, where=""):
    """`sample` runs sampler_steps steps of a schedule_t-step schedule."""
    if cfg.sampler_steps > cfg.schedule_t:
        raise ConfigError(f"{where}config key 'sampler_steps' "
                          f"({cfg.sampler_steps}) must not exceed "
                          f"'schedule_t' ({cfg.schedule_t})")


def cmd_train(args):
    cfg = parse_config(args.config)
    if args.sampler:
        cfg = dataclasses.replace(cfg, sampler=args.sampler)
    if args.steps is not None:
        cfg = dataclasses.replace(cfg, train_steps=args.steps)
    # Every checkpoint must be one that `sample` can run.
    _check_sampler_steps(cfg)
    _check_toy_sensor(cfg)
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

    run = {key: getattr(cfg, key)
           for key in (*_CHECKPOINT_KEYS, "seed", "lr", "weight_decay")}

    def log(step, value):
        print(f"step {step}: loss {value:.5f}")

    opt, trace = training.train(
        params, dconf, schedule, cfg.data_dir, index, specs,
        steps=cfg.train_steps, seed=cfg.seed, batch_size=cfg.batch_size,
        lr=cfg.lr, weight_decay=cfg.weight_decay, sampler=cfg.sampler,
        out_dir=cfg.out_dir, ckpt_every=cfg.ckpt_every,
        resume_from=args.resume, grad_clip=cfg.grad_clip or None, log_fn=log,
        run=run)
    final = os.path.join(cfg.out_dir, "ckpt_final.olck")
    save_training_checkpoint(final, params, opt, cfg.train_steps, run)
    print(f"final checkpoint: {final}")
    return 0


def _write_ppm(path, arr):
    """Grayscale render of the normalized range channel for eyeballing."""
    gray = np.clip((arr[0] + 1.0) * 127.5, 0, 255).astype(np.uint8)
    with _replacing(path) as f:
        f.write(b"P5\n%d %d\n255\n" % (gray.shape[1], gray.shape[0]))
        f.write(gray.tobytes())


def cmd_sample(args):
    cfg = parse_config(args.config)
    if args.steps is not None:
        cfg = dataclasses.replace(cfg, sampler_steps=args.steps)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    specs = domain_specs_from_config(cfg)
    by_id = {s.id: s for s in specs}
    if args.domain not in by_id:
        raise ConfigError(f"unknown domain {args.domain!r}; known: "
                          + ", ".join(sorted(by_id)))
    # The longest name written, the last scan's, must fit the 255 bytes
    # that common file systems allow.
    name = f"{args.domain}_s{cfg.seed}_{args.count - 1:04d}.olri"
    if len(name.encode("utf-8")) > 255:
        raise ConfigError(f"config key 'seed' ({len(str(cfg.seed))} digits) "
                          "makes sample file names over 255 bytes")
    # The model, its sensor and its schedule come from the checkpoint; the
    # domains, the step count and the seed from the config.
    buffers, meta = read_checkpoint(args.checkpoint)
    missing = set(_CHECKPOINT_KEYS) - meta.keys()
    if missing:
        raise ConfigError(
            f"{args.checkpoint}: metadata lacks {sorted(missing)}")
    try:
        cfg = dataclasses.replace(
            cfg, **{key: meta[key] for key in _CHECKPOINT_KEYS})
    except ConfigError as exc:
        raise ConfigError(f"{args.checkpoint}: {exc}") from None
    _check_sampler_steps(cfg, f"{args.checkpoint}: ")
    dconf = denoiser_config_from(cfg, len(specs))
    params = init_denoiser(dconf, np.random.default_rng(0), dtype=np.float32)
    _load_params(args.checkpoint, buffers, params)
    schedule = diffusion.cosine_schedule(cfg.schedule_t)
    sensor = sensor_from_config(cfg)
    spec = by_id[args.domain]
    prompt = forge.sample_prompt(spec, "infer")
    emb = conditioning.embed_prompt(prompt, dconf.token_count, dconf.cond_dim)
    dom_idx = [s.id for s in specs].index(args.domain)
    out_dir = args.out or os.path.join(cfg.out_dir, "samples", args.domain)
    os.makedirs(out_dir, exist_ok=True)
    for i in range(args.count):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, dom_idx, i]))
        start = time.perf_counter()
        batch = diffusion.ddpm_sample(
            params, dconf, schedule, emb[None],
            np.array([dom_idx]), rng, steps=cfg.sampler_steps,
            shape=(sensor.height, sensor.width))
        seconds = time.perf_counter() - start
        print(f"scan {i + 1}/{args.count}: {cfg.sampler_steps} steps in "
              f"{seconds:.2f} s ({cfg.sampler_steps / seconds:.2f} steps/s)",
              flush=True)
        img = geometry.denormalize(batch[0], sensor)
        stem = f"{args.domain}_s{cfg.seed}_{i:04d}"
        geometry.write_olri(os.path.join(out_dir, stem + ".olri"), img)
        if args.write_points:
            geometry.write_xyz(os.path.join(out_dir, stem + ".xyz"),
                               geometry.unproject(img))
        if args.ppm:
            _write_ppm(os.path.join(out_dir, stem + ".ppm"), batch[0])
    print(f"wrote {args.count} samples for {args.domain} "
          f"(prompt: {prompt!r}, steps={cfg.sampler_steps}) to {out_dir}")
    return 0


def _histograms_from_dir(path):
    files = sorted(glob.glob(os.path.join(path, "*.olri")))
    if not files:
        raise ConfigError(f"no OLRI files in {path}")
    hists = []
    for f in files:
        img = geometry.read_olri(f)
        hist = metrics.scan_histogram(img)
        if hist.empty:
            raise ConfigError(f"{f}: no points inside the occupancy extent")
        hists.append(hist)
    return hists


def cmd_eval(args):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    gen = _histograms_from_dir(args.generated)
    ref = _histograms_from_dir(args.reference)
    report = metrics.metric_report(gen, ref)
    sys.stdout.write(report["text"])
    out_dir = args.out or args.generated
    with _replacing(os.path.join(out_dir, "metrics.txt"), "w") as f:
        f.write(report["text"])
    with _replacing(os.path.join(out_dir, "metrics.csv"), "w") as f:
        f.write(report["csv"])
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ConfigError line (exit 1),
    not as argparse's usage block and exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(
        prog="rangegen",
        description="Multi-domain LiDAR range-image diffusion pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-data", help="materialize the domain corpus")
    b.add_argument("--config", required=True)
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
    s.add_argument("--steps", type=int,
                   help="sampling steps (default: the config's sampler_steps)")
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, MetricError, TrainingError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        if os.environ.get("RANGEGEN_TRACEBACK") == "1":
            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
