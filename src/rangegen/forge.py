"""Multi-domain corpus construction.

Builds the eight-domain training corpus from clean base scans: beam
reduction for the sensor-configuration domain, parametric weather
corruptions (range-proportional dropout, near-sensor scatter, intensity
attenuation -- simplified stand-ins for full physical simulators, with
the structural properties the model must learn), per-domain prompt
pools, and pooled dataset assembly with carried-through splits.
"""

import configparser
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import (RangeImage, SensorConfig, pixel_angles, read_olri,
                       write_olri)

GROUND_Z_DEFAULT = -1.3  # meters; below this a return counts as ground


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str                    # fog | snow | rain | wet_ground
    severity_levels: tuple       # tuple of level dicts

    def __post_init__(self):
        if self.kind not in ("fog", "snow", "rain", "wet_ground"):
            raise ConfigError(f"unknown corruption kind {self.kind!r}")
        if not self.severity_levels:
            raise ConfigError("severity level list is empty")
        for lev in self.severity_levels:
            att = lev.get("intensity_attenuation", 1.0)
            if not 0.0 <= att <= 1.0:
                raise ConfigError(f"attenuation {att} outside [0, 1]")


@dataclass(frozen=True)
class DomainSpec:
    id: str
    prompt_pool: tuple
    sensor: SensorConfig
    corruption: CorruptionSpec | None = None
    beam_reduce: bool = False
    base_key: str = "vehicle"    # which base corpus the domain derives from

    def __post_init__(self):
        if not self.prompt_pool:
            raise ConfigError(f"domain {self.id}: prompt pool is empty")


@dataclass
class DatasetIndex:
    records: list = field(default_factory=list)  # (relative path, domain, split)

    def counts(self):
        out = {}
        for _, dom, _ in self.records:
            out[dom] = out.get(dom, 0) + 1
        return out

    def split(self, name):
        return [r for r in self.records if r[2] == name]

    def save(self, path):
        with open(path, "w", newline="\n") as f:
            for rel, dom, split in self.records:
                f.write(f"{rel}\t{dom}\t{split}\n")

    @classmethod
    def load(cls, path):
        records = []
        with open(path) as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ConfigError(f"{path}: malformed index line {line!r}")
                records.append(tuple(parts))
        return cls(records)


# ---------------------------------------------------------------------------
# Per-scan transforms
# ---------------------------------------------------------------------------

def reduce_beams(img):
    """Keep every other row (row j <- row 2j); FOV unchanged, H halved."""
    cfg = img.config
    if cfg.height % 2:
        raise ConfigError(f"beam reduction needs even row count, got {cfg.height}")
    half = SensorConfig(cfg.height // 2, cfg.width, cfg.f_up, cfg.f_down,
                        cfg.r_max)
    return RangeImage(img.range[::2].copy(), img.intensity[::2].copy(),
                      img.valid[::2].copy(), half)


def detect_ground(img, z_thresh=GROUND_Z_DEFAULT):
    """Boolean H x W mask of valid pixels whose unprojected z < z_thresh."""
    _, elev = pixel_angles(img.config)
    z = img.range.astype(np.float64) * np.sin(elev)[:, None]
    return img.valid & (z < z_thresh)


def corrupt(img, spec, severity, rng, z_thresh=GROUND_Z_DEFAULT):
    """Apply one severity level of a parametric corruption.

    fog/rain/snow: each valid pixel is dropped with probability
    min(1, slope*r); snow additionally injects spurious near-sensor
    returns; wet_ground restricts dropout to ground returns. Surviving
    intensities inside the affected region are attenuated.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    level = spec.severity_levels[severity]
    slope = float(level.get("dropout_slope", 0.0))
    atten = float(level.get("intensity_attenuation", 1.0))
    scatter_count = int(level.get("scatter_count", 0))
    scatter_range = float(level.get("scatter_range", 10.0))

    cfg = img.config
    rng_img = img.range.copy()
    inten = img.intensity.copy()
    valid = img.valid.copy()

    target = detect_ground(img, z_thresh) if spec.kind == "wet_ground" else valid
    p_drop = np.minimum(1.0, slope * rng_img.astype(np.float64))
    draw = rng.random(rng_img.shape)
    drop = target & (draw < p_drop)
    valid &= ~drop
    rng_img[drop] = 0.0
    inten[drop] = 0.0
    survivors = target & valid
    inten[survivors] = np.clip(inten[survivors] * atten, 0.0, 1.0)

    if spec.kind == "snow" and scatter_count > 0:
        vs = rng.integers(0, cfg.height, scatter_count)
        us = rng.integers(0, cfg.width, scatter_count)
        rr = rng.uniform(0.5, scatter_range, scatter_count)
        ii = rng.uniform(0.0, 1.0, scatter_count) * atten
        rng_img[vs, us] = rr.astype(np.float32)
        inten[vs, us] = ii.astype(np.float32)
        valid[vs, us] = True

    return RangeImage(rng_img, inten, valid, cfg)


def sample_prompt(spec, mode, rng=None):
    """Training draws uniformly from the pool; inference uses pool[0]."""
    if mode == "infer":
        return spec.prompt_pool[0]
    if mode == "train":
        if rng is None:
            raise ConfigError("train-mode prompt sampling needs an rng")
        return spec.prompt_pool[int(rng.integers(len(spec.prompt_pool)))]
    raise ConfigError(f"unknown prompt mode {mode!r}")


# ---------------------------------------------------------------------------
# Default domain table
# ---------------------------------------------------------------------------

def _levels(*dicts):
    return tuple(dicts)


DEFAULT_SEVERITIES = {
    "fog": _levels(
        {"dropout_slope": 0.004, "scatter_count": 0, "intensity_attenuation": 0.9},
        {"dropout_slope": 0.008, "scatter_count": 0, "intensity_attenuation": 0.8},
        {"dropout_slope": 0.016, "scatter_count": 0, "intensity_attenuation": 0.7},
    ),
    "snow": _levels(
        {"dropout_slope": 0.002, "scatter_count": 100, "scatter_range": 8.0,
         "intensity_attenuation": 0.9},
        {"dropout_slope": 0.005, "scatter_count": 300, "scatter_range": 10.0,
         "intensity_attenuation": 0.8},
        {"dropout_slope": 0.010, "scatter_count": 600, "scatter_range": 12.0,
         "intensity_attenuation": 0.7},
    ),
    "rain": _levels(
        {"dropout_slope": 0.002, "scatter_count": 0, "intensity_attenuation": 0.95},
        {"dropout_slope": 0.004, "scatter_count": 0, "intensity_attenuation": 0.90},
        {"dropout_slope": 0.008, "scatter_count": 0, "intensity_attenuation": 0.85},
    ),
    "wet_ground": _levels(
        {"dropout_slope": 0.010, "scatter_count": 0, "intensity_attenuation": 0.85},
        {"dropout_slope": 0.020, "scatter_count": 0, "intensity_attenuation": 0.75},
        {"dropout_slope": 0.040, "scatter_count": 0, "intensity_attenuation": 0.60},
    ),
}

DEFAULT_PROMPTS = {
    "Vehicle": (
        "a clear outdoor driving scene from a vehicle",
        "a city street scanned from a car roof sensor",
        "an urban road scene in clear weather",
    ),
    "Snow": (
        "a driving scene with falling snow and low visibility",
        "a snowy road with scattered near-sensor returns",
        "an outdoor scene during heavy snowfall",
    ),
    "Fog": (
        "a driving scene in dense fog with shortened visibility",
        "a foggy road with attenuated distant returns",
        "an outdoor scene under thick fog",
    ),
    "Rain": (
        "a driving scene in heavy rain",
        "a rainy street with weakened reflections",
        "an outdoor scene during rainfall",
    ),
    "WetGround": (
        "a driving scene with wet reflective ground",
        "a road after rain with sparse ground returns",
        "an outdoor scene with water on the road surface",
    ),
    "Beam32": (
        "a driving scene captured by a 32 beam sensor",
        "a sparse vertical resolution road scan",
        "an outdoor scene with reduced scan lines",
    ),
    "Drone": (
        "an outdoor scene from a drone viewpoint",
        "an aerial scan looking across open terrain",
        "a scene captured from a low flying drone",
    ),
    "Quadruped": (
        "an outdoor scene from a quadruped robot viewpoint",
        "a low viewpoint walkway scan from a legged robot",
        "a scene captured by a robot dog sensor",
    ),
}

DOMAIN_IDS = tuple(DEFAULT_PROMPTS)


def default_domain_specs(sensor):
    """The eight-domain table over one base sensor configuration."""
    specs = []
    for dom in DOMAIN_IDS:
        kind = {"Snow": "snow", "Fog": "fog", "Rain": "rain",
                "WetGround": "wet_ground"}.get(dom)
        corr = (CorruptionSpec(kind, DEFAULT_SEVERITIES[kind])
                if kind else None)
        base_key = {"Drone": "drone", "Quadruped": "quadruped"}.get(dom,
                                                                    "vehicle")
        specs.append(DomainSpec(
            id=dom,
            prompt_pool=DEFAULT_PROMPTS[dom],
            sensor=sensor,
            corruption=corr,
            beam_reduce=(dom == "Beam32"),
            base_key=base_key,
        ))
    return specs


def parse_corruption_file(path):
    """Severity tables from '[kind.level]' sections of 'key = value' lines."""
    cp = configparser.ConfigParser()
    with open(path) as f:
        cp.read_file(f)
    tables = {}
    for section in cp.sections():
        if "." not in section:
            raise ConfigError(f"{path}: section {section!r} is not kind.level")
        kind, lev = section.rsplit(".", 1)
        level = {k: float(v) for k, v in cp.items(section)}
        tables.setdefault(kind, []).append((int(lev), level))
    return {
        kind: tuple(level for _, level in sorted(levels))
        for kind, levels in tables.items()
    }


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def scan_rng(seed, domain_id, scan_path):
    """Independent per-scan RNG stream, stable under parallel processing."""
    digest = hashlib.blake2b(
        f"{domain_id}\x00{scan_path}".encode("utf-8"), digest_size=16
    ).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


def build_dataset(base, specs, out_dir, seed):
    """Materialize every domain from the base corpora.

    `base` maps base-corpus keys (vehicle/drone/quadruped) to lists of
    (olri path, split). Returns (DatasetIndex, summary dict). Output is
    a pure function of the corpus bytes, the specs, and the seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    index = DatasetIndex()
    summary = {"skipped": [], "counts": {}}
    for spec in specs:
        if spec.base_key not in base:
            raise ConfigError(
                f"domain {spec.id}: no base corpus for key {spec.base_key!r}"
            )
        dom_dir = os.path.join(out_dir, spec.id)
        os.makedirs(dom_dir, exist_ok=True)
        for path, split in base[spec.base_key]:
            try:
                img = read_olri(path)
            except (OSError, ConfigError) as exc:
                summary["skipped"].append((spec.id, path, str(exc)))
                continue
            rng = scan_rng(seed, spec.id, os.path.basename(path))
            if spec.corruption is not None:
                severity = int(rng.integers(len(spec.corruption.severity_levels)))
                img = corrupt(img, spec.corruption, severity, rng)
            elif spec.beam_reduce:
                img = reduce_beams(img)
            stem = os.path.splitext(os.path.basename(path))[0]
            rel = os.path.join(spec.id, f"{stem}.olri")
            write_olri(os.path.join(out_dir, rel), img)
            index.records.append((rel, spec.id, split))
        summary["counts"][spec.id] = sum(
            1 for r in index.records if r[1] == spec.id
        )
    index.save(os.path.join(out_dir, "index.tsv"))
    return index, summary
