"""Multi-domain corpus construction.

Builds the eight-domain training corpus from clean base scans: beam
reduction for the sensor-configuration domain, parametric weather
corruptions (range-proportional dropout, near-sensor scatter, intensity
attenuation -- simplified stand-ins for full physical simulators, with
the structural properties the model must learn), per-domain prompt
pools, and pooled dataset assembly with carried-through splits.
"""

import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import _replacing
from .errors import ConfigError
from .geometry import (RangeImage, SensorConfig, _unit_rays, read_olri,
                       write_olri)

GROUND_Z_DEFAULT = -1.3  # meters; below this a return counts as ground


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str                    # a key of DEFAULT_SEVERITIES
    severity_levels: tuple       # tuple of level dicts


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


def read_text_lines(path):
    """The lines of a UTF-8 text file, split as text mode splits them; a
    ConfigError naming the file and the byte offset if it is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not text ({exc.reason} at byte "
                          f"{exc.start})") from None


def read_key_values(path):
    """The `key = value` lines of a text file under their `[section]`
    headers: a list of (section, line number, {key: (line number, value)}),
    whose first item, (None, 0, ...), holds the lines before any header.

    `#` starts a comment anywhere on a line, blank lines are skipped, and
    keys are case-sensitive. Any other line, a key repeated within a
    section or a repeated section is a ConfigError naming `path:line`."""
    sections = [(None, 0, {})]
    for lineno, line in enumerate(read_text_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if any(line[1:-1] == name for name, _, _ in sections):
                raise ConfigError(f"{path}:{lineno}: section {line} appears "
                                  "twice")
            sections.append((line[1:-1], lineno, {}))
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        entries = sections[-1][2]
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: key {key!r} appears twice")
        entries[key] = (lineno, value.strip())
    return sections


def read_table(path, columns):
    """The tab-separated fields of each non-empty line of a text file, as a
    list of tuples with one string per name in `columns`; a ConfigError
    naming `path:line` for a line with another number of fields."""
    rows = []
    for lineno, line in enumerate(read_text_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = tuple(line.split("\t"))
        if len(fields) != len(columns):
            raise ConfigError(f"{path}:{lineno}: expected "
                              f"'{'<TAB>'.join(columns)}'")
        rows.append(fields)
    return rows


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
        with _replacing(path, "w", newline="\n") as f:
            for rel, dom, split in self.records:
                f.write(f"{rel}\t{dom}\t{split}\n")

    @classmethod
    def load(cls, path):
        return cls(read_table(path, ("path", "domain", "split")))


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


def detect_ground(img):
    """Boolean H x W mask of valid pixels with z below GROUND_Z_DEFAULT."""
    cfg = img.config
    sin_el = _unit_rays(cfg)[2].reshape(cfg.height, cfg.width)
    z = img.range.astype(np.float64) * sin_el
    return img.valid & (z < GROUND_Z_DEFAULT)


def _bitmask(flags):
    """int32 all one bits where the bool array `flags` holds, zero elsewhere."""
    mask = flags.astype(np.int32)
    return np.negative(mask, out=mask)


def corrupt(img, spec, severity, rng):
    """Apply one severity level of a parametric corruption.

    fog/rain/snow: each valid pixel is dropped with probability
    min(1, slope*r); snow additionally injects spurious near-sensor
    returns; wet_ground restricts dropout to ground returns. Surviving
    intensities inside the affected region are attenuated.

    A dropped pixel's range and intensity become +0.0; every other bit,
    NaN, infinities and -0.0 included, is kept or attenuated. The drop
    mask is random, so a masked write (`a[drop] = 0`, `np.where`,
    `np.copyto(where=)`) mispredicts a branch at about every third pixel
    and takes several times as long as a pass over the array. The selects
    below are bitwise ANDs and ORs of the float32 bits with int32 masks
    instead, which do not branch per pixel.
    """
    level = spec.severity_levels[severity]
    slope = float(level.get("dropout_slope", 0.0))
    atten = float(level.get("intensity_attenuation", 1.0))
    scatter_count = int(level.get("scatter_count", 0))
    scatter_range = float(level.get("scatter_range", 10.0))

    cfg = img.config
    target = detect_ground(img) if spec.kind == "wet_ground" else img.valid
    # A draw in [0, 1) is below min(1, slope*r) exactly when it is below
    # slope*r, NaN included.
    drop = rng.random(target.shape) < np.multiply(img.range, slope,
                                                  dtype=np.float64)
    drop &= target
    valid = img.valid & ~drop
    rng_img = (img.range.view(np.int32) & _bitmask(~drop)).view(np.float32)
    inten = np.multiply(img.intensity, atten)
    np.clip(inten, 0.0, 1.0, out=inten)
    bits = inten.view(np.int32)
    bits &= _bitmask(target & valid)  # the survivors, attenuated
    bits |= img.intensity.view(np.int32) & _bitmask(~target)

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

DEFAULT_SEVERITIES = {
    "fog": (
        {"dropout_slope": 0.004, "scatter_count": 0, "intensity_attenuation": 0.9},
        {"dropout_slope": 0.008, "scatter_count": 0, "intensity_attenuation": 0.8},
        {"dropout_slope": 0.016, "scatter_count": 0, "intensity_attenuation": 0.7},
    ),
    "snow": (
        {"dropout_slope": 0.002, "scatter_count": 100, "scatter_range": 8.0,
         "intensity_attenuation": 0.9},
        {"dropout_slope": 0.005, "scatter_count": 300, "scatter_range": 10.0,
         "intensity_attenuation": 0.8},
        {"dropout_slope": 0.010, "scatter_count": 600, "scatter_range": 12.0,
         "intensity_attenuation": 0.7},
    ),
    "rain": (
        {"dropout_slope": 0.002, "scatter_count": 0, "intensity_attenuation": 0.95},
        {"dropout_slope": 0.004, "scatter_count": 0, "intensity_attenuation": 0.90},
        {"dropout_slope": 0.008, "scatter_count": 0, "intensity_attenuation": 0.85},
    ),
    "wet_ground": (
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


# The keys of a severity level, each with the closed range of its value.
# scatter_range is the far end of the snow returns' uniform draw from 0.5 m.
CORRUPTION_KEYS = {"dropout_slope": (-math.inf, math.inf),
                   "intensity_attenuation": (0.0, 1.0),
                   "scatter_count": (0.0, math.inf),
                   "scatter_range": (0.5, math.inf)}


def parse_corruption_file(path):
    """Severity tables from '[kind.level]' sections of 'key = value' lines,
    in the syntax of `read_key_values`.

    Every section names a known kind and an integer level, each kind's
    levels are numbered 0..n-1, and every key is a known one with a finite
    number inside its range (a whole one for scatter_count). Anything else
    is a one-line ConfigError naming the file and, where there is one, the
    line."""
    (_, _, loose), *sections = read_key_values(path)
    if loose:
        raise ConfigError(f"{path}:{min(loose.values())[0]}: a key before "
                          "any [kind.level] section header")
    tables = {}
    for section, lineno, entries in sections:
        kind, _, lev = section.rpartition(".")
        # A canonical level only, so that [fog.1] and [fog.01] cannot clash.
        if kind not in DEFAULT_SEVERITIES or not (
                lev.isdecimal() and lev == str(int(lev))):
            raise ConfigError(
                f"{path}:{lineno}: section [{section}] is not kind.level with "
                f"kind one of {', '.join(DEFAULT_SEVERITIES)} and an integer "
                "level")
        level = {}
        for key, (lineno, value) in entries.items():
            where = f"{path}:{lineno}: section [{section}]"
            if key not in CORRUPTION_KEYS:
                raise ConfigError(
                    f"{where}: unknown key {key!r} "
                    f"(known: {', '.join(CORRUPTION_KEYS)})")
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number) or (
                    key == "scatter_count" and not number.is_integer()):
                raise ConfigError(f"{where}: {key} = {value!r} is not a "
                                  "valid number")
            low, high = CORRUPTION_KEYS[key]
            if not low <= number <= high:
                raise ConfigError(f"{where}: {key} = {value} is outside "
                                  f"[{low:g}, {high:g}]")
            level[key] = number
        tables.setdefault(kind, {})[int(lev)] = level
    for kind, levels in tables.items():
        if sorted(levels) != list(range(len(levels))):
            raise ConfigError(
                f"{path}: [{kind}.*] levels are {sorted(levels)}, "
                f"not 0..{len(levels) - 1}")
    return {kind: tuple(levels[i] for i in range(len(levels)))
            for kind, levels in tables.items()}


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


def _sensor_mismatch(scan, configured):
    """Why a scan taken by sensor `scan` does not fit a domain of sensor
    `configured`, or None. The FOV and r_max compare at float32, the
    precision of the OLRI header they are read from."""
    if (scan.height, scan.width) != (configured.height, configured.width):
        return (f"{scan.height}x{scan.width} scan, the configured grid is "
                f"{configured.height}x{configured.width}")

    have, want = (np.float32([c.f_up, c.f_down, c.r_max])
                  for c in (scan, configured))
    if np.array_equal(have, want):
        return None

    def text(cfg):
        return (f"FOV {math.degrees(cfg.f_up):.6g}/"
                f"{math.degrees(cfg.f_down):.6g} deg, r_max {cfg.r_max:.6g} m")

    return f"scan with {text(scan)}, the configured sensor has {text(configured)}"


def build_dataset(base, specs, out_dir, seed):
    """Materialize every domain from the base corpora.

    `base` maps base-corpus keys (vehicle/drone/quadruped) to lists of
    (olri path, split). Returns (DatasetIndex, summary dict). Output is
    a pure function of the corpus bytes, the specs, and the seed: scans
    that an earlier build left in a domain directory and the new index
    does not list are removed (never a base input), and the summary's
    "removed" counts them.

    Each base scan is read and validated once, and every domain that
    derives from its corpus is made from that one read. The index and
    the skipped list still run domain by domain, in the order of `specs`.
    """
    for spec in specs:
        if spec.base_key not in base:
            raise ConfigError(
                f"domain {spec.id}: no base corpus for key {spec.base_key!r}"
            )
    os.makedirs(out_dir, exist_ok=True)
    for spec in specs:
        os.makedirs(os.path.join(out_dir, spec.id), exist_ok=True)
    records = [[] for _ in specs]
    skipped = [[] for _ in specs]
    for key, entries in base.items():
        serving = [(i, spec) for i, spec in enumerate(specs)
                   if spec.base_key == key]
        if not serving:
            continue
        for path, split in entries:
            try:
                img = read_olri(path)
            except (OSError, ConfigError) as exc:
                for i, spec in serving:
                    skipped[i].append((spec.id, path, str(exc)))
                continue
            name = os.path.basename(path)
            rel_name = f"{os.path.splitext(name)[0]}.olri"
            for i, spec in serving:
                reason = _sensor_mismatch(img.config, spec.sensor)
                if reason:
                    skipped[i].append((spec.id, path, reason))
                    continue
                out = img
                if spec.corruption is not None:
                    rng = scan_rng(seed, spec.id, name)
                    levels = spec.corruption.severity_levels
                    severity = int(rng.integers(len(levels)))
                    out = corrupt(img, spec.corruption, severity, rng)
                elif spec.beam_reduce:
                    out = reduce_beams(img)
                rel = os.path.join(spec.id, rel_name)
                write_olri(os.path.join(out_dir, rel), out)
                records[i].append((rel, spec.id, split))
    index = DatasetIndex([r for rs in records for r in rs])
    summary = {"skipped": [s for ss in skipped for s in ss]}
    # A domain whose every scan was skipped still reports its 0.
    summary["counts"] = {spec.id: 0 for spec in specs} | index.counts()
    index.save(os.path.join(out_dir, "index.tsv"))
    summary["removed"] = 0
    written = {rel for rel, _, _ in index.records}
    keep = None  # the real paths of every input and output, when first needed
    for spec in specs:
        dom_dir = os.path.join(out_dir, spec.id)
        for name in os.listdir(dom_dir):
            if (not name.endswith(".olri")
                    or os.path.join(spec.id, name) in written):
                continue
            if keep is None:
                keep = {os.path.realpath(p)
                        for entries in base.values() for p, _ in entries}
                keep |= {os.path.realpath(os.path.join(out_dir, rel))
                         for rel in written}
            path = os.path.join(dom_dir, name)
            if os.path.realpath(path) not in keep:
                os.remove(path)
                summary["removed"] += 1
    return index, summary
