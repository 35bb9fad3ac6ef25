"""Point clouds, spherical range-image projection, and normalization.

The shared modeling space is an H x W grid of (range, intensity) pixels.
Column u is azimuth (wraps 360 degrees); row v is elevation, with v=0 at
the top of the vertical field of view:

    u = 1/2 * (1 - atan2(y, x) / pi) * W
    v = (f_up - asin(z / r)) / f * H,   f = f_up - f_down

Continuous (u, v) are discretized by floor and clamped to the grid;
points exactly on the field-of-view edge are kept.
"""

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import _replacing
from .errors import ConfigError

OLRI_MAGIC = b"OLRI"
OLRI_VERSION = 1


@dataclass(frozen=True)
class SensorConfig:
    height: int
    width: int
    f_up: float    # elevation upper bound, radians (positive above horizon)
    f_down: float  # elevation lower bound, radians (negative below horizon)
    r_max: float   # maximum representable range, meters

    def __post_init__(self):
        if self.height < 2 or self.width < 2:
            raise ConfigError(f"grid too small: {self.height}x{self.width}")
        if not self.f_up > self.f_down:
            raise ConfigError("f_up must exceed f_down")
        if not self.r_max > 0:
            raise ConfigError("r_max must be positive")

    @property
    def fov(self):
        return self.f_up - self.f_down


# 64-beam default used by the vehicle/weather domains; beam-reduced
# variants keep the FOV and halve the row count. Configs give the FOV in
# degrees, and radians do not convert back to them exactly.
DEFAULT_FOV_UP_DEG = 3.0
DEFAULT_FOV_DOWN_DEG = -25.0
DEFAULT_SENSOR = SensorConfig(64, 1024, math.radians(DEFAULT_FOV_UP_DEG),
                              math.radians(DEFAULT_FOV_DOWN_DEG), 80.0)


@dataclass
class PointCloud:
    points: np.ndarray     # N x 3 meters
    intensity: np.ndarray  # N in [0, 1]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
        if self.points.shape[0] != self.intensity.shape[0]:
            raise ConfigError("points and intensity lengths differ")

    def __len__(self):
        return self.points.shape[0]


@dataclass
class RangeImage:
    range: np.ndarray      # H x W float32, 0 where invalid
    intensity: np.ndarray  # H x W float32 in [0, 1]
    valid: np.ndarray      # H x W bool
    config: SensorConfig

    def __post_init__(self):
        self.range = np.asarray(self.range, dtype=np.float32)
        self.intensity = np.asarray(self.intensity, dtype=np.float32)
        self.valid = np.asarray(self.valid, dtype=bool)
        shape = (self.config.height, self.config.width)
        for name, arr in (("range", self.range), ("intensity", self.intensity),
                          ("valid", self.valid)):
            if arr.shape != shape:
                raise ConfigError(f"{name} shape {arr.shape} != grid {shape}")


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def project_points(points, cfg):
    """Project N x 3 points; returns (u, v, r) arrays of continuous coords."""
    points = np.asarray(points, dtype=np.float64)
    r = np.linalg.norm(points, axis=1)
    safe_r = np.where(r > 0, r, 1.0)
    elev = np.arcsin(np.clip(points[:, 2] / safe_r, -1.0, 1.0))
    u = 0.5 * (1.0 - np.arctan2(points[:, 1], points[:, 0]) / np.pi) * cfg.width
    v = (cfg.f_up - elev) / cfg.fov * cfg.height
    return u, v, r


def discretize(u, v, cfg):
    """Floor and clamp continuous coordinates onto the pixel grid."""
    ui = np.clip(np.floor(u).astype(np.int64), 0, cfg.width - 1)
    vi = np.clip(np.floor(v).astype(np.int64), 0, cfg.height - 1)
    return ui, vi


def pixel_angles(cfg):
    """Azimuth and elevation of every pixel center; shapes (W,), (H,)."""
    u = np.arange(cfg.width, dtype=np.float64) + 0.5
    v = np.arange(cfg.height, dtype=np.float64) + 0.5
    azimuth = np.pi * (1.0 - 2.0 * u / cfg.width)
    elevation = cfg.f_up - v / cfg.height * cfg.fov
    return azimuth, elevation


def rasterize(pc, cfg):
    """Nearest-return rasterization; range ties go to the lower point index.

    Out-of-FOV (elevation outside [f_down, f_up]) and out-of-range
    (r > r_max or r == 0) points are dropped.
    """
    u, v, r = project_points(pc.points, cfg)
    nonzero = r > 0
    safe_r = np.where(nonzero, r, 1.0)
    elev = np.arcsin(np.clip(pc.points[:, 2] / safe_r, -1.0, 1.0))
    keep = (nonzero & (elev >= cfg.f_down) & (elev <= cfg.f_up)
            & (r <= cfg.r_max))
    idx = np.nonzero(keep)[0]
    ui, vi = discretize(u[idx], v[idx], cfg)
    ranges, pix = r[idx], vi * cfg.width + ui
    # Sort by (pixel, range, index): the first point of each pixel wins.
    order = np.lexsort((np.arange(idx.size), ranges, pix))
    first = np.ones(idx.size, dtype=bool)
    first[1:] = pix[order[1:]] != pix[order[:-1]]
    win = order[first]
    at = vi[win], ui[win]
    shape = (cfg.height, cfg.width)
    rng, inten = np.zeros(shape, np.float32), np.zeros(shape, np.float32)
    valid = np.zeros(shape, dtype=bool)
    rng[at], inten[at], valid[at] = ranges[win], pc.intensity[idx[win]], True
    return RangeImage(rng, inten, valid, cfg)


@functools.lru_cache(maxsize=8)
def _unit_rays(cfg):
    """Read-only (3, H*W) unit rays through the pixel centres, row-major.

    Rows are cos(el) * cos(az), cos(el) * sin(az) and sin(el), in that
    product order. One table per sensor serves every scan on its grid; a
    few sensors (a full and a beam-reduced grid) are live at once, and
    the cache bound keeps stray ones from piling up.
    """
    az, el = pixel_angles(cfg)
    cos_el = np.cos(el)[:, None]
    rays = np.empty((3, cfg.height, cfg.width))
    rays[0] = cos_el * np.cos(az)
    rays[1] = cos_el * np.sin(az)
    rays[2] = np.sin(el)[:, None]
    rays = rays.reshape(3, -1)
    rays.flags.writeable = False
    return rays


def unproject(img):
    """One point per valid pixel, along the pixel-center ray at stored range.

    Only the valid pixels are gathered. Each coordinate is the pixel's
    unit ray (`_unit_rays`) times r, so a point equals, bit for bit,
    (cos(el) * cos(az)) * r and so on.
    """
    rays = _unit_rays(img.config)
    idx = np.flatnonzero(img.valid)
    r = img.range.reshape(-1).take(idx).astype(np.float64)
    pts = np.empty((idx.size, 3))
    for k in range(3):
        np.multiply(rays[k].take(idx), r, out=pts[:, k])
    return PointCloud(pts, img.intensity.reshape(-1).take(idx)
                      .astype(np.float64))


# ---------------------------------------------------------------------------
# Normalization to [-1, 1] for diffusion
# ---------------------------------------------------------------------------

def normalize(img):
    """Map a RangeImage to a 2 x H x W array in [-1, 1].

    Range channel: 2*log(1+r)/log(1+r_max) - 1 (monotone, invertible,
    endpoint-exact); intensity channel: 2*i - 1. Invalid pixels map to
    -1 on both channels. Ranges above r_max are clipped.
    """
    cfg = img.config
    r = np.minimum(img.range.astype(np.float64), cfg.r_max)
    xr = 2.0 * np.log1p(r) / np.log1p(cfg.r_max) - 1.0
    xi = 2.0 * img.intensity.astype(np.float64) - 1.0
    return np.stack([np.where(img.valid, xr, -1.0),
                     np.where(img.valid, xi, -1.0)])


def denormalize(arr, cfg):
    """Invert `normalize`. Pixels whose range channel sits at the lower
    bound are invalid."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (2, cfg.height, cfg.width):
        raise ConfigError(f"expected (2,{cfg.height},{cfg.width}), got {arr.shape}")
    valid = arr[0] > -1.0 + 1e-9
    r = np.expm1((arr[0] + 1.0) / 2.0 * np.log1p(cfg.r_max))
    r = np.clip(r, 0.0, cfg.r_max)
    inten = np.clip((arr[1] + 1.0) / 2.0, 0.0, 1.0)
    rng = np.where(valid, r, 0.0).astype(np.float32)
    return RangeImage(rng, np.where(valid, inten, 0.0).astype(np.float32),
                      valid, cfg)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_olri(path, img):
    cfg = img.config
    with _replacing(path) as f:
        f.write(OLRI_MAGIC)
        f.write(struct.pack("<HIII", OLRI_VERSION, cfg.height, cfg.width, 2))
        f.write(struct.pack("<fff", cfg.f_up, cfg.f_down, cfg.r_max))
        f.write(np.ascontiguousarray(img.range, dtype="<f4"))
        f.write(np.ascontiguousarray(img.intensity, dtype="<f4"))
        f.write(img.valid.astype(np.uint8))  # each flag as one 0 or 1 byte


def read_olri(path):
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != OLRI_MAGIC:
        raise ConfigError(f"{path}: not an OLRI range image")
    off = 30
    if len(raw) < off:
        raise ConfigError(f"{path}: truncated OLRI header ({len(raw)} bytes)")
    version, h, w, channels = struct.unpack_from("<HIII", raw, 4)
    if version != OLRI_VERSION or channels != 2:
        raise ConfigError(f"{path}: unsupported OLRI header")
    f_up, f_down, r_max = struct.unpack_from("<fff", raw, 18)
    n = h * w
    if len(raw) != off + 9 * n:
        raise ConfigError(f"{path}: OLRI payload is {len(raw) - off} bytes, "
                          f"expected {9 * n} for a {h}x{w} grid")
    cfg = SensorConfig(h, w, float(f_up), float(f_down), float(r_max))
    rng = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(h, w)
    off += 4 * n
    inten = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(h, w)
    off += 4 * n
    valid = np.frombuffer(raw, dtype=np.uint8, count=n, offset=off
                          ).reshape(h, w).astype(bool)
    ok = (rng >= 0.0) & (rng <= cfg.r_max)  # a NaN fails both
    ok |= ~valid
    if not ok.all():
        v, u = np.argwhere(~ok)[0]
        raise ConfigError(f"{path}: valid pixel ({v}, {u}) has range "
                          f"{rng[v, u]}, outside [0, {cfg.r_max:g}] m")
    return RangeImage(rng.copy(), inten.copy(), valid, cfg)


def write_xyz(path, pc):
    """One 'x y z intensity' line per point, LF endings."""
    with _replacing(path, "w", newline="\n") as f:
        for p, i in zip(pc.points, pc.intensity):
            f.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {i:.9g}\n")

