"""Point clouds, spherical range-image projection, and normalization.

The shared modeling space is an H x W grid of (range, intensity) pixels.
Column u is azimuth (wraps 360 degrees); row v is elevation, with v=0 at
the top of the vertical field of view:

    u = 1/2 * (1 - atan2(y, x) / pi) * W
    v = (f_up - asin(z / r)) / f * H,   f = |f_up| + |f_down|

Continuous (u, v) are discretized by floor and clamped to the grid;
points exactly on the field-of-view edge are kept.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import backend
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
        return abs(self.f_up) + abs(self.f_down)


# 64-beam default used by the vehicle/weather domains; beam-reduced
# variants keep the FOV and halve the row count.
DEFAULT_SENSOR = SensorConfig(64, 1024, math.radians(3.0), math.radians(-25.0), 80.0)


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

def project_point(p, cfg):
    """Project one 3D point; returns continuous (u, v) and range r."""
    p = np.asarray(p, dtype=np.float64)
    r = float(np.linalg.norm(p))
    if r == 0.0:
        raise ValueError("cannot project a zero-norm point")
    u = 0.5 * (1.0 - math.atan2(p[1], p[0]) / math.pi) * cfg.width
    v = (cfg.f_up - math.asin(p[2] / r)) / cfg.fov * cfg.height
    return u, v, r


def project_points(points, cfg):
    """Vectorized projection; returns (u, v, r) arrays of continuous coords."""
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


def pixel_rays(cfg):
    """Unit direction of every pixel center; shape (H, W, 3)."""
    az, el = pixel_angles(cfg)
    cos_el = np.cos(el)[:, None]
    dirs = np.empty((cfg.height, cfg.width, 3), dtype=np.float64)
    dirs[:, :, 0] = cos_el * np.cos(az)[None, :]
    dirs[:, :, 1] = cos_el * np.sin(az)[None, :]
    dirs[:, :, 2] = np.sin(el)[:, None]
    return dirs


def rasterize(pc, cfg, return_stats=False):
    """Nearest-return rasterization; range ties go to the lower point index.

    Out-of-FOV (elevation outside [f_down, f_up]) and out-of-range
    (r > r_max or r == 0) points are dropped and counted.
    """
    u, v, r = project_points(pc.points, cfg)
    nonzero = r > 0
    safe_r = np.where(nonzero, r, 1.0)
    elev = np.arcsin(np.clip(pc.points[:, 2] / safe_r, -1.0, 1.0))
    in_fov = nonzero & (elev >= cfg.f_down) & (elev <= cfg.f_up)
    in_range = r <= cfg.r_max
    keep = in_fov & in_range
    stats = {
        "total": int(len(pc)),
        "dropped_fov": int(np.count_nonzero(nonzero & ~in_fov) +
                           np.count_nonzero(~nonzero)),
        "dropped_range": int(np.count_nonzero(in_fov & ~in_range)),
    }
    idx = np.nonzero(keep)[0]
    ui, vi = discretize(u[idx], v[idx], cfg)
    best_r, best_i = backend.rasterize_points(
        vi, ui, r[idx], cfg.height, cfg.width
    )
    valid = best_i >= 0
    rng = np.where(valid, best_r, 0.0).astype(np.float32)
    inten = np.zeros((cfg.height, cfg.width), dtype=np.float32)
    inten[valid] = pc.intensity[idx[best_i[valid]]]
    img = RangeImage(rng, inten, valid, cfg)
    return (img, stats) if return_stats else img


def unproject(img):
    """One point per valid pixel, along the pixel-center ray at stored range."""
    cfg = img.config
    dirs = pixel_rays(cfg)
    mask = img.valid
    pts = dirs[mask] * img.range[mask].astype(np.float64)[:, None]
    return PointCloud(pts, img.intensity[mask].astype(np.float64))


# ---------------------------------------------------------------------------
# Normalization to [-1, 1] for diffusion
# ---------------------------------------------------------------------------

def normalize(img, return_clipped=False):
    """Map a RangeImage to a 2 x H x W array in [-1, 1].

    Range channel: 2*log(1+r)/log(1+r_max) - 1 (monotone, invertible,
    endpoint-exact); intensity channel: 2*i - 1. Invalid pixels map to
    -1 on both channels. Ranges above r_max are clipped and counted.
    """
    cfg = img.config
    r = img.range.astype(np.float64)
    clipped = int(np.count_nonzero(img.valid & (r > cfg.r_max)))
    r = np.minimum(r, cfg.r_max)
    xr = 2.0 * np.log1p(r) / np.log1p(cfg.r_max) - 1.0
    xi = 2.0 * img.intensity.astype(np.float64) - 1.0
    out = np.stack([np.where(img.valid, xr, -1.0), np.where(img.valid, xi, -1.0)])
    return (out, clipped) if return_clipped else out


def denormalize(arr, cfg, valid=None):
    """Invert `normalize`. Without an explicit mask, pixels whose range
    channel sits at the lower bound are treated as invalid."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (2, cfg.height, cfg.width):
        raise ConfigError(f"expected (2,{cfg.height},{cfg.width}), got {arr.shape}")
    if valid is None:
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
    with open(path, "wb") as f:
        f.write(OLRI_MAGIC)
        f.write(struct.pack("<HIII", OLRI_VERSION, cfg.height, cfg.width, 2))
        f.write(struct.pack("<fff", cfg.f_up, cfg.f_down, cfg.r_max))
        f.write(np.ascontiguousarray(img.range, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(img.intensity, dtype="<f4").tobytes())
        f.write(img.valid.astype(np.uint8).tobytes())


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
    valid = np.frombuffer(raw, dtype=np.uint8, count=n, offset=off).reshape(h, w)
    return RangeImage(rng.copy(), inten.copy(), valid.astype(bool), cfg)


def write_xyz(path, pc):
    """One 'x y z intensity' line per point, LF endings."""
    with open(path, "w", newline="\n") as f:
        for p, i in zip(pc.points, pc.intensity):
            f.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {i:.9g}\n")


def read_xyz(path):
    data = np.loadtxt(path, dtype=np.float64, ndmin=2)
    if data.size == 0:
        return PointCloud(np.zeros((0, 3)), np.zeros(0))
    if data.shape[1] != 4:
        raise ConfigError(f"{path}: expected 4 columns, got {data.shape[1]}")
    return PointCloud(data[:, :3], data[:, 3])
