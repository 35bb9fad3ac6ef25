"""Synthetic base corpora: ray-cast scenes rasterized into OLRI scans.

A scene is a ground plane, a ring of vertical cylinders (poles, trunks,
parked objects) and a circular boundary wall, seen from a sensor at a
platform-specific mount height. Rays are drawn at jittered angles, 1.5
per pixel, and the resulting point cloud goes through
`geometry.rasterize`, so the base scans look like projected sweeps
rather than perfect grids. Everything is a function of the seed.
"""

import os

import numpy as np

from rangegen import geometry

# Platform -> (mount height above ground in m, obstacle count).
PLATFORMS = {"vehicle": (1.8, 14), "drone": (12.0, 10), "quadruped": (0.45, 18)}

WALL_RADIUS = 70.0
WALL_TOP = 6.0


def _cylinder_hit(d, cx, cy, radius):
    """Forward hit distance of unit rays `d` against one vertical cylinder.

    The far root is taken when the sensor is inside the cylinder (the
    boundary wall); rays that miss get inf.
    """
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = -2.0 * (d[:, 0] * cx + d[:, 1] * cy)
    c = cx * cx + cy * cy - radius * radius
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    hit = ((-b + root) if c < 0 else (-b - root)) / np.maximum(a, 1e-12)
    return np.where((disc >= 0) & (hit > 0), 0.5 * hit, np.inf)


def synthetic_cloud(rng, sensor, platform):
    """One point cloud of a random scene around the given platform."""
    mount, n_obst = PLATFORMS[platform]
    n = int(1.5 * sensor.height * sensor.width)
    az = np.sort(rng.uniform(-np.pi, np.pi, n))
    el = rng.uniform(sensor.f_down, sensor.f_up, n)
    d = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)],
                 axis=1)

    # Surfaces: 0 ground, 1 obstacle, 2 wall.
    t = _cylinder_hit(d, 0.0, 0.0, WALL_RADIUS)
    t[d[:, 2] * t > WALL_TOP - mount] = np.inf
    surface = np.full(n, 2)
    with np.errstate(divide="ignore"):
        t_ground = np.where(d[:, 2] < -1e-6, -mount / d[:, 2], np.inf)
    closer = t_ground < t
    t[closer] = t_ground[closer]
    surface[closer] = 0
    for _ in range(n_obst):
        ang = rng.uniform(-np.pi, np.pi)
        dist = rng.uniform(4.0, 45.0)
        radius = rng.uniform(0.2, 2.5)
        top = rng.uniform(0.5, 8.0) - mount
        # Only rays within the cylinder's angular extent can hit it; rays
        # are sorted by azimuth, so that extent is one or two index runs.
        half = np.arcsin(radius / dist)
        lo, hi = np.searchsorted(az, [ang - half, ang + half])
        idx = np.arange(lo, hi)
        if ang - half < -np.pi:
            idx = np.concatenate([idx, np.arange(
                np.searchsorted(az, ang - half + 2 * np.pi), n)])
        if ang + half > np.pi:
            idx = np.concatenate([np.arange(
                np.searchsorted(az, ang + half - 2 * np.pi)), idx])
        hit = _cylinder_hit(d[idx], dist * np.cos(ang), dist * np.sin(ang), radius)
        z = d[idx, 2] * hit
        closer = (hit < t[idx]) & (z >= -mount) & (z <= top)
        t[idx[closer]] = hit[closer]
        surface[idx[closer]] = 1

    keep = np.isfinite(t) & (t <= sensor.r_max)
    t = t[keep] * (1.0 + 0.003 * rng.standard_normal(keep.sum()))
    base_inten = np.array([0.25, 0.6, 0.45])[surface[keep]]
    inten = np.clip(base_inten + 0.08 * rng.standard_normal(t.shape), 0.0, 1.0)
    return geometry.PointCloud(d[keep] * t[:, None], inten)


def write_base_corpus(out_dir, platform, sensor, count, seed, val_count=2):
    """Rasterize `count` scans and write a base index file for them.

    Returns the index path and the [(scan path, split)] entries it lists.
    """
    os.makedirs(out_dir, exist_ok=True)
    key = list(PLATFORMS).index(platform)
    entries = []
    for i in range(count):
        rng = np.random.default_rng([seed, key, i])
        img = geometry.rasterize(synthetic_cloud(rng, sensor, platform), sensor)
        path = os.path.join(out_dir, f"scan_{i:04d}.olri")
        geometry.write_olri(path, img)
        entries.append((path, "val" if i >= count - val_count else "train"))
    index = os.path.join(out_dir, "index.tsv")
    with open(index, "w") as f:
        f.writelines(f"{os.path.basename(p)}\t{split}\n" for p, split in entries)
    return index, entries
