"""Non-learned distribution metrics over bird's-eye-view occupancy.

Scans are compared through 80x80 occupancy histograms (1 m bins over
x, y in [-40, 40] m) of each scan's points: Jensen-Shannon
divergence between set-level histograms (base 2, bounded by 1) and the
biased maximum mean discrepancy estimator with a Gaussian kernel on
flattened per-scan histograms. Values are comparable within this
artifact only; the histogram and kernel choices are fixed here, not by
any external benchmark.

Binning is np.histogram2d's over the edges -40, -39, ..., 40, computed
directly: the edges are exact integers, so a coordinate's bin is
floor(x) + 40. A point on the outer edge x == 40 (or y == 40) goes in the
last bin, as histogram2d puts it; points outside the extent, NaN and
+-inf are dropped.

`scan_histogram` bins a range image without building its point cloud: a
valid pixel's x and y are its unit ray (geometry's cached per-sensor
table, the one `unproject` reads) times its range, and z and intensity
are never formed. It gives the bits of `bev_histogram(unproject(img))`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .geometry import _unit_rays

BEV_EXTENT = 40.0  # meters, symmetric in x and y
BEV_BINS = 80      # 1 m bins, which _bin_index's floor binning needs


@dataclass
class OccupancyHistogram:
    counts: np.ndarray  # BEV_BINS x BEV_BINS, normalized when non-empty
    empty: bool

    @property
    def flat(self):
        return self.counts.reshape(-1)


def bev_histogram(pc):
    """Normalized bird's-eye-view occupancy histogram of one point cloud."""
    return _bev_counts(pc.points[:, 0], pc.points[:, 1])


def scan_histogram(img):
    """`bev_histogram(unproject(img))`, bit for bit, from a range image."""
    rays = _unit_rays(img.config)
    idx = np.flatnonzero(img.valid)
    r = img.range.reshape(-1).take(idx).astype(np.float64)
    return _bev_counts(rays[0].take(idx) * r, rays[1].take(idx) * r)


def _bev_counts(x, y):
    """Normalized occupancy histogram of the points (x, y)."""
    inside = ((x >= -BEV_EXTENT) & (x <= BEV_EXTENT) &
              (y >= -BEV_EXTENT) & (y <= BEV_EXTENT))
    ix = _bin_index(x[inside])
    iy = _bin_index(y[inside])
    if ix.size == 0:
        return OccupancyHistogram(np.zeros((BEV_BINS, BEV_BINS)), empty=True)
    counts = np.bincount(ix * BEV_BINS + iy, minlength=BEV_BINS * BEV_BINS)
    return OccupancyHistogram(counts.reshape(BEV_BINS, BEV_BINS) / ix.size,
                              empty=False)


def _bin_index(coord):
    """1 m bin of in-extent coordinates; the outer edge joins the last bin."""
    idx = np.floor(coord).astype(np.int64) + int(BEV_EXTENT)
    return np.minimum(idx, BEV_BINS - 1, out=idx)


def jsd(p, q):
    """Base-2 Jensen-Shannon divergence between two histograms; in [0, 1]."""
    if p.empty or q.empty:
        raise MetricError("JSD of an empty histogram")
    pf, qf = p.flat, q.flat
    m = 0.5 * (pf + qf)
    return 0.5 * _kl_base2(pf, m) + 0.5 * _kl_base2(qf, m)


def _kl_base2(p, m):
    nz = p > 0
    return float(np.sum(p[nz] * np.log2(p[nz] / m[nz])))


def median_bandwidth(histograms):
    """Median of positive pairwise distances over the pooled set.

    Falls back to 1.0 when every pair coincides (the kernel is then
    constant and MMD is exactly zero anyway).
    """
    x = np.stack([h.flat for h in histograms])
    d2 = _sq_dists(x, x)
    iu = np.triu_indices(len(x), k=1)
    dists = np.sqrt(np.maximum(d2[iu], 0.0))
    positive = dists[dists > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def _sq_dists(a, b):
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return aa + bb - 2.0 * (a @ b.T)


def gaussian_kernel(a, b, bandwidth):
    if bandwidth <= 0:
        raise MetricError(f"degenerate kernel bandwidth {bandwidth}")
    return np.exp(-_sq_dists(a, b) / (2.0 * bandwidth**2))


def mmd(set_a, set_b, bandwidth=None):
    """Biased squared MMD between two sets of occupancy histograms.

    Returns (raw value, bandwidth). The estimator is a squared RKHS norm,
    so it is nonnegative and zero for identical multisets up to rounding;
    kaa and kab come from different BLAS routines, so a rounding residue
    below zero is clamped to 0.
    """
    if not set_a or not set_b:
        raise MetricError("MMD of an empty set")
    if any(h.empty for h in set_a) or any(h.empty for h in set_b):
        raise MetricError("MMD with an empty histogram member")
    if bandwidth is None:
        bandwidth = median_bandwidth(list(set_a) + list(set_b))
    a = np.stack([h.flat for h in set_a])
    b = np.stack([h.flat for h in set_b])
    kaa = gaussian_kernel(a, a, bandwidth).mean()
    kbb = gaussian_kernel(b, b, bandwidth).mean()
    kab = gaussian_kernel(a, b, bandwidth).mean()
    return max(0.0, float(kaa + kbb - 2.0 * kab)), float(bandwidth)


UNAVAILABLE_METRICS = ("FRD", "FRID", "FSVD", "FPVD", "FPD")


def metric_report(set_a, set_b):
    """JSD/MMD report between a generated set and a reference set.

    The set-level histogram for JSD is the normalized mean of the
    per-scan histograms. Learned-feature metrics are reported as
    unavailable rather than silently omitted.
    """
    mean_a = OccupancyHistogram(
        np.mean([h.counts for h in set_a], axis=0), empty=False)
    mean_b = OccupancyHistogram(
        np.mean([h.counts for h in set_b], axis=0), empty=False)
    jsd_value = jsd(mean_a, mean_b)
    mmd_value, bw = mmd(set_a, set_b)
    lines = [
        f"set_a_size = {len(set_a)}",
        f"set_b_size = {len(set_b)}",
        f"bandwidth = {bw:.9g}",
        f"JSD = {jsd_value:.9g}",
        f"MMD = {mmd_value:.9g}",
        f"MMD(x1e4) = {mmd_value * 1e4:.9g}",
    ]
    for name in UNAVAILABLE_METRICS:
        lines.append(f"{name} = unavailable: requires pretrained extractor")
    csv = ("set_a_size,set_b_size,bandwidth,jsd,mmd,mmd_x1e4\n"
           f"{len(set_a)},{len(set_b)},{bw:.9g},{jsd_value:.9g},"
           f"{mmd_value:.9g},{mmd_value * 1e4:.9g}\n")
    return {"jsd": jsd_value, "mmd": mmd_value, "mmd_x1e4": mmd_value * 1e4,
            "bandwidth": bw, "text": "\n".join(lines) + "\n", "csv": csv}
