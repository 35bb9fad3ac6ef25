"""Occupancy-histogram JSD and MMD tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bev_histogram_reference, unproject_reference
from rangegen import geometry, metrics
from rangegen.errors import MetricError
from rangegen.geometry import PointCloud
from rangegen.toy import TOY_SENSOR


def _pc(points):
    points = np.asarray(points, dtype=np.float64)
    return PointCloud(points, np.full(len(points), 0.5))


def _hist_from_probs(probs):
    grid = np.zeros((metrics.BEV_BINS, metrics.BEV_BINS))
    flat = grid.reshape(-1)
    flat[: len(probs)] = probs
    return metrics.OccupancyHistogram(grid, empty=False)


# ---------------------------------------------------------------------------
# Histogram construction
# ---------------------------------------------------------------------------

def test_single_point_single_bin():
    h = metrics.bev_histogram(_pc([[0.5, 0.5, 0.0]]))
    assert not h.empty
    assert h.counts.sum() == pytest.approx(1.0)
    assert (h.counts > 0).sum() == 1


def test_two_points_two_half_bins():
    h = metrics.bev_histogram(_pc([[0.5, 0.5, 0.0], [10.5, -3.5, 1.0]]))
    occupied = h.counts[h.counts > 0]
    np.testing.assert_allclose(sorted(occupied), [0.5, 0.5])


def test_out_of_extent_points_ignored():
    h = metrics.bev_histogram(_pc([[0.5, 0.5, 0.0], [500.0, 0.0, 0.0]]))
    assert h.counts.sum() == pytest.approx(1.0)
    assert (h.counts > 0).sum() == 1


def test_empty_input_flagged():
    h = metrics.bev_histogram(_pc(np.zeros((0, 3))))
    assert h.empty
    h2 = metrics.bev_histogram(_pc([[500.0, 0.0, 0.0]]))
    assert h2.empty


_EDGE = metrics.BEV_EXTENT
_EDGE_VALUES = [
    _EDGE, -_EDGE, 0.0, -0.0,
    np.nextafter(_EDGE, 0.0), np.nextafter(_EDGE, np.inf),
    np.nextafter(-_EDGE, 0.0), np.nextafter(-_EDGE, -np.inf),
    np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
    39.999999999, np.nan, np.inf, -np.inf, 1e300, -1e300, -1e-300,
]


def _assert_matches_histogram2d(points):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    h = metrics.bev_histogram(_pc(points))
    counts, empty = bev_histogram_reference(points)
    assert h.empty == empty
    assert h.counts.dtype == np.float64
    assert np.array_equal(h.counts, counts)


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=lambda v: repr(float(v)))
def test_binning_matches_histogram2d_at_edge_values(value):
    _assert_matches_histogram2d([[value, 0.5, 0.0], [0.5, value, 0.0],
                                 [value, value, 0.0], [-3.5, 7.5, 0.0]])


def test_binning_matches_histogram2d_on_edge_value_grid():
    x, y = np.meshgrid(_EDGE_VALUES, _EDGE_VALUES, indexing="ij")
    _assert_matches_histogram2d(
        np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1))


_coords = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(-41.0, 41.0),
                    st.sampled_from(_EDGE_VALUES))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_coords, _coords), max_size=40))
def test_binning_matches_histogram2d_property(xy):
    _assert_matches_histogram2d([[x, y, 0.0] for x, y in xy])


def test_uniform_disk_bin_counts_poisson():
    rng = np.random.default_rng(0)
    n = 100_000
    r = 30.0 * np.sqrt(rng.random(n))
    th = rng.uniform(0, 2 * np.pi, n)
    pts = np.stack([r * np.cos(th), r * np.sin(th), np.zeros(n)], axis=1)
    h = metrics.bev_histogram(_pc(pts))
    # interior bins (fully inside the disk) should be uniform: counts are
    # Poisson with mean n * bin_area / disk_area
    xs = (np.arange(metrics.BEV_BINS) + 0.5) - metrics.BEV_EXTENT
    cx, cy = np.meshgrid(xs, xs, indexing="ij")
    interior = np.sqrt(cx**2 + cy**2) < 30.0 - 1.5
    lam = n / (np.pi * 30.0**2)
    counts = h.counts * n
    dev = np.abs(counts[interior] - lam) / math.sqrt(lam)
    # allow a 4-sigma envelope per bin with a small multiple-testing slack
    assert (dev > 5.0).mean() < 1e-3
    assert dev.mean() < 1.0


# ---------------------------------------------------------------------------
# Histograms straight from the range image
# ---------------------------------------------------------------------------

def _assert_scan_histogram_matches(img):
    """scan_histogram equals the point-cloud path and the reference path."""
    h = metrics.scan_histogram(img)
    via_cloud = metrics.bev_histogram(geometry.unproject(img))
    counts, empty = bev_histogram_reference(unproject_reference(img)[0])
    for other_counts, other_empty in ((via_cloud.counts, via_cloud.empty),
                                      (counts, empty)):
        assert h.empty == other_empty
        assert h.counts.dtype == other_counts.dtype == np.float64
        assert h.counts.tobytes() == other_counts.tobytes()
    return h


def _scan(cfg, rng, p_valid=0.8, r_low=0.5):
    shape = (cfg.height, cfg.width)
    valid = rng.random(shape) < p_valid
    rng_img = np.where(valid, rng.uniform(r_low, cfg.r_max, shape), 0.0)
    return geometry.RangeImage(rng_img, rng.random(shape), valid, cfg)


_SECOND_FOV = dataclasses.replace(geometry.DEFAULT_SENSOR,
                                  f_up=math.radians(15.0),
                                  f_down=math.radians(-15.0), r_max=120.0)
_SENSORS = [TOY_SENSOR,
            dataclasses.replace(geometry.DEFAULT_SENSOR, height=32),
            geometry.DEFAULT_SENSOR, _SECOND_FOV]


def test_scan_histogram_of_all_invalid_scan_is_empty():
    img = _scan(TOY_SENSOR, np.random.default_rng(0), p_valid=0.0)
    h = _assert_scan_histogram_matches(img)
    assert h.empty and not h.counts.any()


def test_scan_histogram_with_every_point_outside_extent_is_empty():
    # At r_max = 80 m every ray of this sensor has |x| or |y| above 40 m.
    img = _scan(geometry.DEFAULT_SENSOR, np.random.default_rng(1),
                p_valid=1.0, r_low=79.0)
    assert _assert_scan_histogram_matches(img).empty


def _edge_sensor(axis, target):
    """A 2x64 sensor and a column whose row-0 unit ray has component
    `axis` exactly `target`: f_down is stepped one ulp at a time, which
    moves that row's elevation finer than the ray's rounding."""
    az, _ = geometry.pixel_angles(
        geometry.SensorConfig(2, 64, 0.1, -0.1, 80.0))
    trig = np.cos(az) if axis == 0 else np.sin(az)
    col = int(np.argmin(np.abs(trig - 1.8 * target)))
    f_up = math.acos(target / trig[col]) + 0.05
    f_down, seen = f_up - 0.2, set()
    for _ in range(1000):
        cfg = geometry.SensorConfig(2, 64, f_up, float(f_down), 80.0)
        ray = np.cos(geometry.pixel_angles(cfg)[1][0]) * trig[col]
        if ray == target:
            return cfg, col
        if f_down in seen:  # stepped over the target: move the whole FOV
            f_up, seen = float(np.nextafter(f_up, np.inf)), set()
        seen.add(f_down)
        f_down = np.nextafter(
            f_down, np.inf if abs(ray) > abs(target) else -np.inf)
    raise AssertionError("no sensor with a ray on the edge")


@pytest.mark.parametrize("axis, edge", [(0, 40.0), (1, -40.0)])
def test_scan_histogram_point_exactly_on_extent_edge(axis, edge):
    cfg, col = _edge_sensor(axis, edge / 80.0)
    img = _scan(cfg, np.random.default_rng(2), p_valid=0.5, r_low=1.0)
    img.valid[0, col], img.range[0, col] = True, 80.0
    assert edge in geometry.unproject(img).points[:, axis]
    assert not _assert_scan_histogram_matches(img).empty


def test_scan_histogram_with_odd_rows_invalid():
    img = _scan(geometry.DEFAULT_SENSOR, np.random.default_rng(3))
    img.valid[1::2] = False
    img.range[1::2] = 0.0
    assert not _assert_scan_histogram_matches(img).empty


def test_scan_histogram_per_sensor_in_one_process():
    # Sensors alternate, so a ray table handed to the wrong sensor (the
    # second FOV shares the 64x1024 grid) would show as a mismatch.
    rng = np.random.default_rng(4)
    for _ in range(2):
        for cfg in _SENSORS:
            _assert_scan_histogram_matches(_scan(cfg, rng))


# ---------------------------------------------------------------------------
# Jensen-Shannon divergence
# ---------------------------------------------------------------------------

def test_jsd_identity_zero():
    h = _hist_from_probs([0.25, 0.25, 0.5])
    assert metrics.jsd(h, h) == pytest.approx(0.0, abs=1e-15)


def test_jsd_disjoint_supports_is_one():
    p = _hist_from_probs([0.5, 0.5, 0.0, 0.0])
    q = _hist_from_probs([0.0, 0.0, 0.5, 0.5])
    assert metrics.jsd(p, q) == pytest.approx(1.0, abs=1e-15)


def test_jsd_hand_example_matches_summation_oracle():
    p_vec = np.array([0.5, 0.5, 0.0])
    q_vec = np.array([0.0, 0.5, 0.5])
    p = _hist_from_probs(p_vec)
    q = _hist_from_probs(q_vec)
    m = 0.5 * (p_vec + q_vec)
    expect = 0.0
    for vec in (p_vec, q_vec):
        for pi, mi in zip(vec, m):
            if pi > 0:
                expect += 0.5 * pi * math.log2(pi / mi)
    assert abs(metrics.jsd(p, q) - expect) <= 1e-12


def test_jsd_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.random(10)
        b = rng.random(10)
        p = _hist_from_probs(a / a.sum())
        q = _hist_from_probs(b / b.sum())
        val = metrics.jsd(p, q)
        assert 0.0 <= val <= 1.0 + 1e-12
        assert val == pytest.approx(metrics.jsd(q, p), abs=1e-14)


def test_jsd_empty_rejected():
    empty = metrics.OccupancyHistogram(
        np.zeros((metrics.BEV_BINS, metrics.BEV_BINS)), empty=True)
    with pytest.raises(MetricError):
        metrics.jsd(empty, _hist_from_probs([1.0]))


# ---------------------------------------------------------------------------
# Maximum mean discrepancy
# ---------------------------------------------------------------------------

def _random_hists(rng, n):
    out = []
    for _ in range(n):
        v = rng.random(16)
        out.append(_hist_from_probs(v / v.sum()))
    return out


def test_mmd_identical_multisets_zero():
    rng = np.random.default_rng(2)
    hs = _random_hists(rng, 5)
    val, _ = metrics.mmd(hs, list(hs))
    assert abs(val) <= 1e-12


def test_mmd_of_a_set_against_itself_is_never_negative():
    # kaa and kab come from different BLAS routines, so the raw estimate
    # of an identical pair of sets can round below zero.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        hs = []
        for _ in range(rng.integers(2, 13)):
            c = rng.random((metrics.BEV_BINS, metrics.BEV_BINS))
            hs.append(metrics.OccupancyHistogram(c / c.sum(), empty=False))
        val, _ = metrics.mmd(hs, list(hs))
        assert 0.0 <= val <= 1e-12, seed


def test_mmd_singletons_closed_form():
    rng = np.random.default_rng(3)
    a, b = _random_hists(rng, 2)
    bw = 0.3
    val, _ = metrics.mmd([a], [b], bandwidth=bw)
    d2 = float(((a.flat - b.flat) ** 2).sum())
    expect = 2.0 - 2.0 * math.exp(-d2 / (2.0 * bw * bw))
    assert val == pytest.approx(expect, rel=1e-12)


def test_mmd_symmetric_and_nonnegative():
    rng = np.random.default_rng(4)
    a = _random_hists(rng, 4)
    b = _random_hists(rng, 6)
    ab, bw1 = metrics.mmd(a, b)
    ba, bw2 = metrics.mmd(b, a)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab >= 0.0 and bw1 == pytest.approx(bw2)


def test_mmd_set_order_invariant():
    rng = np.random.default_rng(5)
    a = _random_hists(rng, 5)
    b = _random_hists(rng, 5)
    v1, _ = metrics.mmd(a, b)
    v2, _ = metrics.mmd(a[::-1], b[::-1])
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_mmd_error_contracts():
    rng = np.random.default_rng(6)
    hs = _random_hists(rng, 2)
    with pytest.raises(MetricError):
        metrics.mmd([], hs)
    with pytest.raises(MetricError):
        metrics.mmd(hs, hs, bandwidth=0.0)
    empty = metrics.OccupancyHistogram(
        np.zeros((metrics.BEV_BINS, metrics.BEV_BINS)), empty=True)
    with pytest.raises(MetricError):
        metrics.mmd([empty], hs)


def test_median_bandwidth_fallback_on_identical_sets():
    h = _hist_from_probs([1.0])
    assert metrics.median_bandwidth([h, h, h]) == 1.0


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def test_metric_report_fields():
    rng = np.random.default_rng(7)
    a = _random_hists(rng, 3)
    b = _random_hists(rng, 3)
    report = metrics.metric_report(a, b)
    assert "MMD(x1e4)" in report["text"]
    assert report["mmd_x1e4"] == pytest.approx(report["mmd"] * 1e4)
    for name in metrics.UNAVAILABLE_METRICS:
        assert f"{name} = unavailable: requires pretrained extractor" \
            in report["text"]
    header, row = report["csv"].strip().split("\n")
    assert header.split(",") == ["set_a_size", "set_b_size", "bandwidth",
                                 "jsd", "mmd", "mmd_x1e4"]
    assert row.split(",")[0] == "3"


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12),
       st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12))
def test_jsd_properties(raw_p, raw_q):
    n = max(len(raw_p), len(raw_q))
    pv = np.array(raw_p + [0.0] * (n - len(raw_p)))
    qv = np.array(raw_q + [0.0] * (n - len(raw_q)))
    p = _hist_from_probs(pv / pv.sum())
    q = _hist_from_probs(qv / qv.sum())
    val = metrics.jsd(p, q)
    assert -1e-12 <= val <= 1.0 + 1e-12
    assert val == pytest.approx(metrics.jsd(q, p), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_mmd_properties(na, nb, seed):
    rng = np.random.default_rng(seed)
    a = _random_hists(rng, na)
    b = _random_hists(rng, nb)
    val, bw = metrics.mmd(a, b)
    assert val >= -1e-12
    assert bw > 0
    same, _ = metrics.mmd(a, list(a))
    assert abs(same) <= 1e-12
