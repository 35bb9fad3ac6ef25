"""Projection, rasterization, normalization, and file-format tests."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rangegen import geometry as geo
from rangegen.errors import ConfigError

CFG = geo.SensorConfig(16, 64, math.radians(3.0), math.radians(-25.0), 80.0)


def random_in_fov_points(rng, n, cfg):
    az = rng.uniform(-np.pi, np.pi, n)
    el = rng.uniform(cfg.f_down, cfg.f_up, n)
    r = rng.uniform(1.0, cfg.r_max, n)
    return np.stack([r * np.cos(el) * np.cos(az),
                     r * np.cos(el) * np.sin(az),
                     r * np.sin(el)], axis=1)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_project_forward_axis():
    cfg = geo.SensorConfig(10, 100, 0.05, -0.45, 80.0)
    u, v, r = geo.project_point((1.0, 0.0, 0.0), cfg)
    assert r == 1.0
    assert u == pytest.approx(cfg.width / 2)
    # elevation 0 sits f_up below the top edge: v = f_up/f * H = 0.1*H
    assert v == pytest.approx(0.1 * cfg.height)


def test_project_upper_fov_boundary_maps_to_row_zero():
    el = CFG.f_up
    p = (math.cos(el), 0.0, math.sin(el))
    _, v, _ = geo.project_point(p, CFG)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_project_lower_fov_boundary_maps_to_bottom_edge():
    el = CFG.f_down
    p = (math.cos(el), 0.0, math.sin(el))
    _, v, _ = geo.project_point(p, CFG)
    assert v == pytest.approx(CFG.height, abs=1e-9)


def test_project_zero_norm_rejected():
    with pytest.raises(ValueError):
        geo.project_point((0.0, 0.0, 0.0), CFG)


def test_vectorized_projection_matches_scalar():
    rng = np.random.default_rng(0)
    pts = random_in_fov_points(rng, 200, CFG)
    u, v, r = geo.project_points(pts, CFG)
    for i in range(0, 200, 17):
        su, sv, sr = geo.project_point(pts[i], CFG)
        assert (u[i], v[i], r[i]) == pytest.approx((su, sv, sr))


def test_half_pixel_roundtrip_100k_points():
    rng = np.random.default_rng(1)
    n = 100_000
    pts = random_in_fov_points(rng, n, CFG)
    u, v, r = geo.project_points(pts, CFG)
    ui, vi = geo.discretize(u, v, CFG)
    az_c, el_c = geo.pixel_angles(CFG)
    az_err = np.abs(np.angle(np.exp(1j * (np.arctan2(pts[:, 1], pts[:, 0])
                                          - az_c[ui]))))
    el_err = np.abs(np.arcsin(pts[:, 2] / r) - el_c[vi])
    half_az = np.pi / CFG.width          # half of 2*pi/W
    half_el = CFG.fov / CFG.height / 2
    assert az_err.max() <= half_az + 1e-12
    assert el_err.max() <= half_el + 1e-12


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def test_rasterize_nearest_return_wins():
    el = 0.5 * (CFG.f_up + CFG.f_down)
    direction = np.array([math.cos(el), 0.0, math.sin(el)])
    pc = geo.PointCloud(np.stack([9.0 * direction, 5.0 * direction]),
                        np.array([0.2, 0.8]))
    img = geo.rasterize(pc, CFG)
    assert img.valid.sum() == 1
    assert img.range[img.valid][0] == pytest.approx(5.0)
    assert img.intensity[img.valid][0] == pytest.approx(0.8)


def test_rasterize_tie_break_lowest_index():
    el = 0.5 * (CFG.f_up + CFG.f_down)
    d = np.array([math.cos(el), 0.0, math.sin(el)])
    pc = geo.PointCloud(np.stack([7.0 * d, 7.0 * d]), np.array([0.3, 0.9]))
    img = geo.rasterize(pc, CFG)
    assert img.intensity[img.valid][0] == pytest.approx(0.3)


def test_rasterize_empty_cloud():
    img = geo.rasterize(geo.PointCloud(np.zeros((0, 3)), np.zeros(0)), CFG)
    assert not img.valid.any()
    assert np.all(img.range == 0)


def test_rasterize_drop_statistics():
    el_out = CFG.f_up + 0.2
    pts = np.array([
        [10.0 * math.cos(el_out), 0.0, 10.0 * math.sin(el_out)],  # above FOV
        [200.0, 0.0, 0.0],                                        # beyond r_max
        [10.0, 0.0, 0.0],                                         # kept
    ])
    _, stats = geo.rasterize(geo.PointCloud(pts, np.full(3, 0.5)), CFG,
                             return_stats=True)
    assert stats == {"total": 3, "dropped_fov": 1, "dropped_range": 1}


def test_rasterize_permutation_invariant():
    rng = np.random.default_rng(2)
    pts = random_in_fov_points(rng, 3000, CFG)
    inten = rng.uniform(0, 1, 3000)
    # Perturb ranges so no two points share a pixel at the same range.
    img_a = geo.rasterize(geo.PointCloud(pts, inten), CFG)
    perm = rng.permutation(3000)
    img_b = geo.rasterize(geo.PointCloud(pts[perm], inten[perm]), CFG)
    np.testing.assert_array_equal(img_a.valid, img_b.valid)
    np.testing.assert_array_equal(img_a.range, img_b.range)


def test_rasterize_cylinder_against_analytic_ranges():
    # Points on a vertical cylinder of radius 10 around the sensor: the
    # expected pixel range is 10 / cos(pixel elevation).
    rng = np.random.default_rng(3)
    az = rng.uniform(-np.pi, np.pi, 200_000)
    el = rng.uniform(CFG.f_down + 1e-3, CFG.f_up - 1e-3, 200_000)
    radius = 10.0
    r = radius / np.cos(el)
    pts = np.stack([r * np.cos(el) * np.cos(az),
                    r * np.cos(el) * np.sin(az),
                    r * np.sin(el)], axis=1)
    img = geo.rasterize(geo.PointCloud(pts, np.full(len(pts), 0.5)), CFG)
    assert img.valid.mean() > 0.99
    _, el_c = geo.pixel_angles(CFG)
    expected = radius / np.cos(el_c)[:, None]
    got = img.range[img.valid].astype(np.float64)
    want = np.broadcast_to(expected, img.range.shape)[img.valid]
    # Discretization moves each return at most half a pixel in elevation.
    step = CFG.fov / CFG.height
    bound = radius * np.abs(np.tan(el_c[:, None])) * step / np.cos(el_c[:, None])
    np.testing.assert_array_less(
        np.abs(got - want),
        np.broadcast_to(bound, img.range.shape)[img.valid] + 0.05)


def test_unproject_single_pixel_norm():
    img = geo.RangeImage(np.zeros((16, 64)), np.zeros((16, 64)),
                         np.zeros((16, 64), dtype=bool), CFG)
    img.range[4, 10] = 12.5
    img.valid[4, 10] = True
    img.intensity[4, 10] = 0.7
    pc = geo.unproject(img)
    assert len(pc) == 1
    assert np.linalg.norm(pc.points[0]) == pytest.approx(12.5, rel=1e-6)
    assert pc.intensity[0] == pytest.approx(0.7, rel=1e-6)


def test_unproject_all_invalid_is_empty():
    img = geo.RangeImage(np.zeros((16, 64)), np.zeros((16, 64)),
                         np.zeros((16, 64), dtype=bool), CFG)
    assert len(geo.unproject(img)) == 0


def test_rasterize_unproject_bitwise_roundtrip():
    rng = np.random.default_rng(4)
    pts = random_in_fov_points(rng, 20_000, CFG)
    inten = rng.uniform(0, 1, 20_000).astype(np.float32).astype(np.float64)
    img = geo.rasterize(geo.PointCloud(pts, inten), CFG)
    back = geo.rasterize(geo.unproject(img), img.config)
    np.testing.assert_array_equal(back.valid, img.valid)
    np.testing.assert_array_equal(back.range, img.range)
    np.testing.assert_array_equal(back.intensity, img.intensity)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _uniform_image(r_value, intensity, cfg=CFG):
    shape = (cfg.height, cfg.width)
    return geo.RangeImage(np.full(shape, r_value, dtype=np.float32),
                          np.full(shape, intensity, dtype=np.float32),
                          np.ones(shape, dtype=bool), cfg)


def test_normalize_upper_endpoint():
    out = geo.normalize(_uniform_image(CFG.r_max, 1.0))
    np.testing.assert_allclose(out[0], 1.0, atol=1e-6)
    np.testing.assert_allclose(out[1], 1.0, atol=1e-6)


def test_normalize_invalid_pixels_map_to_minus_one():
    img = _uniform_image(10.0, 0.5)
    img.valid[3, 7] = False
    img.range[3, 7] = 0.0
    out = geo.normalize(img)
    assert out[0, 3, 7] == -1.0 and out[1, 3, 7] == -1.0


def test_normalize_log_midpoint():
    r_mid = math.sqrt(1.0 + CFG.r_max) - 1.0
    out = geo.normalize(_uniform_image(r_mid, 0.5))
    np.testing.assert_allclose(out[0], 0.0, atol=1e-6)


def test_normalize_clips_and_counts_over_range():
    img = _uniform_image(10.0, 0.5)
    img.range[0, 0] = CFG.r_max + 5.0
    out, clipped = geo.normalize(img, return_clipped=True)
    assert clipped == 1
    assert out[0, 0, 0] == pytest.approx(1.0)


def test_normalize_denormalize_roundtrip():
    rng = np.random.default_rng(5)
    shape = (CFG.height, CFG.width)
    r = rng.uniform(0.5, CFG.r_max, shape).astype(np.float32)
    inten = rng.uniform(0, 1, shape).astype(np.float32)
    valid = rng.random(shape) > 0.2
    r[~valid] = 0.0
    inten[~valid] = 0.0
    img = geo.RangeImage(r, inten, valid, CFG)
    back = geo.denormalize(geo.normalize(img), CFG, valid=valid)
    np.testing.assert_array_equal(back.valid, valid)
    rel = np.abs(back.range[valid].astype(np.float64) - r[valid]) / r[valid]
    assert rel.max() <= 1e-6
    np.testing.assert_allclose(back.intensity[valid], inten[valid], atol=1e-6)


def test_denormalize_infers_validity_from_lower_bound():
    img = _uniform_image(10.0, 0.5)
    img.valid[2, 2] = False
    img.range[2, 2] = 0.0
    back = geo.denormalize(geo.normalize(img), CFG)
    np.testing.assert_array_equal(back.valid, img.valid)


def test_denormalize_shape_error():
    with pytest.raises(ConfigError):
        geo.denormalize(np.zeros((2, 4, 4)), CFG)


# ---------------------------------------------------------------------------
# Config validation and file formats
# ---------------------------------------------------------------------------

def test_sensor_config_validation():
    with pytest.raises(ConfigError):
        geo.SensorConfig(1, 64, 0.1, -0.1, 80.0)
    with pytest.raises(ConfigError):
        geo.SensorConfig(16, 64, -0.2, 0.1, 80.0)
    with pytest.raises(ConfigError):
        geo.SensorConfig(16, 64, 0.1, -0.1, 0.0)


def test_olri_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    shape = (CFG.height, CFG.width)
    valid = rng.random(shape) > 0.3
    r = np.where(valid, rng.uniform(1, 80, shape), 0.0).astype(np.float32)
    inten = np.where(valid, rng.uniform(0, 1, shape), 0.0).astype(np.float32)
    img = geo.RangeImage(r, inten, valid, CFG)
    path = tmp_path / "scan.olri"
    geo.write_olri(path, img)
    back = geo.read_olri(path)
    np.testing.assert_array_equal(back.range, img.range)
    np.testing.assert_array_equal(back.intensity, img.intensity)
    np.testing.assert_array_equal(back.valid, img.valid)
    assert back.config.height == CFG.height and back.config.width == CFG.width
    assert back.config.r_max == pytest.approx(CFG.r_max)


def test_olri_bad_magic(tmp_path):
    path = tmp_path / "junk.olri"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ConfigError, match="junk.olri"):
        geo.read_olri(path)


def _small_olri_bytes(tmp_path):
    cfg = geo.SensorConfig(2, 3, 0.1, -0.2, 50.0)
    valid = np.array([[True, False, True], [True, True, False]])
    r = np.where(valid, 10.0, 0.0)
    img = geo.RangeImage(r, np.where(valid, 0.5, 0.0), valid, cfg)
    path = tmp_path / "small.olri"
    geo.write_olri(path, img)
    return path.read_bytes()


def test_olri_every_truncation_rejected(tmp_path):
    raw = _small_olri_bytes(tmp_path)
    path = tmp_path / "cut.olri"
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(ConfigError, match="cut.olri"):
            geo.read_olri(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ConfigError):
        geo.read_olri(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=96), st.booleans())
def test_olri_garbage_after_magic_raises_config_error(tmp_path, tail, keep_version):
    head = geo.OLRI_MAGIC + (struct.pack("<H", geo.OLRI_VERSION)
                             if keep_version else b"")
    path = tmp_path / "fuzz.olri"
    path.write_bytes(head + tail)
    try:
        geo.read_olri(path)
    except ConfigError:
        pass


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 5), st.integers(0, 5), st.binary(min_size=12, max_size=12),
       st.binary(max_size=240))
def test_olri_random_grid_and_payload_raise_config_error(tmp_path, h, w, fov,
                                                         payload):
    path = tmp_path / "fuzz.olri"
    path.write_bytes(geo.OLRI_MAGIC
                     + struct.pack("<HIII", geo.OLRI_VERSION, h, w, 2)
                     + fov + payload)
    try:
        img = geo.read_olri(path)
    except ConfigError:
        return
    assert len(payload) == 9 * h * w and img.range.shape == (h, w)


def test_xyz_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    pc = geo.PointCloud(rng.standard_normal((20, 3)), rng.uniform(0, 1, 20))
    path = tmp_path / "pts.xyz"
    geo.write_xyz(path, pc)
    back = geo.read_xyz(path)
    np.testing.assert_allclose(back.points, pc.points, rtol=1e-6)
    np.testing.assert_allclose(back.intensity, pc.intensity, rtol=1e-6)
