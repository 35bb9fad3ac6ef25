"""Corpus construction: beam reduction, corruptions, prompts, assembly."""

import math
import os

import numpy as np
import pytest

from rangegen import forge, geometry as geo
from rangegen.errors import ConfigError

CFG = geo.SensorConfig(16, 64, math.radians(3.0), math.radians(-25.0), 80.0)


def random_image(rng, cfg=CFG, fill=1.0):
    shape = (cfg.height, cfg.width)
    valid = rng.random(shape) < fill
    r = np.where(valid, rng.uniform(1, cfg.r_max, shape), 0.0).astype(np.float32)
    inten = np.where(valid, rng.uniform(0, 1, shape), 0.0).astype(np.float32)
    return geo.RangeImage(r, inten, valid, cfg)


# ---------------------------------------------------------------------------
# Beam reduction
# ---------------------------------------------------------------------------

def test_reduce_beams_keeps_even_rows():
    rng = np.random.default_rng(0)
    cfg = geo.SensorConfig(4, 8, 0.1, -0.3, 80.0)
    img = random_image(rng, cfg)
    out = forge.reduce_beams(img)
    assert out.config.height == 2
    np.testing.assert_array_equal(out.range, img.range[[0, 2]])
    np.testing.assert_array_equal(out.intensity, img.intensity[[0, 2]])
    np.testing.assert_array_equal(out.valid, img.valid[[0, 2]])


def test_reduce_beams_64_to_32_bytes_identical():
    rng = np.random.default_rng(1)
    cfg = geo.SensorConfig(64, 32, 0.05, -0.4, 80.0)
    img = random_image(rng, cfg)
    out = forge.reduce_beams(img)
    assert out.config.height == 32
    assert out.config.fov == pytest.approx(cfg.fov)
    assert out.range.tobytes() == img.range[::2].tobytes()
    assert out.valid.sum() <= img.valid.sum()


def test_reduce_beams_twice_keeps_every_fourth_row():
    rng = np.random.default_rng(2)
    cfg = geo.SensorConfig(64, 16, 0.05, -0.4, 80.0)
    img = random_image(rng, cfg)
    out = forge.reduce_beams(forge.reduce_beams(img))
    assert out.config.height == 16
    np.testing.assert_array_equal(out.range, img.range[::4])


def test_reduce_beams_odd_rows_rejected():
    cfg = geo.SensorConfig(5, 8, 0.1, -0.3, 80.0)
    img = geo.RangeImage(np.zeros((5, 8)), np.zeros((5, 8)),
                         np.zeros((5, 8), bool), cfg)
    with pytest.raises(ConfigError):
        forge.reduce_beams(img)


# ---------------------------------------------------------------------------
# Ground detection
# ---------------------------------------------------------------------------

def _image_at_z(z_value, cfg=CFG):
    """Valid pixels on every row whose center ray can reach z = z_value."""
    _, el = geo.pixel_angles(cfg)
    r = np.zeros((cfg.height, cfg.width), dtype=np.float32)
    valid = np.zeros((cfg.height, cfg.width), dtype=bool)
    for vi in range(cfg.height):
        if z_value == 0.0:
            if el[vi] >= 0.0:  # rays at or above the horizon stay at z >= 0
                r[vi] = 5.0
                valid[vi] = True
        elif np.sin(el[vi]) * np.sign(z_value) > 0:
            rr = z_value / np.sin(el[vi])
            if 0 < rr <= cfg.r_max:
                r[vi] = rr
                valid[vi] = True
    return geo.RangeImage(r, np.full_like(r, 0.5), valid, cfg)


def test_detect_ground_all_below_threshold():
    img = _image_at_z(-2.0)
    mask = forge.detect_ground(img)
    np.testing.assert_array_equal(mask, img.valid)
    assert mask.any()


def test_detect_ground_none_at_horizon():
    img = _image_at_z(0.0)
    assert not forge.detect_ground(img).any()


def test_detect_ground_mixed_scene():
    # Lower rows hit a plane at z=-1.7; upper rows hit a wall with z >= 0.
    _, el = geo.pixel_angles(CFG)
    r = np.zeros((CFG.height, CFG.width), dtype=np.float32)
    plane_rows = []
    for vi in range(CFG.height):
        if np.sin(el[vi]) < 0 and -1.7 / np.sin(el[vi]) <= CFG.r_max:
            r[vi] = -1.7 / np.sin(el[vi])
            plane_rows.append(vi)
        else:
            r[vi] = 4.0  # wall return at z = 4*sin(el) >= 0 for these rows
    valid = np.ones_like(r, dtype=bool)
    img = geo.RangeImage(r, np.full_like(r, 0.5), valid, CFG)
    mask = forge.detect_ground(img)
    expect = np.zeros_like(valid)
    expect[plane_rows] = True
    np.testing.assert_array_equal(mask, expect)


# ---------------------------------------------------------------------------
# Corruptions
# ---------------------------------------------------------------------------

def _spec(kind, **level):
    return forge.CorruptionSpec(kind, (level,))


def test_corrupt_identity_severity():
    rng = np.random.default_rng(3)
    img = random_image(rng)
    spec = _spec("fog", dropout_slope=0.0, scatter_count=0,
                 intensity_attenuation=1.0)
    out = forge.corrupt(img, spec, 0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.range, img.range)
    np.testing.assert_array_equal(out.intensity, img.intensity)
    np.testing.assert_array_equal(out.valid, img.valid)


def test_corrupt_saturating_slope_drops_everything():
    rng = np.random.default_rng(4)
    img = random_image(rng)
    spec = _spec("fog", dropout_slope=10.0, intensity_attenuation=1.0)
    out = forge.corrupt(img, spec, 0, np.random.default_rng(0))
    assert not out.valid.any()
    assert np.all(out.range == 0.0)


def test_corrupt_snow_scatter_survives_saturation():
    rng = np.random.default_rng(5)
    img = random_image(rng)
    spec = _spec("snow", dropout_slope=10.0, scatter_count=50,
                 scatter_range=8.0, intensity_attenuation=1.0)
    out = forge.corrupt(img, spec, 0, np.random.default_rng(0))
    assert 0 < out.valid.sum() <= 50
    assert np.all(out.range[out.valid] <= 8.0)
    assert np.all(out.range[out.valid] >= 0.5)


def test_corrupt_dropout_fraction_binomial():
    # slope 0.01/m at uniform r=50 m: drop probability 0.5 per pixel.
    cfg = geo.SensorConfig(64, 512, 0.05, -0.4, 80.0)
    shape = (cfg.height, cfg.width)
    img = geo.RangeImage(np.full(shape, 50.0, np.float32),
                         np.full(shape, 0.5, np.float32),
                         np.ones(shape, bool), cfg)
    spec = _spec("rain", dropout_slope=0.01, intensity_attenuation=1.0)
    out = forge.corrupt(img, spec, 0, np.random.default_rng(6))
    n = img.valid.sum()
    dropped = n - out.valid.sum()
    sigma = math.sqrt(n * 0.25)
    assert abs(dropped - 0.5 * n) <= 3 * sigma


def test_corrupt_attenuates_survivors():
    rng = np.random.default_rng(7)
    img = random_image(rng)
    spec = _spec("fog", dropout_slope=0.0, intensity_attenuation=0.5)
    out = forge.corrupt(img, spec, 0, np.random.default_rng(0))
    np.testing.assert_allclose(out.intensity[out.valid],
                               img.intensity[img.valid] * 0.5, rtol=1e-6)


def test_wet_ground_confined_to_ground_mask():
    img = _image_at_z(-2.0)
    # add a non-ground row at the horizonmost elevation
    _, el = geo.pixel_angles(CFG)
    top = int(np.argmin(np.abs(el)))
    img.range[top] = 5.0
    img.valid[top] = True
    before = img.valid.copy()
    ground = forge.detect_ground(img)
    spec = _spec("wet_ground", dropout_slope=10.0, intensity_attenuation=0.3)
    out = forge.corrupt(img, spec, 0, np.random.default_rng(1))
    outside = ~ground
    np.testing.assert_array_equal(out.valid[outside], before[outside])
    np.testing.assert_array_equal(out.range[outside], img.range[outside])
    np.testing.assert_array_equal(out.intensity[outside], img.intensity[outside])
    assert not out.valid[ground].any()


def test_corrupt_bounds_preserved():
    rng = np.random.default_rng(8)
    img = random_image(rng)
    spec = _spec("snow", dropout_slope=0.005, scatter_count=200,
                 scatter_range=12.0, intensity_attenuation=0.7)
    out = forge.corrupt(img, spec, 0, np.random.default_rng(2))
    assert np.all(out.range[out.valid] <= CFG.r_max)
    assert np.all(out.intensity >= 0.0) and np.all(out.intensity <= 1.0)


# ---------------------------------------------------------------------------
# Prompts
# ---------------------------------------------------------------------------

def _domain(pool):
    return forge.DomainSpec(id="X", prompt_pool=tuple(pool), sensor=CFG)


def test_sample_prompt_infer_uses_first():
    assert forge.sample_prompt(_domain(["a", "b", "c"]), "infer") == "a"


def test_sample_prompt_singleton_pool():
    spec = _domain(["only"])
    assert forge.sample_prompt(spec, "infer") == "only"
    assert forge.sample_prompt(spec, "train", np.random.default_rng(0)) == "only"


def test_sample_prompt_train_uniform_multinomial():
    spec = _domain(["a", "b", "c", "d"])
    rng = np.random.default_rng(9)
    n = 10_000
    counts = {}
    for _ in range(n):
        p = forge.sample_prompt(spec, "train", rng)
        counts[p] = counts.get(p, 0) + 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for p in spec.prompt_pool:
        assert abs(counts.get(p, 0) - n * 0.25) <= 3 * sigma


def test_empty_prompt_pool_rejected():
    with pytest.raises(ConfigError):
        forge.DomainSpec(id="X", prompt_pool=(), sensor=CFG)


def test_default_prompt_pools_shape():
    specs = forge.default_domain_specs(geo.DEFAULT_SENSOR)
    assert len(specs) == 8
    assert len({s.id for s in specs}) == 8
    for s in specs:
        assert len(s.prompt_pool) >= 1


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def _base_corpus(tmp_path, rng, n=6, cfg=geo.SensorConfig(64, 64, 0.05, -0.4, 80.0)):
    base = {}
    for key in ("vehicle", "drone", "quadruped"):
        entries = []
        d = tmp_path / "base" / key
        d.mkdir(parents=True)
        for i in range(n):
            path = str(d / f"scan_{i:04d}.olri")
            geo.write_olri(path, random_image(rng, cfg))
            entries.append((path, "train" if i < n - 1 else "val"))
        base[key] = entries
    return base


def test_build_dataset_counts_and_splits(tmp_path):
    rng = np.random.default_rng(10)
    base = _base_corpus(tmp_path, rng)
    specs = forge.default_domain_specs(geo.SensorConfig(64, 64, 0.05, -0.4, 80.0))
    index, summary = forge.build_dataset(base, specs, str(tmp_path / "out"), 0)
    assert set(summary["counts"]) == set(forge.DOMAIN_IDS)
    for dom in forge.DOMAIN_IDS:
        assert summary["counts"][dom] == 6
    assert len(index.split("val")) == 8
    for rel, _, _ in index.records:
        assert os.path.exists(tmp_path / "out" / rel)


def test_build_dataset_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(11)
    base = _base_corpus(tmp_path, rng, n=3)
    specs = forge.default_domain_specs(geo.SensorConfig(64, 64, 0.05, -0.4, 80.0))
    forge.build_dataset(base, specs, str(tmp_path / "a"), 7)
    forge.build_dataset(base, specs, str(tmp_path / "b"), 7)
    for root, _, files in os.walk(tmp_path / "a"):
        for name in files:
            pa = os.path.join(root, name)
            pb = pa.replace(str(tmp_path / "a"), str(tmp_path / "b"))
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), name


def test_build_dataset_severity_uniformity(tmp_path):
    # Severity is drawn per (domain, scan, seed); over many scans each of
    # the 3 levels should appear ~1/3 of the time.
    n = 600
    cfg = geo.SensorConfig(4, 8, 0.05, -0.4, 80.0)
    rng = np.random.default_rng(12)
    base = {"vehicle": []}
    d = tmp_path / "base"
    d.mkdir()
    for i in range(n):
        path = str(d / f"s{i:05d}.olri")
        geo.write_olri(path, random_image(rng, cfg))
        base["vehicle"].append((path, "train"))
    levels = tuple({"dropout_slope": 0.0, "scatter_count": 0,
                    "intensity_attenuation": a} for a in (1.0, 0.5, 0.25))
    spec = forge.DomainSpec(id="Fog", prompt_pool=("p",), sensor=cfg,
                            corruption=forge.CorruptionSpec("fog", levels))
    forge.build_dataset(base, [spec], str(tmp_path / "out"), 3)
    counts = [0, 0, 0]
    for i in range(n):
        img = geo.read_olri(tmp_path / "out" / "Fog" / f"s{i:05d}.olri")
        src = geo.read_olri(d / f"s{i:05d}.olri")
        ratio = img.intensity[img.valid][0] / src.intensity[src.valid][0]
        counts[int(np.argmin(np.abs(np.array([1.0, 0.5, 0.25]) - ratio)))] += 1
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    for c in counts:
        assert abs(c - n / 3) <= 3 * sigma


def test_build_dataset_skips_unreadable(tmp_path):
    rng = np.random.default_rng(13)
    cfg = geo.SensorConfig(4, 8, 0.05, -0.4, 80.0)
    good = str(tmp_path / "good.olri")
    geo.write_olri(good, random_image(rng, cfg))
    bad = str(tmp_path / "bad.olri")
    with open(bad, "wb") as f:
        f.write(b"garbage")
    spec = forge.DomainSpec(id="Vehicle", prompt_pool=("p",), sensor=cfg)
    index, summary = forge.build_dataset(
        {"vehicle": [(good, "train"), (bad, "train")]}, [spec],
        str(tmp_path / "out"), 0)
    assert len(index.records) == 1
    assert len(summary["skipped"]) == 1
    assert summary["skipped"][0][1] == bad


def test_build_dataset_skips_scan_with_range_beyond_r_max(tmp_path):
    rng = np.random.default_rng(15)
    cfg = geo.SensorConfig(4, 8, 0.05, -0.4, 80.0)
    good = str(tmp_path / "good.olri")
    geo.write_olri(good, random_image(rng, cfg))
    img = random_image(rng, cfg)
    img.range[img.valid] = np.nan
    odd = str(tmp_path / "odd.olri")
    geo.write_olri(odd, img)
    spec = forge.DomainSpec(id="Vehicle", prompt_pool=("p",), sensor=cfg)
    index, summary = forge.build_dataset(
        {"vehicle": [(good, "train"), (odd, "train")]}, [spec],
        str(tmp_path / "out"), 0)
    assert [r[0] for r in index.records] == [os.path.join("Vehicle", "good.olri")]
    assert [(d, p) for d, p, _ in summary["skipped"]] == [("Vehicle", odd)]
    assert "odd.olri: valid pixel" in summary["skipped"][0][2]


def test_build_dataset_skips_truncated_scan(tmp_path):
    rng = np.random.default_rng(14)
    cfg = geo.SensorConfig(4, 8, 0.05, -0.4, 80.0)
    good = str(tmp_path / "good.olri")
    geo.write_olri(good, random_image(rng, cfg))
    cut = str(tmp_path / "cut.olri")
    with open(good, "rb") as f:
        raw = f.read()
    with open(cut, "wb") as f:
        f.write(raw[: len(raw) // 2])
    spec = forge.DomainSpec(id="Vehicle", prompt_pool=("p",), sensor=cfg)
    index, summary = forge.build_dataset(
        {"vehicle": [(good, "train"), (cut, "train")]}, [spec],
        str(tmp_path / "out"), 0)
    assert [r[0] for r in index.records] == [os.path.join("Vehicle", "good.olri")]
    assert summary["skipped"] == [("Vehicle", cut, summary["skipped"][0][2])]
    assert "cut.olri" in summary["skipped"][0][2]


def _grid_corpus(tmp_path, rng, grids):
    """One vehicle base scan per (height, width) in `grids`."""
    entries = []
    for i, (h, w) in enumerate(grids):
        path = str(tmp_path / f"scan_{i}_{h}x{w}.olri")
        cfg = geo.SensorConfig(h, w, math.radians(3.0), math.radians(-25.0),
                               80.0)
        geo.write_olri(path, random_image(rng, cfg))
        entries.append((path, "train"))
    return {"vehicle": entries}


def test_build_dataset_skips_scans_off_the_configured_grid(tmp_path):
    rng = np.random.default_rng(15)
    base = _grid_corpus(tmp_path, rng, [(16, 64), (8, 64), (16, 64)])
    specs = [s for s in forge.default_domain_specs(CFG)
             if s.id in ("Vehicle", "Beam32")]
    index, summary = forge.build_dataset(base, specs, str(tmp_path / "out"), 0)
    off = base["vehicle"][1][0]
    assert summary["counts"] == {"Vehicle": 2, "Beam32": 2}
    assert [(dom, path) for dom, path, _ in summary["skipped"]] == [
        ("Vehicle", off), ("Beam32", off)]
    assert all("8x64" in reason and "16x64" in reason
               for _, _, reason in summary["skipped"])
    # The grid check comes before beam reduction: Beam32 keeps 8 rows.
    for rel, dom, _ in index.records:
        img = geo.read_olri(tmp_path / "out" / rel)
        assert img.config.height == (8 if dom == "Beam32" else 16)


def test_build_dataset_skips_scans_off_the_configured_sensor(tmp_path):
    # On the grid, but with another FOV edge or r_max: `sample` denormalizes
    # with the configured sensor, which would misplace every return. The
    # header stores float32, so the kept scans compare equal only there.
    rng = np.random.default_rng(17)
    entries = []
    for i, (up, down, r_max) in enumerate([
            (3.0, -25.0, 80.0), (10.0, -25.0, 80.0), (3.0, -20.0, 80.0),
            (3.0, -25.0, 200.0), (3.0, -25.0, 80.0)]):
        path = str(tmp_path / f"scan_{i}.olri")
        cfg = geo.SensorConfig(16, 64, math.radians(up), math.radians(down),
                               r_max)
        geo.write_olri(path, random_image(rng, cfg))
        entries.append((path, "train"))
    spec = forge.DomainSpec(id="Vehicle", prompt_pool=("p",), sensor=CFG)
    index, summary = forge.build_dataset({"vehicle": entries}, [spec],
                                         str(tmp_path / "out"), 0)
    assert summary["counts"] == {"Vehicle": 2}
    assert [path for _, path, _ in summary["skipped"]] == [
        path for path, _ in entries[1:4]]
    reasons = [reason for _, _, reason in summary["skipped"]]
    assert "FOV 10/-25 deg, r_max 80 m" in reasons[0]
    assert "FOV 3/-20 deg, r_max 80 m" in reasons[1]
    assert "FOV 3/-25 deg, r_max 200 m" in reasons[2]
    assert all(reason.endswith("the configured sensor has FOV 3/-25 deg, "
                               "r_max 80 m") for reason in reasons)


def test_build_dataset_all_scans_off_grid_counts_zero(tmp_path):
    rng = np.random.default_rng(16)
    base = _grid_corpus(tmp_path, rng, [(8, 64), (8, 64)])
    spec = forge.DomainSpec(id="Vehicle", prompt_pool=("p",), sensor=CFG)
    index, summary = forge.build_dataset(base, [spec], str(tmp_path / "out"), 0)
    assert index.records == [] and summary["counts"] == {"Vehicle": 0}
    assert len(summary["skipped"]) == 2


def test_build_dataset_removes_stale_scans_but_never_a_base_input(tmp_path):
    # A scan that an earlier build left in a domain directory, and that the
    # new index does not list, is removed. A base input that sits there
    # stays, even one the build skipped, and so do files that are not scans.
    rng = np.random.default_rng(18)
    dom_dir = tmp_path / "out" / "Vehicle"
    dom_dir.mkdir(parents=True)
    base = _grid_corpus(dom_dir, rng, [(16, 64), (8, 64)])
    (dom_dir / "old.olri").write_bytes(b"")
    (dom_dir / "notes.txt").write_text("kept")
    spec = forge.DomainSpec(id="Vehicle", prompt_pool=("p",), sensor=CFG)
    index, summary = forge.build_dataset(base, [spec], str(tmp_path / "out"), 0)
    assert summary["removed"] == 1 and summary["counts"] == {"Vehicle": 1}
    assert sorted(os.listdir(dom_dir)) == [
        "notes.txt", "scan_0_16x64.olri", "scan_1_8x64.olri"]
    _, summary = forge.build_dataset(base, [spec], str(tmp_path / "out"), 0)
    assert summary["removed"] == 0


def test_text_that_is_not_utf8_names_file_and_byte(tmp_path):
    # Past the first 8 KiB, where text-mode reads report a chunk offset.
    path = tmp_path / "index.tsv"
    path.write_bytes(b"a\tFog\ttrain\n" * 1000 + b"\xff\n")
    with pytest.raises(ConfigError, match=r"index.tsv: not text .* byte 12000\)"):
        forge.DatasetIndex.load(path)


def test_index_tsv_roundtrip(tmp_path):
    index = forge.DatasetIndex([("a/b.olri", "Fog", "train"),
                                ("c.olri", "Snow", "val")])
    path = tmp_path / "index.tsv"
    index.save(path)
    back = forge.DatasetIndex.load(path)
    assert back.records == index.records
    assert back.counts() == {"Fog": 1, "Snow": 1}


def test_parse_corruption_file(tmp_path):
    path = tmp_path / "sev.cfg"
    path.write_text("[fog.1]\ndropout_slope = 0.01\nintensity_attenuation = 0.9\n"
                    "[fog.0]\ndropout_slope = 0.005\nintensity_attenuation = 0.95\n"
                    "[snow.0]\ndropout_slope = 0.002\nscatter_count = 100\n")
    tables = forge.parse_corruption_file(path)
    assert tables["fog"][0]["dropout_slope"] == pytest.approx(0.005)
    assert tables["fog"][1]["dropout_slope"] == pytest.approx(0.01)
    assert tables["snow"][0]["scatter_count"] == pytest.approx(100)


def test_parse_corruption_file_bad_section(tmp_path):
    path = tmp_path / "sev.cfg"
    path.write_text("[fog]\ndropout_slope = 0.01\n")
    with pytest.raises(ConfigError):
        forge.parse_corruption_file(path)
