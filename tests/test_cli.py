"""Command-line contract tests over the synthetic two-domain corpus."""

import argparse
import ast
import dataclasses
import errno
import glob
import json
import os
import re
import shutil
import struct

import numpy as np
import pytest

from conftest import bev_histogram_reference, unproject_reference
from rangegen import cli, forge, geometry, metrics, toy
from rangegen.checkpoint import read_checkpoint, write_checkpoint
from rangegen.denoiser import DenoiserConfig
from rangegen.errors import ConfigError


def _write_config(tmp_path, **extra):
    lines = {
        "toy": "true",
        "seed": "7",
        "toy_scans": "8",
        "data_dir": str(tmp_path / "data"),
        "out_dir": str(tmp_path / "run"),
        "train_steps": "6",
        "ckpt_every": "3",
        "batch_size": "4",
    }
    lines.update({k: str(v) for k, v in extra.items()})
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One toy corpus + 6-step training run shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = _write_config(tmp_path)
    assert cli.main(["build-data", "--config", cfg]) == 0
    assert cli.main(["train", "--config", cfg]) == 0
    return tmp_path, cfg


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(ConfigError, match="no_such_key"):
        cli.parse_config(str(path))
    assert cli.main(["train", "--config", str(path)]) == 1


def test_malformed_config_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        cli.parse_config(str(path))


@pytest.mark.parametrize("line", ["seed = abc", "lr = fast", "widths = 8,x",
                                  "use_cdfm = maybe"])
def test_malformed_config_value_exits_1(tmp_path, capsys, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"toy = true\n{line}\n")
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"bad.cfg:2: config key '{key}'"):
        cli.parse_config(str(path))
    assert cli.main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("line", [
    "groups = 0", "ckpt_every = 0", "widths =", "dk = 0", "time_width = 0",
    "token_count = 0", "train_steps = -1", "seed = -1", "lr = nan",
    "out_dir =", "data_dir ="])
def test_out_of_range_config_value_exits_1(tmp_path, capsys, monkeypatch,
                                           line):
    monkeypatch.chdir(tmp_path)  # where an empty directory would be taken
    path = tmp_path / "bad.cfg"
    path.write_text(f"toy = true\n{line}\n")
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"bad.cfg: config key '{key}'"):
        cli.parse_config(str(path))
    for command in ("build-data", "train"):
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
    assert os.listdir(tmp_path) == ["bad.cfg"]


_BEYOND_FLOAT = 10**400


def test_int_beyond_float_range_for_a_float_key_exits_1(tmp_path, capsys):
    with pytest.raises(ConfigError, match="config key 'lr' must be a finite"):
        cli.RunConfig(lr=_BEYOND_FLOAT)
    cfg = _write_config(tmp_path, lr=_BEYOND_FLOAT)
    assert cli.main(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "config key 'lr' must be a finite number" in err


def test_seed_beyond_float_range_is_accepted(trained, tmp_path):
    src_tmp, _ = trained
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"),
                        seed=_BEYOND_FLOAT)
    assert cli.main(["train", "--config", cfg, "--steps", "1"]) == 0
    _, meta = read_checkpoint(tmp_path / "run" / "ckpt_final.olck")
    assert meta["seed"] == _BEYOND_FLOAT


def test_config_defaults_are_the_model_and_sensor_defaults():
    cfg = cli.RunConfig()
    assert cli.sensor_from_config(cfg) == geometry.DEFAULT_SENSOR
    assert cli.denoiser_config_from(cfg, 8) == DenoiserConfig()


def test_toy_preset_fills_unset_keys(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text("toy = true\nbatch_size = 2\n")
    cfg = cli.parse_config(str(path))
    assert cfg.image_height == 16 and cfg.schedule_t == 64
    assert cfg.batch_size == 2  # explicit value wins over the preset


def test_toy_preset_trains_the_toy_denoiser(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text("toy = true\n")
    cfg = cli.parse_config(str(path))
    specs = cli.domain_specs_from_config(cfg)
    assert cli.denoiser_config_from(cfg, len(specs)) == DenoiserConfig(
        widths=(8, 16), attn_stages=(2,), cdfm_stages=(2,), time_width=32,
        cond_dim=16, dk=8, num_domains=2)
    assert (cfg.image_height, cfg.image_width) == (
        toy.TOY_SENSOR.height, toy.TOY_SENSOR.width)


def test_config_comments_and_types(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 3  # comment\nwidths = 8,16\nuse_cdfm = false\n"
                    "attn_stages = 2\ncdfm_stages = 2\n")
    cfg = cli.parse_config(str(path))
    assert cfg.seed == 3 and cfg.widths == (8, 16) and cfg.use_cdfm is False


@pytest.mark.parametrize("lines, key", [
    ("widths = 8,16\n", "attn_stages"),  # the default stages are 2,3 and 3
    ("widths = 8,16\nattn_stages = 2\n", "cdfm_stages"),
    ("toy = true\nattn_stages = 1,3\n", "attn_stages"),
    ("toy = true\ncdfm_stages = 3\nuse_cdfm = false\n", "cdfm_stages"),
    # Six stages halve the grid five times; 16 rows do not divide by 32.
    ("toy = true\nwidths = 8,8,8,8,8,8\n", "image_height")],
    ids=["default_attn", "default_cdfm", "toy_attn", "toy_cdfm_off",
         "toy_depth"])
def test_stage_beyond_widths_exits_1(tmp_path, capsys, lines, key):
    path = tmp_path / "bad.cfg"
    path.write_text(lines)
    with pytest.raises(ConfigError, match=f"bad.cfg: config key '{key}'"):
        cli.parse_config(str(path))
    assert cli.main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# build-data
# ---------------------------------------------------------------------------

def test_build_data_toy_two_domains_and_determinism(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["build-data", "--config", cfg]) == 0
    index_path = tmp_path / "data" / "index.tsv"
    first = index_path.read_bytes()
    domains = {line.split("\t")[1]
               for line in first.decode().strip().splitlines()}
    assert domains == {"ToyNear", "ToyFar"}
    assert cli.main(["build-data", "--config", cfg]) == 0
    assert index_path.read_bytes() == first


def test_build_data_rebuild_with_fewer_scans_removes_stale_ones(tmp_path,
                                                               capsys):
    # 4, then 2 toy scans per domain into one data_dir: each domain
    # directory then holds only the scans index.tsv lists, so
    # `eval --reference data/ToyNear` reads none of the first build's.
    cfg = _write_config(tmp_path, toy_scans=4)
    assert cli.main(["build-data", "--config", cfg]) == 0
    cfg = _write_config(tmp_path, toy_scans=2)
    capsys.readouterr()
    assert cli.main(["build-data", "--config", cfg]) == 0
    assert "removed 4 stale scans" in capsys.readouterr().out
    data = tmp_path / "data"
    index = forge.DatasetIndex.load(str(data / "index.tsv"))
    for dom in ("ToyNear", "ToyFar"):
        listed = sorted(rel for rel, d, _ in index.records if d == dom)
        assert len(listed) == 2
        assert sorted(f"{dom}/{name}" for name in os.listdir(data / dom)) \
            == listed
    summary = json.loads((data / "summary.json").read_text())
    assert summary["counts"] == {"ToyFar": 2, "ToyNear": 2}
    assert summary["removed"] == 4


def test_build_data_missing_base_names_path(tmp_path, capsys):
    cfg_path = tmp_path / "full.cfg"
    cfg_path.write_text("base_vehicle_index = /no/such/index.tsv\n"
                        "base_drone_index = /no/such/index.tsv\n"
                        "base_quadruped_index = /no/such/index.tsv\n")
    assert cli.main(["build-data", "--config", str(cfg_path)]) == 1
    assert "/no/such/index.tsv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_emits_monotone_loss_csv(trained):
    tmp_path, _ = trained
    lines = (tmp_path / "run" / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    steps = [int(l.split(",")[0]) for l in lines[1:]]
    assert steps == list(range(6))
    assert (tmp_path / "run" / "ckpt_final.olck").exists()


def test_train_homogeneous_sampler_flag(tmp_path):
    cfg = _write_config(tmp_path, out_dir=str(tmp_path / "hom"))
    assert cli.main(["build-data", "--config", cfg]) == 0
    assert cli.main(["train", "--config", cfg, "--sampler", "homogeneous",
                     "--steps", "3"]) == 0
    assert (tmp_path / "hom" / "loss.csv").exists()


def test_train_resume_continues_trace(trained, tmp_path):
    src_tmp, _ = trained
    run = tmp_path / "run"
    shutil.copytree(src_tmp / "run", run)
    written = ("ckpt_0000006.olck", "ckpt_final.olck")
    for name in written:
        (run / name).unlink()
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"))
    assert cli.main(["train", "--config", cfg, "--resume",
                     str(run / "ckpt_0000003.olck")]) == 0
    # The rows from step 3 on are replaced, not appended a second time, by
    # rows identical to the uninterrupted run's, and the checkpoints written
    # after step 3 are the uninterrupted run's byte for byte.
    for name in (*written, "loss.csv"):
        assert (run / name).read_bytes() == (src_tmp / "run" / name).read_bytes()
    assert not (run / "loss.csv.tmp").exists()


def test_fresh_train_replaces_another_runs_trace(trained, tmp_path):
    # The other run's trace: a longer run's rows, a torn row and bytes that
    # are not UTF-8. None of it survives a fresh run.
    src_tmp, _ = trained
    old = (src_tmp / "run" / "loss.csv").read_bytes() + b"\xff\xfe,\n6,1.5e"
    traces = []
    for name, stale in (("empty", None), ("stale", old)):
        run = tmp_path / name
        run.mkdir()
        if stale:
            (run / "loss.csv").write_bytes(stale)
        cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"),
                            out_dir=str(run), seed=8)
        assert cli.main(["train", "--config", cfg, "--steps", "2"]) == 0
        traces.append((run / "loss.csv").read_bytes())
    assert traces[1] == traces[0]
    assert traces[0].startswith(b"step,loss\n0,")
    assert traces[0].count(b"\n") == 3


def test_train_resume_other_widths_exits_1(trained, tmp_path, capsys):
    src_tmp, _ = trained
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"),
                        widths="16,32")
    ckpt = str(src_tmp / "run" / "ckpt_0000003.olck")
    assert cli.main(["train", "--config", cfg, "--resume", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'widths'" in err and not (tmp_path / "run").exists()


def test_train_resume_below_checkpoint_step_exits_1(trained, tmp_path,
                                                   capsys):
    src_tmp, _ = trained
    run = tmp_path / "run"
    shutil.copytree(src_tmp / "run", run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"))
    assert cli.main(["train", "--config", cfg, "--steps", "3", "--resume",
                     str(run / "ckpt_0000006.olck")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "step 6" in err
    # No final checkpoint labelled step 3 over step-6 parameters.
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_resumed_run_final_checkpoint_keeps_its_seed(trained, tmp_path):
    # The seed-7 run resumed at step 3 continues with seed 7, and so must its
    # final checkpoint: training on from it and from the step-6 checkpoint
    # gives the same losses.
    src_tmp, _ = trained
    data = str(src_tmp / "data")
    cfg = _write_config(tmp_path, data_dir=data)
    assert cli.main(["train", "--config", cfg, "--resume",
                     str(src_tmp / "run" / "ckpt_0000003.olck")]) == 0
    final = tmp_path / "run" / "ckpt_final.olck"
    assert read_checkpoint(final)[1]["seed"] == 7
    traces = []
    for name in ("ckpt_0000006.olck", "ckpt_final.olck"):
        work = tmp_path / name
        work.mkdir()
        cont = _write_config(work, data_dir=data)
        assert cli.main(["train", "--config", cont, "--steps", "8",
                         "--resume", str(tmp_path / "run" / name)]) == 0
        traces.append((work / "run" / "loss.csv").read_text())
    assert traces[0] == traces[1] and traces[0].count("\n") == 3


def test_every_checkpoint_of_a_run_can_be_sampled(trained, tmp_path):
    src_tmp, cfg = trained
    run = src_tmp / "run"
    assert ((run / "ckpt_0000006.olck").read_bytes()
            == (run / "ckpt_final.olck").read_bytes())
    assert cli.main(["sample", "--config", cfg, "--checkpoint",
                     str(run / "ckpt_0000003.olck"), "--domain", "ToyNear",
                     "--steps", "2", "--out", str(tmp_path / "samples")]) == 0
    assert len(list((tmp_path / "samples").glob("*.olri"))) == 1


# A run value changed between a run and its resumption: config entries, and
# the value the message shows.
_CHANGED_RUN_VALUE = {
    "seed": ({"seed": 0}, "0"),
    "lr": ({"lr": 0.5}, "0.5"),
    "weight_decay": ({"weight_decay": 0.01}, "0.01"),
    "schedule_t": ({"schedule_t": 32, "sampler_steps": 32}, "32"),
    "dafs_bound": ({"dafs_bound": 0.5}, "0.5"),
    "token_count": ({"token_count": 4}, "4"),
    "use_dafs": ({"use_dafs": "false"}, "false"),
}


@pytest.mark.parametrize("key", sorted(_CHANGED_RUN_VALUE))
def test_train_resume_with_another_run_value_exits_1(trained, tmp_path,
                                                     capsys, key):
    entries, shown = _CHANGED_RUN_VALUE[key]
    src_tmp, _ = trained
    run = tmp_path / "run"
    shutil.copytree(src_tmp / "run", run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"), **entries)
    assert cli.main(["train", "--config", cfg, "--resume",
                     str(run / "ckpt_0000003.olck")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"ckpt_0000003.olck: config key {key!r} is {shown}," in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


# A config key off the toy sensor -> its value, and what the error shows of
# the toy scans and of the configured sensor.
_OFF_TOY_SENSOR = {
    "image_width": (32, "16x64 scan, the configured grid is 16x32"),
    "r_max": (200, "r_max 80 m, the configured sensor has FOV 3/-25 deg, "
              "r_max 200 m"),
    "fov_up_deg": (10, "FOV 3/-25 deg, r_max 80 m, the configured sensor "
                   "has FOV 10/-25 deg"),
}


@pytest.mark.parametrize("command, key", [
    pytest.param(command, key,
                 id=command if key == "image_width" else f"{command}-{key}")
    for key in _OFF_TOY_SENSOR for command in ("build-data", "train")])
def test_toy_config_with_another_grid_exits_1(trained, tmp_path, capsys,
                                              command, key):
    value, shown = _OFF_TOY_SENSOR[key]
    src_tmp, _ = trained
    data_dir = tmp_path / "data" if command == "build-data" else src_tmp / "data"
    cfg = _write_config(tmp_path, data_dir=str(data_dir), **{key: value})
    steps = ["--steps", "1"] if command == "train" else []
    assert cli.main([command, "--config", cfg, *steps]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err and shown in err
    assert not (tmp_path / "data").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("sampler", ["cdts", "homogeneous"])
def test_train_on_corpus_with_unknown_domains_exits_1(trained, tmp_path,
                                                      capsys, sampler):
    # A toy corpus under a full (eight-domain) config: its domains are not
    # the config's, and training stops before the first batch.
    src_tmp, _ = trained
    cfg = _write_config(tmp_path, toy="false", data_dir=str(src_tmp / "data"))
    assert cli.main(["train", "--config", cfg, "--steps", "1",
                     "--sampler", sampler]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ToyFar, ToyNear" in err and not (tmp_path / "run").exists()


# Each size would make a parameter beyond any virtual address space, or (for
# time_width 10^11) beyond numpy's limit on one array; the config's bound on
# model sizes refuses it before anything is allocated.
@pytest.mark.parametrize("key, value", [
    ("token_count", 10**16), ("dk", 10**16), ("time_width", 10**9),
    ("time_width", 10**11), ("widths", "8,1000000000000000")])
def test_oversized_model_size_exits_1(trained, tmp_path, capsys, key, value):
    src_tmp, _ = trained
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"),
                        **{key: value})
    assert cli.main(["train", "--config", cfg, "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"config key {key!r} must be " in err and "1048576]" in err
    assert not (tmp_path / "run").exists()


def test_model_sizes_at_their_bound_make_a_config():
    # Only the config is built: no parameter of this size is allocated.
    big = 2**20
    cfg = cli.RunConfig(widths=(big,) * 3, time_width=big, cond_dim=big,
                        dk=big, token_count=big)
    assert cli.denoiser_config_from(cfg, 8).widths == (big,) * 3


@pytest.mark.parametrize("text, line, named", [
    (b"[fog.x]\ndropout_slope = 0.01\n", 1, "[fog.x]"),
    (b"[fog.0]\ndropout_slope = abc\n", 2, "[fog.0]: dropout_slope"),
    (b"dropout_slope = 0.01\n[fog.0]\n", 1, "section header"),
    (b"[fog.0]\ndropout_slope = 0.01\n[fog.0]\ndropout_slope = 0.02\n", 3,
     "[fog.0] appears twice"),
    (b"[fogg.0]\ndropout_slope = 0.01\n", 1, "[fogg.0]"),
    (b"[fog.0]\ndropout_slop = 0.01\n", 2,
     "[fog.0]: unknown key 'dropout_slop'"),
    (b"[fog.0]\nintensity_attenuation = 1.5\n", 2,
     "[fog.0]: intensity_attenuation = 1.5 is outside [0, 1]"),
    # corrupt() draws snow returns from rng.uniform(0.5, scatter_range).
    (b"[snow.0]\nscatter_range = 0.3\n", 2,
     "[snow.0]: scatter_range = 0.3 is outside [0.5, inf]"),
    (b"[fog.0]\ndropout_slope = 0.01\n[fog.2]\ndropout_slope = 0.02\n", None,
     "[fog.*] levels are [0, 2]"),
    (b"\xff\xfe[fog.0]\n", None, "not text"),
], ids=["level", "value", "no_section", "duplicate", "kind", "key",
        "attenuation", "scatter_range", "gap", "binary"])
def test_malformed_corruption_file_exits_1(tmp_path, capsys, text, line, named):
    path = tmp_path / "severity.cfg"
    path.write_bytes(text)
    cfg = _write_config(tmp_path, toy="false", corruption_file=str(path))
    assert cli.main(["train", "--config", cfg, "--steps", "1"]) == 1
    err = capsys.readouterr().err
    where = path if line is None else f"{path}:{line}"
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("command", ["build-data", "train"])
def test_snow_scatter_range_beyond_r_max_exits_1(tmp_path, capsys, command):
    # forge.corrupt writes snow returns out to scatter_range as valid pixels,
    # so a level reaching past the sensor's r_max (80 m by default) is
    # rejected before any base index is read. Level 0 is within range.
    path = tmp_path / "severity.cfg"
    path.write_text("[snow.0]\nscatter_range = 80\n"
                    "[snow.1]\nscatter_range = 500\n")
    cfg = _write_config(tmp_path, toy="false", corruption_file=str(path))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path}: [snow.1]: scatter_range = 500 is beyond "
                   "the sensor's r_max = 80\n")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["build-data", "train"])
def test_snow_scatter_count_beyond_the_grid_exits_1(tmp_path, capsys, command):
    # forge.corrupt draws scatter_count returns at once, so a count past the
    # sensor's 64x1024 pixels is rejected before any draw is allocated.
    # Level 0 is within bounds.
    path = tmp_path / "severity.cfg"
    path.write_text("[snow.0]\nscatter_count = 65536\n"
                    "[snow.1]\nscatter_count = 1e15\n")
    cfg = _write_config(tmp_path, toy="false", corruption_file=str(path))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path}: [snow.1]: scatter_count = "
                   "1000000000000000 is more than the 64x1024 = 65536 "
                   "pixels of the sensor\n")
    assert not (tmp_path / "data").exists()


# One line template in both hand-written files, with each file's own key and
# a valid value for it: the two must give the same verdict. The error line
# is None where the line is accepted.
@pytest.mark.parametrize("template, line", [
    ("{key} = {value}  # a note", None),
    ("{key}: {value}", 2),
    ("; a note", 2),
    ("{KEY} = {value}", 2),
    ("{key} = {value}\n{key} = {value}", 3),
    ("{key} = {value}\n    {value}", 3),
], ids=["inline_comment", "colon", "semicolon_comment", "upper_case_key",
        "repeated_key", "continuation"])
def test_run_config_and_corruption_file_share_one_syntax(tmp_path, template,
                                                         line):
    for name, header, key, value, read in [
            ("run.cfg", "toy = true", "lr", "0.001",
             lambda path: cli.parse_config(path).lr),
            ("severity.cfg", "[fog.0]", "dropout_slope", "0.01",
             lambda path: forge.parse_corruption_file(path)["fog"][0][
                 "dropout_slope"])]:
        path = tmp_path / name
        path.write_text(f"{header}\n" + template.format(
            key=key, KEY=key.upper(), value=value) + "\n")
        if line is None:
            assert read(str(path)) == float(value)
        else:
            with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}: ")):
                read(str(path))


NOT_UTF8 = b"\xff\xfe = 1\n"


def _assert_not_text_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not text") and err.count("\n") == 1


def test_run_config_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(NOT_UTF8)
    assert cli.main(["train", "--config", str(path)]) == 1
    _assert_not_text_error(capsys, path)


def test_dataset_index_not_utf8_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    index = tmp_path / "data" / "index.tsv"
    index.parent.mkdir()
    index.write_bytes(NOT_UTF8)
    assert cli.main(["train", "--config", cfg, "--steps", "1"]) == 1
    _assert_not_text_error(capsys, index)


def test_base_index_not_utf8_exits_1(tmp_path, capsys):
    base = tmp_path / "base.tsv"
    base.write_bytes(NOT_UTF8)
    cfg = _write_config(tmp_path, toy="false", base_vehicle_index=base,
                        base_drone_index=base, base_quadruped_index=base)
    assert cli.main(["build-data", "--config", cfg]) == 1
    _assert_not_text_error(capsys, base)


def test_train_without_dataset_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path, data_dir=str(tmp_path / "nowhere"))
    assert cli.main(["train", "--config", cfg]) == 1
    assert "index" in capsys.readouterr().err


def test_train_sampler_steps_beyond_schedule_exits_1_before_writing(
        tmp_path, capsys):
    # Such a run would train and then fail in `sample`.
    cfg = _write_config(tmp_path, schedule_t="1", sampler_steps="4")
    assert cli.main(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'sampler_steps' (4)" in err and "'schedule_t' (1)" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("command, index_name, text", [
    ("build-data", "base.tsv", "a.olri\ttrain\nb.olri\ttrain\textra\n"),
    ("train", "index.tsv", "Fog/a.olri\tFog\ttrain\nFog/b.olri\tFog\n")],
    ids=["base_index", "dataset_index"])
def test_index_line_with_wrong_field_count_exits_1(tmp_path, capsys, command,
                                                   index_name, text):
    path = tmp_path / "data" / index_name
    path.parent.mkdir()
    path.write_text(text)
    cfg = _write_config(tmp_path, toy="false", base_vehicle_index=path,
                        base_drone_index=path, base_quadruped_index=path)
    steps = ["--steps", "1"] if command == "train" else []
    assert cli.main([command, "--config", cfg, *steps]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_writes_deterministic_files(trained):
    tmp_path, cfg = trained
    ckpt = str(tmp_path / "run" / "ckpt_final.olck")
    out_a = str(tmp_path / "sa")
    out_b = str(tmp_path / "sb")
    for out in (out_a, out_b):
        assert cli.main(["sample", "--config", cfg, "--checkpoint", ckpt,
                         "--domain", "ToyNear", "--count", "2", "--steps", "4",
                         "--seed", "11", "--out", out, "--write-points",
                         "--ppm"]) == 0
    names = sorted(os.listdir(out_a))
    assert "ToyNear_s11_0000.olri" in names
    assert "ToyNear_s11_0001.olri" in names
    assert "ToyNear_s11_0000.xyz" in names
    assert "ToyNear_s11_0000.ppm" in names
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_sample_seed_too_long_for_a_file_name_exits_1(trained, tmp_path,
                                                      capsys):
    src_tmp, cfg = trained
    ckpt = str(src_tmp / "run" / "ckpt_final.olck")
    out = tmp_path / "samples"
    assert cli.main(["sample", "--config", cfg, "--checkpoint", ckpt,
                     "--domain", "ToyNear", "--steps", "4", "--seed",
                     str(_BEYOND_FLOAT), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "'seed'" in captured.err
    assert "scan 1/" not in captured.out and not out.exists()


def test_sample_file_name_at_the_limit_is_written(trained, tmp_path):
    # ToyNear_s<seed>_0000.olri.tmp is 255 bytes with a 232-digit seed.
    src_tmp, cfg = trained
    ckpt = str(src_tmp / "run" / "ckpt_final.olck")
    argv = ["sample", "--config", cfg, "--checkpoint", ckpt, "--domain",
            "ToyNear", "--steps", "2", "--out", str(tmp_path), "--seed"]
    assert cli.main(argv + [str(10**231)]) == 0
    assert [len(p.name) for p in tmp_path.iterdir()] == [251]
    assert cli.main(argv + [str(10**232)]) == 1


def test_sample_unknown_domain_lists_known(trained, capsys):
    tmp_path, cfg = trained
    ckpt = str(tmp_path / "run" / "ckpt_final.olck")
    assert cli.main(["sample", "--config", cfg, "--checkpoint", ckpt,
                     "--domain", "Nope", "--count", "1"]) == 1
    err = capsys.readouterr().err
    assert "ToyNear" in err and "ToyFar" in err


def test_sample_default_steps_from_config(trained, capsys):
    tmp_path, cfg = trained
    ckpt = str(tmp_path / "run" / "ckpt_final.olck")
    assert cli.main(["sample", "--config", cfg, "--checkpoint", ckpt,
                     "--domain", "ToyFar", "--count", "1",
                     "--out", str(tmp_path / "sd")]) == 0
    assert "steps=64" in capsys.readouterr().out  # toy preset sampler_steps


def test_sample_prints_one_progress_line_per_scan(trained, capsys):
    tmp_path, cfg = trained
    ckpt = str(tmp_path / "run" / "ckpt_final.olck")
    assert cli.main(["sample", "--config", cfg, "--checkpoint", ckpt,
                     "--domain", "ToyNear", "--count", "3", "--steps", "4",
                     "--out", str(tmp_path / "sp")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[-1].startswith("wrote 3 samples")
    for i, line in enumerate(lines[:3], start=1):
        m = re.fullmatch(r"scan (\d+)/3: 4 steps in (\S+) s "
                         r"\((\S+) steps/s\)", line)
        assert m, line
        seconds, rate = float(m[2]), float(m[3])
        assert int(m[1]) == i and seconds >= 0 and rate > 0


def test_sample_takes_model_sensor_and_schedule_from_checkpoint(trained,
                                                                tmp_path):
    src_tmp, cfg = trained
    other = _write_config(tmp_path, data_dir=str(src_tmp / "data"),
                          widths="16,32", schedule_t="32", image_width="32")
    ckpt = str(src_tmp / "run" / "ckpt_final.olck")
    for name, config in (("train_cfg", cfg), ("other_cfg", other)):
        assert cli.main(["sample", "--config", config, "--checkpoint", ckpt,
                         "--domain", "ToyFar", "--count", "2", "--steps", "4",
                         "--seed", "3", "--out", str(tmp_path / name)]) == 0
    names = sorted(os.listdir(tmp_path / "train_cfg"))
    assert names == sorted(os.listdir(tmp_path / "other_cfg")) and names
    for name in names:
        assert ((tmp_path / "train_cfg" / name).read_bytes()
                == (tmp_path / "other_cfg" / name).read_bytes()), name


def test_sample_under_more_domains_than_trained_exits_1(trained, tmp_path,
                                                       capsys):
    src_tmp, _ = trained
    cfg = tmp_path / "eight.cfg"
    cfg.write_text(f"out_dir = {tmp_path / 'run'}\n")
    ckpt = str(src_tmp / "run" / "ckpt_final.olck")
    assert cli.main(["sample", "--config", str(cfg), "--checkpoint", ckpt,
                     "--domain", "Quadruped", "--steps", "2",
                     "--out", str(tmp_path / "samples")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ckpt in err and "shape" in err


def test_sample_steps_beyond_checkpoint_schedule_exits_1(trained, tmp_path,
                                                        capsys):
    # The step count meets the checkpoint's schedule_t (64), not the
    # config's, and fails before any output is written.
    src_tmp, _ = trained
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"),
                        schedule_t="1000")
    ckpt = str(src_tmp / "run" / "ckpt_final.olck")
    out = tmp_path / "samples"
    assert cli.main(["sample", "--config", cfg, "--checkpoint", ckpt,
                     "--domain", "ToyFar", "--steps", "65",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert "'sampler_steps' (65)" in err and "'schedule_t' (64)" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("train", "--steps -1"), ("sample", "--steps -5"),
    ("sample", "--count -1"), ("sample", "--seed -2")])
def test_bad_command_flag_exits_1(trained, tmp_path, capsys, command, flags):
    src_tmp, _ = trained
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"))
    if command == "train":
        argv = ["train", "--config", cfg]
    else:
        argv = ["sample", "--config", cfg, "--checkpoint",
                str(src_tmp / "run" / "ckpt_final.olck"), "--domain",
                "ToyNear", "--out", str(tmp_path / "samples")]
    assert cli.main(argv + flags.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "samples").exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--config", "run.cfg", "--checkpoint", "c.olck", "--domain",
     "ToyNear", "--steps", "abc"],
    ["train", "--config", "run.cfg", "--sampler", "bogus"],
    ["train", "--config", "run.cfg", "--no-such-flag"],
    []])
def test_malformed_command_line_exits_1(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rangegen")
    assert captured.err.count("\n") == 1 and not captured.out


def test_readme_synopsis_names_every_flag():
    # Each command's flags all appear on the README lines that run it.
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8").read()
    lines = readme.replace("\\\n", " ").splitlines()
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for name, parser in commands.choices.items():
        shown = {flag for line in lines if f"rangegen {name} " in line
                 for flag in re.findall(r"--[a-z-]+", line)}
        flags = {flag for action in parser._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags <= shown, (name, sorted(flags - shown))


def _public_definitions(tree):
    """(name, node) of each public top-level function, class and constant,
    and of each public method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item


def test_every_public_name_in_src_has_a_caller():
    # src/rangegen holds only what the CLI and the benchmark run: each public
    # name is used outside its own definition, in src/rangegen or perfbench.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "src", "rangegen", "*.py"))
                   + glob.glob(os.path.join(root, "perfbench", "*.py")))
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            trees[path] = ast.parse(f.read())
    uses = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            uses.setdefault(name, []).append((path, node.lineno))
    unused = [
        f"{os.path.basename(path)}: {name}"
        for path, tree in trees.items() if os.sep + "rangegen" + os.sep in path
        for name, node in _public_definitions(tree)
        if all(where == path and node.lineno <= line <= node.end_lineno
               for where, line in uses.get(name, ()))]
    assert not unused


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "build-data" in capsys.readouterr().out


# Metadata values of the wrong type or range: how -> (the command that
# reads the key, key, value).
_BAD_META = {
    "step_str": ("train", "step", "one"),
    "step_negative": ("train", "step", -1),
    "seed_float": ("train", "seed", 1.5),
    "opt_step_bool": ("train", "opt_step", True),
    "lr_str": ("train", "lr", "fast"),
    "lr_negative": ("train", "lr", -0.5),
    "weight_decay_nan": ("train", "weight_decay", float("nan")),
    "weight_decay_negative": ("train", "weight_decay", -3.0),
    "schedule_t_str": ("sample", "schedule_t", "64"),
    "image_height_float": ("sample", "image_height", 16.0),
    "fov_up_inf": ("sample", "fov_up_deg", float("inf")),
    "r_max_str": ("sample", "r_max", "far"),
    "r_max_beyond_float": ("sample", "r_max", 10**400),
    "widths_str": ("sample", "widths", "8,x"),
}


def _damage(src, dst, how):
    """Write a damaged copy of checkpoint `src` to `dst`."""
    raw = src.read_bytes()
    if how == "truncated":
        dst.write_bytes(raw[: len(raw) // 2])
        return
    if how == "bad_meta":
        (meta_len,) = struct.unpack_from("<I", raw, 6)
        dst.write_bytes(raw[:10] + b"{" * meta_len + raw[10 + meta_len :])
        return
    buffers, meta = read_checkpoint(src)
    if how == "missing_key":
        del meta["lr"], meta["schedule_t"]  # one key of resume, one of sample
    elif how == "bad_denoiser":
        meta["groups"] = 0
    elif how == "old_layout":  # the model config nested under "denoiser"
        meta["denoiser"] = {key: meta.pop(key) for key in cli._MODEL_KEYS}
    elif how in _BAD_META:
        _, key, value = _BAD_META[how]
        meta[key] = value
    else:
        name = next(n for n, arr in buffers.items() if arr.ndim == 4)
        buffers[name] = buffers[name][:1]
    write_checkpoint(dst, buffers, meta)


@pytest.mark.parametrize("command, how", [
    (command, how) for command in ("train", "sample")
    for how in ("truncated", "bad_meta", "missing_key", "shape")
] + [("sample", "bad_denoiser"), ("sample", "old_layout")] + [
    (command, how) for how, (command, _, _) in _BAD_META.items()
])
def test_damaged_checkpoint_exits_1(trained, tmp_path, capsys, command, how):
    src_tmp, _ = trained
    cfg = _write_config(tmp_path, data_dir=str(src_tmp / "data"))
    ckpt = tmp_path / "damaged.olck"
    _damage(src_tmp / "run" / "ckpt_final.olck", ckpt, how)
    if command == "train":
        argv = ["train", "--config", cfg, "--resume", str(ckpt)]
    else:
        argv = ["sample", "--config", cfg, "--checkpoint", str(ckpt),
                "--domain", "ToyNear", "--steps", "2",
                "--out", str(tmp_path / "samples")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "damaged.olck" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_directory_against_itself(trained, capsys):
    tmp_path, _ = trained
    ref = str(tmp_path / "data" / "ToyNear")
    assert cli.main(["eval", "--generated", ref, "--reference", ref,
                     "--out", str(tmp_path / "data")]) == 0
    out = capsys.readouterr().out
    jsd = float([l for l in out.splitlines() if l.startswith("JSD")][0]
                .split("=")[1])
    mmd = float([l for l in out.splitlines() if l.startswith("MMD =")][0]
                .split("=")[1])
    assert abs(jsd) <= 1e-9 and abs(mmd) <= 1e-9
    assert "MMD(x1e4)" in out
    assert os.path.exists(tmp_path / "data" / "metrics.csv")


def _write_synthetic_scans(directory, seed, count):
    """Scans on the 64x1024 and Beam32 grids, part of each past 40 m."""
    directory.mkdir()
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        sensor = geometry.DEFAULT_SENSOR
        if i % 2:
            sensor = dataclasses.replace(sensor, height=sensor.height // 2)
        shape = (sensor.height, sensor.width)
        valid = rng.random(shape) < 0.8
        rng_img = np.where(valid, rng.uniform(0.5, sensor.r_max, shape), 0.0)
        img = geometry.RangeImage(rng_img, rng.random(shape), valid, sensor)
        paths.append(str(directory / f"scan_{i:04d}.olri"))
        geometry.write_olri(paths[-1], img)
    return paths


def _reference_histograms(paths):
    hists = []
    for path in paths:
        pts, _ = unproject_reference(geometry.read_olri(path))
        counts, empty = bev_histogram_reference(pts)
        assert not empty
        hists.append(metrics.OccupancyHistogram(counts, empty=False))
    return hists


def test_eval_matches_reference_path_byte_for_byte(tmp_path, capsys):
    gen = _write_synthetic_scans(tmp_path / "gen", 11, 3)
    ref = _write_synthetic_scans(tmp_path / "ref", 12, 4)
    assert cli.main(["eval", "--generated", str(tmp_path / "gen"),
                     "--reference", str(tmp_path / "ref")]) == 0
    report = metrics.metric_report(_reference_histograms(gen),
                                   _reference_histograms(ref))
    assert (tmp_path / "gen" / "metrics.csv").read_bytes() == \
        report["csv"].encode()
    assert (tmp_path / "gen" / "metrics.txt").read_bytes() == \
        report["text"].encode()
    assert capsys.readouterr().out == report["text"]


def test_eval_creates_missing_out_directory(tmp_path, capsys):
    _write_synthetic_scans(tmp_path / "gen", 13, 2)
    _write_synthetic_scans(tmp_path / "ref", 14, 2)
    out = tmp_path / "missing" / "dir"
    assert cli.main(["eval", "--generated", str(tmp_path / "gen"),
                     "--reference", str(tmp_path / "ref"),
                     "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert (out / "metrics.txt").read_text() == printed.out
    assert (out / "metrics.csv").read_text().startswith("set_a_size,")


def test_eval_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["eval", "--generated", str(empty),
                     "--reference", str(empty)]) == 1
    assert str(empty) in capsys.readouterr().err


def test_eval_unparseable_file_named(trained, tmp_path, capsys):
    src_tmp, _ = trained
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "broken.olri").write_bytes(b"not a scan")
    ref = str(src_tmp / "data" / "ToyNear")
    assert cli.main(["eval", "--generated", str(bad_dir),
                     "--reference", ref]) == 1
    assert "broken.olri" in capsys.readouterr().err


def test_eval_truncated_scan_exits_1(trained, tmp_path, capsys):
    src_tmp, _ = trained
    ref = src_tmp / "data" / "ToyNear"
    scan = sorted(ref.glob("*.olri"))[0]
    bad_dir = tmp_path / "cut"
    bad_dir.mkdir()
    (bad_dir / "cut.olri").write_bytes(scan.read_bytes()[:200])
    assert cli.main(["eval", "--generated", str(bad_dir),
                     "--reference", str(ref)]) == 1
    err = capsys.readouterr().err
    assert "cut.olri" in err and err.count("\n") == 1


def test_eval_reference_with_nan_range_exits_1(trained, tmp_path, capsys):
    src_tmp, _ = trained
    gen = src_tmp / "data" / "ToyNear"
    img = geometry.read_olri(sorted(gen.glob("*.olri"))[0])
    img.range[tuple(np.argwhere(img.valid)[0])] = np.nan
    (tmp_path / "ref").mkdir()
    geometry.write_olri(tmp_path / "ref" / "nan.olri", img)
    assert cli.main(["eval", "--generated", str(gen),
                     "--reference", str(tmp_path / "ref")]) == 1
    err = capsys.readouterr().err
    assert "nan.olri: valid pixel" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# File writes
# ---------------------------------------------------------------------------

class _DiskFull:
    """A file open for writing that stores half of its first write, then
    fails as a full disk does."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _run(*argv):
    """One command, with its errors raised rather than turned into exit 1."""
    args = cli.build_parser().parse_args(argv)
    assert args.fn(args) == 0


def _scan(data):
    return geometry.read_olri(sorted((data / "ToyNear").glob("*.olri"))[0])


# Every file a command writes whole: its name, and how to write it into a
# directory given the shared run's directory.
_WRITERS = {
    "ckpt.olck": lambda src, d: write_checkpoint(
        d / "ckpt.olck", {"w": np.ones(4, np.float32)}, {"step": 1}),
    "scan.olri": lambda src, d: geometry.write_olri(
        d / "scan.olri", _scan(src / "data")),
    "scan.xyz": lambda src, d: geometry.write_xyz(
        d / "scan.xyz", geometry.unproject(_scan(src / "data"))),
    "scan.ppm": lambda src, d: cli._write_ppm(
        d / "scan.ppm", geometry.normalize(_scan(src / "data"))),
    "index.tsv": lambda src, d: forge.DatasetIndex.load(
        src / "data" / "index.tsv").save(d / "index.tsv"),
    "summary.json": lambda src, d: _run(
        "build-data", "--config",
        _write_config(d.parent, data_dir=str(d), toy_scans=2)),
    "loss.csv": lambda src, d: _run(
        "train", "--config",
        _write_config(d.parent, data_dir=str(src / "data"), out_dir=str(d)),
        "--steps", "1"),
    **{name: lambda src, d: _run(
        "eval", "--generated", str(src / "data" / "ToyNear"),
        "--reference", str(src / "data" / "ToyFar"), "--out", str(d))
       for name in ("metrics.txt", "metrics.csv")},
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_disk_full_write_keeps_previous_file(trained, tmp_path, monkeypatch,
                                             name):
    src_tmp, _ = trained
    out = tmp_path / "out"
    out.mkdir()
    _WRITERS[name](src_tmp, out)
    before = (out / name).read_bytes()
    real_open = open

    def disk_full_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(file).startswith(name):
            return _DiskFull(f)
        return f

    monkeypatch.setattr("builtins.open", disk_full_open)
    with pytest.raises(OSError, match="No space left"):
        _WRITERS[name](src_tmp, out)
    monkeypatch.undo()
    assert (out / name).read_bytes() == before
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_config_directory_exits_1(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli.forge, "build_dataset", boom)
    assert cli.main(["build-data", "--config", cfg]) == 2
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [None, "0", "1"])
def test_internal_error_traceback_on_request(tmp_path, monkeypatch, capsys,
                                             flag):
    cfg = _write_config(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli.forge, "build_dataset", boom)
    if flag is None:
        monkeypatch.delenv("RANGEGEN_TRACEBACK", raising=False)
    else:
        monkeypatch.setenv("RANGEGEN_TRACEBACK", flag)
    assert cli.main(["build-data", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.endswith("internal error: invariant violated\n")
    if flag == "1":
        assert err.startswith("Traceback (most recent call last):")
        assert "in boom" in err and "RuntimeError: invariant violated" in err
    else:
        assert err.count("\n") == 1
