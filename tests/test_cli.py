"""Command-line contract tests over the synthetic two-domain corpus."""

import os

import pytest

from rangegen import cli, toy
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
    assert (cli.denoiser_config_from(cfg, len(specs))
            == toy.toy_denoiser_config())
    assert (cfg.image_height, cfg.image_width) == (
        toy.TOY_SENSOR.height, toy.TOY_SENSOR.width)


def test_config_comments_and_types(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 3  # comment\nwidths = 8,16\nuse_cdfm = false\n")
    cfg = cli.parse_config(str(path))
    assert cfg.seed == 3 and cfg.widths == (8, 16) and cfg.use_cdfm is False


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
    src_tmp, cfg = trained
    ckpt = str(src_tmp / "run" / "ckpt_0000003.olck")
    full = (src_tmp / "run" / "loss.csv").read_text().strip().splitlines()
    assert cli.main(["train", "--config", cfg, "--resume", ckpt]) == 0
    resumed = (src_tmp / "run" / "loss.csv").read_text().strip().splitlines()
    # resume appends steps 3..5 identical to the uninterrupted run
    assert resumed[-3:] == full[4:7]


def test_train_without_dataset_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path, data_dir=str(tmp_path / "nowhere"))
    assert cli.main(["train", "--config", cfg]) == 1
    assert "index" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_internal_error_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli.forge, "build_dataset", boom)
    assert cli.main(["build-data", "--config", cfg]) == 2
    assert "internal error" in capsys.readouterr().err
