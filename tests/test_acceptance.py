"""Acceptance gate: eight pass/fail criteria with pinned tolerances.

Each test prints exactly one ``CRITERION n ...: PASS`` / ``FAIL`` line
(bypassing capture) and enforces its wall-clock budget.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from conftest import TOY_DENOISER_CONFIG
import test_autodiff
import test_conditioning
import test_denoiser
import test_diffusion
import test_forge
import test_geometry
import test_metrics
import test_training
from rangegen import autodiff as ad
from rangegen import cli, denoiser as dn, diffusion as df, forge, geometry
from rangegen import metrics, toy, training
from rangegen.conditioning import embed_prompt

GRAD_SEEDS = range(20)


@contextlib.contextmanager
def _criterion(capsys, num, desc, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"\nCRITERION {num} ({desc}): FAIL")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed <= budget_s else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {num} ({desc}): {verdict} "
              f"[{elapsed:.1f}s / budget {budget_s:.0f}s]")
    assert elapsed <= budget_s, \
        f"criterion {num} ran {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_1_gradients(capsys):
    with _criterion(capsys, 1, "gradient suite, FD rel err <=1e-5 primitive"
                    " / <=1e-4 composite, 20 seeds", 300):
        for seed in GRAD_SEEDS:
            # primitive operations, tolerance 1e-5
            test_autodiff.test_elementwise_grads(seed)
            test_autodiff.test_add_mul_broadcast_grads(seed)
            test_autodiff.test_reduction_and_shape_grads(seed)
            test_autodiff.test_matmul_grads(seed)
            test_autodiff.test_softmax_grads(seed)
            test_autodiff.test_layer_norm_grads(seed)
            test_autodiff.test_conv2d_grads(seed)
            test_autodiff.test_conv2d_strided_and_upsample_grads(seed)
            test_autodiff.test_recurrence_grads(seed)
            test_autodiff.test_embedding_grads(seed)
            # composite blocks, tolerance 1e-4
            test_conditioning.test_cross_attention_block_gradients(seed)
            test_denoiser.test_selective_scan_gradients(seed)
            test_denoiser.test_cdfm_block_gradients(seed)
            test_denoiser.test_dafs_gradients(seed)
            test_denoiser.test_denoise_end_to_end_directional_gradient(seed)


def test_criterion_2_geometry(capsys):
    with _criterion(capsys, 2, "geometry: half-pixel roundtrip 1e5 points, "
                    "bitwise rasterize-unproject, normalize <=1e-6", 60):
        test_geometry.test_half_pixel_roundtrip_100k_points()
        test_geometry.test_rasterize_unproject_bitwise_roundtrip()
        test_geometry.test_normalize_denormalize_roundtrip()


def test_criterion_3_structure(capsys):
    with _criterion(capsys, 3, "flatten inverses, shared-scan probe, "
                    "causality, bounded per-domain modulation", 60):
        test_denoiser.test_flatten_index_examples_2x3()
        for direction in ("horizontal", "vertical"):
            test_denoiser.test_flatten_unflatten_bitwise_inverse(direction)
        test_denoiser.test_cdfm_directional_passes_share_parameters()
        test_denoiser.test_selective_scan_causality_100_sequences()
        test_denoiser.test_dafs_zero_row_is_exact_identity()
        # delta bound on 1e4 random inputs
        rng = np.random.default_rng(0)
        bound = 0.1
        feats = rng.standard_normal((10, 8, 5, 25)) * 3.0  # 10^4 elements
        table = ad.Tensor(rng.standard_normal((4, 16)) * 5)
        for dom in range(4):
            for b in range(feats.shape[0]):
                f = feats[b:b + 1]
                out = dn.dafs_modulate(ad.Tensor(f), np.array([dom]),
                                       table, bound).data
                assert np.all(np.abs(out - f)
                              <= bound * (np.abs(f) + 1.0) + 1e-12)


def test_criterion_4_schedule(capsys):
    with _criterion(capsys, 4, "cosine schedule endpoints/monotonicity and "
                    "forward-noising moments within 5%", 60):
        test_diffusion.test_schedule_starts_at_one()
        test_diffusion.test_schedule_terminal_value_small()
        test_diffusion.test_schedule_strictly_decreasing()
        test_diffusion.test_q_sample_monte_carlo_moments()


def test_criterion_5_metrics(capsys):
    with _criterion(capsys, 5, "JSD identities to 1e-12, MMD identities to "
                    "1e-9, x1e4 reporting", 60):
        test_metrics.test_jsd_identity_zero()
        test_metrics.test_jsd_disjoint_supports_is_one()
        test_metrics.test_jsd_hand_example_matches_summation_oracle()
        test_metrics.test_mmd_identical_multisets_zero()
        test_metrics.test_mmd_singletons_closed_form()
        test_metrics.test_metric_report_fields()


def test_criterion_6_protocol(capsys, tmp_path):
    with _criterion(capsys, 6, "beam reduction, 3-sigma sampling uniformity, "
                    "pooled batch frequencies, dataset determinism", 120):
        test_forge.test_reduce_beams_64_to_32_bytes_identical()
        test_forge.test_sample_prompt_train_uniform_multinomial()
        (tmp_path / "sev").mkdir()
        (tmp_path / "det").mkdir()
        test_forge.test_build_dataset_severity_uniformity(tmp_path / "sev")
        test_forge.test_build_dataset_deterministic_bytes(tmp_path / "det")
        test_training.test_cdts_pooled_frequencies_within_3_sigma()
        test_training.test_homogeneous_batches_single_domain_always()


def _mean_normalized_range(img):
    norm = geometry.normalize(img)
    return float(norm[0][np.asarray(img.valid)].mean())


@pytest.mark.slow
def test_criterion_7_conditional_control(capsys, tmp_path):
    with _criterion(capsys, 7, "toy smoke: loss halves and conditional "
                    "samples separate by >=3 pooled SE", 900):
        base = toy.make_toy_corpus(str(tmp_path / "base"), 48, seed=0)
        specs = toy.toy_domain_specs()
        data_dir = str(tmp_path / "built")
        index, _ = forge.build_dataset(base, specs, data_dir, seed=0)
        cfg = TOY_DENOISER_CONFIG
        params = dn.init_denoiser(cfg, np.random.default_rng(0),
                                  dtype=np.float32)
        schedule = df.cosine_schedule(64)

        # ground truth: the two domains' mean normalized range differ >= 0.5
        truth = {}
        for dom in ("ToyNear", "ToyFar"):
            vals = [
                _mean_normalized_range(
                    geometry.read_olri(os.path.join(data_dir, path)))
                for path, d, split in index.records
                if d == dom and split == "train"
            ]
            truth[dom] = float(np.mean(vals))
        assert abs(truth["ToyFar"] - truth["ToyNear"]) >= 0.5

        _, trace = training.train(params, cfg, schedule, data_dir, index,
                                  specs, steps=1500, seed=0, batch_size=8,
                                  lr=1e-3, weight_decay=0.0, sampler="cdts",
                                  out_dir=str(tmp_path / "run"),
                                  ckpt_every=1500)
        losses = [v for _, v in trace]
        initial = float(np.mean(losses[:50]))
        final = float(np.mean(losses[-50:]))
        assert final <= 0.5 * initial, (initial, final)

        # 32 conditional samples per domain at the full 64-step schedule
        means = {}
        for di, spec in enumerate(specs):
            zc = embed_prompt(spec.prompt_pool[0], cfg.token_count,
                              cfg.cond_dim)[None]
            vals = []
            for i in range(32):
                rng = np.random.default_rng(
                    np.random.SeedSequence([123, di, i]))
                out = df.ddpm_sample(params, cfg, schedule, zc,
                                     np.array([di]), rng, steps=64,
                                     shape=(16, 64))
                vals.append(float(out[0, 0].mean()))
            means[spec.id] = np.asarray(vals)
        near, far = means["ToyNear"], means["ToyFar"]
        pooled_se = np.sqrt(near.var(ddof=1) / len(near)
                            + far.var(ddof=1) / len(far))
        gap = far.mean() - near.mean()
        assert gap >= 3.0 * pooled_se, (gap, pooled_se)
        # ordering matches the training domains (near < far)
        assert (truth["ToyFar"] > truth["ToyNear"]) == (gap > 0)


ABLATIONS = {
    "full": {},
    "homogeneous": {"sampler": "homogeneous"},
    "no_cdfm": {"use_cdfm": "false"},
    "no_dafs": {"use_dafs": "false"},
}


@pytest.mark.slow
def test_criterion_8_ablation_harness(capsys, tmp_path):
    with _criterion(capsys, 8, "sampler/CDFM/DAFS ablations run from config "
                    "alone with complete reports", 1800):
        data_dir = tmp_path / "data"
        steps = 300
        base = {
            "toy": "true",
            "seed": "0",
            "toy_scans": "24",
            "data_dir": str(data_dir),
            "train_steps": str(steps),
            "batch_size": "8",
            "lr": "1e-3",
        }
        first_cfg = None
        for name, extra in ABLATIONS.items():
            out_dir = tmp_path / name
            cfg_path = tmp_path / f"{name}.cfg"
            kv = dict(base, out_dir=str(out_dir), **extra)
            cfg_path.write_text(
                "".join(f"{k} = {v}\n" for k, v in kv.items()))
            if first_cfg is None:
                first_cfg = str(cfg_path)
                assert cli.main(["build-data", "--config", first_cfg]) == 0
            # launchable from config alone: no extra flags
            assert cli.main(["train", "--config", str(cfg_path)]) == 0

            lines = (out_dir / "loss.csv").read_text().strip().splitlines()
            assert lines[0] == "step,loss"
            assert [int(l.split(",")[0]) for l in lines[1:]] \
                == list(range(steps))

            ckpt = str(out_dir / "ckpt_final.olck")
            gen = out_dir / "samples"
            assert cli.main(["sample", "--config", str(cfg_path),
                             "--checkpoint", ckpt, "--domain", "ToyNear",
                             "--count", "4", "--steps", "32",
                             "--seed", "5", "--out", str(gen)]) == 0
            assert cli.main(["eval", "--generated", str(gen),
                             "--reference", str(data_dir / "ToyNear"),
                             "--out", str(out_dir)]) == 0
            report = (out_dir / "metrics.csv").read_text()
            header = report.strip().splitlines()[0].split(",")
            assert header == ["set_a_size", "set_b_size", "bandwidth",
                              "jsd", "mmd", "mmd_x1e4"]
            out = capsys.readouterr().out
            assert "MMD(x1e4)" in out
            for metric_name in metrics.UNAVAILABLE_METRICS:
                assert f"{metric_name} = unavailable" in out
