"""Batch samplers, training loop smoke, and resumable checkpointing."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (TOY_DENOISER_CONFIG, conv2d_reference,
                      layer_norm_reference, silu_reference,
                      upsample2x_reference)
from rangegen import autodiff as ad
from rangegen import diffusion, forge, toy, training
from rangegen.checkpoint import read_checkpoint, write_checkpoint
from rangegen.denoiser import DenoiserConfig, init_denoiser
from rangegen.errors import ConfigError
from rangegen.optim import AdamW


def _index(sizes):
    records = []
    for dom, n in sizes.items():
        records += [(f"{dom}/s{i}.olri", dom, "train") for i in range(n)]
    return forge.DatasetIndex(records)


def _specs(domains):
    return [forge.DomainSpec(id=d, prompt_pool=(f"{d} one", f"{d} two"),
                             sensor=toy.TOY_SENSOR) for d in domains]


# ---------------------------------------------------------------------------
# Mixed-domain sampler
# ---------------------------------------------------------------------------

def test_cdts_pooled_frequencies_within_3_sigma():
    index = _index({"A": 100, "B": 300})
    specs = _specs(["A", "B"])
    gen = training.cdts_batches(index, specs, batch_size=10, seed=0)
    n = 10_000
    count_a = 0
    drawn = 0
    while drawn < n:
        for _, dom, _ in next(gen):
            count_a += dom == "A"
            drawn += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert abs(count_a - 0.25 * n) <= 3 * sigma


def test_cdts_batch_contains_both_domains_with_closed_form_probability():
    index = _index({"A": 200, "B": 200})
    specs = _specs(["A", "B"])
    gen = training.cdts_batches(index, specs, batch_size=16, seed=1)
    trials = 1000
    both = sum(len({dom for _, dom, _ in next(gen)}) == 2
               for _ in range(trials))
    p = 1.0 - 2.0 * 0.5 ** 16
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(both - trials * p) <= max(3 * sigma, 3.0)


def test_cdts_deterministic_and_prompts_from_pool():
    index = _index({"A": 5})
    specs = _specs(["A"])
    a = [next(training.cdts_batches(index, specs, 4, seed=9, start_step=s))
         for s in range(3)]
    gen = training.cdts_batches(index, specs, 4, seed=9)
    b = [next(gen) for _ in range(3)]
    assert a == b
    for plan in a:
        for _, dom, prompt in plan:
            assert prompt in specs[0].prompt_pool and dom == "A"


def test_cdts_rejects_empty_train_split():
    index = forge.DatasetIndex([("x.olri", "A", "val")])
    with pytest.raises(ConfigError):
        next(training.cdts_batches(index, _specs(["A"]), 4, seed=0))
    with pytest.raises(ConfigError):
        next(training.cdts_batches(_index({"A": 3}), _specs(["A"]), 0, seed=0))


# ---------------------------------------------------------------------------
# Batch-homogeneous sampler
# ---------------------------------------------------------------------------

def test_homogeneous_batches_single_domain_always():
    index = _index({"A": 50, "B": 50, "C": 50})
    specs = _specs(["A", "B", "C"])
    gen = training.homogeneous_batches(index, specs, 8, seed=2)
    for _ in range(200):
        assert len({dom for _, dom, _ in next(gen)}) == 1


def test_homogeneous_domain_choice_uniform():
    index = _index({"A": 10, "B": 1000})  # sizes must not bias the pick
    specs = _specs(["A", "B"])
    gen = training.homogeneous_batches(index, specs, 4, seed=3)
    n = 10_000
    picks_a = sum(next(gen)[0][1] == "A" for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(picks_a - n / 2) <= 3 * sigma


def test_homogeneous_deterministic():
    index = _index({"A": 5, "B": 5})
    specs = _specs(["A", "B"])
    gen1 = training.homogeneous_batches(index, specs, 4, seed=4)
    gen2 = training.homogeneous_batches(index, specs, 4, seed=4)
    assert [next(gen1) for _ in range(5)] == [next(gen2) for _ in range(5)]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _toy_pipeline(tmp_path, n_per_domain=10, seed=0):
    base = toy.make_toy_corpus(str(tmp_path / "base"), n_per_domain, seed)
    specs = toy.toy_domain_specs()
    index, _ = forge.build_dataset(base, specs, str(tmp_path / "built"), seed)
    cfg = TOY_DENOISER_CONFIG
    params = init_denoiser(cfg, np.random.default_rng(seed), dtype=np.float32)
    schedule = diffusion.cosine_schedule(64)
    return cfg, params, schedule, str(tmp_path / "built"), index, specs


def test_train_smoke_loss_decreases(tmp_path):
    cfg, params, sched, data_dir, index, specs = _toy_pipeline(tmp_path)
    _, trace = training.train(params, cfg, sched, data_dir, index, specs,
                              steps=60, seed=0, batch_size=8, lr=1e-3,
                              weight_decay=0.0, sampler="cdts",
                              out_dir=str(tmp_path / "run"), ckpt_every=60)
    losses = [v for _, v in trace]
    assert len(losses) == 60
    assert np.mean(losses[-10:]) < np.mean(losses[:10])
    assert all(np.isfinite(losses))


def test_train_writes_loss_csv_and_checkpoints(tmp_path):
    cfg, params, sched, data_dir, index, specs = _toy_pipeline(tmp_path, 6)
    out = tmp_path / "run"
    training.train(params, cfg, sched, data_dir, index, specs,
                   steps=10, seed=0, batch_size=4, lr=1e-3, weight_decay=0.0,
                   sampler="cdts", out_dir=str(out), ckpt_every=5)
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == list(range(10))
    assert (out / "ckpt_0000005.olck").exists()
    assert (out / "ckpt_0000010.olck").exists()
    assert not list(out.glob("*.meta.json"))
    _, meta = read_checkpoint(str(out / "ckpt_0000005.olck"))
    assert meta["step"] == 5


def test_train_resume_bit_identical(tmp_path):
    cfg, params, sched, data_dir, index, specs = _toy_pipeline(tmp_path, 6)
    out_full = tmp_path / "full"
    _, full_trace = training.train(params, cfg, sched, data_dir, index, specs,
                                   steps=20, seed=0, batch_size=4, lr=1e-3,
                                   weight_decay=0.0, sampler="cdts",
                                   out_dir=str(out_full), ckpt_every=10)

    cfg2, params2, sched2, _, _, _ = _toy_pipeline(tmp_path, 6)
    _, resumed_trace = training.train(
        params2, cfg2, sched2, data_dir, index, specs, steps=20, seed=123,
        batch_size=4, lr=1e-3, weight_decay=0.0, sampler="cdts",
        out_dir=str(tmp_path / "resumed"), ckpt_every=10,
        resume_from=str(out_full / "ckpt_0000010.olck"))
    tail_full = [(s, v) for s, v in full_trace if s >= 10]
    assert resumed_trace == tail_full
    for name in params:
        np.testing.assert_array_equal(params2[name].data, params[name].data)


def test_trim_trace_keeps_complete_rows_below_the_step(tmp_path):
    path = tmp_path / "loss.csv"
    rows = [f"{i},{1.0 - 0.1 * i:.8e}\n" for i in range(5)]
    path.write_text("step,loss\n" + "".join(rows) + "5,5.0e")  # a torn row
    training._trim_trace(str(path), 6)
    assert path.read_text() == "step,loss\n" + "".join(rows)
    training._trim_trace(str(path), 3)
    assert path.read_text() == "step,loss\n" + "".join(rows[:3])
    assert [p.name for p in tmp_path.iterdir()] == ["loss.csv"]


def test_train_keeps_one_tape_at_a_time(tmp_path):
    # tracemalloc counts numpy buffers. If a step's tape outlived the step,
    # the next forward pass would build its graph beside it and a 3-step
    # run would peak at about 1.6 times a 1-step run.
    cfg, params, sched, data_dir, index, specs = _toy_pipeline(tmp_path, 2)

    def traced_peak(steps):
        tracemalloc.start()
        try:
            training.train(params, cfg, sched, data_dir, index, specs,
                           steps=steps, seed=0, batch_size=2, lr=1e-3,
                           weight_decay=0.0, sampler="cdts",
                           out_dir=str(tmp_path / f"run{steps}"),
                           ckpt_every=steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = traced_peak(1)
    assert traced_peak(3) <= 1.15 * one


def _buffer(a):
    """The array that owns the memory `a` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_held_bytes(loss):
    """(bytes that backward closures hold beyond every tape tensor's data,
    bytes of the nodes' outputs), each buffer counted once."""
    order = ad._toposort(loss)
    tensors = {id(t): t for n in order for t in (n, *n._parents)}
    data = {id(_buffer(t.data)) for t in tensors.values()}
    outputs = {id(_buffer(n.data)): _buffer(n.data).nbytes for n in order}
    held = {}
    for node in order:
        for cell in node._backward.__closure__ or ():
            value = cell.cell_contents
            items = value if isinstance(value, (list, tuple)) else (value,)
            for a in items:
                if isinstance(a, np.ndarray) and id(_buffer(a)) not in data:
                    held[id(_buffer(a))] = _buffer(a).nbytes
    return sum(held.values()), sum(outputs.values())


def test_backward_closures_keep_little_beyond_the_tape():
    # One toy training forward pass: what the closures keep besides the
    # tensors' own data (layer norm's mean and inverse deviation) is a few
    # percent of the tape. Keeping conv's padded input, layer norm's xhat
    # and SiLU's gate made it about half.
    cfg = TOY_DENOISER_CONFIG
    params = init_denoiser(cfg, np.random.default_rng(0), dtype=np.float32)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, (8, 2, 16, 64)).astype(np.float32)
    zc = rng.standard_normal((8, cfg.token_count, cfg.cond_dim)).astype(
        np.float32)
    dom = np.arange(8) % cfg.num_domains
    loss = diffusion.diffusion_loss(params, cfg, diffusion.cosine_schedule(64),
                                    x0, zc, dom, rng)
    held, outputs = _closure_held_bytes(loss)
    assert 0 < held <= 0.05 * outputs


def test_train_bit_identical_with_reference_kernels(tmp_path, monkeypatch):
    # A fast guard for kernel and closure rewrites: five toy steps with the
    # shipped convolution, upsampling, SiLU and layer norm must give the
    # same loss bits and parameter bytes as the conftest references (the
    # plain conv lowering, and closures that keep the gate and xhat, with
    # the fused norm-SiLU op as the reference SiLU of the reference norm).
    # The shipped side runs twice: as shipped, where no toy array reaches
    # the tile floor, and with the floor lowered so that the memory-bound
    # ops run in tiles.
    def run(name):
        cfg, params, sched, data_dir, index, specs = _toy_pipeline(
            tmp_path / name, 2)
        _, trace = training.train(params, cfg, sched, data_dir, index, specs,
                                  steps=5, seed=0, batch_size=4, lr=1e-3,
                                  weight_decay=0.0, sampler="cdts",
                                  out_dir=str(tmp_path / name / "run"),
                                  ckpt_every=5)
        return ([float.hex(v) for _, v in trace],
                {n: p.data.tobytes() for n, p in params.items()})

    shipped = run("shipped")
    tiles = []
    each_tile = ad._each_tile

    def counted_tiles(fn, arrays, axis, nbytes):
        tiles.append(nbytes >= ad._TILE_BYTES)
        return each_tile(fn, arrays, axis, nbytes)

    monkeypatch.setattr(ad, "_each_tile", counted_tiles)
    monkeypatch.setattr(ad, "_TILE_BYTES", 4096)
    assert run("tiled") == shipped
    assert sum(tiles) > 100
    monkeypatch.undo()
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ad, "conv2d", counted(conv2d_reference))
    monkeypatch.setattr(ad, "upsample2x", counted(upsample2x_reference))
    monkeypatch.setattr(ad, "silu", counted(silu_reference))
    monkeypatch.setattr(ad, "layer_norm", counted(layer_norm_reference))
    assert run("reference") == shipped
    assert {"conv2d_reference", "upsample2x_reference", "silu_reference",
            "layer_norm_reference"} <= set(calls)


def test_wide_step_bit_identical_inline_tiled_and_blocked(monkeypatch):
    # One training forward and backward at paper widths on 32x256, batch 2:
    # the full-resolution activations reach the tile floor and the decoder's
    # convolutions split into blocks. All ops inline must give the loss and
    # gradient bits of the shipped tiles, at the shipped block limit and at
    # 4 MiB.
    cfg = DenoiserConfig(widths=(32, 64, 128), attn_stages=(2, 3),
                         cdfm_stages=(3,), num_domains=2)
    tiled, blocks = [], []
    each_tile, make_blocks = ad._each_tile, ad._blocks

    def count_tiles(fn, arrays, axis, nbytes):
        tiled.append(nbytes >= ad._TILE_BYTES)
        return each_tile(fn, arrays, axis, nbytes)

    def count_blocks(*args):
        blocks.append(list(make_blocks(*args)))
        return iter(blocks[-1])

    monkeypatch.setattr(ad, "_each_tile", count_tiles)
    monkeypatch.setattr(ad, "_blocks", count_blocks)

    def step(tile_bytes, block_bytes):
        monkeypatch.setattr(ad, "_TILE_BYTES", tile_bytes)
        monkeypatch.setattr(ad, "_BLOCK_BYTES", block_bytes)
        tiled.clear()
        blocks.clear()
        params = init_denoiser(cfg, np.random.default_rng(0), dtype=np.float32)
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-1.0, 1.0, (2, 2, 32, 256)).astype(np.float32)
        zc = rng.standard_normal((2, cfg.token_count, cfg.cond_dim)).astype(
            np.float32)
        loss = diffusion.diffusion_loss(params, cfg, diffusion.cosine_schedule(
            1024), x0, zc, np.array([0, 1]), rng)
        loss.backward()
        digest = hashlib.sha256()
        for name in sorted(params):
            digest.update(params[name].grad.tobytes())
        return float.hex(float(loss.data)), digest.hexdigest()

    floor = ad._TILE_BYTES
    inline = step(float("inf"), 16 << 20)
    assert not any(tiled) and any(len(b) > 1 for b in blocks)
    assert step(floor, 16 << 20) == inline
    assert sum(tiled) > 20
    assert step(floor, 4 << 20) == inline
    assert sum(tiled) > 20 and any(len(b) > 2 for b in blocks)


def test_clip_grads_scales_a_shared_gradient_once_per_parameter():
    grad = np.array([3.0, 4.0], dtype=np.float32)
    params = {name: ad.Tensor(np.zeros(2, np.float32), requires_grad=True)
              for name in ("a", "b")}
    for p in params.values():
        p.grad = grad  # one array, as autodiff._accum may store it
    training._clip_grads(params, 1.0)
    expect = grad * np.float32(1.0 / math.sqrt(50.0))
    for p in params.values():
        np.testing.assert_array_equal(p.grad, expect)
    np.testing.assert_array_equal(grad, [3.0, 4.0])


def test_train_unknown_sampler_rejected(tmp_path):
    cfg, params, sched, data_dir, index, specs = _toy_pipeline(tmp_path, 4)
    with pytest.raises(ConfigError):
        training.train(params, cfg, sched, data_dir, index, specs,
                       steps=1, seed=0, batch_size=4, lr=1e-3,
                       weight_decay=0.0, sampler="bogus",
                       out_dir=str(tmp_path / "run"), ckpt_every=1)


def test_checkpoint_meta_roundtrip(tmp_path):
    cfg, params, sched, data_dir, index, specs = _toy_pipeline(tmp_path, 4)
    opt, _ = training.train(params, cfg, sched, data_dir, index, specs,
                            steps=3, seed=0, batch_size=4, lr=1e-3,
                            weight_decay=0.01, sampler="cdts",
                            out_dir=str(tmp_path / "run"), ckpt_every=3)
    path = str(tmp_path / "state.olck")
    training.save_training_checkpoint(path, params, opt, 3, 0)
    cfg2 = TOY_DENOISER_CONFIG
    params2 = init_denoiser(cfg2, np.random.default_rng(99), dtype=np.float32)
    opt2 = AdamW(lr=0.0, weight_decay=0.0)
    meta = training.load_training_checkpoint(path, params2, opt2)
    assert meta["step"] == 3 and meta["seed"] == 0
    assert opt2.step_count == opt.step_count
    assert opt2.lr == opt.lr and opt2.weight_decay == opt.weight_decay
    for name in params:
        np.testing.assert_array_equal(params2[name].data, params[name].data)
    for name in opt.m:
        np.testing.assert_array_equal(opt2.m[name], opt.m[name])
        np.testing.assert_array_equal(opt2.v[name], opt.v[name])


def _saved_state(tmp_path):
    """A 2-step toy run's checkpoint: (path, buffers, meta)."""
    cfg, params, sched, data_dir, index, specs = _toy_pipeline(tmp_path, 4)
    opt, _ = training.train(params, cfg, sched, data_dir, index, specs,
                            steps=2, seed=0, batch_size=2, lr=1e-3,
                            weight_decay=0.0, sampler="cdts",
                            out_dir=str(tmp_path / "run"), ckpt_every=2)
    path = str(tmp_path / "state.olck")
    training.save_training_checkpoint(path, params, opt, 2, 0)
    return (path,) + read_checkpoint(path)


def _fresh_params():
    return init_denoiser(TOY_DENOISER_CONFIG,
                         np.random.default_rng(1), dtype=np.float32)


@pytest.mark.parametrize("damage", ["missing_key", "param", "param_same_size",
                                    "moment", "missing_buffer"])
def test_load_rejects_damaged_checkpoint(tmp_path, damage):
    path, buffers, meta = _saved_state(tmp_path)
    name = next(n for n, arr in buffers.items()
                if arr.ndim == 4 and not n.startswith("opt."))
    arr = buffers[name]
    if damage == "missing_key":
        del meta["opt_step"]
        name = "opt_step"
    elif damage == "param":
        buffers[name] = arr[:1]
    elif damage == "param_same_size":
        buffers[name] = arr.reshape(arr.shape[::-1])
    elif damage == "moment":
        buffers["opt.v:" + name] = arr[:1]
    else:
        del buffers[name]
    write_checkpoint(path, buffers, meta)
    params = _fresh_params()
    before = {n: p.data.copy() for n, p in params.items()}
    with pytest.raises(ConfigError, match=name):
        training.load_training_checkpoint(
            path, params, AdamW(lr=0.0, weight_decay=0.0))
    for n, p in params.items():
        np.testing.assert_array_equal(p.data, before[n])
