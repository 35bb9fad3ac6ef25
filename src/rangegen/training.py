"""Batch samplers, the training loop, and resumable checkpointing.

Two sampling strategies: mixed-domain batches drawn i.i.d. from the
pooled training set (the default), and the batch-homogeneous baseline
where every mini-batch holds a single domain. Both are pure functions
of (index, batch size, seed, step), which also makes resumption
bit-identical: all randomness is keyed by (seed, step), and a run resumes
only under the values its checkpoint records. Every run first trims the
loss trace to the rows below its start step, then appends one per step.
"""

import itertools
import json
import os

import numpy as np

from . import conditioning, diffusion
from .checkpoint import _replacing, read_checkpoint, write_checkpoint
from .errors import ConfigError, TrainingError
from .forge import sample_prompt
from .geometry import normalize, read_olri
from .optim import AdamW


def _step_rng(seed, step, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(step),
                                                         int(stream)]))


def _batch_plans(index, specs, batch_size, seed, start_step, by_domain):
    """The step loop of both samplers. Each step's rng picks a domain when
    `by_domain` (uniformly, in sorted order), then `batch_size` records
    uniformly from that domain's train split, or from the whole split,
    then one prompt per record from its domain's pool."""
    if batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    train = index.split("train")
    if not train:
        raise ConfigError("empty train split")
    if by_domain:
        by_dom = {}
        for rec in train:
            by_dom.setdefault(rec[1], []).append(rec)
        pools = [by_dom[dom] for dom in sorted(by_dom)]
    by_id = {s.id: s for s in specs}
    for step in itertools.count(start_step):
        rng = _step_rng(seed, step, 0)
        recs = pools[int(rng.integers(len(pools)))] if by_domain else train
        picks = [recs[i] for i in rng.integers(0, len(recs), size=batch_size)]
        yield [(rel, dom, sample_prompt(by_id[dom], "train", rng))
               for rel, dom, _ in picks]


def cdts_batches(index, specs, batch_size, seed, start_step=0):
    """Mixed-domain batch plans: records i.i.d. uniform over the pooled
    train split, prompts drawn per record from the domain pool."""
    yield from _batch_plans(index, specs, batch_size, seed, start_step, False)


def homogeneous_batches(index, specs, batch_size, seed, start_step=0):
    """Single-domain batch plans: a uniform domain pick, then records
    uniform within that domain's train split."""
    yield from _batch_plans(index, specs, batch_size, seed, start_step, True)


SAMPLERS = {"cdts": cdts_batches, "homogeneous": homogeneous_batches}


class ScanCache:
    """Normalized-scan and prompt-embedding cache for the training loop."""

    def __init__(self, data_dir, config):
        self.data_dir = data_dir
        self.config = config
        self.scans = {}
        self.prompts = {}

    def scan(self, rel):
        if rel not in self.scans:
            img = read_olri(os.path.join(self.data_dir, rel))
            self.scans[rel] = normalize(img).astype(np.float32)
        return self.scans[rel]

    def prompt(self, text):
        if text not in self.prompts:
            emb = conditioning.embed_prompt(
                text, self.config.token_count, self.config.cond_dim)
            self.prompts[text] = emb.astype(np.float32)
        return self.prompts[text]


def assemble_batch(plan, cache, dom_to_idx):
    x0 = np.stack([cache.scan(rel) for rel, _, _ in plan])
    zc = np.stack([cache.prompt(prompt) for _, _, prompt in plan])
    dom = np.array([dom_to_idx[d] for _, d, _ in plan], dtype=np.int64)
    return x0, zc, dom


def save_training_checkpoint(path, params, opt, step, run):
    buffers = {name: p.data for name, p in params.items()}
    buffers.update(opt.state_buffers())
    meta = {"step": step, "opt_step": opt.step_count, **run}
    write_checkpoint(path, buffers, meta)


def _load_params(path, buffers, params):
    """Copy each parameter's buffer into `params`, or raise ConfigError and
    copy nothing if one is missing or a shape differs, moments included."""
    for name, p in params.items():
        if name not in buffers:
            raise ConfigError(f"checkpoint {path} missing buffer {name!r}")
        for key in (name, "opt.m:" + name, "opt.v:" + name):
            if key in buffers and buffers[key].shape != p.data.shape:
                raise ConfigError(
                    f"checkpoint {path}: buffer {key!r} has shape "
                    f"{buffers[key].shape}, the model needs {p.data.shape}")
    for name, p in params.items():
        p.data = buffers[name].astype(p.data.dtype)


def load_training_checkpoint(path, params, opt, run):
    """Load `path` into `params` and `opt` if it records `run`, as JSON."""
    buffers, meta = read_checkpoint(path)
    missing = {"step", "opt_step", *run} - meta.keys()
    if missing:
        raise ConfigError(f"checkpoint {path} metadata lacks {sorted(missing)}")
    for key in ("step", "opt_step"):
        if type(meta[key]) is not int or meta[key] < 0:
            raise ConfigError(f"{path}: metadata {key!r} must be a "
                              f"non-negative integer, got {meta[key]!r}")
    for key, value in run.items():
        ours, theirs = json.dumps(value), json.dumps(meta[key])
        if ours != theirs:
            raise ConfigError(f"{path}: config key {key!r} is {ours}, the "
                              f"checkpoint's is {theirs}")
    _load_params(path, buffers, params)
    opt.load_state_buffers(buffers, meta["opt_step"])
    return meta


def _trim_trace(path, step):
    """Rewrite the loss trace at `path` to its header and its complete rows
    below `step`, none for a fresh run (step 0) or a missing file, so that
    the run appends each later step once."""
    try:
        with open(path, "rb") as f:
            rows = f.read().splitlines(keepends=True)
    except FileNotFoundError:
        rows = []
    with _replacing(path) as f:
        f.write(b"step,loss\n")
        for row in rows[1:]:
            head = row.split(b",", 1)[0]
            if row.endswith(b"\n") and head.isdigit() and int(head) < step:
                f.write(row)


def train(params, config, schedule, data_dir, index, specs, steps, seed,
          batch_size, lr, weight_decay, sampler, out_dir, ckpt_every,
          resume_from=None, grad_clip=None, log_every=50, log_fn=None,
          run=None):
    """Run the diffusion training loop; returns (optimizer, loss trace).

    The trace is a list of (step, loss), also written to out_dir/loss.csv.
    Every `ckpt_every` steps and after the last, a checkpoint in out_dir
    records the step and the run's values: `run` (config values) with
    `seed`, `lr` and `weight_decay`. Resuming needs equal values and
    continues the trace bit-identically: RNG streams are keyed by step.
    """
    if sampler not in SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r}")
    dom_to_idx = {s.id: i for i, s in enumerate(specs)}
    unknown = sorted({dom for _, dom, _ in index.records} - set(dom_to_idx))
    if unknown:
        raise ConfigError(
            f"{data_dir}: the corpus holds domains {', '.join(unknown)} that "
            f"the config lacks (it has {', '.join(dom_to_idx)})")
    run = {**(run or {}), "seed": seed, "lr": lr, "weight_decay": weight_decay}
    opt = AdamW(lr=lr, weight_decay=weight_decay)
    start_step = 0
    if resume_from is not None:
        start_step = load_training_checkpoint(
            resume_from, params, opt, run)["step"]
        if steps < start_step:
            raise ConfigError(f"cannot train to step {steps}: {resume_from} "
                              f"is already at step {start_step}")
    cache = ScanCache(data_dir, config)
    batches = SAMPLERS[sampler](index, specs, batch_size, seed,
                                start_step=start_step)
    trace = []
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "loss.csv")
    _trim_trace(trace_path, start_step)
    with open(trace_path, "a", newline="\n") as trace_f:
        for step in range(start_step, steps):
            plan = next(batches)
            x0, zc, dom = assemble_batch(plan, cache, dom_to_idx)
            rng = _step_rng(seed, step, 1)
            try:
                loss = diffusion.diffusion_loss(
                    params, config, schedule, x0, zc, dom, rng)
            except TrainingError as exc:
                raise TrainingError(
                    f"step {step}: {exc}; batch records "
                    f"{[rel for rel, _, _ in plan]}") from exc
            opt.zero_grad(params)
            loss.backward()
            if grad_clip:
                _clip_grads(params, grad_clip)
            opt.step(params)
            value = float(loss.data)
            trace.append((step, value))
            trace_f.write(f"{step},{value:.8e}\n")
            if log_fn and (step % log_every == 0 or step == steps - 1):
                log_fn(step, value)
            if (step + 1) % ckpt_every == 0 or step == steps - 1:
                save_training_checkpoint(
                    os.path.join(out_dir, f"ckpt_{step + 1:07d}.olck"),
                    params, opt, step + 1, run)
            # Drop this step's tape before the next forward pass builds one,
            # so two graphs never share the memory peak.
            del loss
    return opt, trace


def _clip_grads(params, max_norm):
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        # Out of place: a stored gradient may be shared (autodiff._accum).
        scale = np.float32(max_norm / norm)
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
