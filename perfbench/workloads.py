"""The four benchmark workloads.

Each workload is a closed loop: one client in one process that waits for
each operation to finish before it starts the next. `setup` builds the
inputs from the seed into a fresh directory; `op` runs one unit of work
and records its latency and output checks in a `Tally`; `finish` runs
the work that needs the whole run's output (the final evals).

Operation failures (an exception, a non-zero exit, a failed output
check) are counted, not raised, so one bad operation does not hide the
rest of the run. The Beam32 mixed-batch `ValueError` in `paper-data` is
a known defect of the program and is counted on its own.
"""

import contextlib
import io
import json
import math
import os
import shutil
import struct
import sys
import time

import numpy as np

import scenes
from rangegen import cli, diffusion, forge, geometry, metrics, toy, training
from rangegen.denoiser import init_denoiser

clock = time.perf_counter

# MMD is a difference of kernel means, so rounding leaves it within a few
# ulps of 0 for a set against itself: numpy computes x @ x.T with a
# symmetric BLAS routine and x @ y.T with a general one. The acceptance
# tests allow 1e-9.
MMD_TOLERANCE = 1e-12


class Tally:
    """What one measured phase did: operation latencies, work and checks."""

    def __init__(self):
        self.op_s = []          # latency of each primary operation
        self.items = 0          # work items (samples, scans) done by them
        self.item_s = 0.0       # time spent on those items
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0  # Beam32 mixed-batch ValueErrors
        self.quality = None
        self.extra = {}         # per-command figures: name -> list
        self.notes = {}         # other figures to print: name -> value

    def fail(self, what, n=1):
        self.failed += n
        print(f"perfbench: failed: {what}", file=sys.stderr)

    def time(self, name, seconds):
        self.extra.setdefault(name, []).append(seconds)


def _cli(argv):
    """Run one CLI command with its output captured; returns (code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _write_config(path, values):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for key, value in values.items():
            f.write(f"{key} = {value}\n")
    return path


def _eval(gen, ref, out, tally):
    """One `eval` command; returns (jsd, mmd) or None when it failed."""
    os.makedirs(out, exist_ok=True)
    tally.attempted += 1
    t0 = clock()
    code, err = _cli(["eval", "--generated", gen, "--reference", ref, "--out", out])
    tally.time("eval", clock() - t0)
    if code != 0:
        tally.fail(f"eval {gen}: exit {code}: {err}")
        return None
    with open(os.path.join(out, "metrics.csv")) as f:
        row = f.read().splitlines()[1].split(",")
    jsd, mmd = float(row[3]), float(row[4])
    if not 0.0 <= jsd <= 1.0 or not mmd >= -MMD_TOLERANCE:
        tally.fail(f"eval {gen}: JSD {jsd} outside [0, 1] or MMD {mmd} < 0")
        return None
    if gen == ref and (jsd != 0.0 or abs(mmd) > MMD_TOLERANCE):
        tally.fail(f"eval {gen} against itself: JSD {jsd}, MMD {mmd}")
        return None
    tally.extra.setdefault("eval_scans", []).append(
        sum(name.endswith(".olri") for d in (gen, ref) for name in os.listdir(d)))
    return jsd, mmd


def _toy_corpus(data_dir, scans, seed):
    """What `build-data --toy` does, with the corpus seed apart from the
    config seed, so the model and training seed stay fixed."""
    base = toy.make_toy_corpus(data_dir, scans, seed)
    forge.build_dataset(base, toy.toy_domain_specs(), data_dir, seed)


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

class _Train:
    """Repeated fixed-length training runs through `training.train`.

    Each operation is one run of `steps` steps from a fresh model, with
    the arguments `cli.cmd_train` builds from the config. Every run of a
    process uses the same config seed, so each must reproduce the first
    run's loss trace bit for bit. Step latency is the time between
    consecutive `log_fn` calls; checkpoint writes land in the step that
    triggers them.
    """

    steps = 0
    warmup_steps = 0
    name = ""
    per_item = False  # per-layer figures are per step

    def config(self, work):
        raise NotImplementedError

    def make_corpus(self, cfg, seed):
        raise NotImplementedError

    def setup(self, work, seed):
        path = _write_config(os.path.join(work, "run.cfg"), self.config(work))
        cfg = cli.parse_config(path)
        self.make_corpus(cfg, seed)
        specs = [s for s in cli.domain_specs_from_config(cfg)
                 if s.id in self.domains]
        state = {
            "cfg": cfg, "specs": specs,
            "index": forge.DatasetIndex.load(
                os.path.join(cfg.data_dir, "index.tsv")),
            "dconf": cli.denoiser_config_from(cfg, len(specs)),
            "schedule": diffusion.cosine_schedule(cfg.schedule_t),
            "reference": None,
        }
        self._train(state, self.warmup_steps, contextlib.nullcontext())
        return state

    def _train(self, state, steps, root):
        cfg = state["cfg"]
        params = init_denoiser(state["dconf"], np.random.default_rng(cfg.seed),
                               dtype=np.float32)
        stamps = []
        t0 = clock()
        with root:
            _, trace = training.train(
                params, state["dconf"], state["schedule"], cfg.data_dir,
                state["index"], state["specs"], steps=steps, seed=cfg.seed,
                batch_size=cfg.batch_size, lr=cfg.lr,
                weight_decay=cfg.weight_decay, sampler=cfg.sampler,
                out_dir=cfg.out_dir, ckpt_every=cfg.ckpt_every,
                grad_clip=cfg.grad_clip or None, log_every=1,
                log_fn=lambda step, value: stamps.append(clock()))
        t1 = clock()
        bounds = [t0] + stamps
        step_s = [b - a for a, b in zip(bounds, bounds[1:])]
        step_s[-1] += t1 - stamps[-1]  # the final checkpoint write
        return step_s, [value for _, value in trace]

    def op(self, state, tally, root):
        cfg = state["cfg"]
        tally.attempted += self.steps
        try:
            step_s, losses = self._train(state, self.steps, root)
        except Exception as exc:  # counted, the run goes on
            tally.fail(f"{self.name} training run: {exc!r}", self.steps)
            return
        ref = state["reference"]
        if ref is None:
            ref = state["reference"] = losses
        for step, (value, expected) in enumerate(zip(losses, ref)):
            if not math.isfinite(value) or value != expected:
                tally.fail(f"step {step}: loss {value!r}, first run {expected!r}")
        tally.op_s.extend(step_s)
        tally.items += cfg.batch_size * len(step_s)
        tally.item_s += sum(step_s)
        tally.quality = losses[-1]

    def finish(self, state, tally):
        pass


class ToyTrain(_Train):
    name = "toy-train"
    domains = ("ToyNear", "ToyFar")
    steps = 20
    warmup_steps = 2

    def config(self, work):
        return {"toy": "true", "seed": 0, "sampler": "cdts", "ckpt_every": 5,
                "data_dir": os.path.join(work, "data"),
                "out_dir": os.path.join(work, "run")}

    def make_corpus(self, cfg, seed):
        _toy_corpus(cfg.data_dir, cfg.toy_scans, seed)


class WideTrain(_Train):
    name = "wide-train"
    domains = ("Vehicle", "Snow")
    steps = 3
    warmup_steps = 1
    base_scans = 12

    def config(self, work):
        return {"seed": 0, "image_height": 64, "image_width": 256,
                "schedule_t": 1024, "batch_size": 2, "sampler": "cdts",
                "widths": "32,64,128", "attn_stages": "2,3",
                "cdfm_stages": "3", "ckpt_every": self.steps,
                "data_dir": os.path.join(work, "data"),
                "out_dir": os.path.join(work, "run")}

    def make_corpus(self, cfg, seed):
        sensor = cli.sensor_from_config(cfg)
        base_dir = os.path.join(os.path.dirname(cfg.data_dir), "base")
        _, entries = scenes.write_base_corpus(base_dir, "vehicle", sensor,
                                              self.base_scans, seed)
        specs = [s for s in forge.default_domain_specs(sensor)
                 if s.id in self.domains]
        forge.build_dataset({"vehicle": entries}, specs, cfg.data_dir, seed)


# ---------------------------------------------------------------------------
# Sampling workload
# ---------------------------------------------------------------------------

class ToySample:
    """`sample` commands at 64 steps from a short toy training run.

    Commands alternate between the two toy domains, each with its own
    sampler seed, and draw `count` scans each. The final `eval` scores a
    set fixed by the seed (see `finish`), so the JSD does not depend on
    how many commands fit in the run.
    """

    name = "toy-sample"
    per_item = True  # per-layer figures are per sampled scan
    train_steps = 8
    count = 1
    sampler_steps = 64
    eval_scans = 2
    max_extra = 8  # sample commands finish() may add to reach eval_scans

    def setup(self, work, seed):
        data = os.path.join(work, "data")
        cfg = _write_config(os.path.join(work, "run.cfg"), {
            "toy": "true", "seed": 0, "data_dir": data,
            "out_dir": os.path.join(work, "run"),
            "train_steps": self.train_steps, "ckpt_every": self.train_steps})
        _toy_corpus(data, cli.parse_config(cfg).toy_scans, seed)
        code, err = _cli(["train", "--config", cfg])
        if code != 0:
            raise RuntimeError(f"setup training: exit {code}: {err}")
        state = {"cfg": cfg, "data": data, "seed": seed, "n": 0, "near": [],
                 "ckpt": os.path.join(work, "run", "ckpt_final.olck"),
                 "gen": os.path.join(work, "gen"),
                 "evals": os.path.join(work, "eval"),
                 "warm": os.path.join(work, "warm")}
        code, err = self._sample(state, "ToyNear", seed, 1, 2, state["warm"])
        if code != 0:
            raise RuntimeError(f"setup sampling: exit {code}: {err}")
        return state

    def _sample(self, state, domain, seed, count, steps, out):
        return _cli(["sample", "--config", state["cfg"], "--checkpoint",
                     state["ckpt"], "--domain", domain, "--count", str(count),
                     "--steps", str(steps), "--seed", str(seed), "--out", out])

    def op(self, state, tally, root, domain=None):
        k = state["n"]
        state["n"] += 1
        domain = domain or ("ToyNear", "ToyFar")[k % 2]
        seed = state["seed"] * 1000 + k
        out = os.path.join(state["gen"], domain)
        tally.attempted += 1
        t0 = clock()
        with root:
            code, err = self._sample(state, domain, seed, self.count,
                                     self.sampler_steps, out)
        dt = clock() - t0
        if code != 0:
            tally.fail(f"sample {domain} seed {seed}: exit {code}: {err}")
            return
        sensor = toy.TOY_SENSOR
        for i in range(self.count):
            path = os.path.join(out, f"{domain}_s{seed}_{i:04d}.olri")
            x = geometry.normalize(geometry.read_olri(path))
            if x.shape != (2, sensor.height, sensor.width) or not (
                    np.all(x >= -1.0) and np.all(x <= 1.0)):
                tally.fail(f"sample {domain} seed {seed} #{i}: shape "
                           f"{x.shape}, range [{x.min()}, {x.max()}]")
                return
            if domain == "ToyNear":
                state["near"].append(path)
        tally.op_s.append(dt)
        tally.items += self.count
        tally.item_s += dt

    def finish(self, state, tally):
        """Eval the first `eval_scans` ToyNear scans with points inside the
        BEV extent. `eval` rejects a set holding a scan without any, and a
        briefly trained model draws some of those."""
        chosen = os.path.join(state["evals"], "set")
        os.makedirs(chosen, exist_ok=True)
        picked = extra = 0
        while picked < self.eval_scans:
            if not state["near"]:
                if extra == self.max_extra:
                    tally.fail("too few ToyNear scans inside the BEV extent")
                    return
                extra += 1
                self.op(state, tally, contextlib.nullcontext(), "ToyNear")
                continue
            path = state["near"].pop(0)
            img = geometry.read_olri(path)
            if not metrics.bev_histogram(geometry.unproject(img)).empty:
                shutil.copy(path, chosen)
                picked += 1
        ref = os.path.join(state["data"], "ToyNear")
        scores = _eval(chosen, ref, os.path.join(state["evals"], "gen"), tally)
        _eval(ref, ref, os.path.join(state["evals"], "self"), tally)
        if scores is not None:
            # The JSD of a briefly trained model sits at its ceiling of 1,
            # where it cannot show a change; the MMD still moves.
            tally.notes["sample_jsd"] = scores[0]
            tally.quality = scores[1]


# ---------------------------------------------------------------------------
# Data workload
# ---------------------------------------------------------------------------

class PaperData:
    """The eight-domain corpus at paper resolution, without autodiff.

    One operation is a round: `build-data` for all eight domains, cold
    `cdts` batch plans over them, then `eval` of every domain against
    Vehicle. Batch plans come from a fixed seed, so each round meets the
    Beam32 defect (a batch mixing 32- and 64-row scans cannot be stacked)
    equally often.
    """

    name = "paper-data"
    per_item = False  # per-layer figures are per round
    base_scans = 12
    batch_size = 8
    plans = 8

    def setup(self, work, seed):
        sensor = geometry.DEFAULT_SENSOR
        values = {"seed": seed, "data_dir": os.path.join(work, "data")}
        for platform in scenes.PLATFORMS:
            values[f"base_{platform}_index"], _ = scenes.write_base_corpus(
                os.path.join(work, "base", platform), platform, sensor,
                self.base_scans, seed)
        cfg_path = _write_config(os.path.join(work, "run.cfg"), values)
        cfg = cli.parse_config(cfg_path)
        specs = cli.domain_specs_from_config(cfg)
        return {"cfg_path": cfg_path, "cfg": cfg, "specs": specs,
                "dconf": cli.denoiser_config_from(cfg, len(specs)),
                "evals": os.path.join(work, "eval")}

    def _build(self, state, tally):
        cfg = state["cfg"]
        tally.attempted += 1
        t0 = clock()
        code, err = _cli(["build-data", "--config", state["cfg_path"]])
        dt = clock() - t0
        if code != 0:
            tally.fail(f"build-data: exit {code}: {err}")
            return False
        with open(os.path.join(cfg.data_dir, "summary.json")) as f:
            counts = json.load(f)["counts"]
        want = {s.id: self.base_scans for s in state["specs"]}
        if counts != want:
            tally.fail(f"build-data wrote {counts}, expected {want}")
            return False
        for dom in want:
            rows = cfg.image_height // 2 if dom == "Beam32" else cfg.image_height
            dom_dir = os.path.join(cfg.data_dir, dom)
            for name in os.listdir(dom_dir):
                with open(os.path.join(dom_dir, name), "rb") as f:
                    height = struct.unpack("<HI", f.read(10)[4:10])[1]
                if height != rows:
                    tally.fail(f"{dom}/{name}: {height} rows, expected {rows}")
                    return False
        tally.time("build", dt)
        tally.items += sum(counts.values())
        tally.item_s += dt
        return True

    def _batches(self, state, tally):
        cfg = state["cfg"]
        index = forge.DatasetIndex.load(os.path.join(cfg.data_dir, "index.tsv"))
        dom_to_idx = {s.id: i for i, s in enumerate(state["specs"])}
        cache = training.ScanCache(cfg.data_dir, state["dconf"])
        plans = training.cdts_batches(index, state["specs"], self.batch_size, 0)
        for _ in range(self.plans):
            tally.attempted += 1
            t0 = clock()
            try:
                x0, _, _ = training.assemble_batch(next(plans), cache, dom_to_idx)
            except ValueError as exc:
                if "same shape" not in str(exc):
                    tally.fail(f"assemble_batch: {exc!r}")
                else:
                    tally.known_defects += 1
                continue
            finally:
                tally.time("batch", clock() - t0)
            shape = (self.batch_size, 2, cfg.image_height, cfg.image_width)
            if x0.shape != shape or not (np.all(x0 >= -1) and np.all(x0 <= 1)):
                tally.fail(f"batch of shape {x0.shape}, expected {shape}")

    def op(self, state, tally, root):
        cfg = state["cfg"]
        # Each round builds a fresh corpus, as a first `build-data` does.
        # Overwriting the last round's files instead would time the
        # writeback of their dirty pages, which varies with the disk.
        shutil.rmtree(cfg.data_dir, ignore_errors=True)
        t0 = clock()
        with root:
            built = self._build(state, tally)
            if built:
                self._batches(state, tally)
                ref = os.path.join(cfg.data_dir, "Vehicle")
                jsds = []
                for spec in state["specs"]:
                    scores = _eval(os.path.join(cfg.data_dir, spec.id), ref,
                                   os.path.join(state["evals"], spec.id), tally)
                    if scores is not None and spec.id != "Vehicle":
                        jsds.append(scores[0])
        if built:
            tally.op_s.append(clock() - t0)
            if len(jsds) == len(state["specs"]) - 1:
                tally.quality = float(np.mean(jsds))

    def finish(self, state, tally):
        pass


WORKLOADS = {w.name: w for w in (ToyTrain, WideTrain, ToySample, PaperData)}
