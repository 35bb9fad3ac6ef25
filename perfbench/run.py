#!/usr/bin/env python3
"""rangegen benchmark: train, sample and data stages, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run sets the workload up three or more times (the median is
`setup_s`), then loops its operation for `--seconds`. With `--trace 0` it prints the
end-to-end metrics. With `--trace 1` it loops untraced for half the time,
installs the span tracer, loops traced for the other half, and prints
the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--workload all`
runs every workload, each in its own process.

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans

WORKLOADS = ("toy-train", "wide-train", "toy-sample", "paper-data")
# Set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) while
# the set-ups so far took under SETUP_SECONDS; setup_s is their median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 2.0
ROOT_SPAN = "bench.op"

END_TO_END = {  # name -> unit
    "setup_s": "s", "op_ms_p50": "ms", "items_per_s": "1/s", "quality": "1",
    "peak_rss_mb": "MB",
}

# The stage names the human-readable lines use for the generic metrics.
READABLE = {
    "toy-train": {"op": "train_step_ms", "items_per_s": "train_samples_per_s",
                  "quality": "train_loss_final"},
    "wide-train": {"op": "train_step_ms", "items_per_s": "train_samples_per_s",
                   "quality": "train_loss_final"},
    "toy-sample": {"op": "sample_cmd_ms", "items_per_s": "sample_scans_per_s",
                   "quality": "sample_mmd"},
    "paper-data": {"op": "data_round_ms", "items_per_s": "build_scans_per_s",
                   "quality": "domain_jsd_vs_vehicle"},
}

AUTODIFF_OPS = ("conv2d", "matmul", "add", "mul", "silu", "softplus", "exp",
                "power", "tsum", "reshape", "transpose", "concat",
                "upsample2x", "softmax", "recurrence")
LAYERS = spans.MODULES


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for op in AUTODIFF_OPS:
        out += [(f"autodiff.{op}.fwd_ms", "ms"), (f"autodiff.{op}.bwd_ms", "ms"),
                (f"autodiff.{op}.calls", "count")]
    out += [("autodiff.backward.self_ms", "ms"), ("autodiff.tape_nodes", "count"),
            ("backend.scan_forward.self_ms", "ms"),
            ("backend.scan_backward.self_ms", "ms"),
            ("denoiser.denoise.self_ms", "ms")]
    out += [(f"{n}.incl_ms", "ms") for n in (
        "denoiser.cdfm_block", "denoiser.selective_scan", "denoiser.channel_norm",
        "denoiser.dafs_modulate", "conditioning.cross_attention",
        "diffusion.diffusion_loss")]
    out += [("diffusion.ddpm_sample.self_ms", "ms"),
            ("optim.AdamW.step.self_ms", "ms"),
            ("training.assemble_batch.incl_ms", "ms"),
            ("training.assemble_batch.shape_errors", "count"),
            ("training.next_batch.self_ms", "ms"),
            ("training.scan_cache.hit_ratio", "ratio"),
            ("training.save_training_checkpoint.incl_ms", "ms")]
    for fn in ("checkpoint.write_checkpoint", "checkpoint.read_checkpoint"):
        out += [(f"{fn}.self_ms", "ms"), (f"{fn}.bytes", "bytes")]
    for fn in ("geometry.read_olri", "geometry.write_olri"):
        out += [(f"{fn}.self_ms", "ms"), (f"{fn}.bytes", "bytes"),
                (f"{fn}.calls", "count")]
    out += [(f"geometry.{fn}.self_ms", "ms")
            for fn in ("normalize", "denormalize", "unproject")]
    for fn in ("build_dataset", "corrupt", "reduce_beams"):
        out += [(f"forge.{fn}.self_ms", "ms"), (f"forge.{fn}.calls", "count")]
    out += [("metrics.bev_histogram.self_ms", "ms"),
            ("metrics.metric_report.self_ms", "ms"),
            ("conditioning.embed_prompt.self_ms", "ms"),
            ("conditioning.embed_prompt.calls", "count")]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += [("trace.overhead_frac", "ratio"), ("trace.coverage", "ratio")]
    return out


def percentile(values, q):
    """Linear-interpolated q-th percentile (q in [0, 100])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_rank(n):
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None


def environment(nproc):
    import numpy as np
    from rangegen import backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "nproc": nproc,
        "RANGEGEN_BACKEND": os.environ.get("RANGEGEN_BACKEND", "auto"),
        "USE_NUMBA": backend.USE_NUMBA, "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or the variable we set."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def measure(workload, state, seconds, root, tally):
    """Loop the workload's operation for `seconds`, recording into `tally`."""
    deadline = time.perf_counter() + seconds
    while True:
        workload.op(state, tally, root)
        if time.perf_counter() >= deadline:
            return tally


def layer_metrics(tracer, tally, per_item, overhead):
    """Per-layer figures from the traced phase, per step, scan or round."""
    rows, root_s = tracer.summary({ROOT_SPAN})
    units = tally.items if per_item else len(tally.op_s)

    def row(name):
        return rows.get(name, [0, 0.0, 0.0, 0.0])

    counts = tracer.counts
    m = {}
    for op in AUTODIFF_OPS:
        r = row(f"autodiff.{op}")
        m[f"autodiff.{op}.fwd_ms"] = r[3] * 1e3 / units
        m[f"autodiff.{op}.bwd_ms"] = row(f"autodiff.{op}.bwd")[1] * 1e3 / units
        m[f"autodiff.{op}.calls"] = r[0] / units
    m["autodiff.backward.self_ms"] = row("autodiff.backward")[2] * 1e3 / units
    m["autodiff.tape_nodes"] = counts.get("autodiff.tape_nodes", 0) / units
    lookups = counts.get("training.scan_cache.lookups", 0)
    m["training.scan_cache.hit_ratio"] = (
        counts.get("training.scan_cache.hits", 0) / lookups if lookups else 0.0)
    m["training.assemble_batch.shape_errors"] = tally.known_defects / units
    for name, unit in per_layer_names():
        if name in m:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "self_ms":
            m[name] = row(base)[2] * 1e3 / units
        elif kind == "incl_ms":
            m[name] = row(base)[1] * 1e3 / units
        elif kind == "calls":
            m[name] = row(base)[0] / units
        elif kind == "bytes":
            m[name] = counts.get(name, 0) / units
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(
            r[2] for n, r in rows.items() if n.split(".", 1)[0] == layer
        ) * 1e3 / units
    m["trace.overhead_frac"] = overhead
    m["trace.coverage"] = sum(r[2] for r in rows.values()) / sum(tally.op_s)
    return m, rows, units, root_s


def run_one(args):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rangegen", "__init__.py")):
        print("perfbench: src/rangegen not found; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path.insert(0, src)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setup_s = []
        while (len(setup_s) < SETUP_MIN or len(setup_s) < SETUP_MAX
               and sum(setup_s) < SETUP_SECONDS):
            # Earlier copies are deleted untimed; only the last is used.
            i = len(setup_s)
            if i:
                shutil.rmtree(os.path.join(work, str(i - 1)))
            t0 = time.perf_counter()
            state = workload.setup(os.path.join(work, str(i)), args.seed)
            setup_s.append(time.perf_counter() - t0)
        env = environment(nproc)
        print("env " + json.dumps(env, sort_keys=True))
        nothing = contextlib.nullcontext()
        if not args.trace:
            tally = measure(workload, state, args.seconds, nothing,
                            workloads.Tally())
            phases = (tally,)
        else:
            plain = measure(workload, state, args.seconds / 2, nothing,
                            workloads.Tally())
            tracer = spans.Tracer()
            spans.install(tracer)
            tally = measure(workload, state, args.seconds / 2,
                            tracer.span(ROOT_SPAN), workloads.Tally())
            phases = (plain, tally)
            overhead = (statistics.median(tally.op_s)
                        / statistics.median(plain.op_s) - 1.0)
            # Before `finish`, whose work runs outside the operation spans.
            layers = layer_metrics(tracer, tally, workload.per_item, overhead)
        workload.finish(state, tally)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    if not tally.op_s or tally.quality is None:
        print(f"perfbench: {args.workload}: no operation completed its "
              "checks; see the failures above", file=sys.stderr)
        return 1
    names = READABLE[args.workload]
    n = len(tally.op_s)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": statistics.median(tally.op_s) * 1e3,
            "items_per_s": tally.items / tally.item_s,
            "quality": tally.quality,
            "peak_rss_mb": peak_mb,
        }
        tail = tail_rank(n)
        lines = [
            ("setup_s", metrics["setup_s"], "s",
             "median of " + ", ".join(f"{s:.3f}" for s in setup_s)),
            (names["op"] + "_p50", metrics["op_ms_p50"], "ms", f"n={n}"),
            (names["op"] + "_p90", percentile(tally.op_s, 90) * 1e3, "ms",
             f"n={n}, {n - int(n * 0.9)} beyond; not gated"),
        ]
        if tail not in (None, 50, 90):
            lines.append((f"{names['op']}_p{tail}",
                          percentile(tally.op_s, tail) * 1e3, "ms",
                          f"highest percentile with 10 samples beyond"))
        lines.append((names["items_per_s"], metrics["items_per_s"], "1/s",
                      f"{tally.items} items"))
        lines.append((names["quality"], metrics["quality"], "1", ""))
        lines += [(k, v, "1", "") for k, v in tally.notes.items()]
        for key, label, unit in (("build", "build_cmd_ms_p50", "ms"),
                                 ("batch", "batch_ms_p50", "ms"),
                                 ("eval", "eval_cmd_ms_p50", "ms")):
            if key in tally.extra:
                lines.append((label, statistics.median(tally.extra[key]) * 1e3,
                              unit, f"n={len(tally.extra[key])}"))
        if "eval" in tally.extra:
            lines.append(("eval_scans_per_s", sum(tally.extra["eval_scans"])
                          / sum(tally.extra["eval"]), "1/s", ""))
        lines.append(("peak_rss_mb", peak_mb, "MB", "ru_maxrss, this process"))
        lines.append(("failed_ops_frac",
                      (tally.failed + tally.known_defects) / tally.attempted,
                      "ratio", f"{tally.failed} failed + {tally.known_defects} "
                      f"Beam32 batch errors of {tally.attempted} ops"))
        for name, value, unit, note in lines:
            print(f"  {name:<28}{value:>14.6g} {unit:<6} {note}")
        result = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        metrics, rows, units, root_s = layers
        print(f"  traced phase: {units} units, {root_s:.3f} s in "
              f"{ROOT_SPAN} spans")
        print("  top self times (ms per unit):")
        top = sorted(rows.items(), key=lambda kv: -kv[1][2])[:15]
        for name, r in top:
            print(f"    {name:<40}{r[2] * 1e3 / units:>12.4f}  calls {r[0]}")
        for name in ("trace.overhead_frac", "trace.coverage"):
            print(f"  {name:<28}{metrics[name]:>14.6g}")
        units_of = dict(per_layer_names())
        result = {k: {"value": metrics[k], "unit": units_of[k]}
                  for k, _ in per_layer_names()}
    attempted = sum(t.attempted for t in phases)
    failed = sum(t.failed for t in phases)
    print(f"  failed {failed} of {attempted} ops; Beam32 batch errors "
          f"{sum(t.known_defects for t in phases)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def run_all(args):
    """Each workload in its own process; peak RSS is per process."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        totals["correct"] &= res["correct"]
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = val
    print(json.dumps(totals))
    return 0


def main(argv=None):
    # A terminated run still removes its working directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
