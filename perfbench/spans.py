"""Span tracer installed around rangegen's public functions from outside.

Nothing in the program knows about it. `install()` replaces module
attributes with timing wrappers: every public function of every
rangegen module, under every name it is bound to (so a function that
another module imported by name, such as `training.read_olri`, is
wrapped there too), plus the public methods of rangegen classes.
Autodiff primitives additionally wrap the `_backward` closure of each
Tensor they return, so backward time is attributed per primitive.

Each span records its name, start, end and parent. A span's self time
is its duration minus the time its child spans cover. Spans stay in
memory until `summary()` folds them into per-name totals.
"""

import functools
import importlib
import inspect
import os
import time

MODULES = ("geometry", "autodiff", "backend", "conditioning", "denoiser",
           "diffusion", "optim", "training", "checkpoint", "forge", "metrics",
           "toy", "cli")

# Span names that differ from "<module>.<Class>.<method>".
RENAMES = {"autodiff.Tensor.backward": "autodiff.backward"}

# Functions whose first argument is a file path; the file size is counted.
SIZED = ("geometry.read_olri", "geometry.write_olri",
         "checkpoint.read_checkpoint", "checkpoint.write_checkpoint")

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counts = {}
        self.in_root = 0  # open spans made by `span()`, the operation roots

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(_clock())
        return idx

    def end(self, idx):
        self.ends[idx] = _clock()
        self.stack.pop()

    def count(self, name, n=1):
        """Add to a counter; only work inside an operation root counts."""
        if self.in_root:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name):
        """A root span for `with`; `summary` covers what runs inside one."""
        return _Span(self, name)

    def summary(self, roots):
        """Per-name totals over spans that descend from a span in `roots`.

        Returns ({name: [calls, inclusive s, self s, own s]}, total
        duration of the root spans). Own time is the duration minus nested
        autodiff primitives only, so a primitive keeps the time of the
        kernels it calls (recurrence keeps its scan) but not the time of
        the primitives a composite one (softmax) is built from.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        ad_child = [0.0] * n
        inside = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                if self.names[i].startswith("autodiff."):
                    ad_child[p] += dur[i]
                inside[i] = inside[p] or self.names[p] in roots
        out = {}
        for i in range(n):
            if inside[i]:
                row = out.setdefault(self.names[i], [0, 0.0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur[i]
                row[2] += dur[i] - child[i]
                row[3] += dur[i] - ad_child[i]
        root_s = sum(dur[i] for i in range(n)
                     if self.names[i] in roots and not inside[i])
        return out, root_s


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.in_root += 1
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        self.tracer.in_root -= 1
        return False


class _TracedIter:
    """Iterator proxy that records one span per `next()`."""

    def __init__(self, tracer, it, name):
        self._tracer, self._it, self._name = tracer, it, name

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.begin(self._name)
        try:
            return next(self._it)
        finally:
            self._tracer.end(idx)


def _plain(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _sized(tracer, fn, name):
    key = name + ".bytes"

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(path, *args, **kwargs)
        finally:
            tracer.end(idx)
            tracer.count(key, os.path.getsize(path))
    return wrapper


def _generator(tracer, fn, name, next_name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            it = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        return _TracedIter(tracer, it, next_name)
    return wrapper


def _autodiff_op(tracer, fn, op, tensor_cls):
    name = "autodiff." + op
    bwd_name = name + ".bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        bwd = getattr(out, "_backward", None) if isinstance(out, tensor_cls) else None
        # A composite primitive (softmax) returns the node of its last inner
        # primitive, whose closure that primitive has already wrapped.
        if bwd is not None and not hasattr(bwd, "_traced"):
            out._backward = _timed_backward(tracer, bwd, bwd_name)
            tracer.count("autodiff.tape_nodes")
        return out
    return wrapper


def _timed_backward(tracer, fn, name):
    def timed(g):
        idx = tracer.begin(name)
        try:
            fn(g)
        finally:
            tracer.end(idx)
    timed._traced = True
    return timed


def _scan_lookup(tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, rel):
        tracer.count("training.scan_cache.lookups")
        if rel in self.scans:
            tracer.count("training.scan_cache.hits")
        idx = tracer.begin("training.ScanCache.scan")
        try:
            return fn(self, rel)
        finally:
            tracer.end(idx)
    return wrapper


def _functions(mod, short):
    """Map id(function) -> (function, span name) for functions `mod` defines.

    A function bound under several names (backend's dispatch aliases such
    as `scan_forward = scan_forward_numpy`) is named by the alias, since
    that is the name callers use.
    """
    found = {}
    for attr, obj in vars(mod).items():
        if (attr.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__):
            continue
        if id(obj) not in found or attr != obj.__name__:
            found[id(obj)] = (obj, f"{short}.{attr}")
    return found


def install(tracer):
    """Wrap every public rangegen function and method."""
    mods = {short: importlib.import_module("rangegen." + short)
            for short in MODULES}
    tensor_cls = mods["autodiff"].Tensor
    wrapped = {}  # id(original) -> wrapper; the wrapper keeps it alive
    for short, mod in mods.items():
        for fid, (fn, name) in _functions(mod, short).items():
            if short == "autodiff":
                wrapped[fid] = _autodiff_op(tracer, fn, name.split(".", 1)[1],
                                            tensor_cls)
            elif inspect.isgeneratorfunction(fn):
                wrapped[fid] = _generator(tracer, fn, name,
                                          f"{short}.next_batch")
            elif name in SIZED:
                wrapped[fid] = _sized(tracer, fn, name)
            else:
                wrapped[fid] = _plain(tracer, fn, name)
        for cname, cls in vars(mod).items():
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{short}.{cname}.{attr}"
                if name == "training.ScanCache.scan":
                    setattr(cls, attr, _scan_lookup(tracer, fn))
                else:
                    setattr(cls, attr, _plain(tracer, fn, RENAMES.get(name, name)))
    # Rebind every name, in every module, that refers to a wrapped function,
    # including values of module-level registries such as training.SAMPLERS.
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)]
