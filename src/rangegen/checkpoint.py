"""Binary checkpoint format, and `_replacing`, through which every file
the commands write whole is written, so a crash never leaves a torn one.

Layout (little-endian): magic ``OLCK``, version u16, metadata length u32 +
UTF-8 JSON object (sorted keys), buffer count u32, then per buffer: name
length u16 + UTF-8 name, rank u8, extents u32 each, float32 payload.
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import ConfigError

MAGIC = b"OLCK"
VERSION = 2
_TMP_SUFFIX = ".tmp"  # `_replacing` writes path + _TMP_SUFFIX, then renames


@contextlib.contextmanager
def _replacing(path, mode="wb", **open_kwargs):
    """open(`path` + _TMP_SUFFIX, mode, **open_kwargs) for the block;
    renamed onto `path` when the block ends, removed if it raises."""
    tmp = os.fspath(path) + _TMP_SUFFIX
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_checkpoint(path, buffers, meta):
    """Write name -> ndarray buffers (cast to float32) and the JSON object
    `meta` to `path`, through `_replacing`."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with _replacing(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<HI", VERSION, len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(buffers)))
        for name in sorted(buffers):
            arr = np.ascontiguousarray(buffers[name], dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for ext in arr.shape:
                f.write(struct.pack("<I", ext))
            f.write(arr.tobytes())


def read_checkpoint(path):
    """Read an OLCK file; returns (name -> float32 ndarray, metadata dict)."""
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    if raw[:4] != MAGIC:
        raise ConfigError(f"{path}: not an OLCK checkpoint")
    off = 4

    def take(size):
        nonlocal off
        if off + size > len(raw):
            raise ConfigError(f"{path}: truncated OLCK checkpoint "
                              f"({len(raw)} bytes, needs {off + size})")
        off += size
        return raw[off - size : off]

    version, meta_len = struct.unpack("<HI", take(6))
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported OLCK version {version}")
    try:
        meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: bad checkpoint metadata ({exc})") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: checkpoint metadata is not a JSON object")
    (count,) = struct.unpack("<I", take(4))
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(nlen)).decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: buffer name is not UTF-8") from None
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        payload = take(4 * math.prod(shape))
        out[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    if off != len(raw):
        raise ConfigError(f"{path}: {len(raw) - off} bytes after the last buffer")
    return out, meta

