"""Binary checkpoint format for named float buffers.

Layout (little-endian throughout): magic ``OLCK``, version u16, buffer
count u32, then per buffer: name length u16 + UTF-8 name, rank u8,
extents u32 each, float32 row-major payload.
"""

import math
import struct

import numpy as np

from .errors import ConfigError

MAGIC = b"OLCK"
VERSION = 1


def write_checkpoint(path, buffers):
    """Write a dict of name -> ndarray (cast to float32) to `path`."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<HI", VERSION, len(buffers)))
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
    """Read an OLCK file; returns dict of name -> float32 ndarray."""
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

    version, count = struct.unpack("<HI", take(6))
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported OLCK version {version}")
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
    return out
