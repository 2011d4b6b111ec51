"""Latent blob files.

Layout: 16-byte magic, little-endian uint32 header length, UTF-8 JSON header
{"shape", "dtype": "f32le", "seed", "config_hash"}, then the raw row-major
float32 payload.  Bit-exact comparisons in tests read these files directly.

Blobs (and ratio policies) are written atomically (``write_atomic``): a
reader sees the old file or the whole new one, never a torn write.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import ParseError, checked, f32_nbytes, read_bytes, read_json, schema

MAGIC = b"SORTBLOCK-LATENT"


def write_atomic(path, parts) -> None:
    """Write the bytes-like ``parts``, in order, to ``path`` atomically.

    They go to a new temporary file in the destination directory (created
    with ``O_EXCL``, so it is never another writer's), which ``os.replace``
    then renames over ``path``.  On any error the temporary is removed and
    an existing ``path`` is left as it was.  There is no fsync: the write is
    atomic for readers and against the writer failing part way, not against
    a power loss.
    """
    directory, name = os.path.split(os.fspath(path))
    for attempt in range(100):
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{attempt}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"{path}: no free temporary name next to it")
    try:
        try:
            for part in parts:
                view = memoryview(part)
                while view:
                    view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_latent(path, latent: np.ndarray, seed: int, config_hash: str) -> None:
    header = {
        "shape": list(latent.shape),
        "dtype": "f32le",
        "seed": int(seed),
        "config_hash": config_hash,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    payload = latent.astype("<f4").tobytes(order="C")
    write_atomic(path, (MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, payload))


_HEADER_FIELDS = schema({"shape": list[int], "dtype": str})


def read_latent(path) -> tuple[np.ndarray, dict]:
    raw = read_bytes(path)
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: not a latent blob (bad magic)")
    offset = len(MAGIC)
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if offset + header_len > len(raw):
        raise ParseError(f"{path}: header length {header_len} runs past the end of the file ({len(raw)} bytes)")
    header = checked(path, read_json(path, raw[offset : offset + header_len]), _HEADER_FIELDS)
    offset += header_len
    if header["dtype"] != "f32le":
        raise ParseError(f"{path}: unsupported dtype {header['dtype']!r}")
    shape = tuple(header["shape"])
    expected = f32_nbytes(path, shape)
    payload = raw[offset:]
    if len(payload) != expected:
        raise ParseError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: payload holds NaN or inf")
    return arr, header
