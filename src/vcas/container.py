"""Versioned binary container for numeric artifacts.

Layout (all integers little-endian):

    magic   4 bytes  b"VCAS"
    version u16      format version, currently 1
    kind    u16      payload kind tag (PayloadKind)
    mlen    u32      length of the UTF-8 JSON metadata blob
    meta    mlen bytes
    narr    u32      number of named arrays
    per array:
        nlen  u16    name length
        name  nlen bytes, UTF-8
        ndim  u8
        dims  ndim * u64
        data  prod(dims) * f64, little-endian, C order

Floats are stored as raw IEEE-754 doubles, so read(write(x)) is
bit-exact.  Writes go to a temporary file that is renamed into place.  A corrupted magic or an unknown version is rejected before
any payload is read.
"""

from __future__ import annotations

import enum
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError

MAGIC = b"VCAS"
FORMAT_VERSION = 1


class PayloadKind(enum.IntEnum):
    # Tags 1 and 2 belonged to retired waveform/spectrum payloads; they
    # stay unassigned so such files read as an unknown kind.
    DATASET = 3
    KPCA_MODEL = 4
    MLP_MODEL = 5
    POLICY_MODEL = 6


def write_container(
    path: str | Path,
    kind: PayloadKind,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Write named float64 arrays plus a JSON metadata blob to `path`."""
    path = Path(path)
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    chunks = [
        MAGIC,
        struct.pack("<HH", FORMAT_VERSION, int(kind)),
        struct.pack("<I", len(meta_bytes)),
        meta_bytes,
        struct.pack("<I", len(arrays)),
    ]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ParameterError(f"array name too long: {name!r}")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes(order="C"))
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write beside the target, then rename over it, so a crash leaves
    # either the old file or the new one, never a half-written one.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_container(
    path: str | Path,
    expect_kind: PayloadKind | None = None,
) -> tuple[PayloadKind, dict[str, np.ndarray], dict]:
    """Read a container; returns (kind, arrays, meta)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"container not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise DataError(f"bad magic in {path}: not a VCAS container")
    version, kind_val = struct.unpack_from("<HH", raw, 4)
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported container version {version} in {path} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        kind = PayloadKind(kind_val)
    except ValueError as exc:
        raise DataError(f"unknown payload kind {kind_val} in {path}") from exc
    if expect_kind is not None and kind != expect_kind:
        raise DataError(
            f"{path}: expected {expect_kind.name} payload, found {kind.name}"
        )

    off = 8
    try:
        (mlen,) = struct.unpack_from("<I", raw, off)
        off += 4
        meta = json.loads(raw[off : off + mlen].decode("utf-8"))
        off += mlen
        (narr,) = struct.unpack_from("<I", raw, off)
        off += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(narr):
            (nlen,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off : off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", raw, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}Q", raw, off)
            off += 8 * ndim
            count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
            data = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
            off += 8 * count
            arrays[name] = data.reshape(dims).astype(np.float64, copy=True)
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
        raise DataError(f"truncated or corrupt container: {path}") from exc
    if off != len(raw):
        raise DataError(f"trailing bytes in container: {path}")
    return kind, arrays, meta
