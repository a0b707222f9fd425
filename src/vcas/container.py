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
bit-exact.  Writes go to a temporary file that is renamed into place.
Reads and writes hold one copy of each array.  A corrupted magic, an
unknown version or an unexpected kind is rejected before any payload
is read.
"""

from __future__ import annotations

import enum
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError

MAGIC = b"VCAS"
FORMAT_VERSION = 1


class PayloadKind(enum.IntEnum):
    # Tags 1 and 2 belonged to retired waveform/spectrum payloads and tag
    # 6 to policies before they became MLP files; they stay unassigned
    # so such files read as an unknown kind.
    DATASET = 3
    KPCA_MODEL = 4
    MLP_MODEL = 5


def write_container(
    path: str | Path,
    kind: PayloadKind,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Write named float64 arrays plus a JSON metadata blob to `path`.

    Each array goes to the file straight from its own buffer (a
    conversion copy only when it is not C-ordered little-endian f64).
    """
    path = Path(path)
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write beside the target, then rename over it, so a crash leaves
    # either the old file or the new one, never a half-written one.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fixed = struct.pack("<HHI", FORMAT_VERSION, int(kind), len(meta_bytes))
            fh.write(MAGIC + fixed + meta_bytes + struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                name_bytes = name.encode("utf-8")
                if len(name_bytes) > 0xFFFF:
                    raise ParameterError(f"array name too long: {name!r}")
                arr = np.ascontiguousarray(arr, dtype="<f8")
                fh.write(struct.pack("<H", len(name_bytes)) + name_bytes)
                fh.write(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
                fh.write(memoryview(arr))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_container(
    path: str | Path,
    expect_kind: PayloadKind | None = None,
) -> tuple[PayloadKind, dict[str, np.ndarray], dict]:
    """Read a container; returns (kind, arrays, meta).

    The fixed header is checked before any payload is read; each array
    is then read straight into its own buffer.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"container not found: {path}")
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise DataError(f"bad magic in {path}: not a VCAS container")
        version, kind_val = struct.unpack("<HH", head[4:])
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

        def take(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise DataError(f"truncated or corrupt container: {path}")
            return data

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        try:
            (mlen,) = unpack("<I")
            meta = json.loads(take(mlen).decode("utf-8"))
            (narr,) = unpack("<I")
            arrays: dict[str, np.ndarray] = {}
            for _ in range(narr):
                (nlen,) = unpack("<H")
                name = take(nlen).decode("utf-8")
                (ndim,) = unpack("<B")
                dims = unpack(f"<{ndim}Q")
                # Check the size against the file before allocating.
                if 8 * math.prod(dims) > size - fh.tell():
                    raise DataError(f"truncated or corrupt container: {path}")
                arr = np.empty(dims, dtype="<f8")
                if fh.readinto(arr) != arr.nbytes:
                    raise DataError(f"truncated or corrupt container: {path}")
                arrays[name] = arr.astype(np.float64, copy=False)
        except ValueError as exc:  # bad UTF-8 or JSON
            raise DataError(f"truncated or corrupt container: {path}") from exc
        if fh.read(1):
            raise DataError(f"trailing bytes in container: {path}")
    return kind, arrays, meta
