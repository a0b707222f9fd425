"""Versioned binary container for numeric artifacts.

Layout (all integers little-endian):

    magic   4 bytes  b"VCAS"
    version u16      format version, currently 2
    kind    u16      payload kind tag (PayloadKind)
    mlen    u32      length of the UTF-8 JSON metadata blob
    meta    mlen bytes
    narr    u32      number of named arrays
    per array:
        nlen  u16    name length
        name  nlen bytes, UTF-8
        dtype u8     stored float width in bytes: 8 (<f8) or 4 (<f4)
        ndim  u8
        dims  ndim * u64
        data  prod(dims) * dtype bytes, little-endian IEEE-754, C order

Arrays are `<f8` unless their writer declares `<f4` (a dataset's
spectrum rows, a kPCA projection), and every read gives float64 (a
DiskMatrix gives its stored dtype if asked for it): read(write(x)) is
bit-exact for `<f8` and gives x's float32 values, widened, for `<f4`.
Reads and writes hold one copy of each array (a `<f4` one is read
through a small staging buffer).  Every container is written by
`open_container`, one block of rows at a time (`write_container` puts
each array whole; a dataset's rows and a kPCA projection are put as
they are made, so their writers never hold them), and
`read_container_lazily` leaves a chosen matrix in the file as a
DiskMatrix, which reads ranges of its rows and columns on demand, so
its callers need not hold it at all.  A corrupted magic,
an unknown version, an unexpected kind or an array running past the
end of the file is rejected before any payload is read; a file of
another version (1 had no dtype bytes) names the commands that rewrite
it.

This module owns every file vcas writes or reads: each artifact goes
through `atomic_write` (a temporary file renamed into place) and each
text input through `read_text`; a failed write or read is a DataError,
as is an object that a loader builds from malformed contents (`built_from`).
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
import struct
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .errors import DataError, ParameterError

MAGIC = b"VCAS"
FORMAT_VERSION = 2
# The stored dtypes, each tagged in its array header by its itemsize.
_DTYPES = {dt.itemsize: dt for dt in (np.dtype("<f8"), np.dtype("<f4"))}
# A `<f4` matrix is read through a staging buffer of about this many
# bytes (at least one row's band), widened into the float64 result.
_STAGING_BYTES = 1 << 16


class PayloadKind(enum.IntEnum):
    # Tags 1 and 2 belonged to retired waveform/spectrum payloads and tag
    # 6 to policies before they became MLP files; they stay unassigned
    # so such files read as an unknown kind.
    DATASET = 3
    KPCA_MODEL = 4
    MLP_MODEL = 5


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a file that replaces `path` only once the block completes.

    Parent directories are created.  The data goes to a temporary file
    beside the target, renamed over it on success and removed on any
    exception, so a crash leaves either the old file or the new one,
    never a half-written one.  A failed create, write or rename is a
    DataError naming `path`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, mode)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path`; an unreadable file is a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


@contextlib.contextmanager
def built_from(path) -> Iterator[None]:
    """Build objects from `path`'s contents: a missing key, a value of the
    wrong type or a failed check (ParameterError) is a DataError naming it."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {path}: {type(exc).__name__} {exc}") from exc


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer: a float or a boolean is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_strings(value, name: str) -> tuple[str, ...] | None:
    """`value` as a tuple if it is a JSON list of strings; null or [] is None."""
    if value is not None and not (
        isinstance(value, list) and all(isinstance(v, str) for v in value)
    ):
        raise ValueError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value) if value else None


def _layout(
    kind: PayloadKind, shapes: dict[str, tuple[int, ...]],
    dtypes: dict[str, np.dtype], meta: dict | None,
) -> tuple[bytes, list[tuple[bytes, int]]]:
    """The file header, then per array its header and its data's offset.

    The layout has no checksum, so every byte offset is known from the
    array shapes and the metadata before any array data is written.
    """
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    fixed = struct.pack("<HHI", FORMAT_VERSION, int(kind), len(meta_bytes))
    head = MAGIC + fixed + meta_bytes + struct.pack("<I", len(shapes))
    offset = len(head)
    entries = []
    for name, shape in shapes.items():
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ParameterError(f"array name too long: {name!r}")
        itemsize = dtypes[name].itemsize
        array_head = struct.pack("<H", len(name_bytes)) + name_bytes
        array_head += struct.pack(f"<BB{len(shape)}Q", itemsize, len(shape), *shape)
        offset += len(array_head)
        entries.append((array_head, offset))
        offset += itemsize * math.prod(shape)
    return head, entries


def write_container(
    path: str | Path,
    kind: PayloadKind,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Write named arrays, each stored `<f8`, plus a JSON metadata blob.

    Each array is put whole through `open_container` (a conversion copy
    only when it is not C-ordered little-endian f64).
    """
    arrays = {
        name: np.ascontiguousarray(arr, dtype="<f8") for name, arr in arrays.items()
    }
    shapes = {name: arr.shape for name, arr in arrays.items()}
    with open_container(path, kind, shapes, meta) as put:
        for name, arr in arrays.items():
            put(name, 0, arr)
    return Path(path)


@contextlib.contextmanager
def open_container(
    path: str | Path,
    kind: PayloadKind,
    shapes: dict[str, tuple[int, ...]],
    meta: dict | None = None,
    dtypes: dict[str, str] | None = None,
) -> Iterator[Callable[[str, int, np.ndarray], None]]:
    """Open a container whose arrays are written in blocks of rows.

    Yields `put(name, first_row, block)`, which writes `block` over rows
    `first_row:first_row + len(block)` of array `name` with one
    positional write, so threads may put disjoint blocks in any order.
    An array is stored `<f8` unless `dtypes` names it `<f4`; a block is
    converted to its array's dtype (rounded, for `<f4`) as it is put.
    The file is written through `atomic_write`: it appears only if the
    block completes, and only once every array byte has been put.
    """
    stored = {name: np.dtype((dtypes or {}).get(name, "<f8")) for name in shapes}
    if any(_DTYPES.get(dt.itemsize) != dt for dt in stored.values()):
        raise ParameterError(f"arrays are stored as <f8 or <f4, not {dtypes}")
    head, entries = _layout(kind, shapes, stored, meta)
    offsets = {name: offset for name, (_, offset) in zip(shapes, entries)}
    expected = sum(stored[n].itemsize * math.prod(s) for n, s in shapes.items())
    written = []  # bytes per put; list.append is atomic across threads

    with atomic_write(path, "wb") as fh:
        fd = fh.fileno()

        def pwrite(data, offset: int) -> None:
            view = memoryview(data).cast("B")
            while view:
                n = os.pwrite(fd, view, offset)
                view, offset = view[n:], offset + n

        def put(name: str, first_row: int, block: np.ndarray) -> None:
            shape = shapes[name]
            block = np.ascontiguousarray(block, dtype=stored[name])
            if block.shape[1:] != shape[1:] or first_row + len(block) > shape[0]:
                raise ParameterError(
                    f"block {block.shape} at row {first_row} does not fit "
                    f"array {name!r} {shape}"
                )
            row_bytes = block.itemsize * math.prod(shape[1:])
            pwrite(block, offsets[name] + first_row * row_bytes)
            written.append(block.nbytes)

        pwrite(head, 0)
        for array_head, offset in entries:
            pwrite(array_head, offset - len(array_head))
        yield put
        if sum(written) != expected:
            raise ParameterError(
                f"{path}: {sum(written)} of {expected} array bytes were put"
            )


class DiskMatrix:
    """A 2-D array left in its container file, read in blocks.

    `m[r0:r1, c0:c1]` (or `m[r0:r1]`) is the DiskMatrix of those rows
    and columns and reads nothing; `np.asarray(m)` reads them into a new
    C-ordered float64 array, and `np.asarray(m, dtype)` into one of the
    stored dtype when that is the one asked for.  Data of the result's
    dtype is read straight into it: a range of whole rows, which lies
    in one piece of the file, with one positional read, a column band
    with one per row.  `<f4` data for a float64 result is read the same
    way into a staging buffer of a few rows (about `_STAGING_BYTES`, at
    least one row), widened into the result one group of rows at a
    time.  A DiskMatrix reads its file only while the
    `read_container_lazily` block that made it is open.
    """

    def __init__(self, fh: IO[bytes], path, offset: int, shape: tuple[int, ...],
                 dtype: np.dtype, rows: range | None = None,
                 cols: range | None = None):
        self._fh, self._path, self._offset, self._dtype = fh, path, offset, dtype
        self._n_rows, self._row_len = shape
        self._rows = range(self._n_rows) if rows is None else rows
        self._cols = range(self._row_len) if cols is None else cols

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._cols)

    def __getitem__(self, key) -> "DiskMatrix":
        if isinstance(key, slice):
            key = key, slice(None)
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(k, slice) for k in key)):
            raise IndexError("a DiskMatrix takes [r0:r1, c0:c1] ranges only")
        rows, cols = self._rows[key[0]], self._cols[key[1]]
        if rows.step != 1 or cols.step != 1:
            raise IndexError("a DiskMatrix takes [r0:r1, c0:c1] ranges only")
        shape = (self._n_rows, self._row_len)
        return DiskMatrix(self._fh, self._path, self._offset, shape, self._dtype,
                          rows, cols)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("reading a DiskMatrix always makes a new array")
        fd = self._fh.fileno()  # ValueError once the file is closed
        as_stored = dtype is not None and np.dtype(dtype) == self._dtype
        out = np.empty(self.shape, dtype=self._dtype if as_stored else "<f8")
        size, n_cols = self._dtype.itemsize, len(self._cols)
        row_bytes = size * self._row_len
        first = self._offset + self._rows.start * row_bytes + self._cols.start * size
        # Rows of out's dtype are read straight into `out`, all at once;
        # <f4 rows for <f8 a group of about _STAGING_BYTES at a time, then
        # widened into `out`.
        widen = self._dtype != out.dtype
        group = max(1, _STAGING_BYTES // (size * n_cols or 1) if widen else len(out))
        # Whole rows lie in one piece of the file; a band's rows do not.
        whole_rows = n_cols == self._row_len
        for r0 in range(0, len(out), group):
            dest = out[r0 : r0 + group]
            stage = np.empty(dest.shape, self._dtype) if widen else dest
            for i, part in enumerate([stage.reshape(-1)] if whole_rows else stage):
                view = memoryview(part.view(np.uint8))
                offset = first + (r0 + i) * row_bytes
                while view:  # a read may stop short of what was asked
                    n = os.preadv(fd, [view], offset)
                    if n == 0:
                        raise DataError(f"truncated or corrupt container: {self._path}")
                    view, offset = view[n:], offset + n
            if widen:
                dest[...] = stage
        return out.astype(np.float64 if dtype is None else dtype, copy=False)


def _index(fh: IO[bytes], path, expect_kind: PayloadKind | None):
    """Parse a container's headers: (kind, meta, {name: (dims, dtype, offset)}).

    The fixed header is checked first; every array must then fit in the
    file, and the last must end where the file does.  No array data is
    read.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise DataError(f"bad magic in {path}: not a VCAS container")
    version, kind_val = struct.unpack("<HH", head[4:])
    if version != FORMAT_VERSION:  # 1 stored every array <f8, untagged
        raise DataError(
            f"unsupported container version {version} in {path} (this vcas "
            f"reads {FORMAT_VERSION}); rerun the commands that wrote it "
            "(synth-data, then train; sim train-policy for a policy)"
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
        index: dict[str, tuple[tuple[int, ...], np.dtype, int]] = {}
        for _ in range(narr):
            (nlen,) = unpack("<H")
            name = take(nlen).decode("utf-8")
            code, ndim = unpack("<BB")
            if code not in _DTYPES:
                raise DataError(f"unknown array dtype code {code} in {path}")
            dims = unpack(f"<{ndim}Q")
            offset = fh.tell()
            nbytes = code * math.prod(dims)
            if nbytes > size - offset:
                raise DataError(f"truncated or corrupt container: {path}")
            index[name] = (dims, _DTYPES[code], offset)
            fh.seek(offset + nbytes)
    except ValueError as exc:  # bad UTF-8 or JSON
        raise DataError(f"truncated or corrupt container: {path}") from exc
    if fh.tell() != size:
        raise DataError(f"trailing bytes in container: {path}")
    return kind, meta, index


@contextlib.contextmanager
def read_container_lazily(
    path: str | Path,
    expect_kind: PayloadKind | None = None,
    on_disk: str | None = None,
) -> Iterator[tuple[PayloadKind, dict[str, np.ndarray | DiskMatrix], dict]]:
    """Read a container, leaving the 2-D array named `on_disk` in the file.

    Yields (kind, arrays, meta) like read_container, with the `on_disk`
    array as a DiskMatrix that reads the file until the block exits.
    Every header is checked before any array data is read, so a bad
    file raises DataError here, not from a DiskMatrix read.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        kind, meta, index = _index(fh, path, expect_kind)
        if on_disk in index and len(index[on_disk][0]) != 2:
            raise DataError(f"{path}: array {on_disk!r} is not a matrix")
        arrays: dict[str, np.ndarray | DiskMatrix] = {}
        for name, (dims, dtype, offset) in index.items():
            if name == on_disk:
                arrays[name] = DiskMatrix(fh, path, offset, dims, dtype)
                continue
            # Read as a matrix of its leading index, widened as it is read.
            flat = math.prod(dims[:1]), math.prod(dims[1:])
            whole = DiskMatrix(fh, path, offset, flat, dtype)
            arrays[name] = np.asarray(whole).reshape(dims)
        yield kind, arrays, meta


def read_container(
    path: str | Path,
    expect_kind: PayloadKind | None = None,
) -> tuple[PayloadKind, dict[str, np.ndarray], dict]:
    """Read a container; returns (kind, arrays, meta).

    The headers are checked before any payload is read; each array is
    then read into its own float64 buffer, a `<f4` one through the
    staging buffer that DiskMatrix reads it with.
    """
    with read_container_lazily(path, expect_kind) as read:
        return read
