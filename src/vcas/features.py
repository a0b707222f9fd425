"""Spectral features and kernel principal components.

Each received waveform, one row of samples, becomes one row of one-sided
|rfft| magnitudes; rows of magnitudes are embedded with kernel PCA under
a cosine (normalized dot product) kernel.  The embedding is what the
estimators in `learn` consume.  Picking a band is a column slice of the
rows (`pipeline.band_slice_for`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .container import (
    _STAGING_BYTES,
    DiskMatrix,
    PayloadKind,
    atomic_write,
    built_from,
    json_int,
    open_container,
    read_container,  # noqa: F401  perfbench's tracer looks it up (ROADMAP item 3)
    read_container_lazily,
    write_container,  # noqa: F401  perfbench's tracer looks it up (ROADMAP item 3)
)
from .errors import DataError, DegenerateInputError, NumericalError, ParameterError

_EIG_TOL_FACTOR = 1e-10
# Bins per column block of a kPCA fit.  Both passes over the training
# rows (the Gram, then the projection) take one block at a time, so a
# fit holds one block of rows, never all of them, and `train` one block
# of projection rows on its way to the file.  Full-size contact `train`
# (3,000 rows) peaked at 419, 400 and 406 MB with 1,024-, 2,048- and
# 4,096-bin blocks (eigh sets it), and at 504 rows (500 components) at
# 69, 71 and 87 MB.
_BLOCK_BINS = 2048
# The projection is stored rounded to float32, each value once, as a
# dataset's rows are; the fit and an in-memory model keep float64.
_STORED = np.dtype("<f4")


def fft_magnitude(
    samples: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """One-sided magnitude spectrum of each row of a batch of signals.

    `samples` holds one signal per row; each gives its |rfft| row, DC
    through Nyquist (N//2 + 1 bins for even N), so no energy is dropped.
    The rows are written into `out` when it is given; a float32 `out`
    receives the float64 magnitudes rounded once.  `scratch`, a complex
    array shaped like the result, receives the complex spectrum, so a
    caller that loops allocates it once.
    """
    # The DC bin sums every sample, so a non-finite sample makes the
    # spectrum non-finite too: one check covers both, and it raises in
    # place of numpy's overflow and invalid-value warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(np.fft.rfft(samples, axis=1, out=scratch), out=out)
    if not np.isfinite(mags).all():
        if not np.isfinite(samples).all():
            raise ParameterError("waveform samples must be finite")
        raise ParameterError("spectrum magnitudes must be finite")
    return mags


def _row_norms(squares: np.ndarray, name: str) -> np.ndarray:
    """Row norms from their squares; an all-zero row is degenerate."""
    norms = np.sqrt(squares)
    if (norms == 0).any():
        raise DegenerateInputError(f"{name} contains an all-zero row")
    return norms


def _column_blocks(rows) -> Iterator[tuple[slice, np.ndarray]]:
    """Each `_BLOCK_BINS`-wide column block of `rows`, as a C-ordered copy.

    `rows` is an array or a container's DiskMatrix; either way a block
    is read (or copied) into its own float64 buffer, so both give the
    same bits and kPCA's arithmetic is float64 even for float32 rows.
    """
    for c in range(0, rows.shape[1], _BLOCK_BINS):
        cols = slice(c, c + _BLOCK_BINS)
        yield cols, np.ascontiguousarray(rows[:, cols], dtype=np.float64)


@dataclass(frozen=True)
class KernelPcaModel:
    """Fitted cosine kernel-PCA projection, stored in primal form.

    A cosine kernel is the dot product of L2-normalised rows, so the
    centred kernel row of a new row x against the training set, times
    the scaled eigenvector columns C, is affine in unit(x) = x / |x|:
    the embedding is unit(x) @ projection + offset.  For training unit
    rows U, Gram row means m and grand mean g,
    projection = U.T @ (C - mean of C's rows) (bins x components) and
    offset = -m @ C + g * (column sums of C).  No unit rows are built:
    the fit computes projection = X.T @ ((C - mean of C's rows) / |X|)
    from the raw rows X, and kpca_transform takes x @ projection / |x|.
    A loaded model's projection is a DiskMatrix left in its file
    (load_kpca), read by kpca_transform one column block's rows at a
    time; a fit that wrote its projection straight to a file
    (kpca_fit_transform with a path) holds None.  `fit_id` names the
    fit: the sha256 of the eigenvalues and offset as `<f8`, then of the
    projection's rows as stored (`<f4`), in row order.
    """

    projection: np.ndarray | DiskMatrix | None
    offset: np.ndarray
    eigenvalues: np.ndarray
    explained_variance_ratio: np.ndarray
    fit_id: str

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_bins(self) -> int:
        return self.projection.shape[0]


def _fit_digest(eigenvalues: np.ndarray, offset: np.ndarray):
    """A fit id's sha256, fed all but the projection's rows."""
    digest = hashlib.sha256()
    for arr in (eigenvalues, offset):
        digest.update(np.ascontiguousarray(arr, dtype="<f8"))
    return digest


def _stored_rows(rows) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, those rows rounded to `_STORED`) for each group of `rows`.

    `rows` is an array or a DiskMatrix.  A group is about
    `_STAGING_BYTES` once rounded, so no block-sized copy is made.
    """
    step = max(1, _STAGING_BYTES // (_STORED.itemsize * rows.shape[1] or 1))
    for r in range(0, rows.shape[0], step):
        yield r, np.ascontiguousarray(rows[r : r + step], dtype=_STORED)


def kpca_fit_transform(
    rows: np.ndarray | DiskMatrix,
    n_components: int,
    path: str | Path | None = None,
    meta: dict | None = None,
) -> tuple[KernelPcaModel, np.ndarray]:
    """Fit cosine kernel PCA; return (model, training-row embeddings).

    The rows (an array, or a container's DiskMatrix) are read in two
    passes of column blocks: the first sums the Gram matrix, whose
    diagonal gives the row norms, and the second makes the projection,
    one block of its rows per block of bins.
    The normalised Gram is double-centered (mean removal in the kernel feature space),
    eigendecomposed, and the top `n_components` eigenpairs with
    eigenvalues above tolerance are retained.  Raises ParameterError
    reporting the attainable maximum when `n_components` exceeds the
    positive-eigenvalue count.  The embeddings come straight from the
    eigensystem (centered Gram times the coefficient columns);
    kpca_transform on the training rows agrees to rounding.

    Without `path` the projection's blocks fill an array in the model.
    With `path`, the model file save_kpca(model, path, meta) would write
    is opened once the eigensystem is known (it gives the component
    count and the arrays that go before the projection) and each block
    is written to it as it is made, so no bins-sized array is held; the
    returned model's projection is None.  Either way each block is
    hashed into the fit id as it would be stored.
    """
    shape = np.shape(rows)
    if len(shape) != 2 or shape[1] == 0:
        raise ParameterError("rows must be a matrix of rows")
    n, n_bins = shape
    if n < 2:
        raise ParameterError("kernel PCA needs at least two rows")
    if n_components < 1:
        raise ParameterError("n_components must be at least 1")

    gram = np.zeros((n, n))
    product = np.empty((n, n))
    for _, block in _column_blocks(rows):
        if not np.isfinite(block).all():
            raise ParameterError("rows must be finite")
        # One operand on both sides: numpy hands this product to BLAS syrk.
        np.matmul(block, block.T, out=product)
        gram += product
        del block  # before the next block is read, so one is held at a time
    del product
    # The raw Gram's diagonal holds the squared row norms.
    norms = _row_norms(np.diag(gram), "rows")
    gram /= norms[:, None]
    gram /= norms[None, :]
    if not np.isfinite(gram).all():
        raise NumericalError("kernel produced non-finite values")

    row_means = gram.mean(axis=1)
    grand = float(gram.mean())
    centered = gram  # centred in place: the raw Gram is not read again
    centered -= row_means[:, None]
    centered -= row_means[None, :]
    centered += grand

    evals, evecs = np.linalg.eigh(centered)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    tol = _EIG_TOL_FACTOR * max(float(evals[0]), 0.0)
    n_pos = int(np.count_nonzero(evals > tol))
    if n_components > n_pos:
        raise ParameterError(
            f"n_components={n_components} exceeds the {n_pos} positive "
            "eigenvalues available"
        )

    kept_vals = np.ascontiguousarray(evals[:n_components])
    coef = evecs[:, :n_components] / np.sqrt(kept_vals)[None, :]
    # Canonical sign: the largest-magnitude coefficient of each column
    # is non-negative, so refits are reproducible.
    flip = np.sign(coef[np.argmax(np.abs(coef), axis=0), np.arange(n_components)])
    flip[flip == 0] = 1.0
    coef = coef * flip[None, :]
    embeddings = centered @ coef
    del centered, gram, evecs  # the n x n arrays go before the projection

    model = KernelPcaModel(
        projection=None,
        offset=-row_means @ coef + grand * coef.sum(axis=0),
        eigenvalues=kept_vals,
        explained_variance_ratio=kept_vals / float(evals[evals > tol].sum()),
        fit_id="",
    )
    digest = _fit_digest(model.eigenvalues, model.offset)
    scaled = (coef - coef.mean(axis=0)) / norms[:, None]
    if path is None:
        projection = np.empty((n_bins, n_components))
        model = replace(model, projection=projection)
        sink = contextlib.nullcontext(functools.partial(_put_rows, projection, digest))
    else:
        sink = _open_kpca(model, n_bins, path, meta, digest)
    product = np.empty((min(n_bins, _BLOCK_BINS), n_components))
    with sink as put:
        for cols, block in _column_blocks(rows):
            put(cols.start, np.matmul(block.T, scaled, out=product[: block.shape[1]]))
            del block
    return replace(model, fit_id=digest.hexdigest()), embeddings


def _put_rows(array: np.ndarray, digest, first_row: int, block: np.ndarray) -> None:
    array[first_row : first_row + len(block)] = block
    for _, stored in _stored_rows(block):
        digest.update(stored)


def kpca_transform(
    model: KernelPcaModel, rows: np.ndarray | DiskMatrix
) -> np.ndarray:
    """Project a matrix of rows into component space.

    Equal to centering each row's cosine-kernel row against the
    training set and multiplying by the scaled eigenvectors, folded
    into unit(rows) @ projection + offset and computed on the raw rows
    as (rows @ projection) / |rows| + offset.  The rows and the
    projection (each an array or a container's DiskMatrix) are read in
    the fit's column blocks: bins c0:c1 of the rows against rows c0:c1
    of the projection, summed over the blocks in order, so an array and
    a file give the same bits and no bins-sized array is held.  `rows`
    is only read.
    """
    shape = np.shape(rows)
    if len(shape) != 2 or shape[1] == 0:
        raise ParameterError("rows must be a matrix of rows")
    if shape[1] != model.n_bins:
        raise ParameterError(
            f"row length {shape[1]} does not match training length {model.n_bins}"
        )
    squares = np.zeros(shape[0])
    out = np.zeros((shape[0], model.n_components))
    product = np.empty_like(out)
    for cols, block in _column_blocks(rows):
        if not np.isfinite(block).all():
            raise ParameterError("rows must be finite")
        # Unlike np.linalg.norm(axis=1), einsum makes no block-sized temporary.
        squares += np.einsum("ij,ij->i", block, block)
        projection = np.ascontiguousarray(model.projection[cols, :], dtype=np.float64)
        out += np.matmul(block, projection, out=product)
        del block, projection  # before the next block is read
    out /= _row_norms(squares, "rows")[:, None]
    out += model.offset
    return out


def write_evr_csv(model: KernelPcaModel, path: str | Path) -> Path:
    """Component-wise eigenvalue / explained-variance table."""
    cum = np.cumsum(model.explained_variance_ratio)
    with atomic_write(path) as fh:
        fh.write("component,eigenvalue,explained_variance_ratio,cumulative\n")
        for i in range(model.n_components):
            fh.write(
                f"{i + 1},{float(model.eigenvalues[i])!r},"
                f"{float(model.explained_variance_ratio[i])!r},{float(cum[i])!r}\n"
            )
    return Path(path)


@contextlib.contextmanager
def _open_kpca(
    model: KernelPcaModel, n_bins: int, path: str | Path, meta: dict | None, digest
) -> Iterator[Callable[[int, np.ndarray], None]]:
    """Open `model`'s file and write all but its projection.

    Yields `put(first_row, block)` for the projection's rows, which
    rounds them to `_STORED` a group at a time, feeds each group to
    `digest` and writes it; the file appears at `path` once the block
    completes with every row put.
    """
    small = {
        "offset": model.offset,
        "eigenvalues": model.eigenvalues,
        "explained_variance_ratio": model.explained_variance_ratio,
    }
    shapes = {
        "projection": (n_bins, model.n_components),
        **{name: arr.shape for name, arr in small.items()},
    }
    dtypes = {"projection": _STORED.str}
    with open_container(path, PayloadKind.KPCA_MODEL, shapes, meta, dtypes) as put:
        for name, arr in small.items():
            put(name, 0, arr)

        def put_projection(first_row: int, block: np.ndarray) -> None:
            for r, stored in _stored_rows(block):
                digest.update(stored)
                put("projection", first_row + r, stored)

        yield put_projection


def save_kpca(
    model: KernelPcaModel, path: str | Path, meta: dict | None = None
) -> Path:
    """Write the primal-form model; `meta` adds entries to its metadata.

    A model whose fit id does not name its arrays is refused, and no
    file is written.
    """
    digest = _fit_digest(model.eigenvalues, model.offset)
    with _open_kpca(model, model.n_bins, path, meta, digest) as put:
        put(0, model.projection)
        if digest.hexdigest() != model.fit_id:
            raise ParameterError("the model's fit_id does not name its arrays")
    return Path(path)


@contextlib.contextmanager
def load_kpca(path: str | Path) -> Iterator[tuple[KernelPcaModel, dict]]:
    """Open a model written by save_kpca; the block yields (model, metadata).

    The projection stays in the file as a DiskMatrix, which
    kpca_transform reads one column block's rows at a time until the
    block exits.  The fit id is worked out from the file's arrays, the
    projection read once more a group of rows at a time.
    """
    with read_container_lazily(path, PayloadKind.KPCA_MODEL, "projection") as read:
        _, arrays, meta = read
        if "projection" not in arrays or "offset" not in arrays:
            raise DataError(
                f"{path} holds a kernel-form kPCA model without a projection "
                "and offset; rerun train to refit it"
            )
        with built_from(path):
            projection = arrays["projection"]
            names = ("offset", "eigenvalues", "explained_variance_ratio")
            if any(arrays[n].shape != projection.shape[1:] for n in names):
                raise ValueError(f"{', '.join(names)} must each hold one per component")
            digest = _fit_digest(arrays["eigenvalues"], arrays["offset"])
            for _, stored in _stored_rows(projection):
                digest.update(stored)
            model = KernelPcaModel(
                projection=projection,
                offset=arrays["offset"],
                eigenvalues=arrays["eigenvalues"],
                explained_variance_ratio=arrays["explained_variance_ratio"],
                fit_id=digest.hexdigest(),
            )
            sessions = meta.get("train_sessions", [])
            if not isinstance(sessions, list):
                raise ValueError(f"train_sessions must be a list, got {sessions!r}")
            for session in sessions:
                json_int(session, "a train session")
        yield model, meta
