"""Spectral features and kernel principal components.

A received waveform is reduced to a one-sided FFT magnitude vector,
optionally restricted to a frequency band, then embedded with kernel
PCA under a cosine (normalized dot product) kernel.  The embedding is
what the estimators in `learn` consume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import PayloadKind, read_container, write_container
from .errors import DataError, DegenerateInputError, NumericalError, ParameterError
from .signal import Waveform

# A feature vector is just a 1-D float64 array; matrices stack them as rows.
FeatureVector = np.ndarray

_EIG_TOL_FACTOR = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum on a uniform frequency grid.

    Bin k (counting from `first_bin`) sits at (first_bin + k) * bin_hz;
    f_low and f_high record the band bounds the bins were selected
    under (lower edge inclusive, upper exclusive).  Magnitudes are raw
    |rfft| values: for a length-N signal the energy identity is
    sum(x^2) = (M_0^2 + 2*sum(M_mid^2) [+ M_nyq^2]) / N, the Nyquist
    term appearing only for even N.
    """

    magnitudes: np.ndarray
    bin_hz: float
    first_bin: int = 0
    f_low: float | None = None
    f_high: float | None = None

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        if mags.ndim != 1 or mags.size == 0:
            raise ParameterError("spectrum must be a non-empty 1-D sequence")
        if not np.isfinite(mags).all():
            raise ParameterError("spectrum magnitudes must be finite")
        if (mags < 0).any():
            raise ParameterError("spectrum magnitudes must be non-negative")
        if not (self.bin_hz > 0):
            raise ParameterError("bin_hz must be positive")
        if self.first_bin < 0:
            raise ParameterError("first_bin must be non-negative")
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "bin_hz", float(self.bin_hz))
        object.__setattr__(self, "first_bin", int(self.first_bin))
        f_low = self.f_low if self.f_low is not None else self.first_bin * self.bin_hz
        f_high = (
            self.f_high
            if self.f_high is not None
            else (self.first_bin + mags.size) * self.bin_hz
        )
        if not (f_low < f_high):
            raise ParameterError(f"need f_low < f_high, got [{f_low}, {f_high})")
        object.__setattr__(self, "f_low", float(f_low))
        object.__setattr__(self, "f_high", float(f_high))

    def __len__(self) -> int:
        return self.magnitudes.size

    @property
    def frequencies(self) -> np.ndarray:
        return (self.first_bin + np.arange(self.magnitudes.size)) * self.bin_hz


def fft_magnitude(w: Waveform) -> Spectrum:
    """One-sided magnitude spectrum of a waveform.

    Keeps DC through Nyquist (N//2 + 1 bins for even N), so no energy
    is dropped.
    """
    mags = np.abs(np.fft.rfft(w.samples))
    bin_hz = w.sample_rate / len(w)
    return Spectrum(mags, bin_hz=bin_hz, first_bin=0)


def band_select(s: Spectrum, f_low: float, f_high: float) -> Spectrum:
    """Restrict to bins with f_low <= bin frequency < f_high.

    The lower edge is inclusive and the upper exclusive, so adjacent
    bands partition the bins without overlap or double counting.  A bin
    sitting exactly at f_high (e.g. Nyquist for an even-length signal
    with f_high = fs/2) therefore lands in no band below it.
    """
    if f_low < 0:
        raise ParameterError("f_low must be non-negative")
    if not (f_low < f_high):
        raise ParameterError(f"need f_low < f_high, got [{f_low}, {f_high})")
    freqs = s.frequencies
    keep = (freqs >= f_low) & (freqs < f_high)
    if not keep.any():
        raise ParameterError(
            f"band [{f_low}, {f_high}) Hz selects no bins "
            f"(spectrum spans [{freqs[0]}, {freqs[-1]}] Hz)"
        )
    idx = np.flatnonzero(keep)
    return Spectrum(
        s.magnitudes[idx[0] : idx[-1] + 1],
        bin_hz=s.bin_hz,
        first_bin=s.first_bin + int(idx[0]),
        f_low=f_low,
        f_high=f_high,
    )


def _as_matrix(rows: np.ndarray, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ParameterError(f"{name} must be a row vector or matrix of rows")
    if not np.isfinite(rows).all():
        raise ParameterError(f"{name} must be finite")
    return rows


def _unit_rows(rows: np.ndarray, name: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if (norms == 0).any():
        raise DegenerateInputError(f"{name} contains an all-zero row")
    return rows / norms[:, None]


@dataclass(frozen=True)
class KernelPcaModel:
    """Fitted cosine kernel-PCA projection, stored in primal form.

    A cosine kernel is the dot product of L2-normalised rows, so the
    centred kernel row of a new row x against the training set, times
    the scaled eigenvector columns C, is affine in unit(x) = x / |x|:
    the embedding is unit(x) @ projection + offset.  For training unit
    rows U, Gram row means m and grand mean g,
    projection = U.T @ (C - mean of C's rows) (bins x components) and
    offset = -m @ C + g * (column sums of C).
    """

    projection: np.ndarray
    offset: np.ndarray
    eigenvalues: np.ndarray
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.projection.shape[1]

    @property
    def n_bins(self) -> int:
        return self.projection.shape[0]

    @property
    def fit_id(self) -> str:
        """sha256 of the stored eigenvalues and offset: names one fit."""
        digest = hashlib.sha256()
        for arr in (self.eigenvalues, self.offset):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return digest.hexdigest()


def kpca_fit_transform(
    rows: np.ndarray, n_components: int
) -> tuple[KernelPcaModel, np.ndarray]:
    """Fit cosine kernel PCA; return (model, training-row embeddings).

    The Gram matrix is double-centered (mean removal in the kernel
    feature space), eigendecomposed, and the top `n_components`
    eigenpairs with eigenvalues above tolerance are retained.  Raises
    ParameterError reporting the attainable maximum when `n_components`
    exceeds the positive-eigenvalue count.  The embeddings come straight
    from the eigensystem (centered Gram times the coefficient columns);
    kpca_transform on the training rows agrees to rounding.
    """
    rows = _as_matrix(rows, "rows")
    n = rows.shape[0]
    if n < 2:
        raise ParameterError("kernel PCA needs at least two rows")
    if n_components < 1:
        raise ParameterError("n_components must be at least 1")

    unit = _unit_rows(rows, "rows")
    # A distinct second operand keeps numpy on BLAS gemm: `unit @ unit.T`
    # on one buffer goes to syrk, which rounds differently.
    gram = unit @ unit.copy().T
    if not np.isfinite(gram).all():
        raise NumericalError("kernel produced non-finite values")

    row_means = gram.mean(axis=1)
    grand = float(gram.mean())
    centered = gram - row_means[:, None] - row_means[None, :] + grand

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

    evr = kept_vals / float(evals[evals > tol].sum())
    model = KernelPcaModel(
        projection=unit.T @ (coef - coef.mean(axis=0)),
        offset=-row_means @ coef + grand * coef.sum(axis=0),
        eigenvalues=kept_vals,
        explained_variance_ratio=evr,
    )
    return model, centered @ coef


def kpca_fit(rows: np.ndarray, n_components: int) -> KernelPcaModel:
    """Fit cosine kernel PCA on the rows of a feature matrix."""
    return kpca_fit_transform(rows, n_components)[0]


def kpca_transform(model: KernelPcaModel, rows: np.ndarray) -> np.ndarray:
    """Project one row (1-D) or a matrix of rows into component space.

    Equal to centering each row's cosine-kernel row against the
    training set and multiplying by the scaled eigenvectors, folded
    into unit(rows) @ projection + offset.
    """
    rows_arr = np.asarray(rows, dtype=np.float64)
    single = rows_arr.ndim == 1
    rows_m = _as_matrix(rows_arr, "rows")
    if rows_m.shape[1] != model.n_bins:
        raise ParameterError(
            f"row length {rows_m.shape[1]} does not match training "
            f"length {model.n_bins}"
        )
    out = _unit_rows(rows_m, "rows") @ model.projection + model.offset
    return out[0] if single else out


def write_evr_csv(model: KernelPcaModel, path: str | Path) -> Path:
    """Component-wise eigenvalue / explained-variance table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cum = np.cumsum(model.explained_variance_ratio)
    with path.open("w") as fh:
        fh.write("component,eigenvalue,explained_variance_ratio,cumulative\n")
        for i in range(model.n_components):
            fh.write(
                f"{i + 1},{float(model.eigenvalues[i])!r},"
                f"{float(model.explained_variance_ratio[i])!r},{float(cum[i])!r}\n"
            )
    return path


def save_kpca(
    model: KernelPcaModel, path: str | Path, meta: dict | None = None
) -> Path:
    """Write the primal-form model; `meta` adds entries to its metadata."""
    arrays = {
        "projection": model.projection,
        "offset": model.offset,
        "eigenvalues": model.eigenvalues,
        "explained_variance_ratio": model.explained_variance_ratio,
    }
    return write_container(
        path, PayloadKind.KPCA_MODEL, arrays, {**(meta or {}), "fit_id": model.fit_id}
    )


def load_kpca(path: str | Path) -> tuple[KernelPcaModel, dict]:
    """Read a model written by save_kpca; returns (model, metadata)."""
    _, arrays, meta = read_container(path, expect_kind=PayloadKind.KPCA_MODEL)
    if "projection" not in arrays or "offset" not in arrays:
        raise DataError(
            f"{path} holds a kernel-form kPCA model without a projection "
            "and offset; rerun train to refit it"
        )
    model = KernelPcaModel(
        projection=arrays["projection"],
        offset=arrays["offset"],
        eigenvalues=arrays["eigenvalues"],
        explained_variance_ratio=arrays["explained_variance_ratio"],
    )
    return model, meta
