import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import covariance_pca_projections, kpca_reference
from vcas.container import PayloadKind, write_container
from vcas.errors import DataError, DegenerateInputError, ParameterError
from vcas.features import (
    Spectrum,
    band_select,
    fft_magnitude,
    kpca_fit,
    kpca_fit_transform,
    kpca_transform,
    load_kpca,
    save_kpca,
    write_evr_csv,
)
from vcas.signal import Waveform


def _spectrum(n=100, bin_hz=1.05, seed=0):
    rng = np.random.default_rng(seed)
    return Spectrum(np.abs(rng.normal(size=n)), bin_hz)


# ---------------------------------------------------------------- fft


def test_fft_pure_sine_hits_exact_bin():
    fs, n, k = 44100.0, 4410, 200
    t = np.arange(n) / fs
    freq = k * fs / n
    s = fft_magnitude(Waveform(np.sin(2 * np.pi * freq * t), fs))
    assert int(np.argmax(s.magnitudes)) == k


def test_fft_constant_signal_all_energy_in_dc():
    s = fft_magnitude(Waveform(np.full(1000, 0.7), 44100.0))
    assert int(np.argmax(s.magnitudes)) == 0
    assert float(np.max(s.magnitudes[1:])) < 1e-9 * s.magnitudes[0]


def test_fft_bin_spacing():
    s = fft_magnitude(Waveform(np.zeros(42000) + 1.0, 44100.0))
    assert s.bin_hz == pytest.approx(1.05)
    assert len(s) == 21001


# ---------------------------------------------------------- band_select


def test_band_select_documented_bin_range():
    # fs=44100, N=42000: [20 Hz, 9190 Hz) keeps bins 20..8752.
    s = Spectrum(np.arange(21001, dtype=float), 1.05)
    b = band_select(s, 20.0, 9190.0)
    assert b.first_bin == 20
    assert len(b) == 8752 - 20 + 1
    assert b.magnitudes[0] == 20.0
    assert b.magnitudes[-1] == 8752.0
    assert b.f_low == 20.0
    assert b.f_high == 9190.0


def test_band_select_full_range_is_identity():
    s = _spectrum(n=101)
    nyquist = 101 * s.bin_hz  # above the last bin's frequency
    b = band_select(s, 0.0, nyquist)
    assert np.array_equal(b.magnitudes, s.magnitudes)


def test_band_select_rejects_bad_bounds():
    s = _spectrum()
    with pytest.raises(ParameterError):
        band_select(s, 50.0, 50.0)
    with pytest.raises(ParameterError):
        band_select(s, 60.0, 50.0)
    with pytest.raises(ParameterError):
        band_select(s, -5.0, 50.0)


@settings(max_examples=60, deadline=None)
@given(split_frac=st.floats(0.05, 0.95), n=st.integers(16, 300))
def test_band_split_concatenation_is_exact(split_frac, n):
    rng = np.random.default_rng(n)
    s = Spectrum(np.abs(rng.normal(size=n)), 1.05)
    top = n * 1.05
    split = split_frac * (n - 1) * 1.05
    low = band_select(s, 0.0, split)
    high = band_select(s, split, top)
    both = band_select(s, 0.0, top)
    assert np.array_equal(
        np.concatenate([low.magnitudes, high.magnitudes]), both.magnitudes
    )


def test_spectrum_frequencies_and_peak():
    s = Spectrum(np.array([0.0, 3.0, 1.0]), 2.0, first_bin=5)
    assert np.array_equal(s.frequencies, [10.0, 12.0, 14.0])
    assert s.frequencies[np.argmax(s.magnitudes)] == 12.0


def test_spectrum_rejects_negative_magnitudes():
    with pytest.raises(ParameterError):
        Spectrum(np.array([-1.0, 1.0]), 1.0)


# --------------------------------------------------------- cosine kernel
# The kernel is only reachable through the kPCA fit and projection.


def test_cosine_kernel_scale_invariance():
    rng = np.random.default_rng(1)
    rows = np.abs(rng.normal(size=(8, 5))) + 0.1
    model = kpca_fit(rows, 3)
    x = rng.normal(size=(4, 5))
    assert np.array_equal(kpca_transform(model, 2.0 * x), kpca_transform(model, x))


def test_cosine_kernel_zero_row_rejected():
    rows = np.abs(np.random.default_rng(2).normal(size=(6, 3))) + 0.1
    model = kpca_fit(rows, 2)
    with pytest.raises(DegenerateInputError):
        kpca_fit_transform(np.vstack([rows, np.zeros(3)]), 2)
    with pytest.raises(DegenerateInputError):
        kpca_transform(model, np.zeros(3))


# ----------------------------------------------------------------- kpca


def test_kpca_matches_reference_small():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, 2)) + 2.0
    model, emb = kpca_fit_transform(rows, 2)
    _, ref_emb, ref_evr, _ = kpca_reference(rows, 2)
    for j in range(2):
        direct = np.abs(emb[:, j] - ref_emb[:, j]).max()
        flipped = np.abs(emb[:, j] + ref_emb[:, j]).max()
        assert min(direct, flipped) < 1e-8
    assert np.allclose(model.explained_variance_ratio, ref_evr, atol=1e-10)


def test_kpca_duplicate_rows_have_no_variance():
    rows = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    with pytest.raises(ParameterError, match="0"):
        kpca_fit(rows, 1)


def test_kpca_excess_components_reports_attainable_max():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(6, 4)) + 3.0
    with pytest.raises(ParameterError, match=r"\d+"):
        kpca_fit(rows, 50)


def test_kpca_evr_sums_to_one_for_full_rank_fit():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(12, 40)) + 2.0
    model = kpca_fit(rows, 11)
    assert abs(model.explained_variance_ratio.sum() - 1.0) < 1e-9


def test_kpca_transform_of_training_rows_matches_fit():
    rng = np.random.default_rng(6)
    rows = np.abs(rng.normal(size=(20, 16))) + 0.1
    model, emb = kpca_fit_transform(rows, 5)
    again = kpca_transform(model, rows)
    assert np.abs(emb - again).max() < 1e-8


def test_kpca_transform_scale_invariance():
    rng = np.random.default_rng(7)
    rows = np.abs(rng.normal(size=(15, 12))) + 0.1
    model, emb = kpca_fit_transform(rows, 4)
    scaled = kpca_transform(model, 2.0 * rows[3])
    assert np.abs(scaled - emb[3]).max() < 1e-10


def test_kpca_out_of_sample_matches_reference():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(25, 10)) + 2.0
    new = rng.normal(size=(7, 10)) + 2.0
    model = kpca_fit(rows, 6)
    got = kpca_transform(model, new)
    _, _, _, project = kpca_reference(rows, 6)
    ref = project(new)
    for j in range(6):
        direct = np.abs(got[:, j] - ref[:, j]).max()
        flipped = np.abs(got[:, j] + ref[:, j]).max()
        assert min(direct, flipped) < 1e-8


def test_kpca_sign_canonicalization_largest_coefficient_nonnegative():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(18, 7)) + 1.5
    model, emb = kpca_fit_transform(rows, 5)
    # emb = centered Gram @ coefficients, and the coefficients are
    # eigenvectors over sqrt(eigenvalue), so emb / eigenvalue gives them back.
    coef = emb / model.eigenvalues
    for j in range(5):
        col = coef[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_kpca_fit_is_bit_reproducible():
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(14, 9)) + 2.0
    m1, e1 = kpca_fit_transform(rows.copy(), 4)
    m2, e2 = kpca_fit_transform(rows.copy(), 4)
    assert e1.tobytes() == e2.tobytes()
    assert m1.eigenvalues.tobytes() == m2.eigenvalues.tobytes()


def test_kpca_single_row_transform_returns_vector():
    rng = np.random.default_rng(11)
    rows = np.abs(rng.normal(size=(10, 6))) + 0.1
    model = kpca_fit(rows, 3)
    out = kpca_transform(model, rows[0])
    assert out.shape == (3,)


def test_kpca_length_mismatch_rejected():
    rng = np.random.default_rng(12)
    model = kpca_fit(np.abs(rng.normal(size=(8, 6))) + 0.1, 2)
    with pytest.raises(ParameterError):
        kpca_transform(model, np.ones(5))


def test_kpca_linear_kernel_reproduces_classical_pca():
    # The cosine kernel is the linear kernel on unit rows, so cosine kPCA
    # is classical PCA of the unit rows, for the fit and the projection.
    rng = np.random.default_rng(13)
    for trial in range(5):
        rows = rng.normal(size=(10, 4))
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        model, emb = kpca_fit_transform(rows, 3)
        ref = covariance_pca_projections(unit, 3)
        again = kpca_transform(model, rows)
        for j in range(3):
            for got in (emb[:, j], again[:, j]):
                direct = np.abs(got - ref[:, j]).max()
                flipped = np.abs(got + ref[:, j]).max()
                assert min(direct, flipped) < 1e-8


def test_kpca_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    rows = np.abs(rng.normal(size=(12, 8))) + 0.1
    new = np.abs(rng.normal(size=(3, 8))) + 0.1
    model = kpca_fit(rows, 4)
    path = save_kpca(model, tmp_path / "k.vcas", {"train_sessions": [0, 2]})
    loaded, meta = load_kpca(path)
    assert meta == {"fit_id": model.fit_id, "train_sessions": [0, 2]}
    assert loaded.projection.shape == (8, 4)
    assert loaded.projection.tobytes() == model.projection.tobytes()
    assert loaded.offset.tobytes() == model.offset.tobytes()
    assert loaded.eigenvalues.tobytes() == model.eigenvalues.tobytes()
    assert kpca_transform(loaded, new).tobytes() == kpca_transform(model, new).tobytes()


def test_kpca_fit_id_hashes_eigenvalues_and_offset():
    rng = np.random.default_rng(15)
    rows = np.abs(rng.normal(size=(9, 5))) + 0.1
    model = kpca_fit(rows, 2)
    want = hashlib.sha256(model.eigenvalues.tobytes() + model.offset.tobytes())
    assert model.fit_id == want.hexdigest()
    assert kpca_fit(rows[1:], 2).fit_id != model.fit_id


def test_kernel_form_kpca_file_is_rejected(tmp_path):
    # The layout written before the primal form: training rows and the
    # kernel-centering statistics, with no projection or offset.
    rng = np.random.default_rng(16)
    arrays = {
        "training_rows": np.abs(rng.normal(size=(6, 4))),
        "coefficients": rng.normal(size=(6, 2)),
        "eigenvalues": np.array([0.5, 0.25]),
        "explained_variance_ratio": np.array([0.6, 0.3]),
        "kernel_row_means": rng.normal(size=6),
    }
    path = write_container(
        tmp_path / "old.vcas",
        PayloadKind.KPCA_MODEL,
        arrays,
        {"grand_mean": 0.5, "kernel": "cosine"},
    )
    with pytest.raises(DataError, match="rerun train") as exc:
        load_kpca(path)
    assert exc.value.exit_code == 2


def test_evr_csv_format(tmp_path):
    rng = np.random.default_rng(16)
    rows = np.abs(rng.normal(size=(10, 6))) + 0.1
    model = kpca_fit(rows, 3)
    path = write_evr_csv(model, tmp_path / "evr.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "component,eigenvalue,explained_variance_ratio,cumulative"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert int(last[0]) == 3
    # Cumulative column is a monotone partial sum of column 2.
    cums = [float(line.split(",")[3]) for line in lines[1:]]
    assert cums == sorted(cums)
