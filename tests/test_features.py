import hashlib
from dataclasses import replace

import numpy as np
import pytest

import vcas.features as features
from _oracles import covariance_pca_projections, kpca_reference
from vcas.container import PayloadKind, _index, read_container_lazily, write_container
from vcas.errors import DataError, DegenerateInputError, NumericalError, ParameterError
from vcas.features import (
    fft_magnitude,
    kpca_fit_transform,
    kpca_transform,
    load_kpca,
    save_kpca,
    write_evr_csv,
)


# ---------------------------------------------------------------- fft


def test_fft_pure_sine_hits_exact_bin():
    fs, n, k = 44100.0, 4410, 200
    t = np.arange(n) / fs
    freq = k * fs / n
    mags = fft_magnitude(np.sin(2 * np.pi * freq * t)[None])[0]
    assert int(np.argmax(mags)) == k


def test_fft_constant_signal_all_energy_in_dc():
    mags = fft_magnitude(np.full((1, 1000), 0.7))[0]
    assert int(np.argmax(mags)) == 0
    assert float(np.max(mags[1:])) < 1e-9 * mags[0]


def test_fft_bin_spacing():
    # 42,000 samples keep DC through Nyquist: 21,001 bins, which at
    # 44.1 kHz sit 1.05 Hz apart (vcas.signal.BIN_HZ).
    assert fft_magnitude(np.ones((1, 42000))).shape == (1, 21001)


def test_fft_batch_rows_equal_the_single_waveform_call():
    samples = np.random.default_rng(2).normal(size=(5, 4200))
    out = np.empty((5, 2101))
    scratch = np.empty((5, 2101), dtype=np.complex128)
    mags = fft_magnitude(samples, out=out, scratch=scratch)
    assert mags is out
    for row, x in zip(out, samples):
        assert row.tobytes() == fft_magnitude(x[None])[0].tobytes()
        assert row.tobytes() == np.abs(np.fft.rfft(x)).tobytes()


def test_fft_batch_rejects_non_finite_samples_and_spectra():
    samples = np.zeros((2, 64))
    samples[1, 5] = np.inf
    with pytest.raises(ParameterError, match="waveform samples must be finite"):
        fft_magnitude(samples)
    # Finite samples whose sum overflows: the spectrum is what is non-finite.
    with pytest.raises(ParameterError, match="spectrum magnitudes must be finite"):
        fft_magnitude(np.full((1, 8), 1e308))


# --------------------------------------------------------- cosine kernel
# The kernel is only reachable through the kPCA fit and projection.


def test_cosine_kernel_scale_invariance():
    rng = np.random.default_rng(1)
    rows = np.abs(rng.normal(size=(8, 5))) + 0.1
    model = kpca_fit_transform(rows, 3)[0]
    x = rng.normal(size=(4, 5))
    assert np.array_equal(kpca_transform(model, 2.0 * x), kpca_transform(model, x))


def test_cosine_kernel_zero_row_rejected():
    rows = np.abs(np.random.default_rng(2).normal(size=(6, 3))) + 0.1
    model = kpca_fit_transform(rows, 2)[0]
    with pytest.raises(DegenerateInputError):
        kpca_fit_transform(np.vstack([rows, np.zeros(3)]), 2)
    with pytest.raises(DegenerateInputError):
        kpca_transform(model, np.zeros((1, 3)))


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
        kpca_fit_transform(rows, 1)


def test_kpca_excess_components_reports_attainable_max():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(6, 4)) + 3.0
    with pytest.raises(ParameterError, match=r"\d+"):
        kpca_fit_transform(rows, 50)


def test_kpca_evr_sums_to_one_for_full_rank_fit():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(12, 40)) + 2.0
    model = kpca_fit_transform(rows, 11)[0]
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
    scaled = kpca_transform(model, 2.0 * rows[3:4])
    assert np.abs(scaled - emb[3:4]).max() < 1e-10


def test_kpca_out_of_sample_matches_reference():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(25, 10)) + 2.0
    new = rng.normal(size=(7, 10)) + 2.0
    model = kpca_fit_transform(rows, 6)[0]
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
    # One row is a 1 x bins matrix and gives a 1 x components row vector;
    # a 1-D row is not a matrix of rows.
    rng = np.random.default_rng(11)
    rows = np.abs(rng.normal(size=(10, 6))) + 0.1
    model = kpca_fit_transform(rows, 3)[0]
    out = kpca_transform(model, rows[:1])
    assert out.shape == (1, 3)
    with pytest.raises(ParameterError, match="matrix of rows"):
        kpca_transform(model, rows[0])


def test_kpca_length_mismatch_rejected():
    rng = np.random.default_rng(12)
    model = kpca_fit_transform(np.abs(rng.normal(size=(8, 6))) + 0.1, 2)[0]
    with pytest.raises(ParameterError):
        kpca_transform(model, np.ones((1, 5)))


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


def test_kpca_on_a_wide_band_view_matches_both_oracles():
    # More bins than two column blocks plus a remainder, taken as a
    # non-contiguous column view, the way eval passes a band.
    block = features._BLOCK_BINS
    rng = np.random.default_rng(14)
    wide = np.abs(rng.normal(size=(37, 2 * block + 152))) + 0.1
    lo, hi = 50, wide.shape[1] - 50
    rows, new = wide[:30, lo:hi], wide[30:, lo:hi]
    assert not rows.flags.c_contiguous and rows.shape[1] % block
    model, emb = kpca_fit_transform(rows, 4)
    _, ref_emb, _, project = kpca_reference(rows, 4)
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    checks = [
        (emb, ref_emb),
        (kpca_transform(model, rows), ref_emb),
        (emb, covariance_pca_projections(unit, 4)),
        (kpca_transform(model, new), project(new)),
    ]
    for got, ref in checks:
        for j in range(4):
            direct = np.abs(got[:, j] - ref[:, j]).max()
            flipped = np.abs(got[:, j] + ref[:, j]).max()
            assert min(direct, flipped) < 1e-8


def test_kpca_leaves_its_input_rows_unchanged():
    rng = np.random.default_rng(15)
    rows = np.abs(rng.normal(size=(12, 30))) + 0.1
    new = np.abs(rng.normal(size=(5, 30))) + 0.1
    before = rows.tobytes(), new.tobytes()
    model, _ = kpca_fit_transform(rows, 3)
    kpca_transform(model, new)
    assert (rows.tobytes(), new.tobytes()) == before


def _as_stored(model):
    """`model` with its projection rounded to float32 once, as a file stores it."""
    return replace(model, projection=model.projection.astype("<f4").astype("<f8"))


def test_kpca_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    rows = np.abs(rng.normal(size=(12, 8))) + 0.1
    new = np.abs(rng.normal(size=(3, 8))) + 0.1
    model = kpca_fit_transform(rows, 4)[0]
    stored = _as_stored(model)
    path = save_kpca(model, tmp_path / "k.vcas", {"train_sessions": [0, 2]})
    with load_kpca(path) as (loaded, meta):
        assert meta == {"train_sessions": [0, 2]}
        assert loaded.fit_id == model.fit_id
        assert loaded.projection.shape == (8, 4)
        assert np.asarray(loaded.projection).tobytes() == stored.projection.tobytes()
        assert loaded.offset.tobytes() == model.offset.tobytes()
        assert loaded.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        got = kpca_transform(loaded, new)
    assert got.tobytes() == kpca_transform(stored, new).tobytes()


def test_a_kpca_file_stores_its_projection_as_f4(tmp_path):
    rng = np.random.default_rng(20)
    model = kpca_fit_transform(np.abs(rng.normal(size=(9, 300))) + 0.1, 3)[0]
    path = save_kpca(model, tmp_path / "k.vcas")
    with open(path, "rb") as fh:
        _, _, index = _index(fh, path, PayloadKind.KPCA_MODEL)
        dtypes = {name: dtype.str for name, (_, dtype, _) in index.items()}
        assert dtypes == {"projection": "<f4", "offset": "<f8", "eigenvalues": "<f8",
                          "explained_variance_ratio": "<f8"}
        dims, _, offset = index["projection"]
        fh.seek(offset)
        want = model.projection.astype("<f4").tobytes()
        assert dims == (300, 3) and fh.read(len(want)) == want


def test_a_kpca_files_transform_is_within_float32_rounding_of_the_fits(tmp_path):
    # Each stored projection value is within 2**-24 of its own magnitude,
    # so an embedding moves by at most 2**-24 * (|x| @ |P|) / |x|, plus
    # the float64 rounding of the two sums.
    n_bins = 2 * features._BLOCK_BINS + 301
    rng = np.random.default_rng(21)
    model = kpca_fit_transform(np.abs(rng.normal(size=(30, n_bins))) + 0.1, 6)[0]
    new = np.abs(rng.normal(size=(7, n_bins))) + 0.1
    want = kpca_transform(model, new)
    with load_kpca(save_kpca(model, tmp_path / "k.vcas")) as (loaded, _):
        got = kpca_transform(loaded, new)
    scale = np.abs(new) @ np.abs(model.projection) / np.linalg.norm(new, axis=1)[:, None]
    bound = (2.0**-24 + 1e-12) * scale + 1e-15
    assert (got != want).any()
    assert (np.abs(got - want) <= bound).all()


def test_a_kpca_file_with_an_f8_projection_still_loads_and_transforms(tmp_path):
    # Files written before the projection was stored as float32 hold it
    # as <f8, which reads back bit for bit.
    rng = np.random.default_rng(22)
    model = kpca_fit_transform(np.abs(rng.normal(size=(10, 40))) + 0.1, 3)[0]
    new = np.abs(rng.normal(size=(4, 40))) + 0.1
    names = ("projection", "offset", "eigenvalues", "explained_variance_ratio")
    path = write_container(tmp_path / "k.vcas", PayloadKind.KPCA_MODEL,
                           {name: getattr(model, name) for name in names},
                           {"train_sessions": [1]})
    with load_kpca(path) as (loaded, meta):
        assert meta == {"train_sessions": [1]}
        assert np.asarray(loaded.projection).tobytes() == model.projection.tobytes()
        assert loaded.fit_id == model.fit_id
        got = kpca_transform(loaded, new)
    assert got.tobytes() == kpca_transform(model, new).tobytes()


@pytest.mark.parametrize("n_bins", [8, 2 * features._BLOCK_BINS,
                                    2 * features._BLOCK_BINS + 301])
def test_a_streamed_fit_of_an_array_writes_the_file_save_kpca_writes(tmp_path, n_bins):
    # One partial block, two whole blocks, and two whole blocks and a
    # partial one.
    rng = np.random.default_rng(18)
    rows = np.abs(rng.normal(size=(11, n_bins))) + 0.1
    meta = {"train_sessions": [3]}
    want = save_kpca(kpca_fit_transform(rows, 4)[0], tmp_path / "want.vcas", meta)
    model, _ = kpca_fit_transform(rows, 4, tmp_path / "got.vcas", meta)
    assert (tmp_path / "got.vcas").read_bytes() == want.read_bytes()
    assert model.projection is None and model.n_components == 4


def test_a_streamed_fit_that_fails_writes_no_file(tmp_path, monkeypatch):
    rows = np.abs(np.random.default_rng(19).normal(size=(5, 3 * features._BLOCK_BINS)))
    with pytest.raises(ParameterError, match="exceeds"):
        kpca_fit_transform(rows + 0.1, 9, tmp_path / "k.vcas")
    assert list(tmp_path.iterdir()) == []

    # Fail in the projection pass, once its first block has been written.
    passes = []
    column_blocks = features._column_blocks

    def failing(rows):
        passes.append(rows)
        for i, item in enumerate(column_blocks(rows)):
            if len(passes) == 2 and i == 1:
                raise NumericalError("stopped mid-projection")
            yield item

    monkeypatch.setattr(features, "_column_blocks", failing)
    with pytest.raises(NumericalError, match="mid-projection"):
        kpca_fit_transform(rows + 0.1, 2, tmp_path / "k.vcas")
    assert list(tmp_path.iterdir()) == []


def test_kpca_transform_gives_the_same_bits_from_arrays_and_files(tmp_path):
    # More bins than two column blocks, and not a multiple of a block, so
    # the transform sums three block products.  The rows are a band of a
    # wider file, the way eval reads a test file.
    # The array is the model's projection rounded as the file stores it.
    n_bins = 2 * features._BLOCK_BINS + 301
    rng = np.random.default_rng(17)
    fitted = kpca_fit_transform(np.abs(rng.normal(size=(20, n_bins))) + 0.1, 4)[0]
    model = _as_stored(fitted)
    wide = np.abs(rng.normal(size=(8, n_bins + 50))) + 0.1
    wide[6] = 0.0  # an all-zero row
    wide[7, 3000] = np.inf
    band = slice(20, 20 + n_bins)
    new = wide[:6, band]
    kpca_path = save_kpca(fitted, tmp_path / "k.vcas")
    rows_path = write_container(tmp_path / "r.vcas", PayloadKind.DATASET, {"rows": wide})
    want = kpca_transform(model, new)
    want_one = kpca_transform(model, new[1:2])
    with (
        load_kpca(kpca_path) as (on_disk, _),
        read_container_lazily(rows_path, on_disk="rows") as (_, arrays, _),
    ):
        disk_rows = arrays["rows"][:, band]
        for projected in (model, on_disk):
            got = kpca_transform(projected, disk_rows[:6])
            assert got.tobytes() == want.tobytes()
            assert kpca_transform(projected, new).tobytes() == want.tobytes()
            assert kpca_transform(projected, new[1:2]).tobytes() == want_one.tobytes()
            got_one = kpca_transform(projected, disk_rows[1:2])
            assert got_one.tobytes() == want_one.tobytes()
            with pytest.raises(DegenerateInputError):
                kpca_transform(projected, disk_rows[5:7])
            with pytest.raises(ParameterError, match="finite"):
                kpca_transform(projected, disk_rows[7:8])


def test_kpca_fit_id_hashes_eigenvalues_offset_and_stored_projection(tmp_path):
    rng = np.random.default_rng(15)
    rows = np.abs(rng.normal(size=(9, 5))) + 0.1
    model = kpca_fit_transform(rows, 2)[0]
    want = hashlib.sha256(model.eigenvalues.tobytes() + model.offset.tobytes()
                          + model.projection.astype("<f4").tobytes())
    assert model.fit_id == want.hexdigest()
    assert kpca_fit_transform(rows[1:], 2)[0].fit_id != model.fit_id
    # save_kpca refuses a model whose id does not name its projection.
    moved = replace(model, projection=model.projection + 1.0)
    with pytest.raises(ParameterError, match="fit_id"):
        save_kpca(moved, tmp_path / "k.vcas")
    assert list(tmp_path.iterdir()) == []


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
        with load_kpca(path):
            pytest.fail("opened a kernel-form model")
    assert exc.value.exit_code == 2


def test_evr_csv_format(tmp_path):
    rng = np.random.default_rng(16)
    rows = np.abs(rng.normal(size=(10, 6))) + 0.1
    model = kpca_fit_transform(rows, 3)[0]
    path = write_evr_csv(model, tmp_path / "evr.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "component,eigenvalue,explained_variance_ratio,cumulative"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert int(last[0]) == 3
    # Cumulative column is a monotone partial sum of column 2.
    cums = [float(line.split(",")[3]) for line in lines[1:]]
    assert cums == sorted(cums)
