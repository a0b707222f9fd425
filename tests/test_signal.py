import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    df2t_second_order,
    one_sided_energy,
    time_domain_energy,
    zero_crossing_frequencies,
)
from vcas.errors import ParameterError
from vcas.features import fft_magnitude
from vcas.signal import (
    SAMPLE_RATE,
    SWEEP_F0,
    SWEEP_F1,
    SWEEP_POINTS,
    SWEEP_SECONDS,
    ModalPlant,
    apply_noise,
    chirp,
    modal_response,
    noise_std_for_snr,
    _resonator_coeffs,
)


def _sweep_law(t):
    """The sweep's instantaneous frequency at time t: f0 + (f1 - f0) t / T."""
    return SWEEP_F0 + (SWEEP_F1 - SWEEP_F0) * t / SWEEP_SECONDS


def test_default_chirp_spec_values():
    assert (SWEEP_F0, SWEEP_F1, SWEEP_SECONDS) == (20.0, 20000.0, 1.0)
    assert (SAMPLE_RATE, SWEEP_POINTS) == (44100.0, 42000)


def test_chirp_length_and_amplitude():
    x = chirp()
    assert x.shape == (42000,) and x.dtype == np.float64
    assert x[0] == 0.0
    assert np.max(np.abs(x)) <= 1.0


def test_chirp_final_instantaneous_frequency():
    # Truncation at 42000 samples ends the sweep just above 19 kHz.
    assert abs(_sweep_law((SWEEP_POINTS - 1) / SAMPLE_RATE) - 19029.0) < 30.0


def test_chirp_zero_crossing_frequency_tracks_linear_law():
    times, freqs = zero_crossing_frequencies(chirp(), SAMPLE_RATE)
    lo, hi = 0.05 * SWEEP_SECONDS, 0.95 * SWEEP_SECONDS
    keep = (times >= lo) & (times <= hi)
    assert keep.sum() > 300
    expected = _sweep_law(times[keep])
    rel = np.abs(freqs[keep] - expected) / expected
    assert float(rel.max()) < 0.01


def test_chirp_determinism():
    assert chirp().tobytes() == chirp().tobytes()


def _single_mode_plant(freq, zeta=0.01, gain=1.0):
    return ModalPlant(modes=((freq, zeta, gain),), noise_snr_db=np.inf)


def _received(plant, x, seed):
    """The received waveform: the plant's response plus its seeded noise."""
    clean = modal_response([plant], x)[0]
    return apply_noise(clean, plant.noise_snr_db, np.array([seed]))[0]


# Modes must sit inside the swept band with margin: the sweep ends near
# 19.05 kHz and its spectral edge roll-off skews peaks of modes parked
# there, so mode frequencies stay below ~16 kHz in practice.
@pytest.mark.parametrize("freq", [200.0, 997.0, 4000.0, 9000.0, 12000.0, 16000.0])
@pytest.mark.parametrize("zeta", [0.005, 0.01, 0.02])
def test_single_mode_spectral_peak_within_two_bins(freq, zeta):
    w = _received(_single_mode_plant(freq, zeta=zeta), chirp(), seed=0)
    peak_bin = int(np.argmax(fft_magnitude(w[None])[0]))
    want_bin = freq / (SAMPLE_RATE / len(w))
    assert abs(peak_bin - want_bin) <= 2.0


def test_modal_response_linearity_at_infinite_snr():
    x = chirp()
    plant = ModalPlant(modes=((800.0, 0.02, 1.0), (5000.0, 0.01, 0.4)), noise_snr_db=np.inf)
    base = modal_response([plant], x)
    scaled = modal_response([plant], 3.0 * x)
    rel = np.abs(scaled - 3.0 * base) / (np.abs(3.0 * base).max())
    assert float(rel.max()) < 1e-9


def test_mode_frequency_must_be_below_nyquist():
    with pytest.raises(ParameterError):
        modal_response([_single_mode_plant(23000.0)], chirp())


# Plants with different mode counts, one with a zero-gain mode.
_BATCH = (
    ModalPlant(modes=((800.0, 0.02, 1.0), (5000.0, 0.01, 0.4), (12000.0, 0.005, 2.0))),
    ModalPlant(modes=((300.0, 0.3, 0.7),)),
    ModalPlant(modes=((19800.0, 0.001, 1.5), (2500.0, 0.05, 0.0))),
)


def _short_chirp(n=300):
    # Longer than one filter block, with a partial last block.
    return chirp()[:n]


def _oracle_response(plant, excitation):
    out = np.zeros(len(excitation))
    for f, z, g in plant.modes:
        b, a = _resonator_coeffs(f, z, g, SAMPLE_RATE)
        out += df2t_second_order(b, a, excitation)
    return out


def test_batched_modal_response_matches_df2t_oracle_bitwise():
    x = _short_chirp()
    got = modal_response(list(_BATCH), x)
    assert got.shape == (len(_BATCH), len(x))
    for row, plant in zip(got, _BATCH):
        assert row.tobytes() == _oracle_response(plant, x).tobytes()


def test_batched_rows_equal_single_plant_calls():
    # A single plant is a batch of one.
    x = _short_chirp()
    got = modal_response(_BATCH, x)
    for row, plant in zip(got, _BATCH):
        one = modal_response([plant], x)
        assert one.shape == (1, len(x))
        assert one[0].tobytes() == row.tobytes()


@pytest.mark.parametrize(
    "plants",
    [_BATCH[:1], _BATCH],
    ids=["batch of one", "padded modes"],
)
@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_modal_response_out_receives_the_float64_response_rounded_once(plants, dtype):
    # The mode recursion and the mode sum stay float64; a float32 `out`
    # takes each float64 sample rounded once, as .astype does.
    x = _short_chirp()
    want = modal_response(plants, x).astype(dtype)
    out = np.full(want.shape, np.nan, dtype=dtype)
    assert modal_response(plants, x, out=out) is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "plants, out",
    [
        (_BATCH, np.empty((len(_BATCH), 299))),
        (_BATCH, np.empty((len(_BATCH) + 1, 300))),
        (_BATCH, np.empty(300)),
        (_BATCH[:1], np.empty(300)),
        (_BATCH, np.empty((len(_BATCH), 300), dtype=np.float16)),
        (_BATCH, np.empty((len(_BATCH), 300), dtype=">f8")),
        (_BATCH, np.empty((len(_BATCH), 300), dtype=np.complex128)),
        (_BATCH, np.zeros((len(_BATCH), 300)).tolist()),
    ],
    ids=["short", "extra row", "1-D", "1-D for a batch of one", "f2", "big-endian f8",
         "c16", "list"],
)
def test_modal_response_rejects_an_out_of_the_wrong_shape_or_dtype(plants, out):
    with pytest.raises(ParameterError, match="out must be"):
        modal_response(plants, _short_chirp(), out=out)


def test_noise_on_a_widened_float32_response_equals_the_float64_reference():
    # synth-data holds clean responses as float32 and widens each before
    # its noise: the std and the noisy rows are those of the rounded
    # response made in float64, bit for bit.
    x = chirp()
    stored = modal_response(_BATCH, x, out=np.empty((len(_BATCH), len(x)), "<f4"))
    seeds = np.array([4, 9, 10], dtype=np.uint32)
    for clean32, clean in zip(stored, modal_response(_BATCH, x)):
        wide = clean32.astype(np.float64)
        rounded = clean.astype(np.float32).astype(np.float64)
        assert wide.tobytes() == rounded.tobytes()
        std = noise_std_for_snr(wide, 30.0)
        assert std == math.sqrt(float(np.mean(rounded * rounded)) * 10.0 ** -3.0)
        got = apply_noise(wide, 30.0, seeds)
        for row, s in zip(got, seeds):
            want = rounded + np.random.default_rng(int(s)).normal(0.0, std, x.size)
            assert row.tobytes() == want.tobytes()
        # The rounding is far below the noise it is buried in.
        assert np.abs(wide - clean).max() <= 2.0**-24 * np.abs(clean).max()
        assert std > 1e4 * np.abs(wide - clean).max()


@pytest.mark.parametrize("freq", [22050.0, 23000.0])
def test_batch_with_last_plant_at_or_above_nyquist_rejected(freq):
    with pytest.raises(ParameterError, match="Nyquist"):
        modal_response([*_BATCH, _single_mode_plant(freq)], _short_chirp())


def test_empty_batch_rejected():
    with pytest.raises(ParameterError):
        modal_response([], _short_chirp())


def test_modal_response_agrees_with_scipy_lfilter():
    lfilter = pytest.importorskip("scipy.signal").lfilter
    x = chirp()
    got = modal_response(_BATCH, x)
    for row, plant in zip(got, _BATCH):
        want = np.zeros(len(x))
        for f, z, g in plant.modes:
            b, a = _resonator_coeffs(f, z, g, SAMPLE_RATE)
            want += lfilter(b, a, x)
        np.testing.assert_allclose(
            row, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
        )


def test_degenerate_mode_parameters_rejected():
    with pytest.raises(ParameterError):
        ModalPlant(modes=((500.0, 0.0, 1.0),), noise_snr_db=np.inf)
    with pytest.raises(ParameterError):
        ModalPlant(modes=((500.0, 1.5, 1.0),), noise_snr_db=np.inf)
    with pytest.raises(ParameterError):
        ModalPlant(modes=((500.0, 0.1, -1.0),), noise_snr_db=np.inf)


def test_noise_matches_requested_snr():
    rng = np.random.default_rng(5)
    clean = rng.normal(size=44100)
    noisy = apply_noise(clean, 10.0, np.array([3]))[0]
    noise = noisy - clean
    measured = 10.0 * np.log10(np.mean(clean**2) / np.mean(noise**2))
    assert abs(measured - 10.0) < 0.5


def test_noise_std_formula():
    clean = np.ones(1000)
    # SNR 20 dB on unit power: noise power 0.01, std 0.1.
    assert noise_std_for_snr(clean, 20.0) == pytest.approx(0.1)
    assert noise_std_for_snr(clean, np.inf) == 0.0


def test_apply_noise_infinite_snr_is_identity_copy():
    clean = np.linspace(-1, 1, 100)
    out = apply_noise(clean, np.inf, np.array([0]))
    assert np.array_equal(out, clean[None])
    assert not np.shares_memory(out, clean)


def test_apply_noise_seeded_determinism():
    clean = np.linspace(-1, 1, 1000)
    a = apply_noise(clean, 20.0, np.array([9]))
    b = apply_noise(clean, 20.0, np.array([9]))
    c = apply_noise(clean, 20.0, np.array([10]))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_apply_noise_writes_one_row_per_seed():
    clean = np.linspace(-1, 1, 1000)
    seeds = np.array([4, 9, 10], dtype=np.uint32)
    out = np.empty((3, 1000))
    assert apply_noise(clean, 20.0, seeds, out=out) is out
    std = noise_std_for_snr(clean, 20.0)
    for row, s in zip(out, seeds):
        want = clean + np.random.default_rng(int(s)).normal(0.0, std, clean.size)
        assert row.tobytes() == want.tobytes()
    assert np.array_equal(apply_noise(clean, np.inf, seeds), np.tile(clean, (3, 1)))


def test_synth_response_identical_for_same_seed():
    plant = ModalPlant(modes=((800.0, 0.02, 1.0),), noise_snr_db=30.0)
    a = _received(plant, chirp(), seed=4)
    b = _received(plant, chirp(), seed=4)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(16, 3000))
def test_parseval_identity_random_waveforms(seed, n):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=n)
    lhs = time_domain_energy(samples)
    rhs = one_sided_energy(fft_magnitude(samples[None])[0], n)
    assert abs(lhs - rhs) / lhs < 1e-6

