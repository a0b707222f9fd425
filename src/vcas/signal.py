"""The excitation sweep and a modal-resonator plant.

The plant stands in for a physical gripper/object system: each object
configuration is modeled as a small bank of second-order resonant modes
driven by the one fixed sweep, plus additive white Gaussian noise at a
configured SNR.  modal_response filters a batch of plants in one
lockstep pass, in numpy alone, and can round its float64 responses once
into a float32 array.  Everything here is a pure function of its inputs
(including the noise seeds), so calls are safe from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError

# The sweep: 20 Hz to 20 kHz over 1 s at 44.1 kHz, cut to its first
# 42,000 samples (it ends near 19.05 kHz).
SAMPLE_RATE = 44100.0
SWEEP_F0 = 20.0
SWEEP_F1 = 20000.0
SWEEP_SECONDS = 1.0
SWEEP_POINTS = 42000
# Its spectrum: bins 1.05 Hz apart, DC through Nyquist.
BIN_HZ = SAMPLE_RATE / SWEEP_POINTS
N_BINS = SWEEP_POINTS // 2 + 1


def chirp() -> np.ndarray:
    """The sweep's samples: sin(2*pi*(f0*t + (f1-f0)*t^2/(2T)))."""
    t = np.arange(SWEEP_POINTS, dtype=np.float64) / SAMPLE_RATE
    return np.sin(
        2.0 * np.pi
        * (SWEEP_F0 * t + (SWEEP_F1 - SWEEP_F0) * t * t / (2.0 * SWEEP_SECONDS))
    )


@dataclass(frozen=True)
class ModalPlant:
    """Bank of (center_frequency_hz, damping_ratio, gain) resonant modes.

    `noise_snr_db` may be math.inf for a noise-free plant.
    """

    modes: tuple[tuple[float, float, float], ...]
    noise_snr_db: float = math.inf

    def __post_init__(self):
        modes = tuple((float(f), float(z), float(g)) for f, z, g in self.modes)
        if not modes:
            raise ParameterError("plant needs at least one mode")
        for f, z, g in modes:
            if not (f > 0):
                raise ParameterError(f"mode frequency must be positive, got {f}")
            if not (0 < z < 1):
                raise ParameterError(f"damping ratio must be in (0, 1), got {z}")
            if not (g >= 0):
                raise ParameterError(f"mode gain must be non-negative, got {g}")
        object.__setattr__(self, "modes", modes)


def _resonator_coeffs(
    freq_hz: float, damping: float, gain: float, sample_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two-pole band-pass (impulse-invariant pole placement).

    Poles sit at radius exp(-damping * w0 / fs); the pole angle is
    corrected so the magnitude peak of the (1 - z^-2) band-pass lands on
    freq_hz itself, and the numerator is scaled for |H| = gain there.
    """
    w0 = 2.0 * np.pi * freq_hz / sample_rate
    r = math.exp(-damping * w0)
    # Peak of |(1-z^-2)/A(z)| is at cos(w) = (2r/(1+r^2)) cos(theta);
    # invert so the peak lands on w0.
    c = (1.0 + r * r) / (2.0 * r) * math.cos(w0)
    theta = math.acos(min(1.0, max(-1.0, c)))
    a = np.array([1.0, -2.0 * r * math.cos(theta), r * r])
    b = np.array([1.0, 0.0, -1.0])
    z = np.exp(-1j * w0)
    h0 = abs((1.0 - z**2) / (a[0] + a[1] * z + a[2] * z**2))
    if h0 <= 0:
        raise ParameterError(f"degenerate resonator at {freq_hz} Hz")
    return b * (gain / h0), a


# Samples per block: the b*x products, the mode outputs and their sums
# are buffered one block at a time.
_BLOCK = 64


def modal_response(
    plants: Sequence[ModalPlant],
    excitation: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Noise-free plant output: the excitation through each mode, summed.

    `excitation` is 1-D, sampled at SAMPLE_RATE; the result has one row
    per plant.  Every mode of every plant runs in lockstep through the
    direct-form-II-transposed recursion in lfilter's operation order,
    and modes are summed in order, so each row is bit-identical to
    summing `scipy.signal.lfilter` over the plant's modes.  The
    responses are written into `out` when it is given (float32 or
    float64, shaped like the result); the arithmetic stays float64, and
    a float32 `out` receives each float64 sample rounded once.
    """
    batch = tuple(plants)
    if not batch:
        raise ParameterError("modal_response needs at least one plant")
    shape = (len(batch), len(excitation))
    if out is None:
        out = np.empty(shape)
    elif (
        not isinstance(out, np.ndarray)
        or out.shape != shape
        or out.dtype not in (np.dtype("<f4"), np.dtype("<f8"))
    ):
        raise ParameterError(
            f"out must be a <f4 or <f8 array of shape {shape}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        )
    nyquist = SAMPLE_RATE / 2
    for plant in batch:
        for f, _, _ in plant.modes:
            if f >= nyquist:
                raise ParameterError(
                    f"mode frequency {f} Hz is at or above Nyquist ({nyquist} Hz)"
                )
    # Coefficients as (tap, mode, plant).  Plants with fewer modes are
    # padded with b = a = 0 modes; their output is a zero, and a sum
    # that starts at +0.0 is unchanged by adding zeros of either sign.
    n_modes = max(len(p.modes) for p in batch)
    b = np.zeros((3, n_modes, len(batch)))
    a = np.zeros((3, n_modes, len(batch)))
    for j, plant in enumerate(batch):
        for m, mode in enumerate(plant.modes):
            b[:, m, j], a[:, m, j] = _resonator_coeffs(*mode, SAMPLE_RATE)
    # state[0:2] are the delays z0, z1; state[2] stays -0.0, the exact
    # additive identity, so one add forms (z1 + b1*x, b2*x) per sample.
    state = np.zeros((3, n_modes, len(batch)))
    state[2] = -0.0
    z0, z1_pad, delays, a12 = state[0], state[1:], state[:2], a[1:]
    ay = np.empty((2, n_modes, len(batch)))
    pending = np.empty((2, n_modes, len(batch)))
    # Block buffers, allocated once.
    bx0 = np.empty((_BLOCK, n_modes, len(batch)))
    bx12 = np.empty((_BLOCK, 2, n_modes, len(batch)))
    y = np.empty((_BLOCK, n_modes, len(batch)))
    total = np.empty((_BLOCK, len(batch)))
    for start in range(0, len(excitation), _BLOCK):
        xb = excitation[start : start + _BLOCK, None, None]
        n = xb.shape[0]
        np.multiply(b[0], xb, out=bx0[:n])
        np.multiply(b[1:], xb[:, None], out=bx12[:n])
        for yk, bx0k, bx12k in zip(y[:n], bx0, bx12):
            np.add(z0, bx0k, out=yk)  # y = z0 + b0*x
            np.multiply(a12, yk, out=ay)  # (a1*y, a2*y)
            np.add(z1_pad, bx12k, out=pending)  # (z1 + b1*x, b2*x)
            np.subtract(pending, ay, out=delays)
        # Modes summed in order into a zeroed total, as a loop of
        # `out += lfilter(...)` over a zeroed output does.
        total[:n] = 0.0
        for m in range(n_modes):
            total[:n] += y[:n, m]
        out[:, start : start + n] = total[:n].T
    return out


def noise_std_for_snr(clean: np.ndarray, snr_db: float) -> float:
    """Std of additive white noise giving the requested SNR vs `clean`."""
    if math.isinf(snr_db):
        return 0.0
    power = float(np.mean(clean * clean))
    return math.sqrt(power * 10.0 ** (-snr_db / 10.0))


def apply_noise(
    clean: np.ndarray,
    snr_db: float,
    seeds: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One noisy copy of `clean` per seed, at `snr_db`.

    `seeds` is 1-D; the rows are written into `out` (len(seeds) x
    clean.size) when it is given.  The noise std is
    derived once per call; each row is bit-identical to
    `clean + default_rng(s).normal(0, std, clean.size)`.
    """
    if out is None:
        out = np.empty((len(seeds), clean.size))
    std = noise_std_for_snr(clean, snr_db)
    if std == 0.0:
        out[:] = clean
    else:
        for row, s in zip(out, seeds):
            np.random.default_rng(int(s)).standard_normal(out=row)
            row *= std
            row += clean
    return out

