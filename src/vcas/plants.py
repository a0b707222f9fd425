"""Plant presets: the synthetic stand-ins for physical test objects.

Each task ships a JSON preset describing resonant-mode banks.  Object
and grasp tasks map each class to a fixed bank; the pose task shifts
mode frequencies linearly with the internal rotation angle; the
contact task shifts frequencies with the peg pose and scales damping
and gain per contact label (more constrained contact damps modes
harder, high modes hardest).

Recording sessions are modeled as a small multiplicative jitter on
mode parameters, drawn once per session and applied to every plant
realized in it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Literal, get_args
from pathlib import Path

import numpy as np

from .container import read_text
from .envsim import CONTACT_LABELS, contact_type
from .errors import DataError, ParameterError
from .signal import ModalPlant

Modes = tuple[tuple[float, float, float], ...]

Task = Literal["object", "grasp", "pose", "contact"]
TASKS = get_args(Task)

FREQ_JITTER_SIGMA = 0.002
GAIN_JITTER_SIGMA = 0.05
DAMPING_JITTER_SIGMA = 0.05

# Angles where the contact preset's pose slopes are zero.
CONTACT_REFERENCE_POSE = (45.0, 45.0)


@dataclass(frozen=True)
class ClassBankPreset:
    """One fixed mode bank per class label (object and grasp tasks)."""

    task: str
    noise_snr_db: float
    classes: dict[str, Modes]

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.classes))

    @property
    def max_modes(self) -> int:
        return max(len(m) for m in self.classes.values())


@dataclass(frozen=True)
class PosePreset:
    """Mode bank whose frequencies drift linearly with the pose angle."""

    task: str
    noise_snr_db: float
    base_modes: Modes
    freq_slope_hz_per_deg: tuple[float, ...]
    train_angles: tuple[float, ...]

    @property
    def max_modes(self) -> int:
        return len(self.base_modes)


@dataclass(frozen=True)
class ContactPreset:
    """Pose-dependent bank with per-contact damping and gain patterns."""

    task: str
    noise_snr_db: float
    base_modes: Modes
    pose_freq_slope_hz_per_deg: tuple[tuple[float, float], ...]
    damping_scale: dict[str, tuple[float, ...]]
    gain_scale: dict[str, tuple[float, ...]]

    @property
    def max_modes(self) -> int:
        return len(self.base_modes)


Preset = ClassBankPreset | PosePreset | ContactPreset


def _parse_modes(raw, where: str) -> Modes:
    """A non-empty list of finite [freq, damping, gain] triples."""
    if not isinstance(raw, list) or not raw:
        raise DataError(f"{where} must be a non-empty list of [freq, damping, gain]")
    modes = tuple(_finite_numbers(m, f"{where}[{i}]") for i, m in enumerate(raw))
    for i, mode in enumerate(modes):
        if len(mode) != 3 or not (mode[0] > 0 and 0 < mode[1] < 1 and mode[2] >= 0):
            raise DataError(
                f"{where}[{i}]: invalid mode {list(mode)}, need "
                "[freq > 0, 0 < damping < 1, gain >= 0]"
            )
    return modes


def _number(raw, where: str) -> float:
    """A JSON number (not a boolean) as a float."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DataError(f"{where} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError as exc:
        raise DataError(f"{where} is out of range") from exc


def _finite_numbers(raw, where: str) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise DataError(f"{where} must be a list of numbers, got {raw!r}")
    values = tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(raw))
    if not all(math.isfinite(v) for v in values):
        raise DataError(f"{where} must be finite, got {raw!r}")
    return values


def _parse_snr(raw, path: Path) -> float:
    """noise_snr_db in dB; absent, null or Infinity means noise-free."""
    if raw is None:
        return math.inf
    snr = _number(raw, f"preset {path}: noise_snr_db")
    if math.isnan(snr) or snr == -math.inf:
        raise DataError(
            f"preset {path}: noise_snr_db must be finite or Infinity, got {raw!r}"
        )
    return snr


def default_preset_path(task: str) -> Path:
    if task not in TASKS:
        raise ParameterError(f"unknown task {task!r}; use one of {TASKS}")
    return Path(str(resources.files("vcas") / "presets" / f"{task}.json"))


def load_preset(source: str | Path) -> Preset:
    """Parse and validate a preset file (or a bare task name)."""
    path = Path(source)
    if str(source) in TASKS:
        path = default_preset_path(str(source))
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"preset {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"preset {path} must be a JSON object")

    task = raw.get("task")
    snr = _parse_snr(raw.get("noise_snr_db"), path)
    if task in ("object", "grasp"):
        classes = raw.get("classes")
        if not isinstance(classes, dict) or len(classes) < 2:
            raise DataError(f"preset {path}: needs >= 2 classes")
        return ClassBankPreset(task, snr, {
            name: _parse_modes(m, f"preset {path}: class {name!r}")
            for name, m in classes.items()
        })
    if task == "pose":
        base = _parse_modes(raw.get("base_modes"), f"preset {path}: base_modes")
        slopes, angles = (
            _finite_numbers(raw.get(key, []), f"preset {path}: {key}")
            for key in ("freq_slope_hz_per_deg", "train_angles")
        )
        if len(slopes) != len(base):
            raise DataError(f"preset {path}: one frequency slope per mode required")
        if len(angles) < 2 or sorted(set(angles)) != list(angles):
            raise DataError(f"preset {path}: train_angles must be sorted and distinct")
        return PosePreset(task, snr, base, slopes, angles)
    if task == "contact":
        base = _parse_modes(raw.get("base_modes"), f"preset {path}: base_modes")
        pairs = raw.get("pose_freq_slope_hz_per_deg", [])
        where = f"preset {path}: pose_freq_slope_hz_per_deg"
        if not isinstance(pairs, list):
            raise DataError(f"{where} must be a list of (x, z) pairs")
        slopes = tuple(_finite_numbers(p, f"{where}[{i}]") for i, p in enumerate(pairs))
        if len(slopes) != len(base) or any(len(pair) != 2 for pair in slopes):
            raise DataError(f"preset {path}: one (x, z) slope pair per mode required")
        scales = {}
        for key in ("damping_scale", "gain_scale"):
            table = raw.get(key)
            if not isinstance(table, dict) or set(table) != set(CONTACT_LABELS):
                raise DataError(f"preset {path}: {key} must cover {CONTACT_LABELS}")
            parsed = {}
            for label, factors in table.items():
                factors = _finite_numbers(factors, f"preset {path}: {key}[{label}]")
                if len(factors) != len(base) or any(v <= 0 for v in factors):
                    raise DataError(
                        f"preset {path}: {key}[{label}] needs {len(base)} "
                        "positive factors"
                    )
                parsed[label] = factors
            scales[key] = parsed
        return ContactPreset(
            task, snr, base, slopes, scales["damping_scale"], scales["gain_scale"]
        )
    raise DataError(f"preset {path}: unknown task {task!r}")


@dataclass(frozen=True)
class SessionJitter:
    """Multiplicative parameter drift for one recording session."""

    freq_factor: float
    gain_factors: tuple[float, ...]
    damping_factor: float


def draw_session_jitter(
    rng: np.random.Generator, n_modes: int, scale: float = 1.0
) -> SessionJitter:
    """One frequency scalar, per-mode gain factors, one damping scalar.

    `scale` stretches all sigmas; the perturbed test condition uses 3.
    """
    freq = 1.0 + scale * FREQ_JITTER_SIGMA * rng.standard_normal()
    gains = 1.0 + scale * GAIN_JITTER_SIGMA * rng.standard_normal(n_modes)
    damping = 1.0 + scale * DAMPING_JITTER_SIGMA * rng.standard_normal()
    return SessionJitter(float(freq), tuple(np.maximum(gains, 0.02)), float(damping))


def apply_jitter(modes: Modes, jitter: SessionJitter) -> Modes:
    out = []
    for (f, z, g), gf in zip(modes, jitter.gain_factors):
        f = min(f * jitter.freq_factor, 19800.0)
        z = min(max(z * jitter.damping_factor, 0.001), 0.8)
        out.append((f, z, max(g * gf, 0.0)))
    return tuple(out)


def pose_modes(preset: PosePreset, angle_deg: float) -> Modes:
    """Mode bank at a rotation angle; frequencies drift linearly."""
    lo, hi = preset.train_angles[0], preset.train_angles[-1]
    if not (lo <= angle_deg <= hi):
        raise ParameterError(f"angle {angle_deg} outside [{lo}, {hi}]")
    return tuple(
        (f + s * angle_deg, z, g)
        for (f, z, g), s in zip(preset.base_modes, preset.freq_slope_hz_per_deg)
    )


def contact_modes(
    preset: ContactPreset, theta_x: float, theta_z: float
) -> tuple[Modes, str]:
    """Mode bank and contact label at a peg pose."""
    label = contact_type(theta_x, theta_z).label
    ref_x, ref_z = CONTACT_REFERENCE_POSE
    zs = preset.damping_scale[label]
    gs = preset.gain_scale[label]
    modes = tuple(
        (
            f + sx * (theta_x - ref_x) + sz * (theta_z - ref_z),
            min(z * zf, 0.9),
            g * gf,
        )
        for (f, z, g), (sx, sz), zf, gf in zip(
            preset.base_modes, preset.pose_freq_slope_hz_per_deg, zs, gs
        )
    )
    return modes, label


def build_plant(modes: Modes, noise_snr_db: float) -> ModalPlant:
    return ModalPlant(modes, noise_snr_db)
