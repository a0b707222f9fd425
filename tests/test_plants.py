import json
import math

import numpy as np
import pytest

from vcas.errors import DataError, ParameterError
from vcas.plants import (
    CONTACT_REFERENCE_POSE,
    TASKS,
    ClassBankPreset,
    ContactPreset,
    PosePreset,
    apply_jitter,
    build_plant,
    contact_modes,
    default_preset_path,
    draw_session_jitter,
    load_preset,
    pose_modes,
)


# -------------------------------------------------------------- presets


@pytest.mark.parametrize("task", TASKS)
def test_shipped_presets_load(task):
    preset = load_preset(task)
    assert preset.task == task
    assert preset.max_modes >= 1
    assert preset.noise_snr_db > 0


def test_object_preset_has_nine_classes():
    preset = load_preset("object")
    assert isinstance(preset, ClassBankPreset)
    assert len(preset.class_names) == 9
    assert preset.class_names == tuple(sorted(preset.class_names))


def test_grasp_preset_has_three_classes():
    assert len(load_preset("grasp").class_names) == 3


def test_pose_preset_covers_0_to_170():
    preset = load_preset("pose")
    assert isinstance(preset, PosePreset)
    assert preset.train_angles[0] == 0.0
    assert preset.train_angles[-1] == 170.0
    assert len(preset.train_angles) == 18
    assert len(preset.freq_slope_hz_per_deg) == len(preset.base_modes)


def test_contact_preset_scales_cover_all_labels():
    preset = load_preset("contact")
    assert isinstance(preset, ContactPreset)
    assert set(preset.damping_scale) == {"diagonal", "line", "in_hole"}
    assert set(preset.gain_scale) == {"diagonal", "line", "in_hole"}


def test_load_preset_from_explicit_path(tmp_path):
    src = default_preset_path("grasp")
    copy = tmp_path / "my_grasp.json"
    copy.write_text(src.read_text())
    preset = load_preset(copy)
    assert preset.task == "grasp"


def test_default_preset_path_unknown_task():
    with pytest.raises(ParameterError, match="task"):
        default_preset_path("texture")


def test_load_preset_diagnostics(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_preset(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="JSON"):
        load_preset(bad)
    bad.write_text(json.dumps({"task": "weights"}))
    with pytest.raises(DataError, match="task"):
        load_preset(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(DataError, match="JSON object"):
        load_preset(bad)
    grasp = json.loads(default_preset_path("grasp").read_text())
    pose = json.loads(default_preset_path("pose").read_text())
    contact = json.loads(default_preset_path("contact").read_text())
    # Values json.dumps cannot write are spliced in as JSON text.
    malformed = [
        (grasp, "noise_snr_db", '"abc"', "must be a number"),
        (grasp, "noise_snr_db", "[1]", "must be a number"),
        (grasp, "noise_snr_db", '{"a": 1}', "must be a number"),
        (grasp, "noise_snr_db", "true", "must be a number"),
        (grasp, "noise_snr_db", "NaN", "finite or Infinity"),
        (grasp, "noise_snr_db", "-Infinity", "finite or Infinity"),
        (pose, "train_angles", '["x", 1]', r"train_angles\[0\] must be a number"),
        (pose, "train_angles", "[0, NaN]", "train_angles must be finite"),
        (pose, "train_angles", "7", "train_angles must be a list"),
        (pose, "freq_slope_hz_per_deg", "[null]", r"slope_hz_per_deg\[0\] must be"),
        (contact, "pose_freq_slope_hz_per_deg", '[[1, "a"]]', r"deg\[0\]\[1\] must be"),
        (pose, "base_modes", '[["100", 0.01, 1]]', r"preset .*: base_modes\[0\]\[0\] must be a"),
        (pose, "base_modes", "[[100, 0.01, true]]", r"preset .*: base_modes\[0\]\[2\] must be a"),
        (pose, "base_modes", "[[100, 0.01]]", r"preset .*: base_modes\[0\]: invalid mode"),
        (pose, "base_modes", "[]", "preset .*: base_modes must be a non-empty list"),
        (
            grasp, "classes", '{"a": [[100, 0.01, Infinity]], "b": [[200, 0.01, 1]]}',
            r"preset .*: class 'a'\[0\] must be finite",
        ),
    ]
    for raw, key, value, message in malformed:
        bad.write_text(json.dumps({**raw, key: "@"}).replace('"@"', value))
        with pytest.raises(DataError, match=message):
            load_preset(bad)
    # Infinity, null or no key at all is a noise-free preset.
    for value in ("Infinity", "null"):
        bad.write_text(json.dumps({**grasp, "noise_snr_db": "@"}).replace('"@"', value))
        assert load_preset(bad).noise_snr_db == math.inf
    bad.write_text(json.dumps({k: v for k, v in grasp.items() if k != "noise_snr_db"}))
    assert load_preset(bad).noise_snr_db == math.inf


def test_class_preset_needs_two_classes(tmp_path):
    p = tmp_path / "one.json"
    p.write_text(json.dumps(
        {"task": "object", "noise_snr_db": 30,
         "classes": {"solo": [[100, 0.01, 1.0]]}}
    ))
    with pytest.raises(DataError, match="classes"):
        load_preset(p)


def test_mode_triples_are_validated(tmp_path):
    p = tmp_path / "bad_mode.json"
    p.write_text(json.dumps(
        {"task": "object", "noise_snr_db": 30,
         "classes": {"a": [[100, 1.5, 1.0]], "b": [[200, 0.01, 1.0]]}}
    ))
    with pytest.raises(DataError, match="invalid mode"):
        load_preset(p)


def test_pose_preset_validation(tmp_path):
    p = tmp_path / "pose.json"
    p.write_text(json.dumps(
        {"task": "pose", "noise_snr_db": 30,
         "base_modes": [[100, 0.01, 1.0], [200, 0.01, 1.0]],
         "freq_slope_hz_per_deg": [1.0],
         "train_angles": [0, 10]}
    ))
    with pytest.raises(DataError, match="slope"):
        load_preset(p)
    p.write_text(json.dumps(
        {"task": "pose", "noise_snr_db": 30,
         "base_modes": [[100, 0.01, 1.0]],
         "freq_slope_hz_per_deg": [1.0],
         "train_angles": [10, 0]}
    ))
    with pytest.raises(DataError, match="sorted"):
        load_preset(p)


def test_contact_preset_scale_validation(tmp_path):
    p = tmp_path / "contact.json"
    p.write_text(json.dumps(
        {"task": "contact", "noise_snr_db": 30,
         "base_modes": [[100, 0.01, 1.0]],
         "pose_freq_slope_hz_per_deg": [[1.0, 1.0]],
         "damping_scale": {"diagonal": [1.0], "line": [1.0]},
         "gain_scale": {"diagonal": [1.0], "line": [1.0], "in_hole": [1.0]}}
    ))
    with pytest.raises(DataError, match="damping_scale"):
        load_preset(p)


def test_missing_snr_means_noise_free(tmp_path):
    p = tmp_path / "clean.json"
    p.write_text(json.dumps(
        {"task": "grasp", "noise_snr_db": None,
         "classes": {"a": [[100, 0.01, 1.0]], "b": [[200, 0.01, 1.0]]}}
    ))
    assert load_preset(p).noise_snr_db == math.inf


# --------------------------------------------------------------- jitter


def test_jitter_shapes_and_determinism():
    a = draw_session_jitter(np.random.default_rng(3), 5)
    b = draw_session_jitter(np.random.default_rng(3), 5)
    assert a == b
    assert len(a.gain_factors) == 5
    c = draw_session_jitter(np.random.default_rng(4), 5)
    assert a != c


def test_zero_scale_jitter_is_identity():
    j = draw_session_jitter(np.random.default_rng(0), 3, scale=0.0)
    assert j.freq_factor == 1.0
    assert j.gain_factors == (1.0, 1.0, 1.0)
    assert j.damping_factor == 1.0


def test_jitter_scale_stretches_deviations():
    devs = {scale: [] for scale in (1.0, 3.0)}
    for scale in devs:
        for seed in range(300):
            j = draw_session_jitter(np.random.default_rng(seed), 1, scale=scale)
            devs[scale].append(abs(j.freq_factor - 1.0))
    assert np.mean(devs[3.0]) > 2.0 * np.mean(devs[1.0])


def test_extreme_jitter_respects_floors():
    j = draw_session_jitter(np.random.default_rng(1), 50, scale=1000.0)
    assert min(j.gain_factors) >= 0.02


def test_apply_jitter_clamps():
    modes = ((19790.0, 0.5, 1.0), (100.0, 0.002, 2.0))
    from vcas.plants import SessionJitter

    big = SessionJitter(1.1, (3.0, 3.0), 2.0)
    out = apply_jitter(modes, big)
    assert out[0][0] == 19800.0  # frequency cap
    assert out[0][1] == 0.8  # damping ceiling
    small = SessionJitter(1.0, (1.0, 1.0), 0.001)
    out = apply_jitter(modes, small)
    assert out[1][1] == 0.001  # damping floor


# ---------------------------------------------------------- mode tables


def test_contact_label_examples():
    preset = load_preset("contact")
    assert contact_modes(preset, 45.0, 45.0)[1] == "diagonal"
    assert contact_modes(preset, 58.5, 90.0)[1] == "line"
    assert contact_modes(preset, 90.0, 90.0)[1] == "in_hole"


def test_pose_modes_drift_linearly():
    preset = load_preset("pose")
    at0 = pose_modes(preset, 0.0)
    at100 = pose_modes(preset, 100.0)
    for (f0, z0, g0), (f1, z1, g1), slope in zip(
        at0, at100, preset.freq_slope_hz_per_deg
    ):
        assert f1 - f0 == pytest.approx(100.0 * slope)
        assert z1 == z0 and g1 == g0
    with pytest.raises(ParameterError, match="angle"):
        pose_modes(preset, 171.0)
    with pytest.raises(ParameterError, match="angle"):
        pose_modes(preset, -1.0)


def test_contact_modes_at_reference_pose_match_base():
    preset = load_preset("contact")
    modes, label = contact_modes(preset, *CONTACT_REFERENCE_POSE)
    assert label == "diagonal"
    scale_z = preset.damping_scale["diagonal"]
    scale_g = preset.gain_scale["diagonal"]
    for (f, z, g), (bf, bz, bg), zf, gf in zip(
        modes, preset.base_modes, scale_z, scale_g
    ):
        assert f == pytest.approx(bf)  # slopes are zero at the reference
        assert z == pytest.approx(min(bz * zf, 0.9))
        assert g == pytest.approx(bg * gf)


def test_contact_modes_shift_with_pose_and_relabel():
    preset = load_preset("contact")
    ref_modes, _ = contact_modes(preset, 45.0, 45.0)
    f_ref = ref_modes[0][0]
    modes, label = contact_modes(preset, 49.5, 45.0)
    sx, _ = preset.pose_freq_slope_hz_per_deg[0]
    assert modes[0][0] - f_ref == pytest.approx(4.5 * sx)
    assert label == "diagonal"
    _, label = contact_modes(preset, 90.0, 90.0)
    assert label == "in_hole"


def test_contact_in_hole_damps_harder_than_diagonal():
    preset = load_preset("contact")
    diag, _ = contact_modes(preset, 45.0, 45.0)
    hole, _ = contact_modes(preset, 90.0, 90.0)
    # Ratios are hard to compare directly because frequencies differ;
    # compare damping factors mode by mode via the preset tables.
    for zd, zh in zip(preset.damping_scale["diagonal"], preset.damping_scale["in_hole"]):
        assert zh > zd


def test_build_plant_carries_metadata():
    modes = ((500.0, 0.01, 1.0),)
    plant = build_plant(modes, 30.0)
    assert plant.modes == modes
    assert plant.noise_snr_db == 30.0
