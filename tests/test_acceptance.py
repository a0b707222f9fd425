"""Acceptance gate: one test per criterion, each printing a verdict line.

Heavy artifacts (the 2000-demo policy) are built once in a module
fixture and shared between the criteria that need them.  Every test
prints `criterion N (<name>): PASS|FAIL - <measured numbers>` before
asserting, so the measured values survive in captured output either
way.
"""

import filecmp
import gc
import time

import numpy as np
import pytest

from _oracles import (
    expert_path_length,
    kpca_reference,
    one_sided_energy,
    subsampled_relative_gradient_error,
    time_domain_energy,
    zero_crossing_frequencies,
)
from vcas.cli import main
from vcas.envsim import (
    ContactType,
    ObservationModel,
    expert_policy,
    generate_demos,
    grid_poses,
    rollout,
    sample_observation,
)
from vcas.features import fft_magnitude, kpca_fit_transform, kpca_transform
from vcas.learn import TrainConfig, mlp_grad, mlp_init, mlp_loss
from vcas.pipeline import RunConfig, eval_task, synth_task_data, train_task
from vcas.policy import policy_eval, policy_train
from vcas.signal import (
    SAMPLE_RATE,
    SWEEP_F0,
    SWEEP_F1,
    SWEEP_SECONDS,
    ModalPlant,
    chirp,
    modal_response,
)

DEFAULT_OBS = ObservationModel.default(0.95)
IDENTITY_OBS = ObservationModel.identity()


def _verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def policy_bundle():
    """2000-demo behavior-cloned policy plus its build wall time."""
    t0 = time.monotonic()
    demos = generate_demos(2000, "interpolated", DEFAULT_OBS, seed=0)
    model, _ = policy_train(demos, TrainConfig(seed=0))
    return model, time.monotonic() - t0


def test_criterion_1_insertion_success(policy_bundle):
    model, build_seconds = policy_bundle
    t0 = time.monotonic()
    fixed = policy_eval(model, "fixed", 1000, DEFAULT_OBS, seed=1)
    interp = policy_eval(model, "interpolated", 1000, DEFAULT_OBS, seed=2)
    elapsed = build_seconds + (time.monotonic() - t0)
    ok = (
        fixed["success_rate"] >= 0.90
        and interp["success_rate"] >= 0.85
        and elapsed <= 300.0
    )
    line = _verdict(
        1,
        "insertion success",
        ok,
        f"fixed={fixed['success_rate']:.3f} (>=0.90) "
        f"interpolated={interp['success_rate']:.3f} (>=0.85) "
        f"runtime={elapsed:.0f}s (<=300s)",
    )
    assert ok, line


def test_criterion_2_expert_optimality():
    mismatches = 0
    for pose in grid_poses():
        expected = round((90.0 - pose.theta_z + 90.0 - pose.theta_x) / 4.5)
        ep = rollout(expert_policy, pose, IDENTITY_OBS, seed=0)
        if not ep.success or len(ep.steps) != expected:
            mismatches += 1
        if expert_path_length(pose) != expected:
            mismatches += 1
    ok = mismatches == 0
    line = _verdict(
        2,
        "expert optimality",
        ok,
        f"400/400 grid starts, {mismatches} mismatches (zero tolerance)",
    )
    assert ok, line


def test_criterion_3_kpca_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_fit = worst_out = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(4, 65))
        rows = rng.normal(size=(n, d)) + rng.uniform(1.0, 3.0)
        new = rng.normal(size=(5, d)) + 2.0
        k = min(6, n - 2)
        model, emb = kpca_fit_transform(rows, k)
        _, ref_emb, _, project = kpca_reference(rows, k)
        ref_new = project(new)
        got_new = kpca_transform(model, new)
        for j in range(k):
            fit_err = min(
                np.abs(emb[:, j] - ref_emb[:, j]).max(),
                np.abs(emb[:, j] + ref_emb[:, j]).max(),
            )
            out_err = min(
                np.abs(got_new[:, j] - ref_new[:, j]).max(),
                np.abs(got_new[:, j] + ref_new[:, j]).max(),
            )
            worst_fit = max(worst_fit, fit_err)
            worst_out = max(worst_out, out_err)
    worst_evr = 0.0
    for seed in range(5):
        r2 = np.random.default_rng(seed)
        rows = r2.normal(size=(15, 30)) + 2.0
        model = kpca_fit_transform(rows, 14)[0]  # full rank for generic rows
        worst_evr = max(
            worst_evr, abs(float(model.explained_variance_ratio.sum()) - 1.0)
        )
    ok = worst_fit < 1e-8 and worst_out < 1e-8 and worst_evr < 1e-9
    line = _verdict(
        3,
        "kernel PCA oracle",
        ok,
        f"fit err={worst_fit:.2e} transform err={worst_out:.2e} (<1e-8), "
        f"EVR sum err={worst_evr:.2e} (<1e-9)",
    )
    assert ok, line


def test_criterion_4_gradient_check():
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(500 + seed)
        x = rng.normal(size=(16, 12))
        for head, out_dim in (("softmax", 3), ("identity", 1)):
            model = mlp_init(12, out_dim, head, seed=seed)
            y = (
                rng.integers(0, out_dim, size=16)
                if head == "softmax"
                else rng.normal(size=(16, out_dim))
            )
            analytic = mlp_grad(model, (x, y))
            err = subsampled_relative_gradient_error(
                analytic, lambda m: mlp_loss(m, (x, y)), model, rng
            )
            worst = max(worst, err)
    ok = worst < 1e-4
    line = _verdict(
        4,
        "gradient check",
        ok,
        f"worst relative error {worst:.2e} (<1e-4), both heads, 3 seeds",
    )
    assert ok, line


def test_criterion_5_signal_invariants():
    rng = np.random.default_rng(7)
    worst_parseval = 0.0
    for n in (1024, 4410, 9999, 42000):
        samples = rng.normal(size=n)
        lhs = time_domain_energy(samples)
        rhs = one_sided_energy(fft_magnitude(samples[None])[0], n)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / lhs)

    x = chirp()
    times, freqs = zero_crossing_frequencies(x, SAMPLE_RATE)
    mask = (times >= 0.05 * SWEEP_SECONDS) & (times <= 0.95 * SWEEP_SECONDS)
    law = SWEEP_F0 + (SWEEP_F1 - SWEEP_F0) * times[mask] / SWEEP_SECONDS
    worst_sweep = float(np.max(np.abs(freqs[mask] - law) / law))

    worst_bins = 0.0
    bin_hz = SAMPLE_RATE / len(x)
    for freq in (200.0, 997.0, 4000.0, 9000.0, 12000.0, 16000.0):
        plant = ModalPlant(((freq, 0.01, 1.0),), np.inf)
        spectrum = fft_magnitude(modal_response([plant], x))[0]
        peak_bin = int(np.argmax(spectrum))
        worst_bins = max(worst_bins, abs(peak_bin - freq / bin_hz))

    ok = worst_parseval < 1e-6 and worst_sweep < 0.01 and worst_bins <= 2.0
    line = _verdict(
        5,
        "signal invariants",
        ok,
        f"Parseval rel err={worst_parseval:.2e} (<1e-6), "
        f"sweep law err={worst_sweep:.4f} (<0.01), "
        f"peak offset={worst_bins:.2f} bins (<=2)",
    )
    assert ok, line


def _task_metric(task, conditions, metric_by_condition):
    cfg = RunConfig(task=task, conditions=conditions, seed=0)
    data = synth_task_data(cfg)
    models = train_task(data["in_distribution", "train"], cfg)
    got = {}
    for (cond, split), ds in data.items():
        if split != "test":
            continue
        row, _ = eval_task(models, cond, ds)
        if row["metric"] in metric_by_condition:
            got[cond] = row["value"]
    del data, models
    gc.collect()
    return got


def test_criterion_6_task_analogs():
    object_acc = _task_metric("object", ("in_distribution",), {"accuracy"})[
        "in_distribution"
    ]
    grasp_acc = _task_metric("grasp", ("in_distribution",), {"accuracy"})[
        "in_distribution"
    ]
    contact_acc = _task_metric("contact", ("in_distribution",), {"accuracy"})[
        "in_distribution"
    ]
    pose = _task_metric(
        "pose", ("in_distribution", "interpolated"), {"rmse_deg"}
    )
    pose_ratio = pose["interpolated"] / pose["in_distribution"]
    ok = (
        object_acc >= 0.99
        and grasp_acc >= 0.95
        and contact_acc >= 0.90
        and pose_ratio <= 2.0
    )
    line = _verdict(
        6,
        "task analogs",
        ok,
        f"object={object_acc:.3f} (>=0.99) grasp={grasp_acc:.3f} (>=0.95) "
        f"contact={contact_acc:.3f} (>=0.90) "
        f"pose interpolated/discrete RMSE={pose_ratio:.2f} (<=2.0)",
    )
    assert ok, line


def test_criterion_7_history_ablation(policy_bundle):
    model10, _ = policy_bundle
    demos1 = generate_demos(2000, "interpolated", DEFAULT_OBS, seed=0, window_length=1)
    model1, _ = policy_train(demos1, TrainConfig(seed=0))
    long_history = policy_eval(model10, "interpolated", 1000, DEFAULT_OBS, seed=11)
    short_history = policy_eval(model1, "interpolated", 1000, DEFAULT_OBS, seed=11)
    gap = long_history["success_rate"] - short_history["success_rate"]
    ok = gap >= 0.05
    line = _verdict(
        7,
        "history ablation",
        ok,
        f"10-step={long_history['success_rate']:.3f} "
        f"1-step={short_history['success_rate']:.3f} "
        f"gap={gap * 100:.1f}pp (>=5pp), 1000 paired-seed episodes",
    )
    assert ok, line


def test_criterion_8_observation_channel_statistics():
    n = 100_000
    worst_z = 0.0
    for true_c in ContactType:
        rng = np.random.default_rng(9_000 + int(true_c))
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample_observation(DEFAULT_OBS, true_c, rng)] += 1
        freqs = counts / n
        for j, p in enumerate(DEFAULT_OBS.matrix[int(true_c)]):
            if p in (0.0, 1.0):
                assert freqs[j] == p, (true_c, j)
                continue
            sigma = (p * (1 - p) / n) ** 0.5
            worst_z = max(worst_z, abs(freqs[j] - p) / sigma)
    ok = worst_z <= 3.0
    line = _verdict(
        8,
        "observation channel statistics",
        ok,
        f"worst |z|={worst_z:.2f} (<=3) at {n} draws per row",
    )
    assert ok, line


_PIPELINE_STEPS = (
    [
        "synth-data", "--task", "grasp",
        "--set", "sessions_train=2", "--set", "sessions_test=1",
        "--set", "train_per_class=3", "--set", "test_per_class=3",
    ],
    [
        "train", "--task", "grasp",
        "--set", "n_components=4", "--set", "max_epochs=10",
    ],
    [
        "eval", "--task", "grasp",
        "--set", "n_components=4",
    ],
    ["sim", "demos", "--episodes", "60", "--obs", "identity"],
    ["sim", "train-policy", "--epochs", "10"],
    ["sim", "eval-policy", "--episodes", "30", "--obs", "identity"],
)


def _run_pipeline(out_dir):
    for step_args in _PIPELINE_STEPS:
        rc = main([*step_args, "--out", str(out_dir)])
        assert rc == 0, step_args
    return {
        p.relative_to(out_dir): p for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def test_criterion_9_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "run_a")
    second = _run_pipeline(tmp_path / "run_b")
    same_names = set(first) == set(second)
    diffs = [
        str(rel)
        for rel in sorted(first)
        if rel in second
        and not filecmp.cmp(first[rel], second[rel], shallow=False)
    ]
    ok = same_names and not diffs
    line = _verdict(
        9,
        "pipeline determinism",
        ok,
        f"{len(first)} artifacts, "
        + ("all byte-identical" if ok else f"differing: {diffs[:5]}"),
    )
    assert ok, line
