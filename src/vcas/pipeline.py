"""Experiment plumbing: configs, dataset synthesis, training, evaluation.

A run is described by a RunConfig (task, band, component count, session
layout, seeds).  Synthesis lists one job per (session, class/pose):
a plant, its target and its noise seeds.  One loop drives every job's
plant through the standard chirp in a single batched modal_response
call, then stamps out samples by re-seeding only the additive noise, so
datasets are cheap and bit reproducible.  Training chains band
selection, kernel PCA, and the MLP; evaluation emits per-condition
metric rows shaped like the tables the report command consumes.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import plants
from .container import PayloadKind, read_container, write_container
from .envsim import CONTACT_LABELS, PoseState, contact_type, expert_action
from .envsim import step as env_step
from .errors import DataError, ParameterError
from .features import (
    KernelPcaModel,
    Spectrum,
    band_select,
    fft_magnitude,
    kpca_fit_transform,
    kpca_transform,
)
from .learn import (
    ConfusionMatrix,
    Dataset,
    MlpModel,
    RegressionReport,
    TrainConfig,
    TrainingHistory,
    assert_sessions_disjoint,
    eval_classifier,
    eval_regressor,
    mlp_train,
)
from .signal import (
    ModalPlant,
    Waveform,
    apply_noise,
    default_chirp_spec,
    generate_chirp,
    modal_response,
)

TASKS = plants.TASKS

BANDS: dict[str, tuple[float, float]] = {
    "full": (20.0, 22050.0),
    "low": (20.0, 9190.0),
    "high": (9190.0, 22050.0),
}

N_COMPONENTS_DEFAULT = {"object": 5, "grasp": 10, "pose": 5, "contact": 500}

# (train, test) samples per class per session.
SAMPLES_PER_CLASS_DEFAULT = {
    "object": (25, 25),
    "grasp": (25, 25),
    "pose": (25, 25),
    "contact": (250, 200),
}

CONDITIONS_DEFAULT = {
    "object": ("in_distribution", "perturbed"),
    "grasp": ("in_distribution", "perturbed"),
    "pose": ("in_distribution", "interpolated"),
    "contact": ("in_distribution", "interpolated", "out_of_distribution"),
}

_KNOWN_CONDITIONS = ("in_distribution", "perturbed", "interpolated", "out_of_distribution")

PERTURBED_JITTER_SCALE = 3.0
POSE_INTERP_ANGLES = 16
POSE_INTERP_SAMPLES = 25
CONTACT_INTERP_POSES = 20
CONTACT_INTERP_SAMPLES = 10
CONTACT_OOD_POSES = 20
CONTACT_OOD_SAMPLES = 10
CONTACT_OOD_X_RANGE = (40.5, 81.0)
CONTACT_OOD_Z_RANGE = (9.0, 90.0)


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline command needs, with per-task defaults.

    `train_per_class` / `test_per_class` count samples per class per
    session; None picks the task default (25/25, contact 250/200).
    `train.seed` always equals `seed`.
    """

    task: str
    band: str = "full"
    n_components: int | None = None
    seed: int = 0
    preset: str | None = None
    sessions_train: int = 4
    sessions_test: int = 1
    train_per_class: int | None = None
    test_per_class: int | None = None
    conditions: tuple[str, ...] | None = None
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))
        if self.task not in TASKS:
            raise ParameterError(f"unknown task {self.task!r}; use one of {TASKS}")
        if self.band not in BANDS:
            raise ParameterError(f"unknown band {self.band!r}; use {tuple(BANDS)}")
        if self.sessions_train < 1 or self.sessions_test < 1:
            raise ParameterError("need at least one train and one test session")
        for name in ("n_components", "train_per_class", "test_per_class"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.conditions is not None:
            conds = tuple(self.conditions)
            bad = set(conds) - set(_KNOWN_CONDITIONS)
            if bad or "in_distribution" not in conds:
                raise ParameterError(
                    f"conditions must include in_distribution and draw from "
                    f"{_KNOWN_CONDITIONS}, got {conds}"
                )
            allowed = set(CONDITIONS_DEFAULT[self.task])
            if set(conds) - allowed:
                raise ParameterError(
                    f"conditions {sorted(set(conds) - allowed)} not defined "
                    f"for task {self.task!r}"
                )
            object.__setattr__(self, "conditions", conds)

    @property
    def n_components_resolved(self) -> int:
        return self.n_components or N_COMPONENTS_DEFAULT[self.task]

    @property
    def counts_resolved(self) -> tuple[int, int]:
        default = SAMPLES_PER_CLASS_DEFAULT[self.task]
        return (
            self.train_per_class or default[0],
            self.test_per_class or default[1],
        )

    @property
    def conditions_resolved(self) -> tuple[str, ...]:
        return self.conditions or CONDITIONS_DEFAULT[self.task]

    @property
    def preset_source(self) -> str:
        return self.preset or self.task

    @property
    def band_hz(self) -> tuple[float, float]:
        return BANDS[self.band]


@dataclass(frozen=True)
class SplitData:
    """Train rows exist only for the in-distribution condition.

    Either side may be None when a condition was loaded partially from
    disk (train-only for fitting, test-only for scoring).
    """

    train: Dataset | None = None
    test: Dataset | None = None


@dataclass(frozen=True)
class TaskData:
    task: str
    bin_hz: float
    label_names: tuple[str, ...] | None
    conditions: dict[str, SplitData]


class _DatasetBuilder:
    """Row collector for one (condition, split), sized from its jobs."""

    def __init__(self, n_rows: int, n_bins: int, classification: bool):
        self.rows = np.empty((n_rows, n_bins))
        self.targets = np.empty(n_rows, dtype=np.int64 if classification else np.float64)
        self.sessions = np.empty(n_rows, dtype=np.int64)
        self._fill = 0

    def add(self, row: np.ndarray, target, session_id: int) -> None:
        self.rows[self._fill] = row
        self.targets[self._fill] = target
        self.sessions[self._fill] = session_id
        self._fill += 1

    def dataset(self, label_names, split_tag: str) -> Dataset:
        return Dataset(self.rows, self.targets, label_names, split_tag, self.sessions)


# One clean response per job, one noisy spectrum row per noise seed:
# (role, plant, target, session_id, noise_seeds).  The role names the
# dataset the rows go to: train, test, or a test-only condition.
_Job = tuple[str, ModalPlant, object, int, np.ndarray]


def _sessions(
    cfg: RunConfig, max_modes: int, n_streams: int
) -> Iterator[tuple[str, int, int, plants.SessionJitter, list]]:
    """Per session: (role, session_id, samples per class, jitter, seed streams).

    Train sessions come first, then test sessions, then the perturbed
    session if that condition is wanted.  Each session's SeedSequence
    spawns the jitter stream first, then `n_streams` task streams.
    """
    layout = [("train", 1.0, i) for i in range(cfg.sessions_train)]
    layout += [
        ("test", 1.0, cfg.sessions_train + i) for i in range(cfg.sessions_test)
    ]
    if "perturbed" in cfg.conditions_resolved:
        layout.append(
            ("perturbed", PERTURBED_JITTER_SCALE, cfg.sessions_train + cfg.sessions_test)
        )
    train_pc, test_pc = cfg.counts_resolved
    for (role, scale, sid), sess_ss in zip(
        layout, np.random.SeedSequence(cfg.seed).spawn(len(layout))
    ):
        jit_ss, *streams = sess_ss.spawn(1 + n_streams)
        jitter = plants.draw_session_jitter(
            np.random.default_rng(jit_ss), max_modes, scale
        )
        yield role, sid, train_pc if role == "train" else test_pc, jitter, streams


def _class_bank_jobs(
    cfg: RunConfig, preset: plants.ClassBankPreset
) -> tuple[tuple[str, ...], list[_Job]]:
    names = preset.class_names
    jobs = []
    for role, sid, n_pc, jitter, class_ss in _sessions(
        cfg, preset.max_modes, len(names)
    ):
        for target, (name, c_ss) in enumerate(zip(names, class_ss)):
            modes = plants.apply_jitter(plants.class_modes(preset, name), jitter)
            plant = plants.build_plant(
                modes, preset.noise_snr_db, {"task": cfg.task, "class": name}
            )
            jobs.append((role, plant, target, sid, c_ss.generate_state(n_pc)))
    return names, jobs


def _pose_jobs(cfg: RunConfig, preset: plants.PosePreset) -> tuple[None, list[_Job]]:
    angles = preset.train_angles
    want_interp = "interpolated" in cfg.conditions_resolved
    jobs = []

    def add(role, angle, jitter, sid, seeds):
        modes = plants.apply_jitter(plants.pose_modes(preset, angle), jitter)
        plant = plants.build_plant(
            modes, preset.noise_snr_db, {"task": "pose", "angle": angle}
        )
        jobs.append((role, plant, angle, sid, seeds))

    for role, sid, n_pc, jitter, (interp_ss, *angle_ss) in _sessions(
        cfg, preset.max_modes, 1 + len(angles)
    ):
        for angle, a_ss in zip(angles, angle_ss):
            add(role, angle, jitter, sid, a_ss.generate_state(n_pc))
        if role == "test" and want_interp:
            rng = np.random.default_rng(interp_ss)
            drawn = rng.uniform(angles[0], angles[-1], POSE_INTERP_ANGLES)
            for angle, ia_ss in zip(drawn, interp_ss.spawn(POSE_INTERP_ANGLES)):
                seeds = ia_ss.generate_state(POSE_INTERP_SAMPLES)
                add("interpolated", angle, jitter, sid, seeds)
    return None, jobs


def _contact_trajectory_poses() -> dict[str, list[PoseState]]:
    """The expert's path from (45, 45), grouped by contact label."""
    pose = PoseState(45.0, 45.0)
    poses = [pose]
    while (action := expert_action(pose)) is not None:
        pose = env_step(pose, action)
        poses.append(pose)
    grouped: dict[str, list[PoseState]] = {}
    for p in poses:
        grouped.setdefault(contact_type(p.theta_x, p.theta_z).label, []).append(p)
    return grouped


def _contact_jobs(
    cfg: RunConfig, preset: plants.ContactPreset
) -> tuple[tuple[str, ...], list[_Job]]:
    names = tuple(sorted(CONTACT_LABELS))
    name_idx = {n: i for i, n in enumerate(names)}
    conds = cfg.conditions_resolved
    class_poses = _contact_trajectory_poses()
    jobs = []

    def add(role, theta_x, theta_z, jitter, sid, seeds):
        modes, label = plants.contact_modes(preset, theta_x, theta_z)
        plant = plants.build_plant(
            plants.apply_jitter(modes, jitter),
            preset.noise_snr_db,
            {"task": "contact", "contact": label},
        )
        jobs.append((role, plant, name_idx[label], sid, seeds))

    for role, sid, n_pc, jitter, (interp_ss, ood_ss, *class_ss) in _sessions(
        cfg, preset.max_modes, 2 + len(names)
    ):
        for name, c_ss in zip(names, class_ss):
            poses = class_poses[name]
            seeds = c_ss.generate_state(n_pc)
            # Samples cycle over the class's trajectory poses; one clean
            # synthesis per pose, noise re-seeded per sample.
            for j, p in enumerate(poses):
                pose_seeds = seeds[j::len(poses)]
                if pose_seeds.size:
                    add(role, p.theta_x, p.theta_z, jitter, sid, pose_seeds)
        if role == "test" and "interpolated" in conds:
            rng = np.random.default_rng(interp_ss)
            zs = rng.uniform(45.0, 90.0, CONTACT_INTERP_POSES)
            xs = rng.uniform(45.0, 90.0, CONTACT_INTERP_POSES)
            pose_list = [(45.0, z) for z in zs] + [(x, 90.0) for x in xs]
            for (tx, tz), p_ss in zip(pose_list, interp_ss.spawn(len(pose_list))):
                seeds = p_ss.generate_state(CONTACT_INTERP_SAMPLES)
                add("interpolated", tx, tz, jitter, sid, seeds)
        if role == "test" and "out_of_distribution" in conds:
            rng = np.random.default_rng(ood_ss)
            xs = rng.uniform(*CONTACT_OOD_X_RANGE, CONTACT_OOD_POSES)
            zs = rng.uniform(*CONTACT_OOD_Z_RANGE, CONTACT_OOD_POSES)
            for (tx, tz), p_ss in zip(zip(xs, zs), ood_ss.spawn(CONTACT_OOD_POSES)):
                seeds = p_ss.generate_state(CONTACT_OOD_SAMPLES)
                add("out_of_distribution", tx, tz, jitter, sid, seeds)
    return names, jobs


def synth_task_data(cfg: RunConfig) -> TaskData:
    """Synthesize a full per-condition dataset family for a task."""
    preset = plants.load_preset(cfg.preset_source)
    if preset.task != cfg.task:
        raise ParameterError(
            f"preset is for task {preset.task!r}, config wants {cfg.task!r}"
        )
    if isinstance(preset, plants.ClassBankPreset):
        names, jobs = _class_bank_jobs(cfg, preset)
    elif isinstance(preset, plants.PosePreset):
        names, jobs = _pose_jobs(cfg, preset)
    else:
        names, jobs = _contact_jobs(cfg, preset)

    chirp = generate_chirp(default_chirp_spec())
    n_rows: dict[str, int] = {}
    for role, _, _, _, seeds in jobs:
        n_rows[role] = n_rows.get(role, 0) + seeds.size
    builders = {
        role: _DatasetBuilder(n, len(chirp) // 2 + 1, names is not None)
        for role, n in n_rows.items()
    }
    clean = modal_response([plant for _, plant, _, _, _ in jobs], chirp)
    for (role, plant, target, sid, seeds), response in zip(jobs, clean):
        for s in seeds:
            noisy = apply_noise(response, plant.noise_snr_db, int(s))
            spectrum = fft_magnitude(Waveform(noisy, chirp.sample_rate))
            builders[role].add(spectrum.magnitudes, target, sid)

    conditions = {
        "in_distribution": SplitData(
            builders.pop("train").dataset(names, "train"),
            builders.pop("test").dataset(names, "test"),
        )
    }
    for cond, builder in builders.items():
        conditions[cond] = SplitData(None, builder.dataset(names, "test"))
    return TaskData(cfg.task, chirp.sample_rate / len(chirp), names, conditions)


def band_slice_for(bin_hz: float, n_bins: int, band: str) -> slice:
    """Column slice of a full-spectrum row matrix for a named band."""
    lo, hi = BANDS[band]
    ref = band_select(Spectrum(np.ones(n_bins), bin_hz), lo, hi)
    return slice(ref.first_bin, ref.first_bin + len(ref))


@dataclass(frozen=True)
class TaskModels:
    """Fitted reduction and estimator for one (task, band) run.

    `train_sessions` lists the sessions the models were fitted on, so
    evaluation can check test sessions against them without the
    training rows.
    """

    task: str
    band: str
    n_components: int
    kpca: KernelPcaModel
    mlp: MlpModel
    train_sessions: tuple[int, ...]
    history: TrainingHistory | None = None


def train_task(data: TaskData, cfg: RunConfig) -> TaskModels:
    """Band-select, fit kernel PCA, train the estimator."""
    split = data.conditions.get("in_distribution")
    if split is None or split.train is None:
        raise ParameterError("task data lacks in-distribution training rows")
    train = split.train
    sl = band_slice_for(data.bin_hz, train.rows.shape[1], cfg.band)
    kpca, embeddings = kpca_fit_transform(
        train.rows[:, sl], cfg.n_components_resolved
    )
    emb_ds = Dataset(
        embeddings, train.targets, data.label_names, "train", train.session_ids
    )
    mlp, history = mlp_train(emb_ds, cfg.train)
    sessions = tuple(np.unique(train.session_ids).tolist())
    return TaskModels(
        data.task, cfg.band, cfg.n_components_resolved, kpca, mlp, sessions, history
    )


@dataclass(frozen=True)
class TaskEval:
    """Per-condition metric rows plus the artifacts behind them."""

    task: str
    band: str
    n_components: int
    rows: tuple[dict, ...]
    confusions: dict[str, ConfusionMatrix]
    regressions: dict[str, RegressionReport]

    def row(self, condition: str) -> dict:
        for r in self.rows:
            if r["condition"] == condition:
                return r
        raise ParameterError(f"no metrics for condition {condition!r}")


def eval_task(models: TaskModels, data: TaskData) -> TaskEval:
    """Project each condition's test rows and score the estimator."""
    if models.task != data.task:
        raise ParameterError(
            f"models are for task {models.task!r}, data is {data.task!r}"
        )
    lo, hi = BANDS[models.band]
    rows_out: list[dict] = []
    confusions: dict[str, ConfusionMatrix] = {}
    regressions: dict[str, RegressionReport] = {}
    for cond in sorted(data.conditions):
        test = data.conditions[cond].test
        if test is None:
            continue
        assert_sessions_disjoint(models.train_sessions, test)
        sl = band_slice_for(data.bin_hz, test.rows.shape[1], models.band)
        emb = kpca_transform(models.kpca, test.rows[:, sl])
        emb_ds = Dataset(
            emb, test.targets, data.label_names, "test", test.session_ids
        )
        row = {
            "task": models.task,
            "band": models.band,
            "f_low_hz": lo,
            "f_high_hz": hi,
            "condition": cond,
            "n_components": models.n_components,
            "n_test": len(test),
        }
        if data.label_names is not None:
            cm = eval_classifier(models.mlp, emb_ds)
            confusions[cond] = cm
            row["metric"] = "accuracy"
            row["value"] = cm.accuracy
        else:
            rep = eval_regressor(models.mlp, emb_ds)
            regressions[cond] = rep
            row["metric"] = "rmse_deg"
            row["value"] = rep.rmse
        rows_out.append(row)
    return TaskEval(
        models.task,
        models.band,
        models.n_components,
        tuple(rows_out),
        confusions,
        regressions,
    )


def metrics_to_dict(ev: TaskEval) -> dict:
    lo, hi = BANDS[ev.band]
    return {
        "task": ev.task,
        "band": ev.band,
        "f_low_hz": lo,
        "f_high_hz": hi,
        "n_components": ev.n_components,
        "rows": list(ev.rows),
    }


def write_dataset(
    ds: Dataset, path: str | Path, task: str, condition: str, bin_hz: float
) -> Path:
    arrays = {
        "rows": ds.rows,
        "targets": ds.targets.astype(np.float64),
        "session_ids": ds.session_ids.astype(np.float64),
    }
    meta = {
        "task": task,
        "condition": condition,
        "split": ds.split_tag,
        "bin_hz": bin_hz,
        "label_names": list(ds.label_names) if ds.label_names else None,
    }
    return write_container(path, PayloadKind.DATASET, arrays, meta)


def read_dataset(path: str | Path) -> tuple[Dataset, dict]:
    _, arrays, meta = read_container(path, expect_kind=PayloadKind.DATASET)
    label_names = meta.get("label_names")
    targets = arrays["targets"]
    if label_names is not None:
        rounded = np.rint(targets)
        if np.abs(targets - rounded).max() > 0:
            raise DataError(f"{path}: class targets are not integral")
        targets = rounded.astype(np.int64)
    ds = Dataset(
        arrays["rows"],
        targets,
        tuple(label_names) if label_names else None,
        str(meta["split"]),
        arrays["session_ids"].astype(np.int64),
    )
    return ds, meta


def dataset_path(out_dir: str | Path, task: str, condition: str, split: str) -> Path:
    return Path(out_dir) / task / "data" / f"{condition}.{split}.vcas"


def history_to_dict(history: TrainingHistory) -> dict:
    return {
        "train_loss": list(history.train_loss),
        "val_loss": list(history.val_loss),
        "best_epoch": history.best_epoch,
        "stopped_early": history.stopped_early,
        "n_epochs": history.n_epochs,
    }


def write_json(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
