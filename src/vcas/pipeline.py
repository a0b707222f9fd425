"""Experiment plumbing: configs, dataset synthesis, training, evaluation.

A run is described by a RunConfig (task, band, component count, session
layout, seeds).  Synthesis lists one job per (session, class/pose): a
plant, its target and its noise seeds.  One loop drives every job's
plant through the standard chirp in a single batched modal_response
call, which rounds each clean response once to float32 as it is written
(half the bytes of synth-data's largest buffer), then stamps out
samples by re-seeding only the additive noise on the widened response,
in chunks of up to four rows spread over a thread pool, so datasets are
cheap and bit reproducible whatever the CPU count.  Every row's label
and place is planned from the job list before the first spectrum is
made, and each chunk, rounded to float32 (the rows' stored dtype), goes
to its dataset's row sink as soon as it is made: a rows array for
in-memory datasets, the chunk's offset in the open dataset file for
synth-data, so synth-data's rows go straight to their files and are
never gathered in memory.  Training chains band selection, kernel PCA,
and the MLP on the training Dataset (the train command leaves its rows
in their file, for kernel PCA to read in column blocks); evaluation
scores one condition's test Dataset into a metric row shaped like the
tables the report command consumes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from . import plants
from .container import (
    PayloadKind,
    atomic_write,
    built_from,
    json_strings,
    open_container,
    read_container,
    read_container_lazily,
    write_container,  # noqa: F401  perfbench's tracer looks it up (ROADMAP item 3)
)
from .envsim import CONTACT_LABELS, PoseState, contact_type, expert_action
from .envsim import step as env_step
from .errors import ParameterError
from .features import (
    KernelPcaModel,
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
    BIN_HZ,
    N_BINS,
    SWEEP_POINTS,
    ModalPlant,
    apply_noise,
    chirp,
    modal_response,
)

TASKS = plants.TASKS

Band = Literal["full", "low", "high"]
BANDS: dict[Band, tuple[float, float]] = {
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
    session.  None in `n_components`, the counts, `conditions` or
    `preset` is replaced by the task's default (the counts 25/25,
    contact 250/200; the preset named after the task) when the config
    is made.  `train.seed` always equals `seed`.
    """

    task: plants.Task
    band: Band = "full"
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
        train_pc, test_pc = SAMPLES_PER_CLASS_DEFAULT[self.task]
        defaults = {
            "n_components": N_COMPONENTS_DEFAULT[self.task],
            "train_per_class": train_pc,
            "test_per_class": test_pc,
            "conditions": CONDITIONS_DEFAULT[self.task],
            "preset": self.task,
        }
        for name, default in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        for name in ("n_components", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        unknown = set(self.conditions) - set(CONDITIONS_DEFAULT[self.task])
        if unknown or "in_distribution" not in self.conditions:
            raise ParameterError(
                f"conditions {self.conditions} are not defined for task {self.task!r}: "
                f"use in_distribution and any of {CONDITIONS_DEFAULT[self.task]}"
            )


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
    if "perturbed" in cfg.conditions:
        layout.append(
            ("perturbed", PERTURBED_JITTER_SCALE, cfg.sessions_train + cfg.sessions_test)
        )
    for (role, scale, sid), sess_ss in zip(
        layout, np.random.SeedSequence(cfg.seed).spawn(len(layout))
    ):
        jit_ss, *streams = sess_ss.spawn(1 + n_streams)
        jitter = plants.draw_session_jitter(
            np.random.default_rng(jit_ss), max_modes, scale
        )
        n_pc = cfg.train_per_class if role == "train" else cfg.test_per_class
        yield role, sid, n_pc, jitter, streams


def _class_bank_jobs(
    cfg: RunConfig, preset: plants.ClassBankPreset
) -> tuple[tuple[str, ...], list[_Job]]:
    names = preset.class_names
    jobs = []
    for role, sid, n_pc, jitter, class_ss in _sessions(
        cfg, preset.max_modes, len(names)
    ):
        for target, (name, c_ss) in enumerate(zip(names, class_ss)):
            modes = plants.apply_jitter(preset.classes[name], jitter)
            plant = plants.build_plant(modes, preset.noise_snr_db)
            jobs.append((role, plant, target, sid, c_ss.generate_state(n_pc)))
    return names, jobs


def _pose_jobs(cfg: RunConfig, preset: plants.PosePreset) -> tuple[None, list[_Job]]:
    angles = preset.train_angles
    want_interp = "interpolated" in cfg.conditions
    jobs = []

    def add(role, angle, jitter, sid, seeds):
        modes = plants.apply_jitter(plants.pose_modes(preset, angle), jitter)
        plant = plants.build_plant(modes, preset.noise_snr_db)
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
    conds = cfg.conditions
    class_poses = _contact_trajectory_poses()
    jobs = []

    def add(role, theta_x, theta_z, jitter, sid, seeds):
        modes, label = plants.contact_modes(preset, theta_x, theta_z)
        plant = plants.build_plant(plants.apply_jitter(modes, jitter), preset.noise_snr_db)
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


# A dataset's (condition, split), e.g. ("interpolated", "test").
DatasetKey = tuple[str, str]

# A dataset's row sink: sink(first_row, block) stores the rows of `block`
# from `first_row` on.  Sinks are called from the pool's threads.
RowSink = Callable[[int, np.ndarray], None]


def _dataset_key(role: str) -> DatasetKey:
    if role in ("train", "test"):
        return "in_distribution", role
    return role, "test"


@dataclass(frozen=True)
class SynthPlan:
    """A task's datasets, complete but for their spectrum rows.

    `labels` maps each dataset to its (targets, session_ids) in row
    order; `jobs` make the rows in the same order.  Everything but the
    rows, so a dataset file's whole layout, is known before the first
    spectrum is made.
    """

    task: str
    label_names: tuple[str, ...] | None
    jobs: list[_Job]
    labels: dict[DatasetKey, tuple[np.ndarray, np.ndarray]]


def plan_synthesis(cfg: RunConfig) -> SynthPlan:
    """List a task's jobs and label every row they will make."""
    preset = plants.load_preset(cfg.preset)
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

    target_type = np.float64 if names is None else np.int64
    parts: dict[DatasetKey, tuple[list, list]] = {}
    for role, _, target, sid, seeds in jobs:
        targets, sessions = parts.setdefault(_dataset_key(role), ([], []))
        targets.append(np.full(seeds.size, target, dtype=target_type))
        sessions.append(np.full(seeds.size, sid, dtype=np.int64))
    labels = {
        key: (np.concatenate(targets), np.concatenate(sessions))
        for key, (targets, sessions) in parts.items()
    }
    return SynthPlan(cfg.task, names, jobs, labels)


def synthesize(plan: SynthPlan, sinks: dict[DatasetKey, RowSink]) -> None:
    """Make every row of `plan` and hand it to its dataset's sink.

    One batched modal_response call gives each job's clean response,
    held as float32 (CLEAN_DTYPE); the rows follow in chunks of up to
    four, each put to its sink as soon as it is made, so no rows-sized
    array is held here.
    """
    clean = modal_response(
        [plant for _, plant, _, _, _ in plan.jobs], chirp(),
        out=np.empty((len(plan.jobs), SWEEP_POINTS), dtype=CLEAN_DTYPE),
    )
    filled = dict.fromkeys(sinks, 0)
    chunks = []
    for (role, plant, _, _, seeds), response in zip(plan.jobs, clean):
        key = _dataset_key(role)
        for i in range(0, seeds.size, _CHUNK_ROWS):
            chunks.append(
                (response, plant.noise_snr_db, seeds[i : i + _CHUNK_ROWS],
                 sinks[key], filled[key] + i)
            )
        filled[key] += seeds.size
    _fill_spectra(chunks)


def synth_task_data(cfg: RunConfig) -> dict[DatasetKey, Dataset]:
    """Synthesize a task's datasets in memory, one Dataset per key."""
    plan = plan_synthesis(cfg)
    rows = {
        key: np.empty((targets.size, N_BINS))
        for key, (targets, _) in plan.labels.items()
    }

    def array_sink(key: DatasetKey) -> RowSink:
        def put(first_row: int, block: np.ndarray) -> None:
            rows[key][first_row : first_row + len(block)] = block

        return put

    synthesize(plan, {key: array_sink(key) for key in rows})
    return {
        key: Dataset(rows[key], targets, plan.label_names, key[1], sessions)
        for key, (targets, sessions) in plan.labels.items()
    }


# Spectra are made in chunks of up to this many rows of one job: one
# noise matrix and one 2-D rfft per chunk.
_CHUNK_ROWS = 4

# Spectrum rows are stored as float32: the noise lies far above its
# rounding (under 2**-24, 6e-8, of a row's maximum), and it halves the
# bytes of every dataset file and of what train and eval read.
ROWS_DTYPE = np.dtype("<f4")

# Clean responses are held as float32 too: they are the largest buffer
# synth-data holds (one 42,000-sample row per job).  Rounding moves a
# sample by under 2**-24 of its value; at the presets' 30 dB SNR the
# noise std is 0.032 of the clean RMS, about 5e5 times the rounding of
# a sample that size.
CLEAN_DTYPE = np.dtype("<f4")


def _fill_spectra(chunks: list) -> None:
    """Put each (clean, snr_db, seeds, sink, first_row) chunk's |rfft| rows.

    Chunks go to a thread pool sized by the CPUs this process may use;
    numpy's random fills and rfft release the GIL.  Each worker makes a
    chunk in its own buffers and puts it to rows only that chunk owns,
    so the result does not depend on the pool size.  A worker widens
    its chunk's clean response (CLEAN_DTYPE) to float64 before anything
    else, so the noise std, the noisy samples and the rfft are float64
    as if the rounded response had been made in float64.  The
    magnitudes are rounded to ROWS_DTYPE here, once, so an in-memory
    dataset (whose float64 rows take the values exactly) and a file
    hold the same rows.
    """
    todo = iter(chunks)
    lock = threading.Lock()

    def work() -> None:
        wide = np.empty(SWEEP_POINTS)
        noisy = np.empty((_CHUNK_ROWS, SWEEP_POINTS))
        spectrum = np.empty((_CHUNK_ROWS, N_BINS), dtype=np.complex128)
        mags = np.empty(spectrum.shape, dtype=ROWS_DTYPE)
        while True:
            with lock:
                chunk = next(todo, None)
            if chunk is None:
                return
            clean, snr_db, seeds, sink, first_row = chunk
            k = seeds.size
            wide[:] = clean
            apply_noise(wide, snr_db, seeds, out=noisy[:k])
            sink(first_row, fft_magnitude(noisy[:k], out=mags[:k], scratch=spectrum[:k]))

    # Imported here: concurrent.futures pulls in logging, about 10 ms of
    # start-up that commands other than synth-data would pay for nothing.
    from concurrent.futures import ThreadPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without CPU affinity (macOS)
        cpus = os.cpu_count() or 1
    n_workers = min(cpus, len(chunks))
    with ThreadPoolExecutor(n_workers) as pool:
        for done in [pool.submit(work) for _ in range(n_workers)]:
            done.result()


def band_slice_for(n_bins: int, band: str) -> slice:
    """Column slice of a full-spectrum row matrix for a named band.

    Bin k sits at k * BIN_HZ, and the band keeps the bins with
    f_low <= k * BIN_HZ < f_high: the lower edge is inclusive and the
    upper exclusive, so adjacent bands split the bins with no gap and
    no overlap.
    """
    lo, hi = BANDS[band]
    start, stop = np.searchsorted(np.arange(n_bins) * BIN_HZ, (lo, hi))
    if start == stop:
        raise ParameterError(
            f"band {band!r} [{lo}, {hi}) Hz selects none of {n_bins} bins "
            f"{BIN_HZ} Hz apart"
        )
    return slice(int(start), int(stop))


@dataclass(frozen=True)
class TaskModels:
    """Fitted reduction and estimator for one (task, band) run.

    `train_sessions` lists the sessions the models were fitted on, so
    evaluation can check test sessions against them without the
    training rows.
    """

    task: str
    band: str
    kpca: KernelPcaModel
    mlp: MlpModel
    train_sessions: tuple[int, ...]
    history: TrainingHistory | None = None


def train_task(
    train: Dataset, cfg: RunConfig, kpca_path: Path | None = None
) -> TaskModels:
    """Band-select, fit kernel PCA, train the estimator.

    The band is a column range of `train.rows`, so rows left on disk
    (read_dataset_lazily) are read only within the band.  With
    `kpca_path`, the kPCA model (with its training sessions) is written
    there block by block as it is fitted, before the estimator trains,
    and the returned kPCA model holds no projection.
    """
    sl = band_slice_for(train.rows.shape[1], cfg.band)
    sessions = tuple(np.unique(train.session_ids).tolist())
    kpca, embeddings = kpca_fit_transform(
        train.rows[:, sl], cfg.n_components, kpca_path,
        {"train_sessions": list(sessions)},
    )
    emb_ds = Dataset(
        embeddings, train.targets, train.label_names, "train", train.session_ids
    )
    mlp, history = mlp_train(emb_ds, cfg.train)
    return TaskModels(cfg.task, cfg.band, kpca, mlp, sessions, history)


def eval_task(
    models: TaskModels, condition: str, test: Dataset
) -> tuple[dict, ConfusionMatrix | RegressionReport]:
    """Project one condition's test rows and score the estimator.

    Returns the condition's metric row and the confusion matrix
    (classifier) or per-target report (regressor) behind it.
    """
    assert_sessions_disjoint(models.train_sessions, test)
    lo, hi = BANDS[models.band]
    sl = band_slice_for(test.rows.shape[1], models.band)
    emb = kpca_transform(models.kpca, test.rows[:, sl])
    emb_ds = Dataset(emb, test.targets, test.label_names, "test", test.session_ids)
    row = {
        "task": models.task,
        "band": models.band,
        "f_low_hz": lo,
        "f_high_hz": hi,
        "condition": condition,
        "n_components": models.kpca.n_components,
        "n_test": len(test),
    }
    if test.label_names is not None:
        report = eval_classifier(models.mlp, emb_ds)
        row["metric"] = "accuracy"
        row["value"] = report.accuracy
    else:
        report = eval_regressor(models.mlp, emb_ds)
        row["metric"] = "rmse_deg"
        row["value"] = report.rmse
    return row, report


def metrics_to_dict(models: TaskModels, rows: list[dict]) -> dict:
    lo, hi = BANDS[models.band]
    return {
        "task": models.task,
        "band": models.band,
        "f_low_hz": lo,
        "f_high_hz": hi,
        "n_components": models.kpca.n_components,
        "rows": rows,
    }


@contextlib.contextmanager
def _dataset_file(
    path, task: str, key: DatasetKey, label_names, n_bins: int,
    labels: tuple[np.ndarray, np.ndarray],
) -> Iterator[RowSink]:
    """Open dataset `key`'s file and write its labels; yield its row sink.

    Rows are stored as ROWS_DTYPE, labels as float64.  The file appears
    at `path` only when the block completes.
    """
    targets, session_ids = labels
    shapes = {
        "rows": (targets.size, n_bins),
        "targets": targets.shape,
        "session_ids": session_ids.shape,
    }
    meta = {
        "task": task,
        "condition": key[0],
        "split": key[1],
        "label_names": list(label_names) if label_names else None,
    }
    dtypes = {"rows": ROWS_DTYPE}
    with open_container(path, PayloadKind.DATASET, shapes, meta, dtypes) as put:
        put("targets", 0, targets)
        put("session_ids", 0, session_ids)
        yield functools.partial(put, "rows")


def write_dataset(ds: Dataset, path: str | Path, task: str, condition: str) -> Path:
    labels = ds.targets, ds.session_ids
    key, n_bins = (condition, ds.split_tag), ds.rows.shape[1]
    with _dataset_file(path, task, key, ds.label_names, n_bins, labels) as put:
        put(0, ds.rows)
    return Path(path)


def open_dataset(
    plan: SynthPlan, key: DatasetKey, path: str | Path
) -> contextlib.AbstractContextManager[RowSink]:
    """Open dataset `key` of `plan` as a file; its block yields the row sink."""
    return _dataset_file(
        path, plan.task, key, plan.label_names, N_BINS, plan.labels[key]
    )


def _integers(values: np.ndarray, what: str) -> np.ndarray:
    """`values` as int64, if each is a finite integer."""
    if not (np.isfinite(values).all() and np.array_equal(values, np.rint(values))):
        raise ValueError(f"{what} are not integral")
    return values.astype(np.int64)


def _as_dataset(path, arrays: dict, meta: dict) -> Dataset:
    with built_from(path):
        label_names = json_strings(meta.get("label_names"), "label_names")
        targets = arrays["targets"]
        return Dataset(
            arrays["rows"],
            targets if label_names is None else _integers(targets, "class targets"),
            label_names,
            str(meta["split"]),
            _integers(arrays["session_ids"], "session ids"),
        )


def read_dataset(path: str | Path) -> Dataset:
    _, arrays, meta = read_container(path, expect_kind=PayloadKind.DATASET)
    return _as_dataset(path, arrays, meta)


@contextlib.contextmanager
def read_dataset_lazily(path: str | Path) -> Iterator[Dataset]:
    """read_dataset, with the rows left in the file as a DiskMatrix.

    The rows are read, in column blocks, only by whoever takes them
    (kernel PCA's fit in train_task and its transform in eval_task),
    and only until the block exits.
    """
    with read_container_lazily(path, PayloadKind.DATASET, "rows") as (_, arrays, meta):
        yield _as_dataset(path, arrays, meta)


def dataset_path(out_dir: str | Path, task: str, condition: str, split: str) -> Path:
    return Path(out_dir) / task / "data" / f"{condition}.{split}.vcas"


def history_to_dict(history: TrainingHistory) -> dict:
    return {
        "train_loss": list(history.train_loss),
        "val_loss": list(history.val_loss),
        "best_epoch": history.best_epoch,
        "stop_reason": history.stop_reason,
        "n_epochs": history.n_epochs,
    }


def write_json(payload: dict, path: str | Path) -> Path:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return Path(path)
