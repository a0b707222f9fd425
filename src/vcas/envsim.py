"""Discrete peg-insertion environment with a noisy contact channel.

Poses live on a 4.5 degree grid over (theta_x, theta_z); each pose has
exactly one contact label (diagonal, line, or in-hole at full
alignment).  Actions rotate one axis by the grid step, saturating at
90.  Observations pass the true contact label through a row-stochastic
confusion channel, which is how estimator error enters the simulator.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, ParameterError
from .learn import ConfusionMatrix

GRID_STEP = 4.5
GRID_MAX = 90.0
MAX_EPISODE_STEPS = 50
WINDOW_LENGTH = 10

START_REGIMES = ("fixed", "interpolated", "out_of_distribution")


class ContactType(IntEnum):
    DIAGONAL = 0
    LINE = 1
    IN_HOLE = 2

    @property
    def label(self) -> str:
        return CONTACT_LABELS[self]


# Canonical names, indexed by ContactType value.
CONTACT_LABELS = ("diagonal", "line", "in_hole")


class Action(IntEnum):
    ROT_X = 0
    ROT_Z = 1

    @property
    def label(self) -> str:
        return ACTION_LABELS[self]


ACTION_LABELS = ("rot_x", "rot_z")


def _on_grid(angle: float) -> bool:
    ratio = angle / GRID_STEP
    return abs(ratio - round(ratio)) < 1e-9


@dataclass(frozen=True)
class PoseState:
    """Peg orientation in degrees, both angles on the 4.5 degree grid."""

    theta_x: float
    theta_z: float

    def __post_init__(self):
        for name, angle in (("theta_x", self.theta_x), ("theta_z", self.theta_z)):
            if not (0 < angle <= GRID_MAX):
                raise ParameterError(f"{name}={angle} outside (0, {GRID_MAX}]")
            if not _on_grid(angle):
                raise ParameterError(f"{name}={angle} is not a multiple of {GRID_STEP}")
        object.__setattr__(self, "theta_x", float(self.theta_x))
        object.__setattr__(self, "theta_z", float(self.theta_z))


def grid_poses() -> list[PoseState]:
    """All poses on the default 20x20 grid, row-major in (theta_x, theta_z)."""
    values = [GRID_STEP * k for k in range(1, int(GRID_MAX / GRID_STEP) + 1)]
    return [PoseState(x, z) for x in values for z in values]


def contact_type(theta_x: float, theta_z: float) -> ContactType:
    """Diagonal until theta_z aligns, then line until theta_x aligns.

    Any pose in (0, 90]^2 has a contact type, on the grid or not.
    """
    if not (0 < theta_x <= GRID_MAX and 0 < theta_z <= GRID_MAX):
        raise ParameterError(f"pose ({theta_x}, {theta_z}) outside (0, {GRID_MAX}]^2")
    if theta_z < GRID_MAX:
        return ContactType.DIAGONAL
    if theta_x < GRID_MAX:
        return ContactType.LINE
    return ContactType.IN_HOLE


def step(p: PoseState, a: Action) -> PoseState:
    """Rotate the selected axis by +4.5 degrees, saturating at 90."""
    if a == Action.ROT_X:
        return PoseState(min(p.theta_x + GRID_STEP, GRID_MAX), p.theta_z)
    return PoseState(p.theta_x, min(p.theta_z + GRID_STEP, GRID_MAX))


def expert_action(p: PoseState) -> Action | None:
    """Align theta_z first, then theta_x; None once fully aligned."""
    if p.theta_z < GRID_MAX:
        return Action.ROT_Z
    if p.theta_x < GRID_MAX:
        return Action.ROT_X
    return None


def expert_path_length(p: PoseState) -> int:
    return int(round((GRID_MAX - p.theta_z + GRID_MAX - p.theta_x) / GRID_STEP))


@dataclass(frozen=True)
class ObservationModel:
    """Row-stochastic 3x3 channel p(observed | true) over contact types."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ParameterError(f"observation model must be 3x3, got {m.shape}")
        if (m < 0).any() or not np.isfinite(m).all():
            raise ParameterError("observation probabilities must be finite and >= 0")
        sums = m.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ParameterError(f"rows must sum to 1, got sums {sums.tolist()}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "ObservationModel":
        return cls(np.eye(3))

    @classmethod
    def default(cls, accuracy: float = 0.95) -> "ObservationModel":
        """Accuracy on the diagonal, residual mass on adjacent labels.

        Diagonal and in-hole confuse only with line (their neighbor in
        the insertion sequence); line splits its residual both ways.
        """
        if not (0 < accuracy <= 1):
            raise ParameterError("accuracy must be in (0, 1]")
        r = 1.0 - accuracy
        return cls(
            np.array(
                [
                    [accuracy, r, 0.0],
                    [r / 2, accuracy, r / 2],
                    [0.0, r, accuracy],
                ]
            )
        )


def sample_observation(
    m: ObservationModel, true_c: ContactType, rng: np.random.Generator
) -> ContactType:
    """One draw from the channel row for the true contact."""
    row = m.matrix[int(true_c)]
    u = rng.random()
    acc = 0.0
    for i in range(2):
        acc += row[i]
        if u < acc:
            return ContactType(i)
    return ContactType(2)


def observation_model_from_confusion(cm: ConfusionMatrix) -> ObservationModel:
    """Reorder a measured contact confusion matrix into channel form.

    The classifier's label order is lexicographic; rows and columns are
    mapped by name onto the (diagonal, line, in_hole) contact order.
    """
    missing = set(CONTACT_LABELS) - set(cm.label_names)
    if missing or len(cm.label_names) != 3:
        raise ParameterError(
            f"confusion labels {cm.label_names} do not cover {CONTACT_LABELS}"
        )
    probs = cm.normalized()
    order = [cm.label_names.index(name) for name in CONTACT_LABELS]
    return ObservationModel(probs[np.ix_(order, order)])


def observation_model_to_csv(m: ObservationModel, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("true_label," + ",".join(CONTACT_LABELS) + "\n")
        for name, row in zip(CONTACT_LABELS, m.matrix):
            fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return path


def observation_model_from_csv(path: str | Path) -> ObservationModel:
    """Load a 3x3 channel from CSV, with or without a label header.

    Named rows may appear in any order; headerless files are taken to
    be in (diagonal, line, in_hole) order already.
    """
    path = Path(path)
    try:
        lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read observation model: {exc}") from exc
    if not lines:
        raise DataError(f"{path} is empty")
    rows: dict[str, list[float]] = {}
    try:
        if lines[0].split(",")[0] == "true_label":
            for ln in lines[1:]:
                cells = ln.split(",")
                rows[cells[0]] = [float(c) for c in cells[1:]]
            header = lines[0].split(",")[1:]
            matrix = np.array(
                [
                    [rows[t][header.index(o)] for o in CONTACT_LABELS]
                    for t in CONTACT_LABELS
                ]
            )
        else:
            matrix = np.array([[float(c) for c in ln.split(",")] for ln in lines])
    except (ValueError, KeyError, IndexError) as exc:
        raise DataError(f"malformed observation model in {path}: {exc}") from exc
    try:
        return ObservationModel(matrix)
    except ParameterError as exc:
        raise DataError(f"invalid observation model in {path}: {exc}") from exc


Window = tuple  # length-n tuple of ContactType | None, oldest first


def blank_window(window_length: int = WINDOW_LENGTH) -> Window:
    return (None,) * window_length


@dataclass(frozen=True)
class DemoPair:
    """Observation window paired with the expert's action at that step."""

    window: Window
    action: Action


@dataclass(frozen=True)
class EpisodeStep:
    true_contact: ContactType
    observed_contact: ContactType
    action: Action
    next_pose: PoseState


@dataclass(frozen=True)
class Episode:
    """Full rollout trace.

    `seed` is the integer the rollout rng was created from, so the
    episode can be replayed bit for bit.
    """

    start: PoseState
    steps: tuple[EpisodeStep, ...]
    success: bool
    seed: int

    def __post_init__(self):
        if len(self.steps) > MAX_EPISODE_STEPS:
            raise ParameterError(f"episode exceeds {MAX_EPISODE_STEPS} steps")
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def final_pose(self) -> PoseState:
        return self.steps[-1].next_pose if self.steps else self.start


def start_pose_sampler(regime: str | PoseState, seed) -> PoseState:
    """Draw one start pose for the named regime.

    fixed -> (45, 45); interpolated -> theta_x=45, theta_z uniform on
    the grid [45, 90]; out_of_distribution -> theta_x uniform on the
    grid [40.5, 81], theta_z uniform on the grid [9, 90].  A PoseState
    acts as a point distribution on that pose.
    """
    if isinstance(regime, PoseState):
        return regime
    if regime not in START_REGIMES:
        raise ParameterError(f"unknown start regime {regime!r}; use {START_REGIMES}")
    rng = np.random.default_rng(seed)
    if regime == "fixed":
        return PoseState(45.0, 45.0)
    if regime == "interpolated":
        theta_z = 45.0 + GRID_STEP * int(rng.integers(0, 11))
        return PoseState(45.0, theta_z)
    theta_x = 40.5 + GRID_STEP * int(rng.integers(0, 10))
    theta_z = 9.0 + GRID_STEP * int(rng.integers(0, 19))
    return PoseState(theta_x, theta_z)


# A rollout policy maps (pose, window, rng) to an Action; the expert
# ignores the window, learned policies ignore the pose.
RolloutPolicy = Callable[[PoseState, Window, np.random.Generator], Action | None]


def expert_policy(pose: PoseState, window: Window, rng) -> Action | None:
    return expert_action(pose)


def generate_demos(
    n_episodes: int,
    start_distribution: str | PoseState,
    m: ObservationModel,
    seed: int,
    window_length: int = WINDOW_LENGTH,
) -> list[DemoPair]:
    """Expert rollouts recorded as (observation window, action) pairs.

    Each step samples an observation of the current true contact,
    pushes it into the left-padded window, and records the window with
    the expert's action.  Deterministic given the seed.
    """
    if n_episodes < 1:
        raise ParameterError("n_episodes must be >= 1")
    if window_length < 1:
        raise ParameterError("window_length must be >= 1")
    demos: list[DemoPair] = []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(child)
        pose = start_pose_sampler(start_distribution, rng)
        window = deque(blank_window(window_length), maxlen=window_length)
        while True:
            action = expert_action(pose)
            if action is None:
                break
            obs = sample_observation(m, contact_type(pose.theta_x, pose.theta_z), rng)
            window.append(obs)
            demos.append(DemoPair(tuple(window), action))
            pose = step(pose, action)
    return demos


def rollout(
    policy: RolloutPolicy,
    start: PoseState,
    m: ObservationModel,
    seed: int,
    max_steps: int = MAX_EPISODE_STEPS,
    window_length: int = WINDOW_LENGTH,
) -> Episode:
    """Observe, act, repeat until true in-hole contact or max_steps.

    Termination uses the true contact only; an observed in-hole label
    neither ends the episode nor is withheld from the policy.
    """
    if max_steps < 1:
        raise ParameterError("max_steps must be >= 1")
    rng = np.random.default_rng(seed)
    pose = start
    window = deque(blank_window(window_length), maxlen=window_length)
    steps: list[EpisodeStep] = []
    success = False
    for _ in range(max_steps):
        true_c = contact_type(pose.theta_x, pose.theta_z)
        if true_c == ContactType.IN_HOLE:
            success = True
            break
        obs = sample_observation(m, true_c, rng)
        window.append(obs)
        action = policy(pose, tuple(window), rng)
        if action is None:
            raise ParameterError("policy returned no action before the goal")
        next_pose = step(pose, action)
        steps.append(EpisodeStep(true_c, obs, action, next_pose))
        pose = next_pose
    else:
        success = contact_type(pose.theta_x, pose.theta_z) == ContactType.IN_HOLE
    return Episode(start, tuple(steps), success, int(seed))


def episode_to_dict(ep: Episode) -> dict:
    return {
        "start": [ep.start.theta_x, ep.start.theta_z],
        "steps": [
            [
                int(s.true_contact),
                int(s.observed_contact),
                int(s.action),
                [s.next_pose.theta_x, s.next_pose.theta_z],
            ]
            for s in ep.steps
        ],
        "success": ep.success,
        "seed": ep.seed,
    }


def write_demos(demos: Sequence[DemoPair], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for d in demos:
            rec = {
                "window": [None if t is None else int(t) for t in d.window],
                "action": int(d.action),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def read_demos(path: str | Path) -> list[DemoPair]:
    path = Path(path)
    demos = []
    for i, line in enumerate(path.read_text().splitlines()):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            window = tuple(
                None if t is None else ContactType(t) for t in rec["window"]
            )
            demos.append(DemoPair(window, Action(rec["action"])))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise DataError(f"{path}:{i + 1}: malformed demo: {exc}") from exc
    return demos
