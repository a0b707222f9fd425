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
from typing import Callable, Literal, Sequence, get_args

import numpy as np

from .container import atomic_write, built_from, json_int, read_text
from .errors import DataError, ParameterError

GRID_STEP = 4.5
GRID_MAX = 90.0
MAX_EPISODE_STEPS = 50
WINDOW_LENGTH = 10
OBS_ACCURACY = 0.95  # default channel diagonal

StartRegime = Literal["fixed", "interpolated", "out_of_distribution"]
START_REGIMES = get_args(StartRegime)


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
    def default(cls, accuracy: float = OBS_ACCURACY) -> "ObservationModel":
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


def observation_model_from_csv(path: str | Path) -> ObservationModel:
    """Load a 3x3 channel from the labelled CSV that `eval` writes.

    The first line is `true_label,` then the observed labels; each
    further line is a true label, then its probabilities.  Rows and
    columns may appear in any order.
    """
    lines = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    head, *body = (ln.split(",") for ln in lines)
    if head[0] != "true_label":
        raise DataError(f"{path}: the first line must be the true_label header")
    with built_from(path):
        rows = {cells[0]: cells for cells in body}
        cols = [head.index(o) for o in CONTACT_LABELS]
        matrix = np.array([[float(rows[t][c]) for c in cols] for t in CONTACT_LABELS])
        return ObservationModel(matrix)


Window = tuple  # length-n tuple of ContactType | None, oldest first


@dataclass(frozen=True)
class DemoPair:
    """Observation window paired with the expert's action at that step."""

    window: Window
    action: Action


@dataclass(frozen=True)
class EpisodeStep:
    """One step: the true contact, the window the policy acted on (the
    observation of that contact last), the action and the pose it led to."""

    true_contact: ContactType
    window: Window
    action: Action
    next_pose: PoseState


@dataclass(frozen=True)
class Episode:
    start: PoseState
    steps: tuple[EpisodeStep, ...]
    success: bool


def start_pose_sampler(regime: str, seed) -> PoseState:
    """Draw one start pose for the named regime.

    fixed -> (45, 45); interpolated -> theta_x=45, theta_z uniform on
    the grid [45, 90]; out_of_distribution -> theta_x uniform on the
    grid [40.5, 81], theta_z uniform on the grid [9, 90].
    """
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
    start_distribution: str,
    m: ObservationModel,
    seed: int,
    window_length: int = WINDOW_LENGTH,
) -> list[DemoPair]:
    """Expert rollouts recorded as (observation window, action) pairs.

    Each episode has its own generator, split from the seed, which draws
    the start pose and then the rollout's observations.  No expert path
    reaches the step cap, so every episode ends in the hole.
    """
    if n_episodes < 1:
        raise ParameterError("n_episodes must be >= 1")
    demos: list[DemoPair] = []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(child)
        start = start_pose_sampler(start_distribution, rng)
        ep = rollout(expert_policy, start, m, rng, window_length=window_length)
        demos.extend(DemoPair(s.window, s.action) for s in ep.steps)
    return demos


def rollout(
    policy: RolloutPolicy,
    start: PoseState,
    m: ObservationModel,
    seed,
    max_steps: int = MAX_EPISODE_STEPS,
    window_length: int = WINDOW_LENGTH,
) -> Episode:
    """Observe, act, repeat until true in-hole contact or max_steps.

    `seed` is anything `np.random.default_rng` takes; a Generator is
    drawn from as it is.  Each step draws one observation, then the
    policy acts on the window ending in it.  Termination uses the true
    contact only; an observed in-hole label neither ends the episode
    nor is withheld from the policy.
    """
    if not (1 <= max_steps <= MAX_EPISODE_STEPS):
        raise ParameterError(
            f"max_steps must be in [1, {MAX_EPISODE_STEPS}], got {max_steps}"
        )
    if window_length < 1:
        raise ParameterError("window_length must be >= 1")
    rng = np.random.default_rng(seed)
    pose = start
    window = deque([None] * window_length, maxlen=window_length)
    steps: list[EpisodeStep] = []
    for _ in range(max_steps):
        true_c = contact_type(pose.theta_x, pose.theta_z)
        if true_c == ContactType.IN_HOLE:
            break
        window.append(sample_observation(m, true_c, rng))
        seen = tuple(window)
        action = policy(pose, seen, rng)
        if action is None:
            raise ParameterError("policy returned no action before the goal")
        pose = step(pose, action)
        steps.append(EpisodeStep(true_c, seen, action, pose))
    success = contact_type(pose.theta_x, pose.theta_z) == ContactType.IN_HOLE
    return Episode(start, tuple(steps), success)


def episode_to_dict(ep: Episode) -> dict:
    return {
        "start": [ep.start.theta_x, ep.start.theta_z],
        "steps": [
            [
                int(s.true_contact),
                int(s.window[-1]),
                int(s.action),
                [s.next_pose.theta_x, s.next_pose.theta_z],
            ]
            for s in ep.steps
        ],
        "success": ep.success,
    }


def write_demos(demos: Sequence[DemoPair], path: str | Path) -> Path:
    with atomic_write(path) as fh:
        for d in demos:
            rec = {
                "window": [None if t is None else int(t) for t in d.window],
                "action": int(d.action),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return Path(path)


def read_demos(path: str | Path) -> list[DemoPair]:
    """One pair per JSON line: integer tokens and action, pads (null) first,
    every window as long as the first.  A fault names the file and line."""
    demos = []
    for i, line in enumerate(read_text(path).splitlines()):
        if not line.strip():
            continue
        with built_from(f"{path}:{i + 1}"):
            rec = json.loads(line)
            window = tuple(
                None if t is None else ContactType(json_int(t, "a token"))
                for t in rec["window"]
            )
            if None in window[window.count(None) :]:
                raise ValueError("a pad follows an observation")
            if demos and len(window) != len(demos[0].window):
                raise ValueError(f"window length {len(window)} is not the first's")
            demos.append(DemoPair(window, Action(json_int(rec["action"], "action"))))
    return demos
