"""Behavior-cloned insertion policy over observation histories.

The policy sees only the last 10 contact observations (left-padded
with a dedicated no-observation token), one-hot flattened into a
40-wide input, and predicts a categorical distribution over the two
rotation actions.  Training minimizes the negative log-likelihood of
expert actions, reusing the MLP machinery from `learn`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Unused here, but perfbench/tracer.py patches these names in this module,
# so they stay importable until its SITES table is retired.
from .container import read_container, write_container  # noqa: F401
from .envsim import (
    ACTION_LABELS,
    Action,
    ContactType,
    DemoPair,
    Episode,
    ObservationModel,
    PoseState,
    RolloutPolicy,
    WINDOW_LENGTH,
    Window,
    episode_to_dict,
    rollout,
    start_pose_sampler,
)
from .errors import DataError, ParameterError
from .learn import (
    MlpModel,
    TrainConfig,
    TrainingHistory,
    dataset_from_labels,
    load_mlp,
    mlp_forward,
    mlp_train,
    save_mlp,
)

# One-hot vocabulary per window slot: no-observation pad, then the
# contact types in enum order.
TOKEN_COUNT = 4


def encode_window(window: Window) -> np.ndarray:
    """Flatten a window into one-hot slots, oldest observation first.

    Pad tokens may only form a contiguous prefix (observations never
    disappear mid-episode).
    """
    if len(window) == 0:
        raise ParameterError("window must not be empty")
    out = np.zeros(TOKEN_COUNT * len(window))
    seen_obs = False
    for i, tok in enumerate(window):
        if tok is None:
            if seen_obs:
                raise ParameterError("pad tokens must form a contiguous prefix")
            out[TOKEN_COUNT * i] = 1.0
        else:
            seen_obs = True
            out[TOKEN_COUNT * i + 1 + int(ContactType(tok))] = 1.0
    return out


@dataclass(frozen=True)
class PolicyModel:
    """Categorical action head over an encoded observation window."""

    net: MlpModel
    window_length: int

    def __post_init__(self):
        if self.window_length < 1:
            raise ParameterError("window_length must be >= 1")
        if self.net.head != "softmax" or self.net.out_dim != 2:
            raise ParameterError("policy net must be a 2-way softmax")
        if self.net.in_dim != TOKEN_COUNT * self.window_length:
            raise ParameterError(
                f"net in_dim {self.net.in_dim} does not match "
                f"window_length {self.window_length}"
            )
        if self.net.label_names != ACTION_LABELS:
            raise ParameterError(f"policy labels must be {ACTION_LABELS}")


def policy_train(
    demos: Sequence[DemoPair], cfg: TrainConfig
) -> tuple[PolicyModel, TrainingHistory]:
    """Fit the action distribution to expert demo pairs.

    Mean negative log-likelihood of the expert action given the window
    (cross-entropy), early-stopped on a held-out tenth of the distinct
    (window, action) pairs.  Repeated pairs train once, weighted by
    their count (see `mlp_train`).
    """
    if not demos:
        raise ParameterError("demo set is empty")
    window_length = len(demos[0].window)
    if any(len(d.window) != window_length for d in demos):
        raise ParameterError("demo windows have mixed lengths")
    actions = {d.action for d in demos}
    if len(actions) < 2:
        only = next(iter(actions)).label
        raise ParameterError(
            f"demos contain only the {only} action; both actions are needed"
        )
    rows = np.stack([encode_window(d.window) for d in demos])
    labels = [d.action.label for d in demos]
    data = dataset_from_labels(rows, labels, split_tag="train")
    net, history = mlp_train(data, cfg)
    return PolicyModel(net, window_length), history


def _action_probs(model: PolicyModel, window: Window) -> np.ndarray:
    if len(window) != model.window_length:
        raise ParameterError(
            f"window length {len(window)} != model window {model.window_length}"
        )
    return mlp_forward(model.net, encode_window(window))


def _choose(probs: np.ndarray, mode: str, rng: np.random.Generator | None) -> Action:
    if mode == "greedy":
        return Action.ROT_Z if probs[1] >= probs[0] else Action.ROT_X
    if mode == "sample":
        if rng is None:
            raise ParameterError("sample mode needs an rng")
        return Action.ROT_Z if rng.random() < probs[1] else Action.ROT_X
    raise ParameterError(f"unknown mode {mode!r}; use greedy or sample")


def policy_act(
    model: PolicyModel,
    window: Window,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
) -> Action:
    """Choose an action from the categorical head.

    Greedy takes the argmax with ties going to rot_z (the expert's
    first phase); sample draws from the distribution.
    """
    return _choose(_action_probs(model, window), mode, rng)


def as_rollout_policy(model: PolicyModel, mode: str = "greedy") -> RolloutPolicy:
    """Adapt a PolicyModel to the (pose, window, rng) rollout signature.

    The returned callable remembers the action distribution of every
    window it has seen, so each distinct window is encoded and run
    through the network once.  The choice itself is made afresh on
    every step (sample mode still draws from `rng` each time), so the
    actions are exactly those of calling `policy_act` per step.
    """
    memo: dict[Window, np.ndarray] = {}

    def _policy(pose: PoseState, window: Window, rng: np.random.Generator) -> Action:
        probs = memo.get(window)
        if probs is None:
            probs = memo[window] = _action_probs(model, window)
        return _choose(probs, mode, rng)

    return _policy


@dataclass(frozen=True)
class EvalReport:
    """Aggregate rollout statistics for one start regime."""

    regime: str
    n_episodes: int
    success_rate: float
    mean_length: float
    length_p50: float
    length_p90: float
    max_length: int
    failures: tuple[Episode, ...]

    def __post_init__(self):
        if not (0.0 <= self.success_rate <= 1.0):
            raise ParameterError("success_rate outside [0, 1]")
        if len(self.failures) != round((1.0 - self.success_rate) * self.n_episodes):
            raise ParameterError("failure count inconsistent with success_rate")


def policy_eval(
    model: PolicyModel | RolloutPolicy,
    regime: str,
    n_episodes: int,
    m: ObservationModel,
    seed: int,
    mode: str = "greedy",
) -> EvalReport:
    """Roll the policy from per-episode seeded starts and aggregate.

    Each episode gets independent start and rollout seeds split from
    the root seed, so results do not depend on execution order.  A
    bare rollout-policy callable (e.g. the expert) is accepted too.
    """
    if n_episodes < 1:
        raise ParameterError("n_episodes must be >= 1")
    if isinstance(model, PolicyModel):
        run = as_rollout_policy(model, mode=mode)
        window_length = model.window_length
    else:
        run = model
        window_length = WINDOW_LENGTH
    episodes: list[Episode] = []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        start_ss, roll_ss = child.spawn(2)
        start = start_pose_sampler(regime, int(start_ss.generate_state(1)[0]))
        episodes.append(
            rollout(
                run,
                start,
                m,
                seed=int(roll_ss.generate_state(1)[0]),
                window_length=window_length,
            )
        )
    lengths = np.array([ep.length for ep in episodes])
    failures = tuple(ep for ep in episodes if not ep.success)
    return EvalReport(
        regime=regime,
        n_episodes=n_episodes,
        success_rate=1.0 - len(failures) / n_episodes,
        mean_length=float(lengths.mean()),
        length_p50=float(np.percentile(lengths, 50)),
        length_p90=float(np.percentile(lengths, 90)),
        max_length=int(lengths.max()),
        failures=failures,
    )


def eval_report_to_dict(report: EvalReport) -> dict:
    return {
        "regime": report.regime,
        "n_episodes": report.n_episodes,
        "success_rate": report.success_rate,
        "mean_length": report.mean_length,
        "length_p50": report.length_p50,
        "length_p90": report.length_p90,
        "max_length": report.max_length,
        "failures": [episode_to_dict(ep) for ep in report.failures],
    }


def write_eval_report_json(report: EvalReport, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(eval_report_to_dict(report), sort_keys=True, indent=2))
    return path


def save_policy(model: PolicyModel, path: str | Path) -> Path:
    """Write the policy as an MLP file whose metadata holds window_length."""
    return save_mlp(model.net, path, {"window_length": model.window_length})


def load_policy(path: str | Path) -> PolicyModel:
    net, meta = load_mlp(path)
    if "window_length" not in meta:
        raise DataError(f"{path} is an MLP file without window_length, not a policy")
    return PolicyModel(net, int(meta["window_length"]))
