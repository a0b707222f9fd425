"""Behavior-cloned insertion policy over observation histories.

The policy sees only the last 10 contact observations (left-padded
with a dedicated no-observation token), one-hot flattened into a
40-wide input, and predicts a categorical distribution over the two
rotation actions.  Training minimizes the negative log-likelihood of
expert actions, reusing the MLP machinery from `learn`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Literal, Sequence

import numpy as np

# Unused here, but perfbench/tracer.py patches these names in this module,
# so they stay importable until its SITES table is retired.
from .container import read_container, write_container  # noqa: F401
from .envsim import (
    ACTION_LABELS,
    Action,
    ContactType,
    DemoPair,
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
    Dataset,
    MlpModel,
    TrainConfig,
    TrainingHistory,
    load_mlp,
    mlp_forward,
    mlp_train,
)

PolicyMode = Literal["greedy", "sample"]

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


def policy_train(
    demos: Sequence[DemoPair], cfg: TrainConfig
) -> tuple[MlpModel, TrainingHistory]:
    """Fit the action distribution to expert demo pairs.

    Mean negative log-likelihood of the expert action given the window
    (cross-entropy), early-stopped on a held-out tenth of the distinct
    (window, action) pairs.  Repeated pairs train once, weighted by
    their count (see `mlp_train`).
    """
    if not demos:
        raise ParameterError("demo set is empty")
    if len({len(d.window) for d in demos}) > 1:
        raise ParameterError("demo windows have mixed lengths")
    rows = np.stack([encode_window(d.window) for d in demos])
    data = Dataset(rows, [int(d.action) for d in demos], ACTION_LABELS)
    return mlp_train(data, cfg)


def _action_probs(net: MlpModel, window: Window) -> np.ndarray:
    return mlp_forward(net, encode_window(window)[None])[0]


def _choose(probs: np.ndarray, mode: str, rng: np.random.Generator | None) -> Action:
    """Greedy: the argmax, ties to rot_z (the expert's first phase); sample: a draw."""
    if mode == "greedy":
        return Action.ROT_Z if probs[1] >= probs[0] else Action.ROT_X
    if mode == "sample":
        if rng is None:
            raise ParameterError("sample mode needs an rng")
        return Action.ROT_Z if rng.random() < probs[1] else Action.ROT_X
    raise ParameterError(f"unknown mode {mode!r}; use greedy or sample")


def as_rollout_policy(
    policy: MlpModel | RolloutPolicy, mode: PolicyMode = "greedy"
) -> tuple[RolloutPolicy, int]:
    """The (pose, window, rng) callable that runs a policy, and its window length.

    A bare callable (the expert, say) is returned as it is, with
    WINDOW_LENGTH.  A net gets a callable that remembers the action
    distribution of every window it has seen, so each distinct window
    is encoded and run through the network once; the choice itself is
    made afresh on every step (sample mode still draws from `rng` each
    time), so the actions are exactly those of
    `_choose(_action_probs(...))` per step.
    """
    if not isinstance(policy, MlpModel):
        return policy, WINDOW_LENGTH
    memo: dict[Window, np.ndarray] = {}

    def _policy(pose: PoseState, window: Window, rng: np.random.Generator) -> Action:
        probs = memo.get(window)
        if probs is None:
            probs = memo[window] = _action_probs(policy, window)
        return _choose(probs, mode, rng)

    return _policy, policy.in_dim // TOKEN_COUNT


def policy_eval(
    model: MlpModel | RolloutPolicy,
    regime: str,
    n_episodes: int,
    m: ObservationModel,
    seed: int,
    mode: PolicyMode = "greedy",
) -> dict:
    """Roll the policy from per-episode seeded starts; the JSON payload.

    The payload holds the success rate, the episode length statistics
    and every failed episode with its rollout seed.  Each episode gets
    independent start and rollout seeds split from the root seed, so
    results do not depend on execution order.  A bare rollout-policy
    callable (e.g. the expert) is accepted too.
    """
    if n_episodes < 1:
        raise ParameterError("n_episodes must be >= 1")
    run, window_length = as_rollout_policy(model, mode)
    lengths, failures = [], []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        start_ss, roll_ss = child.spawn(2)
        start = start_pose_sampler(regime, int(start_ss.generate_state(1)[0]))
        roll_seed = int(roll_ss.generate_state(1)[0])
        ep = rollout(run, start, m, roll_seed, window_length=window_length)
        lengths.append(len(ep.steps))
        if not ep.success:
            failures.append(dict(episode_to_dict(ep), seed=roll_seed))
    return {
        "regime": regime,
        "n_episodes": n_episodes,
        "success_rate": 1.0 - len(failures) / n_episodes,
        "mean_length": float(np.mean(lengths)),
        "length_p50": float(np.percentile(lengths, 50)),
        "length_p90": float(np.percentile(lengths, 90)),
        "max_length": max(lengths),
        "failures": failures,
    }


def load_policy(path: str | Path) -> MlpModel:
    """Read a policy net: an MLP file labelled with ACTION_LABELS whose
    input width is TOKEN_COUNT per window step."""
    net, _ = load_mlp(path)
    if net.label_names != ACTION_LABELS or net.in_dim % TOKEN_COUNT:
        raise DataError(
            f"{path} is not a policy: labels {net.label_names}, input width "
            f"{net.in_dim} (want {ACTION_LABELS}, a multiple of {TOKEN_COUNT})"
        )
    return net
