import json
import math

import numpy as np
import pytest

import vcas.policy as policy_mod
from _oracles import expert_path_length
from vcas.envsim import (
    Action,
    ContactType,
    DemoPair,
    ObservationModel,
    PoseState,
    expert_policy,
    generate_demos,
    grid_poses,
    rollout,
)
from vcas.errors import DataError, ParameterError
from vcas.learn import MlpModel, TrainConfig, load_mlp, mlp_loss, save_mlp
from vcas.pipeline import write_json
from vcas.policy import (
    TOKEN_COUNT,
    as_rollout_policy,
    encode_window,
    load_policy,
    policy_eval,
    policy_train,
)

IDENTITY = ObservationModel.identity()


def policy_act(model, window, mode="greedy", rng=None):
    """The per-step reference: one forward pass and one choice per call.

    Greedy takes the argmax with ties going to rot_z (the expert's
    first phase); sample draws from the distribution.
    """
    return policy_mod._choose(policy_mod._action_probs(model, window), mode, rng)


def zero_policy(window_length=10):
    in_dim = TOKEN_COUNT * window_length
    return MlpModel(
        [np.zeros((in_dim, 2))], [np.zeros(2)], "softmax",
        label_names=("rot_x", "rot_z"),
    )


def biased_policy(bias, window_length=2):
    in_dim = TOKEN_COUNT * window_length
    return MlpModel(
        [np.zeros((in_dim, 2))], [np.asarray(bias, dtype=float)], "softmax",
        label_names=("rot_x", "rot_z"),
    )


def random_policy(seed, window_length=10):
    """Untrained net whose actions vary with the window."""
    rng = np.random.default_rng(seed)
    return MlpModel(
        [rng.normal(size=(TOKEN_COUNT * window_length, 2))], [np.zeros(2)],
        "softmax", label_names=("rot_x", "rot_z"),
    )


@pytest.fixture(scope="module")
def trained():
    demos = generate_demos(200, "interpolated", IDENTITY, seed=0)
    model, history = policy_train(demos, TrainConfig(max_epochs=40, seed=0))
    return model, history, demos


# ------------------------------------------------------------ encoding


def test_encode_window_one_hot_layout():
    enc = encode_window((None, None, ContactType.DIAGONAL, ContactType.LINE))
    assert enc.shape == (16,)
    expected = np.zeros(16)
    expected[[0, 4, 9, 14]] = 1.0  # pad, pad, diagonal, line slots
    assert np.array_equal(enc, expected)
    full = encode_window((ContactType.IN_HOLE,))
    assert np.array_equal(full, [0.0, 0.0, 0.0, 1.0])


def test_encode_window_each_slot_sums_to_one():
    enc = encode_window((None,) * 3 + (ContactType.LINE,) * 7)
    assert np.array_equal(enc.reshape(10, TOKEN_COUNT).sum(axis=1), np.ones(10))


def test_encode_window_rejects_interior_pad():
    with pytest.raises(ParameterError, match="prefix"):
        encode_window((ContactType.DIAGONAL, None))
    with pytest.raises(ParameterError):
        encode_window(())


# ------------------------------------------------------------ training


def test_train_refuses_single_action_demos():
    demos = [
        DemoPair((None,) * 9 + (ContactType.DIAGONAL,), Action.ROT_Z)
        for _ in range(10)
    ]
    with pytest.raises(ParameterError, match="rot_z"):
        policy_train(demos, TrainConfig(max_epochs=2))


def test_train_refuses_empty_and_mixed_windows():
    with pytest.raises(ParameterError, match="empty"):
        policy_train([], TrainConfig(max_epochs=2))
    demos = [
        DemoPair((ContactType.LINE,), Action.ROT_X),
        DemoPair((ContactType.LINE, ContactType.LINE), Action.ROT_Z),
    ]
    with pytest.raises(ParameterError, match="length"):
        policy_train(demos, TrainConfig(max_epochs=2))


def test_uniform_policy_nll_is_ln_two():
    demos = generate_demos(5, "interpolated", IDENTITY, seed=3)
    rows = np.stack([encode_window(d.window) for d in demos])
    targets = np.array([int(d.action == Action.ROT_Z) for d in demos])
    loss = mlp_loss(zero_policy(), (rows, targets))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_duplicated_demos_do_not_move_the_loss(trained):
    model, _, demos = trained
    sample = demos[:64]
    rows = np.stack([encode_window(d.window) for d in sample])
    targets = np.array([int(d.action == Action.ROT_Z) for d in sample])
    doubled = (np.tile(rows, (2, 1)), np.tile(targets, 2))
    assert mlp_loss(model, (rows, targets)) == pytest.approx(
        mlp_loss(model, doubled), abs=1e-12
    )


# -------------------------------------------------------------- acting


def test_greedy_tie_goes_to_rot_z():
    assert policy_act(zero_policy(2), (None, ContactType.LINE)) == Action.ROT_Z


def test_sample_mode_follows_the_distribution():
    model = biased_policy((50.0, -50.0))  # all mass on rot_x
    rng = np.random.default_rng(0)
    window = (None, ContactType.DIAGONAL)
    draws = {policy_act(model, window, mode="sample", rng=rng) for _ in range(100)}
    assert draws == {Action.ROT_X}


def test_act_validation():
    model = zero_policy(2)
    with pytest.raises(ParameterError, match="in_dim 8"):
        policy_act(model, (None,) * 3)
    with pytest.raises(ParameterError, match="rng"):
        policy_act(model, (None, None), mode="sample")
    with pytest.raises(ParameterError, match="mode"):
        policy_act(model, (None, None), mode="argmax")


def test_trained_policy_reads_line_window_as_rot_x(trained):
    model, _, _ = trained
    window_length = model.in_dim // TOKEN_COUNT
    window = (ContactType.LINE,) * window_length
    assert policy_act(model, window) == Action.ROT_X
    diag = (None,) * (window_length - 1) + (ContactType.DIAGONAL,)
    assert policy_act(model, diag) == Action.ROT_Z


def test_trained_policy_matches_expert_from_every_grid_start(trained):
    model, _, _ = trained
    policy, window_length = as_rollout_policy(model)
    for pose in grid_poses():
        ep = rollout(policy, pose, IDENTITY, seed=1, window_length=window_length)
        assert ep.success
        assert len(ep.steps) == expert_path_length(pose)
        ref = rollout(expert_policy, pose, IDENTITY, seed=1)
        assert [s.action for s in ep.steps] == [s.action for s in ref.steps]


# ---------------------------------------------------------- evaluation


def test_policy_eval_accepts_expert_callable():
    report = policy_eval(expert_policy, "interpolated", 40, IDENTITY, seed=9)
    assert report["success_rate"] == 1.0
    assert report["max_length"] <= 38
    assert not report["failures"]


def test_policy_eval_single_axis_policy_never_succeeds():
    def always_rot_z(pose, window, rng):
        return Action.ROT_Z

    report = policy_eval(always_rot_z, "fixed", 20, IDENTITY, seed=2)
    assert report["success_rate"] == 0.0
    assert len(report["failures"]) == 20
    assert report["mean_length"] == 50.0


def test_policy_eval_trained_model_on_fixed_start(trained):
    model, _, _ = trained
    report = policy_eval(model, "fixed", 30, IDENTITY, seed=4)
    assert report["success_rate"] == 1.0
    assert report["mean_length"] == 20.0


@pytest.mark.parametrize("mode", ["greedy", "sample"])
def test_memoised_rollout_policy_matches_per_step_policy_act(mode):
    model = random_policy(5)

    def per_step(pose, window, rng):
        return policy_act(model, window, mode=mode, rng=rng)

    m = ObservationModel.default()
    for regime in ("fixed", "out_of_distribution"):
        memo = policy_eval(model, regime, 40, m, seed=7, mode=mode)
        plain = policy_eval(per_step, regime, 40, m, seed=7)
        assert memo["failures"]  # episodes are compared, not just rates
        assert memo == plain


def test_rollout_policy_runs_the_net_once_per_distinct_window(monkeypatch):
    inputs = []
    real_forward = policy_mod.mlp_forward

    def counting_forward(net, x):
        inputs.append(x.tobytes())
        return real_forward(net, x)

    monkeypatch.setattr(policy_mod, "mlp_forward", counting_forward)
    model = random_policy(3)
    report = policy_eval(
        model, "out_of_distribution", 30, ObservationModel.default(), seed=2,
        mode="sample",
    )
    assert len(inputs) == len(set(inputs))
    assert len(inputs) < report["mean_length"] * report["n_episodes"]


def test_policy_eval_deterministic_by_seed():
    a = policy_eval(expert_policy, "out_of_distribution", 15, IDENTITY, seed=3)
    b = policy_eval(expert_policy, "out_of_distribution", 15, IDENTITY, seed=3)
    assert a == b


def test_policy_eval_validation():
    with pytest.raises(ParameterError):
        policy_eval(expert_policy, "fixed", 0, IDENTITY, seed=0)
    with pytest.raises(ParameterError, match="regime"):
        policy_eval(expert_policy, "everywhere", 5, IDENTITY, seed=0)


def test_eval_report_json(tmp_path):
    report = policy_eval(expert_policy, "fixed", 5, IDENTITY, seed=1)
    path = write_json(report, tmp_path / "r.json")
    payload = json.loads(path.read_text())
    assert payload["success_rate"] == 1.0
    assert payload["n_episodes"] == 5
    assert payload["failures"] == []


# ------------------------------------------------------------- storage


def test_policy_save_load_round_trip(tmp_path, trained):
    model, _, _ = trained
    path = save_mlp(model, tmp_path / "p.vcas")
    assert "window_length" not in load_mlp(path)[1]
    loaded = load_policy(path)
    assert loaded.in_dim == model.in_dim == TOKEN_COUNT * 10
    window = (None,) * 9 + (ContactType.DIAGONAL,)
    assert policy_act(model, window) == policy_act(loaded, window)
    assert all(
        x.tobytes() == y.tobytes() for x, y in zip(model.weights, loaded.weights)
    )


@pytest.mark.parametrize(
    "net",
    [
        MlpModel([np.zeros((8, 3))], [np.zeros(3)], "softmax",
                 label_names=("a", "b", "c")),
        MlpModel([np.zeros((8, 2))], [np.zeros(2)], "softmax",
                 label_names=("rot_z", "rot_x")),
        MlpModel([np.zeros((9, 2))], [np.zeros(2)], "softmax",
                 label_names=("rot_x", "rot_z")),
    ],
    ids=["three-way head", "labels out of order", "width 9"],
)
def test_load_policy_refuses_an_mlp_that_is_not_a_policy(tmp_path, net):
    path = save_mlp(net, tmp_path / "p.vcas")
    with pytest.raises(DataError, match="is not a policy"):
        load_policy(path)
