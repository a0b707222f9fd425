import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import expert_path_length, generate_demos_reference
from vcas.envsim import (
    CONTACT_LABELS,
    GRID_MAX,
    GRID_STEP,
    MAX_EPISODE_STEPS,
    START_REGIMES,
    Action,
    ContactType,
    DemoPair,
    ObservationModel,
    PoseState,
    contact_type,
    episode_to_dict,
    expert_action,
    expert_policy,
    generate_demos,
    grid_poses,
    observation_model_from_csv,
    read_demos,
    rollout,
    sample_observation,
    start_pose_sampler,
    step,
    write_demos,
)
from vcas.errors import DataError, ParameterError
from vcas.learn import ConfusionMatrix, write_confusion_csv
from vcas.policy import policy_eval

IDENTITY = ObservationModel.identity()


def always_rot_z(pose, window, rng):
    return Action.ROT_Z


# -------------------------------------------------------------- poses


def test_pose_validation():
    PoseState(4.5, 90.0)
    with pytest.raises(ParameterError):
        PoseState(0.0, 45.0)
    with pytest.raises(ParameterError):
        PoseState(45.0, 94.5)
    with pytest.raises(ParameterError):
        PoseState(50.0, 45.0)  # off the 4.5 grid
    with pytest.raises(ParameterError):
        PoseState(-4.5, 45.0)


def test_grid_has_400_poses_row_major():
    poses = grid_poses()
    assert len(poses) == 400
    assert len(set(poses)) == 400
    assert poses[0] == PoseState(4.5, 4.5)
    assert poses[-1] == PoseState(90.0, 90.0)
    assert poses[1] == PoseState(4.5, 9.0)


def test_contact_partition_counts():
    kinds = [contact_type(p.theta_x, p.theta_z) for p in grid_poses()]
    assert kinds.count(ContactType.IN_HOLE) == 1
    assert kinds.count(ContactType.LINE) == 19
    assert kinds.count(ContactType.DIAGONAL) == 380


def test_contact_examples():
    assert contact_type(45.0, 45.0) == ContactType.DIAGONAL
    assert contact_type(58.5, 90.0) == ContactType.LINE
    assert contact_type(90.0, 90.0) == ContactType.IN_HOLE


def test_contact_type_off_grid_and_out_of_range():
    assert contact_type(40.5, 9.0) == ContactType.DIAGONAL
    assert contact_type(47.3, 90.0) == ContactType.LINE
    with pytest.raises(ParameterError):
        contact_type(0.0, 45.0)
    with pytest.raises(ParameterError):
        contact_type(45.0, 94.5)


def test_step_examples():
    assert step(PoseState(45.0, 45.0), Action.ROT_Z) == PoseState(45.0, 49.5)
    assert step(PoseState(90.0, 90.0), Action.ROT_X) == PoseState(90.0, 90.0)
    assert step(PoseState(90.0, 90.0), Action.ROT_Z) == PoseState(90.0, 90.0)
    aligned = step(PoseState(85.5, 90.0), Action.ROT_X)
    assert contact_type(aligned.theta_x, aligned.theta_z) == ContactType.IN_HOLE


def test_expert_action_examples():
    assert expert_action(PoseState(45.0, 45.0)) == Action.ROT_Z
    assert expert_action(PoseState(58.5, 90.0)) == Action.ROT_X
    assert expert_action(PoseState(90.0, 90.0)) is None


@settings(max_examples=80, deadline=None)
@given(
    xi=st.integers(1, 20),
    zi=st.integers(1, 20),
    actions=st.lists(st.sampled_from([Action.ROT_X, Action.ROT_Z]), max_size=30),
)
def test_step_is_monotone_and_grid_closed(xi, zi, actions):
    pose = PoseState(GRID_STEP * xi, GRID_STEP * zi)
    for a in actions:
        nxt = step(pose, a)
        assert nxt.theta_x >= pose.theta_x and nxt.theta_z >= pose.theta_z
        assert nxt.theta_x <= GRID_MAX and nxt.theta_z <= GRID_MAX
        pose = nxt  # PoseState construction re-checks grid membership


def test_expert_path_length_matches_rollout_everywhere():
    for pose in grid_poses():
        predicted = expert_path_length(pose)
        ep = rollout(expert_policy, pose, IDENTITY, seed=0)
        assert len(ep.steps) == predicted
        assert ep.success
    longest = expert_path_length(PoseState(4.5, 4.5))
    assert longest == 38
    assert longest < MAX_EPISODE_STEPS


# -------------------------------------------------------- observations


def test_observation_model_validation():
    with pytest.raises(ParameterError):
        ObservationModel(np.eye(2))
    with pytest.raises(ParameterError):
        ObservationModel(np.array([[0.5, 0.6, 0.0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ParameterError):
        ObservationModel(np.array([[1.1, -0.1, 0.0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ParameterError):
        ObservationModel.default(0.0)
    with pytest.raises(ParameterError):
        ObservationModel.default(1.5)


def test_default_model_rows_sum_to_one():
    m = ObservationModel.default(0.9)
    assert np.abs(m.matrix.sum(axis=1) - 1.0).max() < 1e-12
    assert np.allclose(np.diag(m.matrix), 0.9)
    # Diagonal contact never reads as in-hole and vice versa.
    assert m.matrix[0, 2] == 0.0
    assert m.matrix[2, 0] == 0.0


def test_identity_channel_passes_labels_through():
    rng = np.random.default_rng(0)
    for c in ContactType:
        assert all(sample_observation(IDENTITY, c, rng) == c for _ in range(20))


def test_uniform_channel_counts_pass_chi_square():
    # Fixed seeds; 99.9% critical value for 2 degrees of freedom is 13.8.
    m = ObservationModel(np.full((3, 3), 1.0 / 3.0))
    n = 2000
    for true_c in ContactType:
        rng = np.random.default_rng(1000 + int(true_c))
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample_observation(m, true_c, rng)] += 1
        chi2 = float(((counts - n / 3) ** 2 / (n / 3)).sum())
        assert chi2 < 13.8


def test_observation_model_from_confusion_reorders_by_name(tmp_path):
    # Classifier label order is lexicographic: diagonal, in_hole, line.
    counts = np.array([[8, 0, 2], [0, 10, 0], [1, 0, 9]])
    cm = ConfusionMatrix(counts, ("diagonal", "in_hole", "line"))
    m = observation_model_from_csv(write_confusion_csv(cm, tmp_path / "cm.csv"))
    assert m.matrix[0, 0] == pytest.approx(0.8)  # diagonal -> diagonal
    assert m.matrix[0, 1] == pytest.approx(0.2)  # diagonal -> line
    assert m.matrix[1, 1] == pytest.approx(0.9)  # line -> line
    assert m.matrix[2, 2] == pytest.approx(1.0)  # in-hole -> in-hole


def test_observation_model_from_confusion_rejects_wrong_labels(tmp_path):
    cm = ConfusionMatrix(np.eye(3, dtype=int), ("a", "b", "c"))
    with pytest.raises(DataError):
        observation_model_from_csv(write_confusion_csv(cm, tmp_path / "cm.csv"))


def test_observation_model_csv_round_trip(tmp_path):
    # Counts already in channel order: the file reads back as their rows.
    counts = np.array([[17, 3, 0], [1, 18, 1], [0, 3, 17]])
    cm = ConfusionMatrix(counts, CONTACT_LABELS)
    loaded = observation_model_from_csv(write_confusion_csv(cm, tmp_path / "m.csv"))
    assert np.array_equal(loaded.matrix, cm.normalized())


def test_observation_model_csv_diagnostics(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\n0,1\n")
    with pytest.raises(DataError):
        observation_model_from_csv(bad)
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("1,0,0\n0,1,0\n0,0,1\n")
    with pytest.raises(DataError, match="true_label header"):
        observation_model_from_csv(headerless)
    unnorm = tmp_path / "unnorm.csv"
    unnorm.write_text(
        "true_label,diagonal,line,in_hole\n"
        "diagonal,0.5,0.2,0.0\nline,0,1,0\nin_hole,0,0,1\n"
    )
    with pytest.raises(DataError, match="sum"):
        observation_model_from_csv(unnorm)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        observation_model_from_csv(empty)


# --------------------------------------------------------------- demos


def test_demos_from_two_step_start_record_expert_pairs():
    # From (45, 45) the expert turns theta_z 10 times, then theta_x 10 times.
    demos = generate_demos(2, "fixed", IDENTITY, seed=4)
    assert len(demos) == 40
    first, turn = demos[0], demos[10]
    assert first.window == (None,) * 9 + (ContactType.DIAGONAL,)
    assert first.action == Action.ROT_Z
    assert turn.window == (ContactType.DIAGONAL,) * 9 + (ContactType.LINE,)
    assert turn.action == Action.ROT_X
    assert demos[20:] == demos[:20]  # identity channel: every episode identical


def test_demos_deterministic_by_seed():
    m = ObservationModel.default(0.9)
    a = generate_demos(5, "interpolated", m, seed=11)
    b = generate_demos(5, "interpolated", m, seed=11)
    c = generate_demos(5, "interpolated", m, seed=12)
    assert a == b
    assert a != c


@pytest.mark.parametrize("regime", START_REGIMES)
@pytest.mark.parametrize(
    "m",
    [ObservationModel.default(0.95), ObservationModel.default(0.5), IDENTITY],
    ids=["default 0.95", "default 0.5", "identity"],
)
def test_demos_draw_what_the_reference_loop_draws(regime, m):
    # The start pose first, then one observation per step, from one
    # generator per episode.
    for window_length in (1, 3, 10):
        for seed in (0, 8):
            want = generate_demos_reference(20, regime, m, seed, window_length)
            assert generate_demos(20, regime, m, seed, window_length) == want


def test_demos_window_length_and_validation():
    demos = generate_demos(1, "fixed", IDENTITY, seed=0, window_length=3)
    assert len(demos) == 20 and all(len(d.window) == 3 for d in demos)
    assert demos[10].window == (ContactType.DIAGONAL,) * 2 + (ContactType.LINE,)
    with pytest.raises(ParameterError):
        generate_demos(0, "fixed", IDENTITY, seed=0)
    with pytest.raises(ParameterError):
        generate_demos(1, "fixed", IDENTITY, seed=0, window_length=0)


# ------------------------------------------------------------- rollout


def test_rollout_expert_identity_from_fixed_start():
    ep = rollout(expert_policy, PoseState(45.0, 45.0), IDENTITY, seed=0)
    assert ep.success
    assert len(ep.steps) == 20
    assert ep.steps[-1].next_pose == PoseState(90.0, 90.0)
    # theta_z aligns first, so the first ten actions all rotate z.
    assert all(s.action == Action.ROT_Z for s in ep.steps[:10])
    assert all(s.action == Action.ROT_X for s in ep.steps[10:])


def test_rollout_single_axis_policy_never_finishes():
    ep = rollout(always_rot_z, PoseState(45.0, 45.0), IDENTITY, seed=0)
    assert not ep.success
    assert len(ep.steps) == MAX_EPISODE_STEPS
    assert ep.steps[-1].next_pose == PoseState(45.0, 90.0)


def test_rollout_goal_reached_on_final_step_counts():
    ep = rollout(expert_policy, PoseState(45.0, 45.0), IDENTITY, seed=0, max_steps=20)
    assert ep.success
    assert len(ep.steps) == 20
    short = rollout(expert_policy, PoseState(45.0, 45.0), IDENTITY, seed=0, max_steps=19)
    assert not short.success


def test_rollout_replays_bit_for_bit_from_stored_seed():
    # A policy_eval failure record holds the start and the rollout seed.
    def hesitant(pose, window, rng):
        if window[-1] == ContactType.LINE and rng.random() < 0.3:
            return Action.ROT_X
        return Action.ROT_Z

    m = ObservationModel.default(0.85)
    report = policy_eval(hesitant, "fixed", 10, m, seed=77)
    assert 0 < len(report["failures"]) < 10
    for record in report["failures"]:
        again = rollout(hesitant, PoseState(*record["start"]), m, seed=record["seed"])
        assert dict(episode_to_dict(again), seed=record["seed"]) == record


def test_rollout_validation():
    # Bad arguments are rejected before the policy is first called.
    calls = []

    def recorder(pose, window, rng):
        calls.append(window)
        return Action.ROT_X

    for key, value in (
        ("max_steps", 0),
        ("max_steps", MAX_EPISODE_STEPS + 1),
        ("window_length", 0),
        ("window_length", -1),
    ):
        with pytest.raises(ParameterError, match=key):
            rollout(recorder, PoseState(45.0, 45.0), IDENTITY, seed=0, **{key: value})
    assert calls == []

    def quitter(pose, window, rng):
        return None

    with pytest.raises(ParameterError, match="no action"):
        rollout(quitter, PoseState(45.0, 45.0), IDENTITY, seed=0)


# ------------------------------------------------------------ sampling


def test_start_sampler_fixed_and_passthrough():
    for seed in (5, 99):
        assert start_pose_sampler("fixed", seed) == PoseState(45.0, 45.0)


def test_start_sampler_interpolated_bounds():
    seen = set()
    for seed in range(200):
        p = start_pose_sampler("interpolated", seed)
        assert p.theta_x == 45.0
        assert 45.0 <= p.theta_z <= 90.0
        seen.add(p.theta_z)
    assert len(seen) == 11  # every grid angle from 45 to 90 appears


def test_start_sampler_out_of_distribution_bounds():
    xs, zs = set(), set()
    for seed in range(400):
        p = start_pose_sampler("out_of_distribution", seed)
        assert 40.5 <= p.theta_x <= 81.0
        assert 9.0 <= p.theta_z <= 90.0
        xs.add(p.theta_x)
        zs.add(p.theta_z)
    assert len(xs) == 10
    assert len(zs) == 19


def test_start_sampler_unknown_regime():
    with pytest.raises(ParameterError, match="regime"):
        start_pose_sampler("everywhere", 0)


# -------------------------------------------------------------- files


def test_episode_to_dict_layout():
    ep = rollout(expert_policy, PoseState(85.5, 90.0), IDENTITY, seed=3)
    assert episode_to_dict(ep) == {
        "start": [85.5, 90.0],
        # true contact, observed contact, action, next pose
        "steps": [[ContactType.LINE, ContactType.LINE, Action.ROT_X, [90.0, 90.0]]],
        "success": True,
    }


def test_demo_jsonl_round_trip(tmp_path):
    demos = generate_demos(3, "interpolated", ObservationModel.default(0.9), seed=2)
    path = write_demos(demos, tmp_path / "demos.jsonl")
    assert read_demos(path) == demos


def test_demo_jsonl_preserves_padding(tmp_path):
    demos = [DemoPair((None, ContactType.LINE), Action.ROT_X)]
    loaded = read_demos(write_demos(demos, tmp_path / "d.jsonl"))
    assert loaded == demos
    assert loaded[0].window[0] is None


def test_demo_jsonl_diagnostics(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"window": [0, 9], "action": 0}\n')
    with pytest.raises(DataError, match="1"):
        read_demos(path)
    # Each fault names its line: the second, after a good first line.
    good = '{"window": [null, 0], "action": 1}\n'
    for bad, message in [
        ('{"window": [0, null], "action": 1}', "pad follows an observation"),
        ('{"window": [0], "action": 1}', "window length 1"),
        ('{"window": [null, true], "action": 1}', "token must be an integer"),
        ('{"window": [null, 1.0], "action": 1}', "token must be an integer"),
        ('{"window": [null, 0], "action": true}', "action must be an integer"),
        ('{"window": [null, 0], "action": 1.0}', "action must be an integer"),
    ]:
        path.write_text(good + bad + "\n")
        with pytest.raises(DataError, match=f"bad.jsonl:2: .*{message}"):
            read_demos(path)
