import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcas.envsim import (
    CONTACT_LABELS,
    GRID_MAX,
    GRID_STEP,
    MAX_EPISODE_STEPS,
    WINDOW_LENGTH,
    Action,
    ContactType,
    DemoPair,
    Episode,
    EpisodeStep,
    ObservationModel,
    PoseState,
    blank_window,
    contact_type,
    episode_to_dict,
    expert_action,
    expert_path_length,
    expert_policy,
    generate_demos,
    grid_poses,
    observation_model_from_confusion,
    observation_model_from_csv,
    observation_model_to_csv,
    read_demos,
    rollout,
    sample_observation,
    start_pose_sampler,
    step,
    write_demos,
)
from vcas.errors import DataError, ParameterError
from vcas.learn import ConfusionMatrix

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
        assert ep.length == predicted
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


def test_observation_model_from_confusion_reorders_by_name():
    # Classifier label order is lexicographic: diagonal, in_hole, line.
    counts = np.array([[8, 0, 2], [0, 10, 0], [1, 0, 9]])
    cm = ConfusionMatrix(counts, ("diagonal", "in_hole", "line"))
    m = observation_model_from_confusion(cm)
    assert m.matrix[0, 0] == pytest.approx(0.8)  # diagonal -> diagonal
    assert m.matrix[0, 1] == pytest.approx(0.2)  # diagonal -> line
    assert m.matrix[1, 1] == pytest.approx(0.9)  # line -> line
    assert m.matrix[2, 2] == pytest.approx(1.0)  # in-hole -> in-hole


def test_observation_model_from_confusion_rejects_wrong_labels():
    cm = ConfusionMatrix(np.eye(3, dtype=int), ("a", "b", "c"))
    with pytest.raises(ParameterError):
        observation_model_from_confusion(cm)


def test_observation_model_csv_round_trip(tmp_path):
    m = ObservationModel.default(0.85)
    path = observation_model_to_csv(m, tmp_path / "m.csv")
    loaded = observation_model_from_csv(path)
    assert np.array_equal(loaded.matrix, m.matrix)


def test_observation_model_csv_headerless(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,0,0\n0,1,0\n0,0,1\n")
    assert np.array_equal(observation_model_from_csv(p).matrix, np.eye(3))


def test_observation_model_csv_diagnostics(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\n0,1\n")
    with pytest.raises(DataError):
        observation_model_from_csv(bad)
    unnorm = tmp_path / "unnorm.csv"
    unnorm.write_text("0.5,0.2,0.0\n0,1,0\n0,0,1\n")
    with pytest.raises(DataError, match="sum"):
        observation_model_from_csv(unnorm)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        observation_model_from_csv(empty)


# --------------------------------------------------------------- demos


def test_demos_from_two_step_start_record_expert_pairs():
    demos = generate_demos(2, PoseState(85.5, 85.5), IDENTITY, seed=4)
    assert len(demos) == 4
    first, second = demos[0], demos[1]
    assert first.window == (None,) * 9 + (ContactType.DIAGONAL,)
    assert first.action == Action.ROT_Z
    assert second.window == (None,) * 8 + (ContactType.DIAGONAL, ContactType.LINE)
    assert second.action == Action.ROT_X
    assert demos[2:] == demos[:2]  # identity channel: every episode identical


def test_demos_deterministic_by_seed():
    m = ObservationModel.default(0.9)
    a = generate_demos(5, "interpolated", m, seed=11)
    b = generate_demos(5, "interpolated", m, seed=11)
    c = generate_demos(5, "interpolated", m, seed=12)
    assert a == b
    assert a != c


def test_demos_window_length_and_validation():
    demos = generate_demos(1, PoseState(85.5, 85.5), IDENTITY, seed=0, window_length=3)
    assert all(len(d.window) == 3 for d in demos)
    with pytest.raises(ParameterError):
        generate_demos(0, "fixed", IDENTITY, seed=0)
    with pytest.raises(ParameterError):
        generate_demos(1, "fixed", IDENTITY, seed=0, window_length=0)


def test_blank_window_default_length():
    assert blank_window() == (None,) * WINDOW_LENGTH


# ------------------------------------------------------------- rollout


def test_rollout_expert_identity_from_fixed_start():
    ep = rollout(expert_policy, PoseState(45.0, 45.0), IDENTITY, seed=0)
    assert ep.success
    assert ep.length == 20
    assert ep.final_pose == PoseState(90.0, 90.0)
    # theta_z aligns first, so the first ten actions all rotate z.
    assert all(s.action == Action.ROT_Z for s in ep.steps[:10])
    assert all(s.action == Action.ROT_X for s in ep.steps[10:])


def test_rollout_single_axis_policy_never_finishes():
    ep = rollout(always_rot_z, PoseState(45.0, 45.0), IDENTITY, seed=0)
    assert not ep.success
    assert ep.length == MAX_EPISODE_STEPS
    assert ep.final_pose == PoseState(45.0, 90.0)


def test_rollout_goal_reached_on_final_step_counts():
    ep = rollout(expert_policy, PoseState(45.0, 45.0), IDENTITY, seed=0, max_steps=20)
    assert ep.success
    assert ep.length == 20
    short = rollout(expert_policy, PoseState(45.0, 45.0), IDENTITY, seed=0, max_steps=19)
    assert not short.success


def test_rollout_replays_bit_for_bit_from_stored_seed():
    def reactive(pose, window, rng):
        return Action.ROT_X if window[-1] == ContactType.LINE else Action.ROT_Z

    m = ObservationModel.default(0.85)
    first = rollout(reactive, PoseState(45.0, 45.0), m, seed=77)
    again = rollout(reactive, first.start, m, seed=first.seed)
    assert first == again


def test_rollout_validation():
    with pytest.raises(ParameterError):
        rollout(expert_policy, PoseState(45.0, 45.0), IDENTITY, seed=0, max_steps=0)

    def quitter(pose, window, rng):
        return None

    with pytest.raises(ParameterError, match="no action"):
        rollout(quitter, PoseState(45.0, 45.0), IDENTITY, seed=0)


def test_episode_length_cap_enforced():
    pose = PoseState(45.0, 45.0)
    fake = EpisodeStep(ContactType.DIAGONAL, ContactType.DIAGONAL, Action.ROT_Z, pose)
    with pytest.raises(ParameterError):
        Episode(pose, (fake,) * (MAX_EPISODE_STEPS + 1), False, 0)


# ------------------------------------------------------------ sampling


def test_start_sampler_fixed_and_passthrough():
    assert start_pose_sampler("fixed", 5) == PoseState(45.0, 45.0)
    pose = PoseState(58.5, 13.5)
    assert start_pose_sampler(pose, 99) is pose


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
        "seed": 3,
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
