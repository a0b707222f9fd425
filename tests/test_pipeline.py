import json

import numpy as np
import pytest

from vcas.container import PayloadKind, write_container
from vcas.errors import DataError, ParameterError
from vcas.learn import Dataset, TrainConfig
from vcas.pipeline import (
    BANDS,
    CONDITIONS_DEFAULT,
    N_COMPONENTS_DEFAULT,
    SAMPLES_PER_CLASS_DEFAULT,
    RunConfig,
    SplitData,
    TaskData,
    band_slice_for,
    dataset_path,
    eval_task,
    history_to_dict,
    metrics_to_dict,
    read_dataset,
    synth_task_data,
    train_task,
    write_dataset,
    write_json,
)


def tiny_grasp_config(seed=0, **overrides):
    base = dict(
        task="grasp", sessions_train=2, sessions_test=1,
        train_per_class=2, test_per_class=2, n_components=3,
        train=TrainConfig(max_epochs=3), seed=seed,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def grasp_data():
    return synth_task_data(tiny_grasp_config())


@pytest.fixture(scope="module")
def grasp_models(grasp_data):
    return train_task(grasp_data, tiny_grasp_config())


# -------------------------------------------------------------- config


def test_run_config_validation():
    with pytest.raises(ParameterError, match="task"):
        RunConfig(task="texture")
    with pytest.raises(ParameterError, match="band"):
        RunConfig(task="object", band="mid")
    with pytest.raises(ParameterError):
        RunConfig(task="object", n_components=0)
    with pytest.raises(ParameterError):
        RunConfig(task="object", sessions_train=0)
    with pytest.raises(ParameterError, match="in_distribution"):
        RunConfig(task="object", conditions=("perturbed",))
    with pytest.raises(ParameterError, match="not defined"):
        RunConfig(task="object", conditions=("in_distribution", "interpolated"))


def test_run_config_resolved_defaults():
    cfg = RunConfig(task="contact")
    assert cfg.n_components_resolved == N_COMPONENTS_DEFAULT["contact"]
    assert cfg.counts_resolved == SAMPLES_PER_CLASS_DEFAULT["contact"]
    assert cfg.conditions_resolved == CONDITIONS_DEFAULT["contact"]
    assert cfg.band_hz == BANDS["full"]
    assert cfg.preset_source == "contact"
    override = RunConfig(task="contact", n_components=7, train_per_class=9)
    assert override.n_components_resolved == 7
    assert override.counts_resolved == (9, SAMPLES_PER_CLASS_DEFAULT["contact"][1])


def test_train_config_inherits_optimizer_settings():
    tc = TrainConfig(step_size=5e-4, batch_size=16)
    cfg = RunConfig(task="object", train=tc, seed=3)
    assert cfg.train == TrainConfig(step_size=5e-4, batch_size=16, seed=3)


def test_run_config_trains_with_train_config_defaults():
    assert RunConfig(task="grasp", seed=7).train == TrainConfig(seed=7)


def test_preset_task_mismatch_is_rejected():
    cfg = RunConfig(task="object", preset="grasp")
    with pytest.raises(ParameterError, match="preset"):
        synth_task_data(cfg)


# ----------------------------------------------------------- synthesis


def test_grasp_synthesis_shapes(grasp_data):
    assert grasp_data.task == "grasp"
    assert grasp_data.label_names == ("base", "middle", "tip")
    assert set(grasp_data.conditions) == {"in_distribution", "perturbed"}
    split = grasp_data.conditions["in_distribution"]
    assert len(split.train) == 2 * 3 * 2  # sessions x classes x per-class
    assert len(split.test) == 1 * 3 * 2
    assert split.train.rows.shape[1] == 21001
    perturbed = grasp_data.conditions["perturbed"]
    assert perturbed.train is None
    assert len(perturbed.test) == 3 * 2


def test_grasp_sessions_are_disjoint(grasp_data):
    split = grasp_data.conditions["in_distribution"]
    train_sessions = set(split.train.session_ids.tolist())
    test_sessions = set(split.test.session_ids.tolist())
    perturbed_sessions = set(
        grasp_data.conditions["perturbed"].test.session_ids.tolist()
    )
    assert not train_sessions & test_sessions
    assert not train_sessions & perturbed_sessions
    assert not test_sessions & perturbed_sessions


def test_grasp_labels_balanced(grasp_data):
    train = grasp_data.conditions["in_distribution"].train
    counts = np.bincount(train.targets, minlength=3)
    assert counts.tolist() == [4, 4, 4]


def test_synthesis_deterministic_by_seed(grasp_data):
    again = synth_task_data(tiny_grasp_config())
    a = grasp_data.conditions["in_distribution"].train.rows
    b = again.conditions["in_distribution"].train.rows
    assert a.tobytes() == b.tobytes()
    other = synth_task_data(tiny_grasp_config(seed=1))
    assert a.tobytes() != other.conditions["in_distribution"].train.rows.tobytes()


def test_perturbed_rows_differ_from_in_distribution(grasp_data):
    a = grasp_data.conditions["in_distribution"].test.rows
    b = grasp_data.conditions["perturbed"].test.rows
    assert a.shape == b.shape
    assert not np.array_equal(a, b)


def test_pose_synthesis_regression_targets():
    cfg = RunConfig(
        task="pose", sessions_train=1, sessions_test=1,
        train_per_class=1, test_per_class=1,
        conditions=("in_distribution",), train=TrainConfig(max_epochs=2), seed=0,
    )
    data = synth_task_data(cfg)
    assert data.label_names is None
    train = data.conditions["in_distribution"].train
    assert len(train) == 18
    assert sorted(set(train.targets.tolist())) == [10.0 * k for k in range(18)]


def test_contact_synthesis_tiny():
    cfg = RunConfig(
        task="contact", sessions_train=1, sessions_test=1,
        train_per_class=5, test_per_class=4,
        conditions=("in_distribution",), train=TrainConfig(max_epochs=2), seed=0,
    )
    data = synth_task_data(cfg)
    assert data.label_names == ("diagonal", "in_hole", "line")
    split = data.conditions["in_distribution"]
    assert len(split.train) == 15
    assert len(split.test) == 12
    counts = np.bincount(split.train.targets, minlength=3)
    assert counts.tolist() == [5, 5, 5]


# ------------------------------------------------------------ training


def test_train_task_builds_models(grasp_data, grasp_models):
    assert grasp_models.task == "grasp"
    assert grasp_models.n_components == 3
    assert grasp_models.kpca.projection.shape == (20980, 3)  # full band
    assert grasp_models.train_sessions == (0, 1)
    assert grasp_models.mlp.in_dim == 3
    assert grasp_models.mlp.label_names == grasp_data.label_names
    assert grasp_models.history is not None


def test_band_slice_values():
    assert band_slice_for(1.05, 21001, "full") == slice(20, 21000)
    assert band_slice_for(1.05, 21001, "low") == slice(20, 8753)
    assert band_slice_for(1.05, 21001, "high") == slice(8753, 21000)


def test_low_band_training(grasp_data):
    cfg = tiny_grasp_config(band="low")
    models = train_task(grasp_data, cfg)
    assert models.kpca.projection.shape[0] == 8753 - 20


# ---------------------------------------------------------- evaluation


def test_eval_task_emits_one_row_per_condition(grasp_data, grasp_models):
    ev = eval_task(grasp_models, grasp_data)
    conditions = [r["condition"] for r in ev.rows]
    assert conditions == ["in_distribution", "perturbed"]
    for row in ev.rows:
        assert row["task"] == "grasp"
        assert row["band"] == "full"
        assert row["metric"] == "accuracy"
        assert 0.0 <= row["value"] <= 1.0
        assert row["f_low_hz"] == 20.0
        assert row["f_high_hz"] == 22050.0
    assert ev.rows[0]["n_test"] == 6
    assert set(ev.confusions) == {"in_distribution", "perturbed"}
    assert not ev.regressions


def test_eval_task_rejects_a_test_session_seen_in_training(grasp_data, grasp_models):
    test = grasp_data.conditions["in_distribution"].test
    leaked = Dataset(
        test.rows, test.targets, test.label_names, "test",
        np.full(len(test), grasp_models.train_sessions[-1]),
    )
    data = TaskData(
        grasp_data.task, grasp_data.bin_hz, grasp_data.label_names,
        {"in_distribution": SplitData(test=leaked)},
    )
    with pytest.raises(ParameterError, match="share sessions"):
        eval_task(grasp_models, data)


def test_metrics_to_dict_shape(grasp_data, grasp_models):
    payload = metrics_to_dict(eval_task(grasp_models, grasp_data))
    assert payload["task"] == "grasp"
    assert payload["n_components"] == 3
    assert isinstance(payload["rows"], list)
    json.dumps(payload)  # everything JSON-serializable


# --------------------------------------------------------------- files


def test_dataset_round_trip(tmp_path, grasp_data):
    ds = grasp_data.conditions["in_distribution"].test
    path = write_dataset(ds, tmp_path / "d.vcas", "grasp", "in_distribution", 1.05)
    loaded, meta = read_dataset(path)
    assert loaded.rows.tobytes() == ds.rows.tobytes()
    assert np.array_equal(loaded.targets, ds.targets)
    assert loaded.label_names == ds.label_names
    assert loaded.split_tag == "test"
    assert np.array_equal(loaded.session_ids, ds.session_ids)
    assert meta["bin_hz"] == 1.05
    assert meta["condition"] == "in_distribution"


def test_dataset_round_trip_regression(tmp_path):
    ds = Dataset(np.ones((3, 4)), np.array([0.0, 85.0, 170.0]))
    loaded, _ = read_dataset(
        write_dataset(ds, tmp_path / "r.vcas", "pose", "in_distribution", 1.05)
    )
    assert loaded.label_names is None
    assert np.array_equal(loaded.targets, ds.targets)


def test_dataset_rejects_non_integral_class_targets(tmp_path):
    path = tmp_path / "broken.vcas"
    write_container(
        path,
        PayloadKind.DATASET,
        {
            "rows": np.ones((2, 3)),
            "targets": np.array([0.0, 0.5]),
            "session_ids": np.zeros(2),
        },
        {
            "task": "grasp", "condition": "in_distribution", "split": "test",
            "bin_hz": 1.05, "label_names": ["a", "b"],
        },
    )
    with pytest.raises(DataError, match="integral"):
        read_dataset(path)


def test_dataset_path_layout(tmp_path):
    path = dataset_path(tmp_path, "object", "perturbed", "test")
    assert path == tmp_path / "object" / "data" / "perturbed.test.vcas"


def test_write_json_deterministic(tmp_path):
    payload = {"b": 1, "a": [1.5, 2.5]}
    p1 = write_json(payload, tmp_path / "one.json")
    p2 = write_json(payload, tmp_path / "two.json")
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert json.loads(p1.read_text()) == payload


def test_history_to_dict_keys(grasp_models):
    d = history_to_dict(grasp_models.history)
    assert set(d) == {
        "train_loss", "val_loss", "best_epoch", "stopped_early", "n_epochs",
    }
    assert d["n_epochs"] == len(d["train_loss"])
