import concurrent.futures
import json

import numpy as np
import pytest
from _oracles import band_bins, kpca_reference

import vcas.pipeline
from vcas import features
from vcas.cli import cmd_synth_data
from vcas.container import PayloadKind, read_container, write_container
from vcas.errors import DataError, ParameterError
from vcas.features import kpca_fit_transform, load_kpca, save_kpca
from vcas.learn import ConfusionMatrix, Dataset, TrainConfig
from vcas.pipeline import (
    BANDS,
    CONDITIONS_DEFAULT,
    N_COMPONENTS_DEFAULT,
    SAMPLES_PER_CLASS_DEFAULT,
    RunConfig,
    band_slice_for,
    dataset_path,
    eval_task,
    history_to_dict,
    metrics_to_dict,
    read_dataset,
    read_dataset_lazily,
    synth_task_data,
    train_task,
    write_dataset,
    write_json,
)
from vcas.signal import (
    BIN_HZ,
    N_BINS,
    ModalPlant,
    chirp,
    modal_response,
    noise_std_for_snr,
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
    return train_task(grasp_data["in_distribution", "train"], tiny_grasp_config())


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
    assert cfg.n_components == N_COMPONENTS_DEFAULT["contact"]
    counts = cfg.train_per_class, cfg.test_per_class
    assert counts == SAMPLES_PER_CLASS_DEFAULT["contact"]
    assert cfg.conditions == CONDITIONS_DEFAULT["contact"]
    assert cfg.band == "full"
    assert cfg.preset == "contact"
    override = RunConfig(task="contact", n_components=7, train_per_class=9)
    assert override.n_components == 7
    counts = override.train_per_class, override.test_per_class
    assert counts == (9, SAMPLES_PER_CLASS_DEFAULT["contact"][1])


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
    data = grasp_data
    assert {cond for cond, _ in data} == {"in_distribution", "perturbed"}
    train, test = data["in_distribution", "train"], data["in_distribution", "test"]
    for ds in (train, test, data["perturbed", "test"]):
        assert ds.label_names == ("base", "middle", "tip")
    assert len(train) == 2 * 3 * 2  # sessions x classes x per-class
    assert len(test) == 1 * 3 * 2
    assert train.rows.shape[1] == 21001
    assert ("perturbed", "train") not in data
    assert len(data["perturbed", "test"]) == 3 * 2


def test_grasp_sessions_are_disjoint(grasp_data):
    data = grasp_data
    train_sessions = set(data["in_distribution", "train"].session_ids.tolist())
    test_sessions = set(data["in_distribution", "test"].session_ids.tolist())
    perturbed_sessions = set(data["perturbed", "test"].session_ids.tolist())
    assert not train_sessions & test_sessions
    assert not train_sessions & perturbed_sessions
    assert not test_sessions & perturbed_sessions


def test_grasp_labels_balanced(grasp_data):
    data = grasp_data
    train = data["in_distribution", "train"]
    counts = np.bincount(train.targets, minlength=3)
    assert counts.tolist() == [4, 4, 4]


def test_synthesis_deterministic_by_seed(grasp_data):
    key = ("in_distribution", "train")
    data = grasp_data
    again = synth_task_data(tiny_grasp_config())
    a = data[key].rows
    b = again[key].rows
    assert a.tobytes() == b.tobytes()
    other = synth_task_data(tiny_grasp_config(seed=1))
    assert a.tobytes() != other[key].rows.tobytes()


def test_perturbed_rows_differ_from_in_distribution(grasp_data):
    data = grasp_data
    a = data["in_distribution", "test"].rows
    b = data["perturbed", "test"].rows
    assert a.shape == b.shape
    assert not np.array_equal(a, b)


def test_pose_synthesis_regression_targets():
    cfg = RunConfig(
        task="pose", sessions_train=1, sessions_test=1,
        train_per_class=1, test_per_class=1,
        conditions=("in_distribution",), train=TrainConfig(max_epochs=2), seed=0,
    )
    data = synth_task_data(cfg)
    train = data["in_distribution", "train"]
    assert train.label_names is None
    assert len(train) == 18
    assert sorted(set(train.targets.tolist())) == [10.0 * k for k in range(18)]


def test_contact_synthesis_tiny():
    cfg = RunConfig(
        task="contact", sessions_train=1, sessions_test=1,
        train_per_class=5, test_per_class=4,
        conditions=("in_distribution",), train=TrainConfig(max_epochs=2), seed=0,
    )
    data = synth_task_data(cfg)
    train, test = data["in_distribution", "train"], data["in_distribution", "test"]
    for ds in (train, test):
        assert ds.label_names == ("diagonal", "in_hole", "line")
    assert len(train) == 15
    assert len(test) == 12
    counts = np.bincount(train.targets, minlength=3)
    assert counts.tolist() == [5, 5, 5]


# Jobs of 1, 3, 4, 5 and 9 seeds straddle the 4-row chunk edges; the
# last job's plant is noise-free.
_JOB_SEEDS = {"train": (1, 3, 4, 5), "test": (9, 2)}


def _fixed_jobs(cfg, preset):
    jobs = []
    for role, sizes in _JOB_SEEDS.items():
        for size in sizes:
            i = len(jobs)
            snr = np.inf if role == "test" and size == 2 else 20.0
            plant = ModalPlant(((400.0 + 700.0 * i, 0.01, 1.0),), snr)
            seeds = np.arange(100 * i, 100 * i + size, dtype=np.uint32)
            jobs.append((role, plant, i % 3, 10 + i, seeds))
    return ("base", "middle", "tip"), jobs


def test_synthesized_rows_equal_the_per_row_reference(monkeypatch):
    monkeypatch.setattr(vcas.pipeline, "_class_bank_jobs", _fixed_jobs)
    data = synth_task_data(RunConfig(task="grasp", conditions=("in_distribution",)))
    _, jobs = _fixed_jobs(None, None)
    clean = modal_response([plant for _, plant, _, _, _ in jobs], chirp())
    want = {"train": ([], [], []), "test": ([], [], [])}
    for (role, plant, target, sid, seeds), c in zip(jobs, clean):
        # Clean responses are held as float32: rounded once, then widened.
        c = c.astype(np.float32).astype(np.float64)
        std = noise_std_for_snr(c, plant.noise_snr_db)
        for s in seeds:
            noisy = c + np.random.default_rng(int(s)).normal(0.0, std, c.size)
            # Rows are stored as float32: |rfft| in float64, rounded once.
            want[role][0].append(np.abs(np.fft.rfft(noisy)).astype(np.float32))
            want[role][1].append(target)
            want[role][2].append(sid)
    for role in ("train", "test"):
        got = data["in_distribution", role]
        rows, targets, sessions = want[role]
        assert got.rows.tobytes() == np.array(rows, dtype=np.float64).tobytes()
        assert got.targets.tolist() == targets
        assert got.session_ids.tolist() == sessions


def test_synthesized_rows_equal_the_rows_synth_data_writes(tmp_path):
    # Rows are rounded to float32 once, before either sink sees them, so
    # the in-memory datasets hold exactly what the files store.
    cfg = tiny_grasp_config(seed=3)
    data = synth_task_data(cfg)
    paths = cmd_synth_data(cfg, tmp_path)
    assert len(paths) == len(data) == 3
    for (cond, split), ds in data.items():
        path = dataset_path(tmp_path, "grasp", cond, split)
        assert path.stat().st_size < ds.rows.size * 4 + 1000  # stored <f4
        stored = read_dataset(path)
        assert stored.rows.tobytes() == ds.rows.tobytes(), (cond, split)
        assert ds.rows.astype(np.float32).astype(np.float64).tobytes() == (
            ds.rows.tobytes()
        )


def test_synthesis_is_the_same_with_one_worker_or_four(monkeypatch):
    pools = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def recording_pool(n_workers):
        pools.append(n_workers)
        return real_pool(n_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    cfg = tiny_grasp_config(train_per_class=9, test_per_class=5)
    runs = []
    for n_cpus in (1, 4):
        monkeypatch.setattr(
            vcas.pipeline.os, "sched_getaffinity", lambda pid, n=n_cpus: set(range(n)),
            raising=False,
        )
        runs.append(synth_task_data(cfg))
    assert pools == [1, 4]
    one, four = runs
    assert set(one) == set(four)
    for key, a in one.items():
        b = four[key]
        assert a.rows.tobytes() == b.rows.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()
        assert a.session_ids.tobytes() == b.session_ids.tobytes()


def test_non_finite_noisy_chunk_in_a_worker_raises_parameter_error(monkeypatch):
    real_response = vcas.pipeline.modal_response

    def response_with_a_nan(plants, excitation, out):
        out = real_response(plants, excitation, out)
        out[-1, 100] = np.nan
        return out

    monkeypatch.setattr(vcas.pipeline, "modal_response", response_with_a_nan)
    with pytest.raises(ParameterError, match="waveform samples must be finite"):
        synth_task_data(tiny_grasp_config())


# ------------------------------------------------------------ training


def test_train_task_builds_models(grasp_data, grasp_models):
    assert grasp_models.task == "grasp"
    assert grasp_models.kpca.n_components == 3
    assert grasp_models.kpca.projection.shape == (20980, 3)  # full band
    assert grasp_models.train_sessions == (0, 1)
    assert grasp_models.mlp.in_dim == 3
    data = grasp_data
    train = data["in_distribution", "train"]
    assert grasp_models.mlp.label_names == train.label_names
    assert grasp_models.history is not None


def test_band_slice_values():
    assert band_slice_for(N_BINS, "full") == slice(20, 21000)
    assert band_slice_for(N_BINS, "low") == slice(20, 8753)
    assert band_slice_for(N_BINS, "high") == slice(8753, 21000)


def test_band_slice_keeps_band_selects_edge_rule():
    # Bins sit BIN_HZ apart whatever the row width; the 22,050 Hz edge
    # lands on bin 21,000, which is not kept.
    for n_bins in (8760, N_BINS, 30000):
        kept = {}
        for band, (lo, hi) in BANDS.items():
            kept[band] = np.arange(n_bins)[band_slice_for(n_bins, band)]
            want = np.flatnonzero(band_bins(BIN_HZ, n_bins, lo, hi))
            assert np.array_equal(kept[band], want)
        # low and high split full with no gap and no overlap.
        both = np.concatenate([kept["low"], kept["high"]])
        assert np.array_equal(both, kept["full"])
    with pytest.raises(ParameterError, match="selects none"):
        band_slice_for(100, "high")


def test_low_band_training(grasp_data):
    cfg = tiny_grasp_config(band="low")
    models = train_task(grasp_data["in_distribution", "train"], cfg)
    assert models.kpca.projection.shape[0] == 8753 - 20


# ---------------------------------------------------------- evaluation


def _score_each(models, grasp_data):
    return {
        cond: eval_task(models, cond, ds)
        for (cond, split), ds in grasp_data.items()
        if split == "test"
    }


def test_eval_task_emits_one_row_per_condition(grasp_data, grasp_models):
    scored = _score_each(grasp_models, grasp_data)
    assert sorted(scored) == ["in_distribution", "perturbed"]
    for cond, (row, report) in scored.items():
        assert row["condition"] == cond
        assert row["task"] == "grasp"
        assert row["band"] == "full"
        assert row["metric"] == "accuracy"
        assert 0.0 <= row["value"] <= 1.0
        assert row["f_low_hz"] == 20.0
        assert row["f_high_hz"] == 22050.0
        assert row["n_test"] == 6
        assert isinstance(report, ConfusionMatrix)
        assert row["value"] == report.accuracy


def test_eval_task_scores_a_regressor_with_a_per_target_report():
    cfg = RunConfig(
        task="pose", sessions_train=1, sessions_test=1,
        train_per_class=1, test_per_class=1, n_components=3,
        conditions=("in_distribution",), train=TrainConfig(max_epochs=2), seed=0,
    )
    data = synth_task_data(cfg)
    test = data["in_distribution", "test"]
    models = train_task(data["in_distribution", "train"], cfg)
    row, report = eval_task(models, "in_distribution", test)
    assert row["metric"] == "rmse_deg"
    assert row["value"] == report.rmse
    assert report.per_target_count.sum() == len(test)


def test_eval_task_rejects_a_test_session_seen_in_training(grasp_data, grasp_models):
    test = grasp_data["in_distribution", "test"]
    leaked = Dataset(
        test.rows, test.targets, test.label_names, "test",
        np.full(len(test), grasp_models.train_sessions[-1]),
    )
    with pytest.raises(ParameterError, match="share sessions"):
        eval_task(grasp_models, "in_distribution", leaked)


def test_metrics_to_dict_shape(grasp_data, grasp_models):
    rows = [row for row, _ in _score_each(grasp_models, grasp_data).values()]
    payload = metrics_to_dict(grasp_models, rows)
    assert payload["task"] == "grasp"
    assert payload["band"] == "full"
    assert payload["n_components"] == 3
    assert payload["rows"] == rows
    json.dumps(payload)  # everything JSON-serializable


# --------------------------------------------------------------- files


def test_dataset_round_trip(tmp_path, grasp_data):
    data = grasp_data
    ds = data["in_distribution", "test"]
    path = write_dataset(ds, tmp_path / "d.vcas", "grasp", "in_distribution")
    loaded = read_dataset(path)
    assert loaded.rows.tobytes() == ds.rows.tobytes()
    assert np.array_equal(loaded.targets, ds.targets)
    assert loaded.label_names == ds.label_names
    assert loaded.split_tag == "test"
    assert np.array_equal(loaded.session_ids, ds.session_ids)
    meta = read_container(path)[2]
    assert meta == {
        "task": "grasp", "condition": "in_distribution", "split": "test",
        "label_names": ["base", "middle", "tip"],
    }


def test_dataset_round_trip_regression(tmp_path):
    ds = Dataset(np.ones((3, 4)), np.array([0.0, 85.0, 170.0]))
    loaded = read_dataset(
        write_dataset(ds, tmp_path / "r.vcas", "pose", "in_distribution")
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
            "label_names": ["a", "b"],
        },
    )
    with pytest.raises(DataError, match="integral"):
        read_dataset(path)


@pytest.mark.parametrize("band", ["full", "low"])
def test_kpca_fits_a_file_and_an_array_of_the_same_rows_to_the_same_bits(
    tmp_path, grasp_data, band
):
    train = grasp_data["in_distribution", "train"]
    path = write_dataset(train, tmp_path / "t.vcas", "grasp", "in_distribution")
    sl = band_slice_for(train.rows.shape[1], band)
    assert sl.stop - sl.start > 2 * features._BLOCK_BINS  # several blocks
    in_memory, emb = kpca_fit_transform(train.rows[:, sl], 3)
    with read_dataset_lazily(path) as on_disk:
        from_file, emb_file = kpca_fit_transform(on_disk.rows[:, sl], 3)
    for name in ("projection", "offset", "eigenvalues", "explained_variance_ratio"):
        got, want = getattr(from_file, name), getattr(in_memory, name)
        assert got.tobytes() == want.tobytes(), name
    assert from_file.fit_id == in_memory.fit_id
    assert emb_file.tobytes() == emb.tobytes()

    ref_vals, ref_emb, ref_evr, _ = kpca_reference(train.rows[:, sl], 3)
    assert np.allclose(in_memory.eigenvalues, ref_vals[:3], rtol=1e-9)
    assert np.allclose(in_memory.explained_variance_ratio, ref_evr, atol=1e-10)
    for j in range(3):
        direct = np.abs(emb[:, j] - ref_emb[:, j]).max()
        flipped = np.abs(emb[:, j] + ref_emb[:, j]).max()
        assert min(direct, flipped) < 1e-8


@pytest.mark.parametrize("band", ["full", "low", "high"])
@pytest.mark.parametrize("source", ["array", "file"])
def test_a_streamed_kpca_fit_writes_the_file_save_kpca_writes(
    tmp_path, grasp_data, source, band
):
    # A band of the rows of a dataset file (or of the same rows in
    # memory); every band's bin count leaves its last column block
    # partial.
    train = grasp_data["in_distribution", "train"]
    sl = band_slice_for(train.rows.shape[1], band)
    assert (sl.stop - sl.start) % features._BLOCK_BINS
    path = write_dataset(train, tmp_path / "t.vcas", "grasp", "in_distribution")
    meta = {"train_sessions": [0, 1]}
    got_path = tmp_path / "models" / "got.vcas"
    with read_dataset_lazily(path) as on_disk:
        rows = (on_disk.rows if source == "file" else train.rows)[:, sl]
        want = save_kpca(kpca_fit_transform(rows, 3)[0], tmp_path / "want.vcas", meta)
        _, want_emb = kpca_fit_transform(rows, 3)
        model, emb = kpca_fit_transform(rows, 3, got_path, meta)
    assert got_path.read_bytes() == want.read_bytes()
    assert emb.tobytes() == want_emb.tobytes()
    assert model.projection is None
    with load_kpca(want) as (saved, saved_meta):
        assert saved_meta == meta
        assert model.fit_id == saved.fit_id
        assert model.n_components == saved.n_components == 3
        for name in ("offset", "eigenvalues", "explained_variance_ratio"):
            assert getattr(model, name).tobytes() == getattr(saved, name).tobytes()
    assert [p.name for p in got_path.parent.iterdir()] == ["got.vcas"]


def test_train_task_writes_its_kpca_file_before_the_mlp_trains(
    tmp_path, grasp_data, monkeypatch
):
    train = grasp_data["in_distribution", "train"]
    kpca_path = tmp_path / "kpca_full.vcas"
    trained_after = []
    mlp_train = vcas.pipeline.mlp_train

    def spy(*args, **kwargs):
        trained_after.append(kpca_path.is_file())
        return mlp_train(*args, **kwargs)

    monkeypatch.setattr(vcas.pipeline, "mlp_train", spy)
    models = train_task(train, tiny_grasp_config(), kpca_path)
    assert trained_after == [True]
    assert models.kpca.projection is None
    in_memory = train_task(train, tiny_grasp_config())
    want = save_kpca(in_memory.kpca, tmp_path / "want.vcas",
                     {"train_sessions": list(in_memory.train_sessions)})
    assert kpca_path.read_bytes() == want.read_bytes()
    assert models.kpca.fit_id == in_memory.kpca.fit_id


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
        "train_loss", "val_loss", "best_epoch", "stop_reason", "n_epochs",
    }
    assert d["n_epochs"] == len(d["train_loss"])
