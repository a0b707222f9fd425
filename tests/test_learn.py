import math
from dataclasses import replace

import numpy as np
import pytest

import vcas.learn as learn
from _oracles import finite_difference_gradients
from vcas.envsim import ObservationModel, generate_demos
from vcas.errors import DegenerateInputError, NumericalError, ParameterError
from vcas.learn import (
    ConfusionMatrix,
    Dataset,
    MlpModel,
    TrainConfig,
    assert_sessions_disjoint,
    eval_classifier,
    eval_regressor,
    load_mlp,
    mlp_forward,
    mlp_grad,
    mlp_init,
    mlp_loss,
    mlp_train,
    predict_regression,
    save_mlp,
    write_confusion_csv,
    write_regression_csv,
)
from vcas.policy import policy_train


def small_model(seed, head, dims=(4, 6, 5, 3)):
    """Hand-sized network so full finite differencing stays cheap."""
    rng = np.random.default_rng(seed)
    ws = [rng.normal(scale=0.5, size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    bs = [rng.normal(scale=0.1, size=b) for b in dims[1:]]
    if head == "identity":
        ws[-1] = ws[-1][:, :1]
        bs[-1] = bs[-1][:1]
    return MlpModel(ws, bs, head)


def zero_model(in_dim, out_dim, head="softmax"):
    return MlpModel(
        [np.zeros((in_dim, out_dim))], [np.zeros(out_dim)], head
    )


def blobs(n_per, seed=7, spread=0.3):
    rng = np.random.default_rng(seed)
    rows = np.vstack(
        [
            rng.normal(loc=(-3.0, 0.0), scale=spread, size=(n_per, 2)),
            rng.normal(loc=(3.0, 0.0), scale=spread, size=(n_per, 2)),
        ]
    )
    return Dataset(rows, [0] * n_per + [1] * n_per, ("a", "b"))


# ------------------------------------------------------------ datasets


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(np.zeros(4), np.zeros(4))  # rows not 2-D
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 2)), np.zeros(2))  # length mismatch
    with pytest.raises(ParameterError):
        Dataset(np.full((2, 2), np.nan), np.zeros(2))
    with pytest.raises(ParameterError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), label_names=("a", "b"))


def test_sessions_disjoint_check():
    train_sessions = (0, 1)
    test = Dataset(np.zeros((2, 1)), np.zeros(2), session_ids=np.array([2, 2]))
    assert_sessions_disjoint(train_sessions, test)
    bad = Dataset(np.zeros((2, 1)), np.zeros(2), session_ids=np.array([1, 3]))
    with pytest.raises(ParameterError, match="1"):
        assert_sessions_disjoint(train_sessions, bad)


# ------------------------------------------------------------ init


def test_init_parameter_count_at_stated_widths():
    model = mlp_init(5, 9, "softmax", seed=0)
    dims = (5, 400, 250, 100, 9)
    assert [w.shape for w in model.weights] == list(zip(dims, dims[1:]))
    assert [b.shape for b in model.biases] == [(d,) for d in dims[1:]]


def test_init_seed_determinism():
    a = mlp_init(6, 3, "softmax", seed=11)
    b = mlp_init(6, 3, "softmax", seed=11)
    c = mlp_init(6, 3, "softmax", seed=12)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.weights, b.weights))
    assert any(x.tobytes() != y.tobytes() for x, y in zip(a.weights, c.weights))


def test_init_rejects_bad_dims():
    with pytest.raises(ParameterError):
        mlp_init(0, 3, "softmax", seed=0)
    with pytest.raises(ParameterError):
        mlp_init(3, 3, "tanh-head", seed=0)


def test_zero_weights_give_uniform_softmax():
    model = zero_model(3, 4)
    out = mlp_forward(model, np.random.default_rng(0).normal(size=(6, 3)))
    assert np.allclose(out, 0.25)


def test_forward_probabilities_sum_to_one():
    model = mlp_init(7, 5, "softmax", seed=2)
    x = np.random.default_rng(3).normal(size=(11, 7))
    out = mlp_forward(model, x)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
    assert (out >= 0).all()


def test_forward_rejects_width_mismatch():
    model = mlp_init(7, 5, "softmax", seed=2)
    with pytest.raises(ParameterError):
        mlp_forward(model, np.zeros((1, 6)))
    with pytest.raises(ParameterError, match="matrix of rows"):
        mlp_forward(model, np.zeros(7))


# --------------------------------------------------------- gradients


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("head", ["softmax", "identity"])
def test_gradients_match_finite_differences(seed, head):
    model = small_model(seed, head)
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(8, 4))
    y = (
        rng.integers(0, 3, size=8)
        if head == "softmax"
        else rng.normal(size=(8, 1))
    )
    analytic = mlp_grad(model, (x, y))
    fd = finite_difference_gradients(lambda m: mlp_loss(m, (x, y)), model)
    for (aw, ab), (fw, fb) in zip(analytic, fd):
        for a, f in ((aw, fw), (ab, fb)):
            scale = np.maximum(1e-8, np.abs(a) + np.abs(f))
            assert float((np.abs(a - f) / scale).max()) < 1e-5


def test_gradient_of_duplicated_batch_is_unchanged():
    model = small_model(3, "softmax")
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    single = mlp_grad(model, (x, y))
    doubled = mlp_grad(model, (np.tile(x, (2, 1)), np.tile(y, 2)))
    for (aw, ab), (bw, bb) in zip(single, doubled):
        assert np.allclose(aw, bw, atol=1e-12)
        assert np.allclose(ab, bb, atol=1e-12)
    assert mlp_loss(model, (x, y)) == pytest.approx(
        mlp_loss(model, (np.tile(x, (2, 1)), np.tile(y, 2))), abs=1e-12
    )
    # Unit weights take the same arithmetic path as no weights, bit for bit.
    ones = np.ones(6)
    assert mlp_loss(model, (x, y), ones) == mlp_loss(model, (x, y))
    for (aw, ab), (bw, bb) in zip(single, mlp_grad(model, (x, y), ones)):
        assert aw.tobytes() == bw.tobytes()
        assert ab.tobytes() == bb.tobytes()
    # A weight of 2 counts a row twice, like the tiled batch.
    twos = np.full(6, 2.0)
    for (aw, ab), (bw, bb) in zip(doubled, mlp_grad(model, (x, y), twos)):
        assert np.allclose(aw, bw, rtol=0, atol=1e-12)
        assert np.allclose(ab, bb, rtol=0, atol=1e-12)
    assert mlp_loss(model, (x, y), twos) == pytest.approx(
        mlp_loss(model, (np.tile(x, (2, 1)), np.tile(y, 2))), abs=1e-12
    )


@pytest.mark.parametrize("head", ["softmax", "identity"])
def test_weighted_loss_and_gradient_match_repeated_rows(head):
    model = small_model(4, head)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5) if head == "softmax" else rng.normal(size=5)
    counts = np.array([1, 3, 2, 1, 4])
    repeated = (np.repeat(x, counts, axis=0), np.repeat(y, counts))
    weighted = mlp_grad(model, (x, y), counts.astype(float))
    for (aw, ab), (bw, bb) in zip(weighted, mlp_grad(model, repeated)):
        assert np.allclose(aw, bw, rtol=0, atol=1e-12)
        assert np.allclose(ab, bb, rtol=0, atol=1e-12)
    assert mlp_loss(model, (x, y), counts) == pytest.approx(
        mlp_loss(model, repeated), abs=1e-12
    )


def test_weights_must_be_positive_one_per_row():
    model = small_model(0, "softmax")
    x = np.zeros((3, 4))
    y = np.array([0, 1, 2])
    for bad in (np.ones(2), np.array([1.0, 0.0, 1.0]), np.array([1.0, np.inf, 1.0])):
        with pytest.raises(ParameterError, match="weights"):
            mlp_loss(model, (x, y), bad)


def test_uniform_model_balanced_labels_zero_output_bias_gradient():
    model = zero_model(3, 2)
    x = np.random.default_rng(4).normal(size=(8, 3))
    y = np.array([0, 1] * 4)
    grads = mlp_grad(model, (x, y))
    _, db = grads[-1]
    assert np.abs(db).max() < 1e-15


# ---------------------------------------------------------- training


def test_train_separable_toy_reaches_full_accuracy():
    data = blobs(5)
    model, history = mlp_train(data, TrainConfig(max_epochs=50, seed=0))
    assert eval_classifier(model, data).accuracy == 1.0
    assert history.n_epochs <= 50


def test_train_same_seed_identical_history_and_weights():
    data = blobs(5)
    cfg = TrainConfig(max_epochs=8, seed=3)
    m1, h1 = mlp_train(data, cfg)
    m2, h2 = mlp_train(data, cfg)
    assert h1 == h2
    assert all(a.tobytes() == b.tobytes() for a, b in zip(m1.weights, m2.weights))


class _NoExitMinDelta(float):
    """A min_delta that `best_loss <= min_delta` never holds for.

    Arithmetic stays plain float, so training runs as without the exit
    until patience runs out.
    """

    def __ge__(self, other):
        return False


def test_train_exit_when_no_epoch_can_improve_keeps_the_best_parameters():
    data = blobs(8)
    cfg = TrainConfig(max_epochs=200, patience=5, min_delta=0.02, seed=0)
    m1, h1 = mlp_train(data, cfg)
    m2, h2 = mlp_train(data, replace(cfg, min_delta=_NoExitMinDelta(0.02)))
    assert h1.stop_reason == "no_improvement_possible"
    assert h2.stop_reason == "patience"
    assert h1.val_loss[h1.best_epoch] <= cfg.min_delta
    # The history ends at the exit epoch, which is the best epoch.
    assert h1.n_epochs == h1.best_epoch + 1 < h2.n_epochs
    assert h2.best_epoch == h1.best_epoch
    assert h2.train_loss[: h1.n_epochs] == h1.train_loss
    assert h2.val_loss[: h1.n_epochs] == h1.val_loss
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        assert a.tobytes() == b.tobytes()


def test_train_stop_reason_patience_and_max_epochs():
    # Overlapping classes: no epoch beats the first by 0.3.
    noisy = blobs(8, spread=3.0)
    _, h = mlp_train(noisy, TrainConfig(max_epochs=50, patience=2, min_delta=0.3))
    assert (h.stop_reason, h.n_epochs, h.best_epoch) == ("patience", 3, 0)
    _, h = mlp_train(blobs(5), TrainConfig(max_epochs=3, min_delta=0.0))
    assert (h.stop_reason, h.n_epochs) == ("max_epochs", 3)


def test_train_row_order_cannot_matter():
    data = blobs(6, seed=12)
    cfg = TrainConfig(max_epochs=6, seed=5)
    m1, h1 = mlp_train(data, cfg)
    perm = np.random.default_rng(0).permutation(len(data))
    shuffled = Dataset(
        data.rows[perm], data.targets[perm], data.label_names,
        session_ids=data.session_ids[perm],
    )
    m2, h2 = mlp_train(shuffled, cfg)
    assert h1 == h2
    assert all(a.tobytes() == b.tobytes() for a, b in zip(m1.weights, m2.weights))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(m1.biases, m2.biases))


def test_train_on_duplicated_rows_equals_train_on_distinct_rows():
    data = blobs(6, seed=13)
    doubled = Dataset(
        np.tile(data.rows, (2, 1)), np.tile(data.targets, 2), data.label_names
    )
    cfg = TrainConfig(max_epochs=6, batch_size=4, seed=2)
    m1, h1 = mlp_train(data, cfg)
    m2, h2 = mlp_train(doubled, cfg)
    assert h1 == h2
    assert all(a.tobytes() == b.tobytes() for a, b in zip(m1.weights, m2.weights))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(m1.biases, m2.biases))


def test_train_loss_counts_every_repeated_row():
    data = blobs(5, seed=14, spread=2.0)
    counts = np.arange(1, len(data) + 1)
    repeated = Dataset(
        np.repeat(data.rows, counts, axis=0), np.repeat(data.targets, counts),
        data.label_names,
    )
    cfg = TrainConfig(max_epochs=1, validation_fraction=0.0, seed=1)
    model, history = mlp_train(repeated, cfg)
    assert history.train_loss[0] == pytest.approx(
        mlp_loss(model, (repeated.rows, repeated.targets)), rel=1e-12
    )
    assert history.train_loss[0] != pytest.approx(
        mlp_loss(model, (data.rows, data.targets)), rel=1e-6
    )


def test_validation_pairs_never_repeat_training_pairs(monkeypatch):
    seen = []
    real_loss = learn.mlp_loss

    def recording_loss(model, batch, *weights):
        seen.append(batch)
        return real_loss(model, batch, *weights)

    monkeypatch.setattr(learn, "mlp_loss", recording_loss)
    demos = generate_demos(200, "interpolated", ObservationModel.identity(), seed=0)
    policy_train(demos, TrainConfig(max_epochs=1, seed=0))
    # One epoch scores the training slice, then the validation slice.
    (x_train, y_train), (x_val, y_val) = seen

    def pairs(x, y):
        return {(row.tobytes(), int(t)) for row, t in zip(x, y)}

    shared = pairs(x_train, y_train) & pairs(x_val, y_val)
    assert len(y_val) > 0
    assert not shared, f"{len(shared)} validation pairs are also training pairs"


def test_full_batch_loss_monotone_on_convex_slice(monkeypatch):
    # Single linear layer + softmax is convex in the parameters; the
    # ablation swaps the hidden stack out and runs the real trainer.
    monkeypatch.setattr(learn, "HIDDEN_DIMS", ())
    rng = np.random.default_rng(5)
    rows = np.vstack(
        [rng.normal(loc=-1, size=(20, 3)), rng.normal(loc=1, size=(20, 3))]
    )
    data = Dataset(rows, [0] * 20 + [1] * 20, ("neg", "pos"))
    cfg = TrainConfig(
        step_size=1e-3, batch_size=64, max_epochs=80,
        patience=200, validation_fraction=0.0, seed=0,
    )
    model, history = mlp_train(data, cfg)
    assert len(model.weights) == 1
    assert (np.diff(history.train_loss) <= 1e-12).all()


def test_train_refuses_single_class():
    rows = np.random.default_rng(1).normal(size=(6, 2))
    data = Dataset(rows, [0] * 6, ("only",))
    with pytest.raises(ParameterError, match="only"):
        mlp_train(data, TrainConfig(max_epochs=2))


def test_train_refuses_empty_and_constant_regression():
    with pytest.raises(ParameterError):
        mlp_train(
            Dataset(np.zeros((0, 2)), np.zeros(0)), TrainConfig(max_epochs=2)
        )
    with pytest.raises(DegenerateInputError):
        mlp_train(
            Dataset(np.random.default_rng(0).normal(size=(5, 2)), np.full(5, 3.0)),
            TrainConfig(max_epochs=2),
        )


def test_diverging_run_raises_numerical_error():
    data = Dataset(np.full((8, 2), 1e150), np.array([0.0, 1e150] * 4))
    cfg = TrainConfig(step_size=1e6, max_epochs=3, validation_fraction=0.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="epoch"):
            mlp_train(data, cfg)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(step_size=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(min_delta=-1e-3)
    # With a non-finite min_delta no epoch counts as a gain, so training
    # would return the initial network; an infinite step diverges.
    for key in ("step_size", "min_delta"):
        for value in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=f"{key} must be .* finite"):
                TrainConfig(**{key: value})


def test_regression_training_recovers_target_units():
    rng = np.random.default_rng(8)
    rows = rng.uniform(size=(60, 3))
    targets = 40.0 + 100.0 * rows[:, 0]
    data = Dataset(rows, targets)
    model, _ = mlp_train(data, TrainConfig(max_epochs=60, seed=1))
    assert model.target_scale == (float(targets.min()), float(targets.max()))
    preds = predict_regression(model, rows)
    assert eval_regressor(model, data).rmse < 15.0
    assert preds.shape == (60,)


# ---------------------------------------------------------- evaluation


def test_eval_classifier_perfect_predictor():
    data = blobs(5)
    model, _ = mlp_train(data, TrainConfig(max_epochs=50, seed=0))
    cm = eval_classifier(model, data)
    assert cm.accuracy == 1.0
    assert cm.counts.sum() == len(data)
    assert np.trace(cm.counts) == len(data)


def test_eval_classifier_constant_predictor_scores_one_over_l():
    rows = np.random.default_rng(2).normal(size=(12, 3))
    data = Dataset(rows, [0, 1, 2, 3] * 3, ("a", "b", "c", "d"))
    cm = eval_classifier(zero_model(3, 4), data)
    assert cm.accuracy == pytest.approx(1.0 / 4.0)


def test_eval_classifier_ties_resolve_to_lowest_index():
    rows = np.random.default_rng(3).normal(size=(6, 3))
    data = Dataset(rows, [0, 1, 2] * 2, ("a", "b", "c"))
    cm = eval_classifier(zero_model(3, 3), data)
    # Uniform probabilities tie on every row; column 0 takes all mass.
    assert cm.counts[:, 0].sum() == 6
    assert cm.counts[:, 1:].sum() == 0


def test_eval_classifier_rejects_empty_and_mismatched_labels():
    model = zero_model(3, 2)
    model.label_names = ("a", "b")
    with pytest.raises(ParameterError):
        eval_classifier(
            model, Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), ("a", "b"))
        )
    other = Dataset(np.zeros((2, 3)), [0, 1], ("x", "y"))
    with pytest.raises(ParameterError, match="label spaces"):
        eval_classifier(model, other)


def test_confusion_rows_renormalize_to_distributions():
    cm = ConfusionMatrix(np.array([[8, 2], [1, 9]]), ("a", "b"))
    probs = cm.normalized()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert (probs >= 0).all()


def test_confusion_empty_row_is_flagged_and_refuses_normalization():
    cm = ConfusionMatrix(np.array([[4, 1], [0, 0]]), ("a", "b"))
    assert cm.empty_rows == (1,)
    with pytest.raises(DegenerateInputError, match="b"):
        cm.normalized()


def test_confusion_csv_layout(tmp_path):
    cm = ConfusionMatrix(np.array([[3, 1], [2, 2]]), ("hit", "miss"))
    path = write_confusion_csv(cm, tmp_path / "cm.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "true_label,hit,miss"
    first = lines[1].split(",")
    assert first[0] == "hit"
    assert float(first[1]) + float(first[2]) == pytest.approx(1.0)


def test_eval_regressor_exact_predictions_zero_rmse():
    model = MlpModel(
        [np.zeros((2, 1))], [np.array([0.5])], "identity", target_scale=(0.0, 170.0)
    )
    test = Dataset(np.zeros((4, 2)), np.full(4, 85.0))
    report = eval_regressor(model, test)
    assert report.rmse == 0.0


def test_eval_regressor_constant_85_on_extreme_targets():
    model = MlpModel(
        [np.zeros((2, 1))], [np.array([0.5])], "identity", target_scale=(0.0, 170.0)
    )
    test = Dataset(np.zeros((6, 2)), np.array([0.0, 170.0] * 3))
    report = eval_regressor(model, test)
    assert report.rmse == pytest.approx(85.0)
    assert report.target_values.tolist() == [0.0, 170.0]
    assert np.allclose(report.per_target_rmse, 85.0)
    assert report.per_target_count.tolist() == [3, 3]


def test_eval_regressor_rejects_empty_test():
    model = MlpModel([np.zeros((2, 1))], [np.zeros(1)], "identity")
    with pytest.raises(ParameterError):
        eval_regressor(model, Dataset(np.zeros((0, 2)), np.zeros(0)))


def test_regression_csv_layout(tmp_path):
    model = MlpModel(
        [np.zeros((2, 1))], [np.array([0.5])], "identity", target_scale=(0.0, 170.0)
    )
    test = Dataset(np.zeros((4, 2)), np.array([0.0, 0.0, 170.0, 170.0]))
    path = write_regression_csv(eval_regressor(model, test), tmp_path / "r.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "target,rmse,count"
    assert lines[1] == "0.0,85.0,2"
    assert lines[2] == "170.0,85.0,2"


# ------------------------------------------------------------- storage


def test_mlp_save_load_round_trip(tmp_path):
    data = blobs(4, seed=20)
    model, _ = mlp_train(data, TrainConfig(max_epochs=3, seed=0))
    path = save_mlp(model, tmp_path / "m.vcas", {"fit_id": "abc"})
    loaded, meta = load_mlp(path)
    assert meta["fit_id"] == "abc"
    assert loaded.head == "softmax"
    assert loaded.label_names == ("a", "b")
    assert all(a.tobytes() == b.tobytes() for a, b in zip(model.weights, loaded.weights))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(model.biases, loaded.biases))
    x = np.random.default_rng(0).normal(size=(3, 2))
    assert mlp_forward(model, x).tobytes() == mlp_forward(loaded, x).tobytes()


def test_mlp_save_load_regression_scale(tmp_path):
    model = MlpModel(
        [np.zeros((2, 1))], [np.array([0.5])], "identity", target_scale=(0.0, 170.0)
    )
    loaded, meta = load_mlp(save_mlp(model, tmp_path / "r.vcas"))
    assert "fit_id" not in meta
    assert loaded.target_scale == (0.0, 170.0)
    assert loaded.label_names is None
