"""MLP estimators for the classification and regression tasks.

Networks are fixed at three rectifier hidden layers (400, 250, 100)
with a softmax head for classification or an identity head for
regression.  Training is minibatch adaptive-moment descent with early
stopping on a held-out tenth of the distinct training pairs: repeated
(row, target) pairs collapse into one row weighted by its count, so a
duplicate costs no extra work and never lands on both sides of the
validation split.  Everything is seeded and deterministic: identical
data and config reproduce the parameters and history bit for bit,
regardless of input row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .container import (
    DiskMatrix,
    PayloadKind,
    atomic_write,
    built_from,
    json_int,
    json_strings,
    read_container,
    write_container,
)
from .errors import DegenerateInputError, NumericalError, ParameterError

HIDDEN_DIMS = (400, 250, 100)

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and early-stopping settings.

    `min_delta` is the smallest validation-loss improvement that
    resets the patience counter; plateaus smaller than this stop
    training once `patience` epochs pass without gain.  Training also
    stops once the best loss is at most `min_delta`: losses are
    non-negative, so no later epoch could count as a gain.
    """

    step_size: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    min_delta: float = 1e-4
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (self.step_size > 0 and math.isfinite(self.step_size)):
            raise ParameterError(
                f"step_size must be positive and finite, got {self.step_size}"
            )
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ParameterError("batch_size, max_epochs, patience must be >= 1")
        if self.min_delta < 0 or not math.isfinite(self.min_delta):
            raise ParameterError(
                f"min_delta must be non-negative and finite, got {self.min_delta}"
            )
        if not (0 <= self.validation_fraction < 1):
            raise ParameterError("validation_fraction must be in [0, 1)")


@dataclass(frozen=True)
class Dataset:
    """Feature rows with targets and session provenance.

    Classification sets carry `label_names` (sorted lexicographically;
    targets are indices into it); regression sets leave it None and use
    real-valued targets.  `session_ids` tags each row with the
    recording session it came from so train/test session disjointness
    can be checked.
    """

    rows: np.ndarray
    targets: np.ndarray
    label_names: tuple[str, ...] | None = None
    split_tag: str = "train"
    session_ids: np.ndarray | None = None

    def __post_init__(self):
        rows = self.rows
        # A file's rows stay on disk; kernel PCA checks each block it reads.
        if not isinstance(rows, DiskMatrix):
            rows = np.asarray(rows, dtype=np.float64)
            if rows.ndim != 2:
                raise ParameterError("rows must be a 2-D matrix")
            if not np.isfinite(rows).all():
                raise ParameterError("rows must be finite")
        if self.label_names is not None:
            targets = np.asarray(self.targets, dtype=np.int64)
            if targets.size and (
                targets.min() < 0 or targets.max() >= len(self.label_names)
            ):
                raise ParameterError("class index outside label range")
            object.__setattr__(self, "label_names", tuple(self.label_names))
        else:
            targets = np.asarray(self.targets, dtype=np.float64)
            if not np.isfinite(targets).all():
                raise ParameterError("targets must be finite")
        if targets.ndim != 1 or targets.size != rows.shape[0]:
            raise ParameterError("rows and targets must have equal length")
        sessions = (
            np.zeros(rows.shape[0], dtype=np.int64)
            if self.session_ids is None
            else np.asarray(self.session_ids, dtype=np.int64)
        )
        if sessions.shape != (rows.shape[0],):
            raise ParameterError("session_ids must be one id per row")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "session_ids", sessions)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def is_classification(self) -> bool:
        return self.label_names is not None


def assert_sessions_disjoint(train_sessions: Iterable[int], test: Dataset) -> None:
    overlap = set(train_sessions) & set(np.unique(test.session_ids).tolist())
    if overlap:
        raise ParameterError(f"train/test share sessions {sorted(overlap)}")


@dataclass
class MlpModel:
    """Feed-forward network parameters.

    `weights[i]` maps layer i's input (rows) to its output (columns);
    hidden layers use the rectifier, the last layer feeds the head.
    `target_scale` holds the (low, high) affine range regression
    targets were mapped from onto [0, 1].
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str
    label_names: tuple[str, ...] | None = None
    target_scale: tuple[float, float] | None = None

    def __post_init__(self):
        if self.head not in ("softmax", "identity"):
            raise ParameterError(f"unknown head {self.head!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ParameterError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ParameterError(f"layer {i} shapes inconsistent")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ParameterError(f"layer {i} has non-finite parameters")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ParameterError(f"layer {i} input does not match layer {i - 1}")
        if self.label_names is not None:
            if self.head != "softmax":
                raise ParameterError("label_names only apply to the softmax head")
            if len(self.label_names) != self.out_dim:
                raise ParameterError("label count must match output width")
            self.label_names = tuple(self.label_names)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "MlpModel":
        return replace(
            self,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def mlp_init(in_dim: int, out_dim: int, head: str, seed: int) -> MlpModel:
    """Fresh network with hidden sizes (400, 250, 100).

    Weights are uniform on +-sqrt(6 / fan_in) per layer, biases zero;
    the same seed always produces the same parameters.
    """
    if in_dim < 1 or out_dim < 1:
        raise ParameterError("in_dim and out_dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dims = (in_dim,) + HIDDEN_DIMS + (out_dim,)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, head)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward_trace(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Hidden activations (inputs to each layer) and the final pre-head output."""
    acts = [x]
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    z = a @ model.weights[-1] + model.biases[-1]
    return acts, z


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Deterministic forward pass over a matrix of rows.

    The softmax head returns probabilities (rows sum to 1), the
    identity head raw outputs.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.ndim != 2 or x_arr.shape[1] != model.in_dim:
        raise ParameterError(
            f"input shape {x_arr.shape} is not a matrix of rows of width "
            f"in_dim {model.in_dim}"
        )
    _, z = _forward_trace(model, x_arr)
    return _softmax(z) if model.head == "softmax" else z


def _prepare_batch(
    model: MlpModel,
    batch: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != model.in_dim:
        raise ParameterError("batch rows must be non-empty and match in_dim")
    if model.head == "softmax":
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (x.shape[0],) or y.min() < 0 or y.max() >= model.out_dim:
            raise ParameterError("class targets out of range")
    else:
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape != (x.shape[0], model.out_dim):
            raise ParameterError("regression targets must match output width")
    if weights is None:
        w = np.ones(x.shape[0])
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (x.shape[0],) or not (np.isfinite(w).all() and (w > 0).all()):
            raise ParameterError("weights must be one positive finite value per row")
    return x, y, w


def mlp_loss(
    model: MlpModel,
    batch: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray | None = None,
) -> float:
    """Weighted mean cross-entropy (softmax head) or squared error (identity).

    `weights` counts each row that many times (all ones when omitted),
    so weighting a row by k equals repeating it k times.
    """
    x, y, w = _prepare_batch(model, batch, weights)
    _, z = _forward_trace(model, x)
    if model.head == "softmax":
        logp = z - z.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        return float(-(logp[np.arange(x.shape[0]), y] * w).sum() / w.sum())
    return float(((z - y) ** 2 * w[:, None]).sum() / (w.sum() * model.out_dim))


def mlp_grad(
    model: MlpModel,
    batch: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradients of `mlp_loss` per layer, as (dW, db) pairs."""
    x, y, w = _prepare_batch(model, batch, weights)
    acts, z = _forward_trace(model, x)
    if model.head == "softmax":
        g = _softmax(z)
        g[np.arange(x.shape[0]), y] -= 1.0
        g *= w[:, None]
        g /= w.sum()
    else:
        g = 2.0 * (z - y)
        g *= w[:, None]
        g /= w.sum() * model.out_dim
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.weights)
    for i in range(len(model.weights) - 1, -1, -1):
        grads[i] = (acts[i].T @ g, g.sum(axis=0))
        if i:
            g = (g @ model.weights[i].T) * (acts[i] > 0)
    return grads


@dataclass(frozen=True)
class TrainingHistory:
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    best_epoch: int
    stop_reason: str  # "patience", "no_improvement_possible" or "max_epochs"

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


def _split_indices(
    targets: np.ndarray,
    classification: bool,
    fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    n = targets.size
    if fraction == 0 or n < 2:
        return np.arange(n), np.arange(0)
    if classification:
        # Per-class proportional split; every class keeps a train row.
        train_parts, val_parts = [], []
        for c in np.unique(targets):
            idx = np.flatnonzero(targets == c)
            idx = idx[rng.permutation(idx.size)]
            n_val = min(int(round(fraction * idx.size)), idx.size - 1)
            val_parts.append(idx[:n_val])
            train_parts.append(idx[n_val:])
        return np.concatenate(train_parts), np.concatenate(val_parts)
    idx = rng.permutation(n)
    n_val = min(max(int(round(fraction * n)), 1), n - 1)
    return idx[n_val:], idx[:n_val]


def mlp_train(data: Dataset, cfg: TrainConfig) -> tuple[MlpModel, TrainingHistory]:
    """Train an estimator on `data` with early stopping.

    Identical (row, target) pairs collapse into one row weighted by
    its count; every loss and gradient is the count-weighted mean, so
    the full-batch loss equals the one over the repeated rows.  A tenth
    (`validation_fraction`) of the distinct pairs is held out as a
    validation slice; the parameters returned are the best seen on it.
    Classification needs at least two classes present; regression
    targets are scaled to [0, 1] internally and the scale stored on the
    model.
    """
    if len(data) == 0:
        raise ParameterError("training data is empty")
    classification = data.is_classification
    if classification:
        present = np.unique(data.targets)
        if present.size < 2:
            raise ParameterError(
                "training labels cover a single class "
                f"({data.label_names[present[0]] if present.size else 'none'}); "
                "need at least two"
            )
        out_dim = len(data.label_names)
        targets = data.targets
        scale = None
    else:
        lo, hi = float(data.targets.min()), float(data.targets.max())
        if hi <= lo:
            raise DegenerateInputError("regression targets are all identical")
        targets = (data.targets - lo) / (hi - lo)
        out_dim = 1
        scale = (lo, hi)

    # The distinct (target, row) pairs and their counts, sorted by target,
    # then by row column by column, so shuffling the input rows cannot
    # change what gets trained.
    pairs, counts = np.unique(
        np.column_stack([targets, data.rows]), axis=0, return_counts=True
    )
    rows, targets = pairs[:, 1:], pairs[:, 0].astype(targets.dtype)
    counts = counts.astype(np.float64)

    init_ss, split_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    model = mlp_init(
        rows.shape[1], out_dim, "softmax" if classification else "identity",
        seed=int(init_ss.generate_state(1)[0]),
    )
    model.label_names = data.label_names
    model.target_scale = scale

    train_idx, val_idx = _split_indices(
        targets if classification else np.zeros(len(rows)),
        classification,
        cfg.validation_fraction,
        np.random.default_rng(split_ss),
    )
    x_train, y_train, w_train = rows[train_idx], targets[train_idx], counts[train_idx]
    x_val, y_val, w_val = rows[val_idx], targets[val_idx], counts[val_idx]
    monitor_val = x_val.shape[0] > 0

    batch_rng = np.random.default_rng(batch_ss)
    # [w0, b0, w1, b1, ...], updated in place, with one Adam moment each
    params = [p for layer in zip(model.weights, model.biases) for p in layer]
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    step = 0

    best_loss = math.inf
    best_epoch = 0
    best_params = model.copy()
    since_best = 0
    train_curve: list[float] = []
    val_curve: list[float] = []
    stop_reason = "max_epochs"

    for epoch in range(cfg.max_epochs):
        perm = batch_rng.permutation(x_train.shape[0])
        for lo_i in range(0, perm.size, cfg.batch_size):
            sel = perm[lo_i : lo_i + cfg.batch_size]
            grads = mlp_grad(model, (x_train[sel], y_train[sel]), w_train[sel])
            step += 1
            c1 = 1.0 - _ADAM_BETA1**step
            c2 = 1.0 - _ADAM_BETA2**step
            flat = (g for layer in grads for g in layer)
            for p, m, v, g in zip(params, adam_m, adam_v, flat):
                m += (1 - _ADAM_BETA1) * (g - m)
                v += (1 - _ADAM_BETA2) * (g * g - v)
                p -= cfg.step_size * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)

        train_loss = mlp_loss(model, (x_train, y_train), w_train)
        if not math.isfinite(train_loss):
            raise NumericalError(f"training loss became {train_loss} at epoch {epoch}")
        monitored = (
            mlp_loss(model, (x_val, y_val), w_val) if monitor_val else train_loss
        )
        train_curve.append(train_loss)
        val_curve.append(monitored)

        if monitored < best_loss - cfg.min_delta:
            best_loss = monitored
            best_epoch = epoch
            best_params = model.copy()
            since_best = 0
            if best_loss <= cfg.min_delta:
                stop_reason = "no_improvement_possible"
                break
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stop_reason = "patience"
                break

    history = TrainingHistory(
        tuple(train_curve), tuple(val_curve), best_epoch, stop_reason
    )
    return best_params, history


def predict_class(model: MlpModel, rows: np.ndarray) -> np.ndarray:
    """Argmax class indices; ties resolve to the lowest index."""
    if model.head != "softmax":
        raise ParameterError("predict_class needs a softmax head")
    return np.argmax(mlp_forward(model, rows), axis=1)


def predict_regression(model: MlpModel, rows: np.ndarray) -> np.ndarray:
    """Regression predictions mapped back to target units."""
    if model.head != "identity":
        raise ParameterError("predict_regression needs an identity head")
    out = mlp_forward(model, rows)[:, 0]
    if model.target_scale is not None:
        lo, hi = model.target_scale
        out = lo + out * (hi - lo)
    return out


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row = true class, column = predicted class."""

    counts: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        L = len(self.label_names)
        if counts.shape != (L, L) or (counts < 0).any():
            raise ParameterError("counts must be a non-negative LxL matrix")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "label_names", tuple(self.label_names))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ParameterError("empty confusion matrix has no accuracy")
        return float(np.trace(self.counts)) / self.total

    @property
    def empty_rows(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.counts.sum(axis=1) == 0))

    def normalized(self) -> np.ndarray:
        """Row-stochastic p(predicted | true); empty rows are an error."""
        if self.empty_rows:
            names = [self.label_names[i] for i in self.empty_rows]
            raise DegenerateInputError(
                f"no samples for classes {names}; rows cannot be normalized"
            )
        return self.counts / self.counts.sum(axis=1, keepdims=True)


def eval_classifier(model: MlpModel, test: Dataset) -> ConfusionMatrix:
    """Confusion counts over a test set; accuracy is trace / total."""
    if len(test) == 0:
        raise ParameterError("test set is empty")
    if not test.is_classification:
        raise ParameterError("test set has no class labels")
    if model.label_names is not None and model.label_names != test.label_names:
        raise ParameterError(
            f"label spaces differ: model {model.label_names} "
            f"vs data {test.label_names}"
        )
    preds = predict_class(model, test.rows)
    L = len(test.label_names)
    counts = np.zeros((L, L), dtype=np.int64)
    np.add.at(counts, (test.targets, preds), 1)
    return ConfusionMatrix(counts, test.label_names)


def write_confusion_csv(cm: ConfusionMatrix, path: str | Path) -> Path:
    """Row-normalized confusion matrix with named rows and columns."""
    probs = cm.normalized()
    with atomic_write(path) as fh:
        fh.write("true_label," + ",".join(cm.label_names) + "\n")
        for name, row in zip(cm.label_names, probs):
            fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return Path(path)


@dataclass(frozen=True)
class RegressionReport:
    """Overall RMSE plus a per-target-value error breakdown."""

    rmse: float
    target_values: np.ndarray
    per_target_rmse: np.ndarray
    per_target_count: np.ndarray


def eval_regressor(model: MlpModel, test: Dataset) -> RegressionReport:
    """RMSE in target units, with a per-distinct-target table."""
    if len(test) == 0:
        raise ParameterError("test set is empty")
    if test.is_classification:
        raise ParameterError("test set has class labels, not regression targets")
    preds = predict_regression(model, test.rows)
    err = preds - test.targets
    rmse = float(np.sqrt(np.mean(err**2)))
    values = np.unique(test.targets)
    per_rmse = np.array(
        [np.sqrt(np.mean(err[test.targets == v] ** 2)) for v in values]
    )
    per_count = np.array(
        [np.count_nonzero(test.targets == v) for v in values], dtype=np.int64
    )
    return RegressionReport(rmse, values, per_rmse, per_count)


def write_regression_csv(report: RegressionReport, path: str | Path) -> Path:
    with atomic_write(path) as fh:
        fh.write("target,rmse,count\n")
        for v, r, c in zip(
            report.target_values, report.per_target_rmse, report.per_target_count
        ):
            fh.write(f"{float(v)!r},{float(r)!r},{int(c)}\n")
    return Path(path)


def save_mlp(model: MlpModel, path: str | Path, meta: dict | None = None) -> Path:
    """Write the network; `meta` adds entries to its metadata."""
    arrays: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    meta = {
        **(meta or {}),
        "n_layers": len(model.weights),
        "head": model.head,
        "label_names": list(model.label_names) if model.label_names else None,
        "target_scale": list(model.target_scale) if model.target_scale else None,
    }
    return write_container(path, PayloadKind.MLP_MODEL, arrays, meta)


def load_mlp(path: str | Path) -> tuple[MlpModel, dict]:
    """Read a network written by save_mlp; returns (model, metadata)."""
    _, arrays, meta = read_container(path, expect_kind=PayloadKind.MLP_MODEL)
    with built_from(path):
        n = json_int(meta["n_layers"], "n_layers")
        scale = meta.get("target_scale")
        model = MlpModel(
            [arrays[f"w{i}"] for i in range(n)],
            [arrays[f"b{i}"] for i in range(n)],
            head=str(meta["head"]),
            label_names=json_strings(meta.get("label_names"), "label_names"),
            target_scale=(float(scale[0]), float(scale[1])) if scale else None,
        )
    return model, meta
