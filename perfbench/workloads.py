"""The three closed-loop workloads: one vcas command per stage, run in turn.

Each workload maps generate -> train -> evaluate onto three CLI commands.
The benchmark seed is passed to every command as its `--seed`, so the same
seed gives the same inputs and byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def fixed_epochs(epochs: int) -> tuple[str, ...]:
    """Train exactly `epochs` epochs: patience equal to the cap never stops early.

    With the default patience of 20 the epoch count follows the seed
    (22 to 55 for the policy, 29 to 49 for grasp on the seed commit), which
    would swamp every timing; the best-validation parameters are still kept.
    """
    return ("--set", f"max_epochs={epochs}", "--set", f"patience={epochs}")


@dataclass(frozen=True)
class Stage:
    name: str  # one of metrics.STAGES
    args: Callable[[int, str], list[str]]  # (seed, out) -> vcas argv
    artifacts: tuple[str, ...]  # files under --out the command must write


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[Stage, Stage, Stage]
    data_files: tuple[str, ...]
    model_files: tuple[str, ...]
    quality_file: str
    quality_bar: float
    quality: Callable[[dict], float]


def _recognition(task: str, extra: tuple[str, ...], epochs: int,
                 data_conditions: tuple[str, ...], why: str, bar: float) -> Workload:
    def argv(command: str, *more: str) -> Callable[[int, str], list[str]]:
        return lambda seed, out: [command, "--task", task, *extra, *more,
                                  "--seed", str(seed), "--out", out]

    data = tuple(f"{task}/data/{c}.vcas" for c in data_conditions)
    models = (f"{task}/models/kpca_full.vcas", f"{task}/models/mlp_full.vcas")
    metrics_file = f"{task}/eval/metrics_full.json"

    def in_distribution_accuracy(payload: dict) -> float:
        (row,) = [r for r in payload["rows"] if r["condition"] == "in_distribution"]
        return float(row["value"])

    return Workload(
        name=task,
        why=why,
        stages=(
            Stage("data", argv("synth-data"), data),
            Stage("train", argv("train", *fixed_epochs(epochs)), models + (
                f"{task}/models/evr_full.csv", f"{task}/models/history_full.json")),
            Stage("eval", argv("eval"), (metrics_file,)),
        ),
        data_files=data,
        model_files=models,
        quality_file=metrics_file,
        quality_bar=bar,
        quality=in_distribution_accuracy,
    )


GRASP = _recognition(
    "grasp",
    (),
    10,
    ("in_distribution.train", "in_distribution.test", "perturbed.test"),
    "Small chain: 450 spectra x 21,001 bins, kPCA n=300 -> 10, 10 MLP epochs, distinct_row_share 1.0. "
    "Child set-up dominates; control for kPCA, container and memory changes.",
    0.95,
)

CONTACT = _recognition(
    "contact",
    ("--set", "train_per_class=42", "--set", "test_per_class=5"),
    12,
    ("in_distribution.train", "in_distribution.test",
     "interpolated.test", "out_of_distribution.test"),
    "Wide chain: 1,119 spectra x 21,001 bins, kPCA n=504 -> 500, 12 MLP epochs, distinct_row_share 1.0. "
    "Gram+eigh, transform, container I/O, RSS and the 500->400 layer weigh in.",
    0.90,
)

POLICY = Workload(
    name="policy",
    why="200 demo episodes (~3,000 pairs, ~450 distinct windows, distinct_row_share ~0.15), "
        "5 MLP epochs, 300 eval episodes. Duplicate-row training, per-row inference; "
        "no signal/features.",
    stages=(
        Stage("data",
              lambda seed, out: ["sim", "demos", "--episodes", "200", "--regime", "interpolated",
                                 "--seed", str(seed), "--out", out],
              ("sim/demos.jsonl",)),
        Stage("train",
              lambda seed, out: ["sim", "train-policy", *fixed_epochs(5),
                                 "--seed", str(seed), "--out", out],
              ("sim/policy.vcas", "sim/policy_history.json")),
        Stage("eval",
              lambda seed, out: ["sim", "eval-policy", "--regime", "fixed", "--episodes", "300",
                                 "--seed", str(seed), "--out", out],
              ("sim/eval_fixed.json",)),
    ),
    data_files=("sim/demos.jsonl",),
    model_files=("sim/policy.vcas",),
    quality_file="sim/eval_fixed.json",
    quality_bar=0.90,
    quality=lambda payload: float(payload["success_rate"]),
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (GRASP, CONTACT, POLICY)}


def read_quality(wl: Workload, out: Path) -> float:
    return wl.quality(json.loads((out / wl.quality_file).read_text()))


def total_bytes(out: Path, files: tuple[str, ...]) -> int:
    return sum((out / f).stat().st_size for f in files)
