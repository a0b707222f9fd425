import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import vcas.cli
import vcas.pipeline
from vcas import features
from vcas.cli import build_parser, config_from_args, main, parse_kv_text
from vcas.container import read_container, write_container
from vcas.errors import NumericalError, ParameterError
from vcas.features import load_kpca, save_kpca
from vcas.learn import ConfusionMatrix, TrainConfig, write_confusion_csv
from vcas.pipeline import (
    RunConfig,
    dataset_path,
    plan_synthesis,
    read_dataset,
    synth_task_data,
    write_dataset,
)
from vcas.plants import default_preset_path
from vcas.signal import N_BINS, SWEEP_POINTS

TINY_GRASP = [
    "--set", "sessions_train=2",
    "--set", "sessions_test=1",
    "--set", "train_per_class=2",
    "--set", "test_per_class=2",
    "--set", "n_components=3",
    "--set", "max_epochs=3",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny grasp workflow: synth-data, train, eval."""
    out = tmp_path_factory.mktemp("ws")
    for command in ("synth-data", "train", "eval"):
        rc = main([command, "--task", "grasp", *TINY_GRASP, "--out", str(out)])
        assert rc == 0, command
    return out


# -------------------------------------------------------------- parsing


def test_parse_kv_text():
    text = "# comment\nseed = 3\n\nband=low  # trailing\n"
    assert parse_kv_text(text) == {"seed": "3", "band": "low"}


def test_parse_kv_text_rejects_bare_words():
    with pytest.raises(ParameterError, match="cfg:2"):
        parse_kv_text("a=1\nnonsense\n", origin="cfg")


def test_config_precedence_file_then_set_then_flags(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("task=grasp\nseed=5\ntrain_per_class=7\nband=low\n")
    parser = build_parser()
    args = parser.parse_args(
        [
            "synth-data", "--config", str(cfg_file),
            "--set", "train_per_class=9", "--seed", "3",
        ]
    )
    cfg = config_from_args(args)
    assert cfg.task == "grasp"
    assert cfg.band == "low"  # from file, no override
    assert cfg.train_per_class == 9  # --set beats the file
    assert cfg.seed == 3  # flag beats everything


def test_unknown_config_key_is_rejected():
    parser = build_parser()
    args = parser.parse_args(["synth-data", "--task", "object", "--set", "depth=3"])
    with pytest.raises(ParameterError, match="depth"):
        config_from_args(args)


def test_task_is_required():
    parser = build_parser()
    args = parser.parse_args(["synth-data"])
    with pytest.raises(ParameterError, match="task"):
        config_from_args(args)


def test_conditions_parse_from_kv():
    parser = build_parser()
    args = parser.parse_args(
        ["synth-data", "--task", "pose", "--set", "conditions=in_distribution"]
    )
    assert config_from_args(args).conditions == ("in_distribution",)


# A non-default value for every TrainConfig field.
TRAIN_SETTINGS = {
    "step_size": 0.01,
    "batch_size": 8,
    "max_epochs": 7,
    "patience": 3,
    "min_delta": 0.001,
    "validation_fraction": 0.2,
    "seed": 5,
}


def test_every_train_config_field_is_a_config_key():
    assert set(TRAIN_SETTINGS) == {f.name for f in fields(TrainConfig)}
    sets = [a for k, v in TRAIN_SETTINGS.items() for a in ("--set", f"{k}={v}")]
    parser = build_parser()
    for argv in (["train", "--task", "grasp", *sets], ["sim", "train-policy", *sets]):
        assert config_from_args(parser.parse_args(argv)).train == TrainConfig(
            **TRAIN_SETTINGS
        )


def test_epochs_flag_sets_max_epochs():
    args = build_parser().parse_args(["sim", "train-policy", "--epochs", "4"])
    assert config_from_args(args).train == TrainConfig(max_epochs=4)


@pytest.mark.parametrize(
    "command",
    [
        ["synth-data", "--task", "grasp"],
        ["train", "--task", "grasp"],
        ["sim", "demos"],
        ["sim", "train-policy"],
        ["sim", "eval-policy"],
        ["sim", "rollout"],
    ],
    ids=" ".join,
)
def test_negative_seed_exits_1(command, tmp_path, capsys):
    assert main([*command, "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")


# Every flag of each config command: flag -> (config key, a non-default value).
_RUN_FLAGS = {"--seed": ("seed", 3), "--task": ("task", "pose"), "--band": ("band", "low")}
_SIM_FLAGS = {
    "--seed": ("seed", 3),
    "--obs": ("obs", "identity"),
    "--obs-accuracy": ("obs_accuracy", 0.5),
}
COMMAND_FLAGS = {
    "synth-data": _RUN_FLAGS,
    "train": _RUN_FLAGS,
    "eval": _RUN_FLAGS,
    "sim demos": {
        **_SIM_FLAGS,
        "--episodes": ("episodes", 7),
        "--regime": ("regime", "fixed"),
        "--window": ("window_length", 3),
    },
    "sim train-policy": {
        "--seed": ("seed", 3),
        "--demos": ("demos", "d.jsonl"),
        "--epochs": ("max_epochs", 4),
    },
    "sim eval-policy": {
        **_SIM_FLAGS,
        "--policy": ("policy", "p.vcas"),
        "--regime": ("regime", "interpolated"),
        "--episodes": ("episodes", 7),
        "--mode": ("mode", "sample"),
    },
    "sim rollout": {
        **_SIM_FLAGS,
        "--policy": ("policy", "p.vcas"),
        "--start": ("start", "10,20"),
        "--max-steps": ("max_steps", 9),
        "--mode": ("mode", "sample"),
    },
}

_RUN_KEYS = {
    "task", "band", "n_components", "preset", "sessions_train", "sessions_test",
    "train_per_class", "test_per_class", "conditions", *TRAIN_SETTINGS,
}
_SIM_KEYS = {"obs", "obs_accuracy", "seed"}
COMMAND_KEYS = {
    "synth-data": _RUN_KEYS,
    "train": _RUN_KEYS,
    "eval": _RUN_KEYS,
    "sim demos": _SIM_KEYS | {"episodes", "regime", "window_length"},
    "sim train-policy": {"demos", *TRAIN_SETTINGS},
    "sim eval-policy": _SIM_KEYS | {"policy", "regime", "episodes", "mode"},
    "sim rollout": _SIM_KEYS | {"policy", "start", "max_steps", "mode"},
}


def _command_argv(command: str) -> list[str]:
    """The command's words, plus --task for the commands that need one."""
    return command.split() + ([] if command.startswith("sim") else ["--task", "grasp"])


def _config_value(cfg, key: str):
    return getattr(cfg, key) if hasattr(cfg, key) else getattr(cfg.train, key)


def _subparser(parser, words: list[str]):
    for word in words:
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, flags in COMMAND_FLAGS.items() for f in flags],
    ids=lambda v: v,
)
def test_each_flag_sets_its_config_key(command, flag):
    key, value = COMMAND_FLAGS[command][flag]
    parser = build_parser()
    default = config_from_args(parser.parse_args(_command_argv(command)))
    args = parser.parse_args([*_command_argv(command), flag, str(value)])
    assert _config_value(default, key) != value
    assert _config_value(config_from_args(args), key) == value


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_has_exactly_its_flags_and_config_keys(command):
    parser = build_parser()
    options = {
        s for a in _subparser(parser, command.split())._actions for s in a.option_strings
    }
    common = {"-h", "--help", "--config", "--set", "--out"}
    assert options == common | set(COMMAND_FLAGS[command])
    accepted = set()
    for key in set().union(*COMMAND_KEYS.values()):
        args = parser.parse_args([*_command_argv(command), "--set", f"{key}=1"])
        try:
            config_from_args(args)
        except ParameterError as exc:
            if "unknown config key" in str(exc):
                continue
        accepted.add(key)
    assert accepted == COMMAND_KEYS[command]


@pytest.mark.parametrize(
    "command, key",
    [
        ("sim demos", "regime"),
        ("sim eval-policy", "regime"),
        ("sim eval-policy", "mode"),
        ("sim rollout", "mode"),
    ],
    ids=lambda v: v,
)
@pytest.mark.parametrize("source", ["flag", "set", "config"])
def test_a_bad_choice_exits_1_from_any_source_before_any_file_is_read(
    command, key, source, tmp_path, capsys
):
    # The missing --obs file (and policy file) would exit 2 if read first.
    argv = [*command.split(), "--obs", str(tmp_path / "missing.csv")]
    if "policy" in COMMAND_KEYS[command]:
        argv += ["--policy", str(tmp_path / "missing.vcas")]
    if source == "flag":
        argv += [f"--{key}", "bogus"]
    elif source == "set":
        argv += ["--set", f"{key}=bogus"]
    else:
        (tmp_path / "run.cfg").write_text(f"{key}=bogus\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and key in err, err
    assert not out.exists()


# ------------------------------------------------------------ workflow


def test_synth_data_artifacts(workspace):
    data_dir = workspace / "grasp" / "data"
    assert (data_dir / "in_distribution.train.vcas").exists()
    assert (data_dir / "in_distribution.test.vcas").exists()
    assert (data_dir / "perturbed.test.vcas").exists()
    assert not (data_dir / "perturbed.train.vcas").exists()


def test_train_artifacts(workspace):
    mdir = workspace / "grasp" / "models"
    assert (mdir / "kpca_full.vcas").exists()
    assert (mdir / "mlp_full.vcas").exists()
    assert (mdir / "evr_full.csv").exists()
    history = json.loads((mdir / "history_full.json").read_text())
    assert history["task"] == "grasp"
    assert history["n_components"] == 3
    assert len(history["evr_cumulative"]) == 3


def test_eval_artifacts(workspace):
    edir = workspace / "grasp" / "eval"
    metrics = json.loads((edir / "metrics_full.json").read_text())
    conditions = {r["condition"] for r in metrics["rows"]}
    assert conditions == {"in_distribution", "perturbed"}
    assert all(r["metric"] == "accuracy" for r in metrics["rows"])
    assert (edir / "confusion_full_in_distribution.csv").exists()


def test_report_from_metrics(workspace, tmp_path):
    metrics = workspace / "grasp" / "eval" / "metrics_full.json"
    rc = main(["report", str(metrics), "--out", str(tmp_path)])
    assert rc == 0
    table = (tmp_path / "report.csv").read_text().strip().splitlines()
    header = table[0].split(",")
    assert header[:4] == ["task", "band", "range_khz", "condition"]
    assert len(table) == 3  # header + one row per condition
    md = (tmp_path / "report.md").read_text()
    assert "| task | band | range_khz | condition |" in md
    assert "0.02-22.05" in table[1]


def test_report_is_deterministic(workspace, tmp_path):
    metrics = workspace / "grasp" / "eval" / "metrics_full.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["report", str(metrics), "--out", str(out_a)]) == 0
    assert main(["report", str(metrics), "--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.md").read_bytes() == (out_b / "report.md").read_bytes()


def test_eval_without_models_exits_2(tmp_path):
    rc = main(["eval", "--task", "grasp", "--out", str(tmp_path)])
    assert rc == 2


def test_train_without_data_exits_2(tmp_path):
    rc = main(["train", "--task", "grasp", "--out", str(tmp_path)])
    assert rc == 2


def _spoil_rows(path: Path, spoil) -> None:
    """Rewrite a grasp dataset file with spoil(rows) applied to its rows."""
    ds = read_dataset(path)
    spoil(ds.rows)
    write_dataset(ds, path, "grasp", "in_distribution")


def _nan_in_last_block(rows):
    rows[3, -100] = np.nan


def _zero_row(rows):
    rows[3] = 0.0


# name: (spoil the train file, exit code, error message)
_SPOILED_TRAIN_FILES = {
    "truncated": (
        lambda path: os.truncate(path, path.stat().st_size - 8),
        2, "truncated or corrupt container",
    ),
    "non-finite row": (
        lambda path: _spoil_rows(path, _nan_in_last_block), 1, "rows must be finite"
    ),
    "all-zero row": (
        lambda path: _spoil_rows(path, _zero_row), 1, "rows contains an all-zero row"
    ),
}


@pytest.mark.parametrize("case", sorted(_SPOILED_TRAIN_FILES))
def test_train_on_a_spoiled_train_file_exits_with_one_error_and_no_models(
    workspace, tmp_path, capsys, case
):
    spoil, code, message = _SPOILED_TRAIN_FILES[case]
    shutil.copytree(workspace / "grasp" / "data", tmp_path / "grasp" / "data")
    spoil(tmp_path / "grasp" / "data" / "in_distribution.train.vcas")
    capsys.readouterr()
    rc = main(["train", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == code
    (line,) = err.splitlines()
    assert line.startswith("error: ") and message in line
    assert out == ""
    models = [*tmp_path.rglob("kpca_*.vcas"), *tmp_path.rglob("mlp_*.vcas")]
    assert models == []


def test_bad_set_value_exits_1(tmp_path):
    rc = main(
        ["synth-data", "--task", "grasp", "--set", "max_epochs=soon",
         "--out", str(tmp_path)]
    )
    assert rc == 1


def test_report_on_unrecognized_payload_exits_2(tmp_path):
    bogus = tmp_path / "something.json"
    bogus.write_text(json.dumps({"hello": 1}))
    assert main(["report", str(bogus), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "payload",
    [{"rows": [{"task": "x"}]}, {"success_rate": 1.0}, "rows"],
    ids=["row-missing-keys", "sim-missing-regime", "string"],
)
def test_report_on_malformed_payload_exits_2(tmp_path, capsys, payload):
    bogus = tmp_path / "metrics.json"
    bogus.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["report", str(bogus), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bogus) in err[0]
    assert not out.exists()


def test_kpca_and_mlp_from_different_runs_exit_2(workspace, tmp_path, capsys):
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    args = ["--task", "grasp", *TINY_GRASP, "--set", "n_components=2"]
    assert main(["train", *args, "--out", str(tmp_path)]) == 0
    kpca_path = tmp_path / "grasp" / "models" / "kpca_full.vcas"
    shutil.copyfile(workspace / "grasp" / "models" / "kpca_full.vcas", kpca_path)
    capsys.readouterr()
    assert main(["eval", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(kpca_path) in err
    assert str(tmp_path / "grasp" / "models" / "mlp_full.vcas") in err


def test_kpca_and_mlp_of_equal_width_from_different_runs_exit_2(
    workspace, tmp_path, capsys
):
    # A second chain with another seed: same width, different fit.
    args = ["--task", "grasp", *TINY_GRASP, "--seed", "1", "--out", str(tmp_path)]
    for command in ("synth-data", "train"):
        assert main([command, *args]) == 0
    kpca_path = tmp_path / "grasp" / "models" / "kpca_full.vcas"
    shutil.copyfile(workspace / "grasp" / "models" / "kpca_full.vcas", kpca_path)
    capsys.readouterr()
    assert main(["eval", *args]) == 2
    err = capsys.readouterr().err
    assert str(kpca_path) in err
    assert str(tmp_path / "grasp" / "models" / "mlp_full.vcas") in err


def _without_train_file(workspace, tmp_path) -> Path:
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    (tmp_path / "grasp" / "data" / "in_distribution.train.vcas").unlink()
    return tmp_path


def test_eval_does_not_need_the_train_file(workspace, tmp_path, capsys):
    out = _without_train_file(workspace, tmp_path)
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(out)]) == 0
    capsys.readouterr()
    name = "grasp/eval/metrics_full.json"
    assert (out / name).read_bytes() == (workspace / name).read_bytes()


def test_eval_skips_an_optional_condition_without_a_test_file(
    workspace, tmp_path, capsys
):
    shutil.copytree(workspace / "grasp" / "models", tmp_path / "grasp" / "models")
    shutil.copytree(workspace / "grasp" / "data", tmp_path / "grasp" / "data")
    (tmp_path / "grasp" / "data" / "perturbed.test.vcas").unlink()
    capsys.readouterr()
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]) == 0
    edir = tmp_path / "grasp" / "eval"
    assert capsys.readouterr().out.split() == [
        str(edir / "metrics_full.json"),
        str(edir / "confusion_full_in_distribution.csv"),
    ]
    metrics = json.loads((edir / "metrics_full.json").read_text())
    assert [r["condition"] for r in metrics["rows"]] == ["in_distribution"]


def test_eval_without_the_in_distribution_test_file_exits_2(
    workspace, tmp_path, capsys
):
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    (tmp_path / "grasp" / "data" / "in_distribution.test.vcas").unlink()
    capsys.readouterr()
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]) == 2
    assert "run synth-data first" in capsys.readouterr().err


def test_eval_without_train_file_still_rejects_a_shared_session(workspace, tmp_path):
    out = _without_train_file(workspace, tmp_path)
    test_path = out / "grasp" / "data" / "in_distribution.test.vcas"
    test = read_dataset(test_path)
    leaked = replace(test, session_ids=np.zeros(len(test), dtype=np.int64))
    write_dataset(leaked, test_path, "grasp", "in_distribution")
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(out)]) == 1


def test_kpca_file_without_training_sessions_exits_2(workspace, tmp_path, capsys):
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    kpca_path = tmp_path / "grasp" / "models" / "kpca_full.vcas"
    with load_kpca(kpca_path) as (kpca, _):
        save_kpca(kpca, kpca_path)  # same fit, no session list
    capsys.readouterr()
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]) == 2
    assert "lists no training sessions" in capsys.readouterr().err


def _rewrite_as_version_1(path: Path) -> None:
    """Rewrite a container in format 1: no dtype byte, every array <f8."""
    kind, arrays, meta = read_container(path)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    raw = b"VCAS" + struct.pack("<HHI", 1, kind, len(meta_bytes)) + meta_bytes
    raw += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        raw += struct.pack("<H", len(name)) + name.encode("utf-8")
        raw += struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
        raw += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    path.write_bytes(raw)


@pytest.mark.parametrize("command, name", [
    ("train", "data/in_distribution.train.vcas"),
    ("eval", "data/in_distribution.test.vcas"),
    ("eval", "models/kpca_full.vcas"),
    ("eval", "models/mlp_full.vcas"),
])
def test_a_version_1_input_exits_2_naming_the_commands_to_rerun(
    workspace, tmp_path, capsys, command, name
):
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    _rewrite_as_version_1(tmp_path / "grasp" / name)
    capsys.readouterr()
    rc = main([command, "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 2
    (line,) = err.splitlines()
    path = tmp_path / "grasp" / name
    assert line.startswith(f"error: unsupported container version 1 in {path} ")
    assert "rerun the commands that wrote it (synth-data, then train" in line


# A child's ru_maxrss counts the resident set it was forked from, so the
# children are started from a small launcher, not from the test process.
_PEAK_RSS_LAUNCHER = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{argv} failed")
    peaks.append(usage.ru_maxrss * 1024)  # kilobytes on Linux
print(json.dumps(peaks))
"""


def _peak_rss(*argvs: list[str]) -> list[int]:
    """Peak RSS in bytes of a fresh interpreter run with each argv."""
    src = str(Path(vcas.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_eval_peak_memory_is_bounded_by_the_files_it_reads(tmp_path, capsys):
    # Default grasp training sizes, 200 components and 300-row test
    # files: each test file stores 25 MB of float32 rows (50 MB once
    # widened) and the projection 34 MB, so holding either breaks the
    # bound.
    n_components = 200
    args = ["--task", "grasp", "--set", "test_per_class=100",
            "--set", f"n_components={n_components}", "--set", "max_epochs=2",
            "--out", str(tmp_path)]
    for command in ("synth-data", "train"):
        assert main([command, *args]) == 0
    capsys.readouterr()
    grasp = tmp_path / "grasp"
    bare, peak = _peak_rss(
        ["-c", "import vcas.cli"],
        ["-c", "from vcas.cli import run; run()", "eval", *args],
    )
    n_test = 0
    for path in (grasp / "data").glob("*.test.vcas"):
        with vcas.pipeline.read_dataset_lazily(path) as test:
            n_test = max(n_test, len(test))
    # eval reads the test rows and the projection in column blocks, so
    # it holds one block of test rows widened to float64 (n_test x 2,048
    # bins, 4.9 MB) and its finite-check mask, one block of projection
    # rows (2,048 x 200, 3.3 MB), the embeddings and their block
    # product, and the MLP (its file's bytes).  The fixed 8 MB holds the
    # labels, the MLP's activations, the allocator's arena and the
    # staging buffer that float32 rows are read through
    # (container._STAGING_BYTES, 64 KB); threaded OpenBLAS touches
    # about 5 MB of gemm buffers per thread.  Nothing here grows with
    # the bins of a row or of the projection.
    block = n_test * features._BLOCK_BINS * (np.dtype(np.float64).itemsize + 1)
    projection_block = features._BLOCK_BINS * n_components * 8
    embeddings = 2 * n_test * n_components * 8
    mlp = (grasp / "models" / "mlp_full.vcas").stat().st_size
    if hasattr(os, "sched_getaffinity"):
        threads = len(os.sched_getaffinity(0))
    else:
        threads = os.cpu_count()
    slack = 8 * 2**20 + threads * 5 * 2**20
    bound = bare + block + projection_block + embeddings + mlp + slack
    assert peak <= bound, f"eval peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_train_peak_memory_is_bounded_by_the_files_it_writes(tmp_path, capsys):
    # Default grasp sizes: 300 training rows of 21,001 bins, stored as
    # float32 (24 MB; 48 MB once widened).  At 200 components, as in the
    # eval test, the projection is 21,001 x 200 doubles (34 MB).
    n_components = 200
    args = ["--task", "grasp", "--set", f"n_components={n_components}",
            "--set", "max_epochs=2", "--out", str(tmp_path)]
    assert main(["synth-data", *args]) == 0
    capsys.readouterr()
    grasp = tmp_path / "grasp"
    bare, peak = _peak_rss(
        ["-c", "import vcas.cli"],
        ["-c", "from vcas.cli import run; run()", "train", *args],
    )
    n_rows = len(read_dataset(grasp / "data" / "in_distribution.train.vcas"))
    # train reads its rows one column block at a time, widened to
    # float64 (n x 2,048 bins, 4.9 MB), so it holds one block and its
    # finite-check mask, the n x n Gram, its product buffer and the
    # eigensolver's copy, eigenvectors and workspace (under 8 n^2
    # doubles), the labels, one block of projection rows (2,048 x 200,
    # 3.3 MB) on its way to the kPCA file, and the MLP (its file's
    # bytes: parameters; its Adam moments and best copy are each as
    # large again, 0.3 MB in all at 200 components); the fixed 8 MB
    # covers those, the embeddings and the 64 KB staging buffer that
    # float32 rows are read through.  Threaded OpenBLAS touches about
    # 5 MB of gemm buffers per thread.  Nothing here grows with the
    # bins, so holding the rows or the projection breaks it.
    block = n_rows * features._BLOCK_BINS * np.dtype(np.float64).itemsize
    projection_block = features._BLOCK_BINS * n_components * 8
    mlp = (grasp / "models" / "mlp_full.vcas").stat().st_size
    if hasattr(os, "sched_getaffinity"):
        threads = len(os.sched_getaffinity(0))
    else:
        threads = os.cpu_count()
    slack = 8 * 2**20 + threads * 5 * 2**20
    bound = bare + mlp + projection_block + block + 8 * n_rows**2 * 8 + slack
    assert peak <= bound, (
        f"train peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"
    )


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_synth_data_peak_memory_is_bounded_by_the_files_it_writes(tmp_path):
    # The benchmark's contact sizes: 1,119 rows of 21,001 bins (90 MB as
    # float32) from 155 jobs, whose clean responses take 25 MB as float32
    # and 50 MB as float64 (MB = 2**20 bytes, as RSS is counted here).
    sizes = {"train_per_class": 42, "test_per_class": 5}
    args = ["synth-data", "--task", "contact", "--out", str(tmp_path)]
    for key, value in sizes.items():
        args += ["--set", f"{key}={value}"]
    bare, peak = _peak_rss(
        ["-c", "import vcas.cli"], ["-c", "from vcas.cli import run; run()", *args]
    )
    plan = plan_synthesis(RunConfig(task="contact", **sizes))
    n_samples = SWEEP_POINTS
    # Clean responses are held as float32, one row per job.
    clean = len(plan.jobs) * n_samples * np.dtype("<f4").itemsize
    # Each pool worker holds its chunk's clean response widened to
    # float64, its chunk buffers (4 noisy rows, their complex spectrum
    # and their magnitudes in the stored row dtype: 3.0 MB) and about
    # 2 MB of rfft working copies and allocator arena; the fixed 8 MB
    # holds the modal filter's block buffers, the labels and the thread
    # pool's imports.  Nothing here grows with the rows written, so
    # holding the rows (90 MB) or float64 clean responses (25 MB more)
    # breaks the bound.
    row_item = vcas.pipeline.ROWS_DTYPE.itemsize
    chunk_buffers = n_samples * 8 + 4 * (n_samples * 8 + N_BINS * (16 + row_item))
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count()
    bound = bare + clean + 8 * 2**20 + workers * (chunk_buffers + 2 * 2**20)
    assert peak <= bound, (
        f"synth-data peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"
    )


# Small configurations of every task shape: class labels, regression
# targets, and all three contact conditions.
_SYNTH_CASES = {
    "grasp": ["--task", "grasp", *TINY_GRASP],
    "pose": [
        "--task", "pose", "--set", "sessions_train=1", "--set", "train_per_class=1",
        "--set", "test_per_class=1",
    ],
    "contact": [
        "--task", "contact", "--set", "sessions_train=1", "--set", "train_per_class=3",
        "--set", "test_per_class=2",
    ],
}


@pytest.mark.parametrize("case", sorted(_SYNTH_CASES))
def test_synth_data_files_equal_write_dataset_of_the_in_memory_datasets(
    tmp_path, monkeypatch, capsys, case
):
    args = ["synth-data", *_SYNTH_CASES[case]]
    cfg = config_from_args(build_parser().parse_args(args))
    data = synth_task_data(cfg)
    for (cond, split), ds in data.items():
        path = dataset_path(tmp_path / "ref", cfg.task, cond, split)
        write_dataset(ds, path, cfg.task, cond)
    want = {p.relative_to(tmp_path / "ref"): p.read_bytes()
            for p in (tmp_path / "ref").rglob("*.vcas")}
    if case == "contact":
        assert len(want) == 4  # in_distribution train and test, two test-only

    pools = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def recording_pool(n_workers):
        pools.append(n_workers)
        return real_pool(n_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    for n_cpus in (1, 4):
        monkeypatch.setattr(
            vcas.pipeline.os, "sched_getaffinity", lambda pid, n=n_cpus: set(range(n)),
            raising=False,
        )
        out = tmp_path / f"cpus{n_cpus}"
        assert main([*args, "--out", str(out)]) == 0
        got = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.vcas")}
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == want[name], (n_cpus, name)
        assert list(out.rglob("*.tmp")) == []
    assert pools == [1, 4]


def test_synth_data_failing_in_a_worker_keeps_the_old_datasets(
    tmp_path, monkeypatch, capsys
):
    args = ["synth-data", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]
    assert main(args) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*.vcas")}
    assert len(before) == 3
    real_response = vcas.pipeline.modal_response

    def response_with_a_nan(plants, excitation, out):
        out = real_response(plants, excitation, out)
        out[-1, 100] = np.nan
        return out

    monkeypatch.setattr(vcas.pipeline, "modal_response", response_with_a_nan)
    capsys.readouterr()
    assert main([*args, "--seed", "1"]) == 1
    assert "waveform samples must be finite" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*.vcas")} == before
    assert list(tmp_path.rglob("*.tmp")) == []


def test_numerical_error_exits_3(monkeypatch, tmp_path):
    def diverge(args, out_dir):
        raise NumericalError("loss is NaN")

    monkeypatch.setattr(vcas.cli, "_dispatch", diverge)
    assert main(["train", "--task", "grasp", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("earlier_models", [False, True])
def test_an_mlp_failing_after_the_projection_leaves_no_pair_eval_scores(
    workspace, tmp_path, monkeypatch, capsys, earlier_models
):
    # train writes the kPCA file before the MLP trains.  If the MLP then
    # fails, eval must not score the new kPCA file with no MLP or with
    # an MLP from an earlier train run.
    shutil.copytree(workspace / "grasp" / "data", tmp_path / "grasp" / "data")
    models = tmp_path / "grasp" / "models"
    if earlier_models:
        shutil.copytree(workspace / "grasp" / "models", models)
    args = ["--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]
    kpca_path = models / "kpca_full.vcas"
    streamed = []

    def diverge(*a, **kw):
        with load_kpca(kpca_path) as (kpca, _):
            streamed.append(kpca.n_components)
        raise NumericalError("loss is NaN")

    monkeypatch.setattr(vcas.pipeline, "mlp_train", diverge)
    assert main(["train", *args, "--set", "n_components=2"]) == 3
    assert streamed == [2]
    assert list(models.rglob(".*")) == []  # no temporary file is left
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["eval", *args]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    if earlier_models:
        assert "come from different train runs" in line
    else:
        assert line == f"error: no model at {models / 'mlp_full.vcas'}; run train first"
    assert not (tmp_path / "grasp" / "eval").exists()


def _edit_container(path: Path, edit) -> None:
    kind, arrays, meta = read_container(path)
    edit(arrays, meta)
    write_container(path, kind, arrays, meta)


def _projection_noise(arrays: dict, meta: dict) -> None:
    rng = np.random.default_rng(0)
    arrays["projection"] = rng.standard_normal(arrays["projection"].shape)


def _older_fit_id(arrays: dict, meta: dict) -> None:
    # Before the projection was hashed, a fit id named the eigenvalues
    # and offset alone.
    meta["fit_id"] = hashlib.sha256(
        arrays["eigenvalues"].tobytes() + arrays["offset"].tobytes()
    ).hexdigest()


@pytest.mark.parametrize("case", ["kpca offset edited", "kpca projection replaced",
                                  "no fit_id in either file", "a pair from an older vcas"])
def test_eval_refuses_a_kpca_file_that_is_not_its_mlps_fit(
    workspace, tmp_path, capsys, case
):
    # The kPCA file's fit is the hash of its own eigenvalues, offset and
    # projection, so neither a fit_id left in its metadata nor a missing
    # one pairs it.
    for part in ("data", "models"):
        shutil.copytree(workspace / "grasp" / part, tmp_path / "grasp" / part)
    models = tmp_path / "grasp" / "models"
    kpca_path, mlp_path = models / "kpca_full.vcas", models / "mlp_full.vcas"
    mlp_fit = read_container(mlp_path)[2]["fit_id"]
    if case == "kpca offset edited":
        _edit_container(
            kpca_path,
            lambda a, m: (a.update(offset=a["offset"] + 1.0), m.update(fit_id=mlp_fit)),
        )
    elif case == "kpca projection replaced":
        _edit_container(kpca_path, _projection_noise)
    elif case == "no fit_id in either file":
        _edit_container(mlp_path, lambda a, m: m.pop("fit_id"))
    else:
        kpca_arrays = read_container(kpca_path)[1]
        _edit_container(mlp_path, lambda a, m: _older_fit_id(kpca_arrays, m))
    capsys.readouterr()
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {mlp_path} was trained on")
    assert f"{kpca_path} holds fit" in line and line.endswith("; rerun train")
    assert not (tmp_path / "grasp" / "eval").exists()


def test_files_with_the_metadata_keys_of_earlier_versions_still_read(
    workspace, sim_workspace, tmp_path
):
    # Datasets used to store bin_hz, kPCA files their fit_id and policies
    # their window_length; readers ignore those keys.
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    shutil.copytree(sim_workspace / "sim", tmp_path / "sim")
    for path in (tmp_path / "grasp" / "data").glob("*.vcas"):
        _edit_container(path, lambda a, m: m.update(bin_hz=1.05))
    kpca_path = tmp_path / "grasp" / "models" / "kpca_full.vcas"
    with load_kpca(kpca_path) as (kpca, _):
        fit_id = kpca.fit_id
    _edit_container(kpca_path, lambda a, m: m.update(fit_id=fit_id))
    _edit_container(tmp_path / "sim" / "policy.vcas",
                    lambda a, m: m.update(window_length=10))
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]) == 0
    name = "grasp/eval/metrics_full.json"
    assert (tmp_path / name).read_bytes() == (workspace / name).read_bytes()
    fresh = tmp_path / "fresh"
    shutil.copytree(sim_workspace / "sim", fresh / "sim")
    for out in (tmp_path, fresh):
        argv = ["sim", "eval-policy", "--episodes", "20", "--obs", "identity"]
        assert main([*argv, "--out", str(out)]) == 0
    name = "sim/eval_fixed.json"
    assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "synth-data" in capsys.readouterr().out


# ------------------------------------------------------------------ sim


@pytest.fixture(scope="module")
def sim_workspace(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim_ws")
    rc = main(
        ["sim", "demos", "--episodes", "60", "--regime", "interpolated",
         "--obs", "identity", "--out", str(out)]
    )
    assert rc == 0
    rc = main(
        ["sim", "train-policy", "--epochs", "15", "--out", str(out)]
    )
    assert rc == 0
    return out


def test_sim_demos_artifact(sim_workspace):
    lines = (sim_workspace / "sim" / "demos.jsonl").read_text().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert len(rec["window"]) == 10
    assert rec["action"] in (0, 1)


def test_sim_train_policy_artifacts(sim_workspace):
    assert (sim_workspace / "sim" / "policy.vcas").exists()
    history = json.loads((sim_workspace / "sim" / "policy_history.json").read_text())
    assert history["window_length"] == 10
    assert history["n_epochs"] >= 1


def test_sim_eval_policy(sim_workspace):
    rc = main(
        ["sim", "eval-policy", "--episodes", "20", "--regime", "fixed",
         "--obs", "identity", "--out", str(sim_workspace)]
    )
    assert rc == 0
    report = json.loads((sim_workspace / "sim" / "eval_fixed.json").read_text())
    assert report["n_episodes"] == 20
    assert report["success_rate"] == 1.0


def test_sim_rollout_prints_trace(sim_workspace, capsys):
    rc = main(
        ["sim", "rollout", "--policy", "expert", "--start", "45,45",
         "--obs", "identity", "--out", str(sim_workspace)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    trace = json.loads(out[: out.rindex("}") + 1])
    assert trace["success"] is True
    assert trace["length"] == 20
    stored = json.loads((sim_workspace / "sim" / "rollout.json").read_text())
    assert stored == trace


def test_sim_rollout_with_csv_observation_model(sim_workspace, tmp_path, capsys):
    # A contact confusion matrix as eval writes it: lexicographic labels.
    counts = np.array([[18, 0, 2], [0, 19, 1], [1, 1, 18]])
    csv = write_confusion_csv(
        ConfusionMatrix(counts, ("diagonal", "in_hole", "line")), tmp_path / "obs.csv"
    )
    rc = main(
        ["sim", "rollout", "--policy", str(sim_workspace / "sim" / "policy.vcas"),
         "--start", "85.5,85.5", "--obs", str(csv), "--out", str(tmp_path)]
    )
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "sim" / "rollout.json").exists()


@pytest.mark.parametrize("accuracy", ["7", "0", "-0.5", "nan"])
@pytest.mark.parametrize("obs", ["default", "identity", "csv"])
@pytest.mark.parametrize("command", ["rollout", "eval-policy"])
def test_an_obs_accuracy_outside_0_1_exits_1_whatever_the_channel(
    sim_workspace, tmp_path, capsys, command, obs, accuracy
):
    if obs == "csv":
        counts = np.array([[18, 0, 2], [0, 19, 1], [1, 1, 18]])
        labels = ("diagonal", "in_hole", "line")
        obs = str(write_confusion_csv(ConfusionMatrix(counts, labels), tmp_path / "o.csv"))
    policy = str(sim_workspace / "sim" / "policy.vcas")
    argv = ["sim", command, "--policy", policy, "--obs", obs, "--obs-accuracy", accuracy]
    if command == "eval-policy":
        argv += ["--episodes", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: obs_accuracy must be"), err
    assert not (tmp_path / "sim").exists()


def test_sim_train_policy_defaults_to_train_config(sim_workspace, monkeypatch):
    class Recorded(Exception):
        pass

    def record(demos, cfg):
        raise Recorded(cfg)

    monkeypatch.setattr(vcas.cli, "policy_train", record)
    with pytest.raises(Recorded) as caught:
        main(["sim", "train-policy", "--out", str(sim_workspace)])
    assert caught.value.args[0] == TrainConfig()


def test_sim_train_policy_unknown_key_exits_1(sim_workspace, capsys):
    argv = ["sim", "train-policy", "--set", "depth=3", "--out", str(sim_workspace)]
    assert main(argv) == 1
    assert "depth" in capsys.readouterr().err


def test_sim_eval_policy_rejects_a_recognition_mlp(workspace, tmp_path, capsys):
    mlp = workspace / "grasp" / "models" / "mlp_full.vcas"
    assert main(["sim", "eval-policy", "--policy", str(mlp), "--out", str(tmp_path)]) == 2
    assert f"{mlp} is not a policy" in capsys.readouterr().err


def test_sim_eval_policy_rejects_a_policy_file_of_the_retired_kind(tmp_path, capsys):
    # Policies used to be their own payload kind, tag 6, with this layout.
    arrays = {"w0": np.zeros((40, 2)), "b0": np.zeros(2)}
    path = write_container(
        tmp_path / "policy.vcas", 6, arrays, {"n_layers": 1, "window_length": 10}
    )
    assert main(["sim", "eval-policy", "--policy", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown payload kind 6" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["min_delta=nan", "min_delta=inf", "step_size=inf"])
def test_a_non_finite_training_setting_exits_1_before_the_demos_are_read(
    setting, tmp_path, capsys
):
    # There is no demo file under tmp_path: reading it would exit 2.
    assert main(["sim", "train-policy", "--set", setting, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and setting.split("=")[0] in err, err


def test_sim_demos_zero_episodes_exits_1(tmp_path):
    rc = main(
        ["sim", "demos", "--episodes", "0", "--obs", "identity",
         "--out", str(tmp_path)]
    )
    assert rc == 1


def test_sim_eval_policy_without_model_exits_2(tmp_path):
    rc = main(["sim", "eval-policy", "--out", str(tmp_path)])
    assert rc == 2


def test_sim_bad_start_exits_1(sim_workspace, tmp_path):
    rc = main(
        ["sim", "rollout", "--policy", "expert", "--start", "everywhere",
         "--obs", "identity", "--out", str(tmp_path)]
    )
    assert rc == 1


_FORMAT = "--start expects THETA_X,THETA_Z, got {!r}"


@pytest.mark.parametrize("start, message", [
    ("everywhere", _FORMAT.format("everywhere")),
    ("45", _FORMAT.format("45")),
    ("45,45,45", _FORMAT.format("45,45,45")),
    ("45,x", _FORMAT.format("45,x")),
    ("45,46", "theta_z=46.0 is not a multiple of 4.5"),
    ("0,45", "theta_x=0.0 outside (0, 90.0]"),
])
def test_a_bad_rollout_start_exits_1_before_the_policy_is_read(
    tmp_path, capsys, start, message
):
    # No policy file exists at the path given: reading it would exit 2.
    argv = ["sim", "rollout", "--policy", str(tmp_path / "nope.vcas"),
            "--start", start, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VCAS_DATA_DIR", str(tmp_path / "from_env"))
    rc = main(["sim", "demos", "--episodes", "2", "--obs", "identity"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "from_env" / "sim" / "demos.jsonl").exists()


def test_out_flag_beats_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VCAS_DATA_DIR", str(tmp_path / "ignored"))
    rc = main(
        ["sim", "demos", "--episodes", "2", "--obs", "identity",
         "--out", str(tmp_path / "chosen")]
    )
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "chosen" / "sim" / "demos.jsonl").exists()
    assert not (tmp_path / "ignored").exists()


def test_sim_commands_start_without_scipy(tmp_path):
    """The runtime is numpy only: neither sim nor synthesis loads scipy."""
    probe = (
        "import sys\n"
        "from vcas.cli import main\n"
        "rc = main(['sim', 'demos', '--episodes', '2', '--out', sys.argv[1]])\n"
        "rc += main(['synth-data', '--task', 'grasp', '--set', 'train_per_class=1',"
        " '--set', 'test_per_class=1', '--out', sys.argv[1]])\n"
        "print(rc, sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(vcas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def _probe_bad_bytes(tmp_path: Path) -> Path:
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9=1\n")  # Latin-1, not UTF-8
    return path


def _probe_directory(tmp_path: Path) -> Path:
    path = tmp_path / "a_directory"
    path.mkdir()
    return path


def _probe_policy_directory(tmp_path: Path) -> Path:
    path = tmp_path / "sim" / "policy.vcas"
    path.mkdir(parents=True)
    return path


# Unreadable inputs: (make the input, the command given its path).
_UNREADABLE_INPUTS = {
    "config": (_probe_bad_bytes, lambda p: ["synth-data", "--task", "grasp", "--config", p]),
    "preset": (
        _probe_bad_bytes,
        lambda p: ["synth-data", "--task", "grasp", "--set", f"preset={p}"],
    ),
    "obs": (_probe_bad_bytes, lambda p: ["sim", "demos", "--episodes", "1", "--obs", p]),
    "report": (_probe_bad_bytes, lambda p: ["report", p]),
    "demos": (_probe_bad_bytes, lambda p: ["sim", "train-policy", "--demos", p]),
    "demos directory": (
        _probe_directory,
        lambda p: ["sim", "train-policy", "--demos", p],
    ),
    "policy directory": (
        _probe_policy_directory,
        lambda p: ["sim", "eval-policy", "--episodes", "1"],
    ),
}


@pytest.mark.parametrize("probe", sorted(_UNREADABLE_INPUTS))
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, capsys, probe):
    make, command = _UNREADABLE_INPUTS[probe]
    path = make(tmp_path)
    capsys.readouterr()
    assert main([*command(str(path)), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert str(path) in err
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("noise_snr_db", "NaN"),
        ("noise_snr_db", "-Infinity"),
        ("noise_snr_db", '"abc"'),
        ("classes", '{"a": [["100", 0.01, 1]], "b": [[200, 0.01, 1]]}'),
        ("classes", '{"a": [[100, true, 1]], "b": [[200, 0.01, 1]]}'),
        ("classes", '{"a": [[100, 0.01, Infinity]], "b": [[200, 0.01, 1]]}'),
    ],
    ids=["NaN", "-Infinity", '"abc"', "mode freq string", "mode damping true",
         "mode gain Infinity"],
)
def test_a_malformed_preset_exits_2_with_one_error_line(tmp_path, capsys, key, value):
    preset = json.loads(default_preset_path("grasp").read_text())
    path = tmp_path / "preset.json"
    path.write_text(json.dumps({**preset, key: "@"}).replace('"@"', value))
    capsys.readouterr()
    argv = ["synth-data", "--task", "grasp", *TINY_GRASP, "--set", f"preset={path}"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: preset {path}"), err
    assert not (tmp_path / "grasp").exists()


# Case -> (file under a grasp + sim workspace, edit of its (arrays, meta)).
# Each file stays a well-formed container; only what it holds is wrong.
_MALFORMED_VCAS = {
    "mlp without n_layers": (
        "grasp/models/mlp_full.vcas", lambda a, m: m.pop("n_layers")
    ),
    "mlp with an unknown head": (
        "grasp/models/mlp_full.vcas", lambda a, m: m.update(head="tanh")
    ),
    "policy without n_layers": ("sim/policy.vcas", lambda a, m: m.pop("n_layers")),
    "mlp label_names 'abc'": (
        "grasp/models/mlp_full.vcas", lambda a, m: m.update(label_names="abc")
    ),
    "kpca without eigenvalues": (
        "grasp/models/kpca_full.vcas", lambda a, m: a.pop("eigenvalues")
    ),
    "kpca with a short offset": (
        "grasp/models/kpca_full.vcas", lambda a, m: a.update(offset=a["offset"][:-1])
    ),
    "kpca train_sessions 'abc'": (
        "grasp/models/kpca_full.vcas", lambda a, m: m.update(train_sessions="abc")
    ),
    "kpca train_sessions [0.0]": (
        "grasp/models/kpca_full.vcas", lambda a, m: m.update(train_sessions=[0.0])
    ),
    "dataset without split": (
        "grasp/data/in_distribution.test.vcas", lambda a, m: m.pop("split")
    ),
    "dataset label_names 'abc'": (
        "grasp/data/in_distribution.test.vcas",
        lambda a, m: m.update(label_names="abc"),
    ),
    "dataset session id 2.5": (
        "grasp/data/in_distribution.test.vcas",
        lambda a, m: a.update(session_ids=a["session_ids"] + 0.5),
    ),
    "dataset targets shorter than rows": (
        "grasp/data/in_distribution.test.vcas",
        lambda a, m: a.update(targets=a["targets"][:-1]),
    ),
    "dataset target outside the labels": (
        "grasp/data/in_distribution.test.vcas",
        lambda a, m: a.update(targets=a["targets"] + 99),
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_VCAS))
def test_a_vcas_file_with_malformed_contents_exits_2_with_one_error_line(
    workspace, sim_workspace, tmp_path, capsys, case
):
    name, edit = _MALFORMED_VCAS[case]
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    shutil.copytree(sim_workspace / "sim", tmp_path / "sim")
    path = tmp_path / name
    _edit_container(path, edit)
    if name.startswith("sim/"):
        command = ["sim", "eval-policy", "--episodes", "1"]
    else:
        command = ["eval", "--task", "grasp", *TINY_GRASP]
    capsys.readouterr()
    assert main([*command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: malformed {path}: "), err


_GOOD_DEMO = '{"action": 1, "window": [null, 0]}\n'


@pytest.mark.parametrize(
    "text, where",
    [
        (_GOOD_DEMO + '{"action": 0, "window": [0, null]}\n', ":2:"),
        (_GOOD_DEMO + '{"action": 0, "window": [1]}\n', ":2:"),
        (_GOOD_DEMO + '{"action": 0, "window": [null, true]}\n', ":2:"),
        (_GOOD_DEMO + '{"action": 0, "window": [null, 1.0]}\n', ":2:"),
        (_GOOD_DEMO + '{"action": true, "window": [null, 1]}\n', ":2:"),
        (_GOOD_DEMO + '{"action": 1.0, "window": [null, 1]}\n', ":2:"),
        ("", ": demo set is empty"),
        (_GOOD_DEMO * 2, ": training labels cover a single class (rot_z)"),
    ],
    ids=["pad after an observation", "mixed window lengths", "token true",
         "token 1.0", "action true", "action 1.0", "empty file", "one action"],
)
def test_a_malformed_demo_file_exits_2_with_one_error_line(
    tmp_path, capsys, text, where
):
    path = tmp_path / "demos.jsonl"
    path.write_text(text)
    command = ["sim", "train-policy", "--demos", str(path), "--epochs", "1"]
    assert main([*command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path}{where}" in err, err
    assert not (tmp_path / "sim").exists()


def test_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys):
    assert main(["sim", "demos", "--episodes", "5", "--out", str(tmp_path)]) == 0
    path = _probe_policy_directory(tmp_path)
    capsys.readouterr()
    command = ["sim", "train-policy", "--set", "max_epochs=1", "--out", str(tmp_path)]
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {path}"), err
    assert path.is_dir()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_datasets_and_classifier_eval_are_the_same_on_one_or_two_blas_threads(
    tmp_path,
):
    # Model files, EVR and history differ in their last bits between
    # BLAS thread counts (level-3 BLAS sums in another order); the
    # datasets and the classifier's eval outputs must not.
    src = str(Path(vcas.__file__).resolve().parents[1])
    args = ["--task", "grasp", "--set", "max_epochs=3"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for command in ("synth-data", "train", "eval"):
            done = subprocess.run(
                [sys.executable, "-c", "from vcas.cli import run; run()", command,
                 *args, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
        outs.append(out)
    one, two = outs
    compared = [
        *sorted((one / "grasp" / "data").glob("*.vcas")),
        one / "grasp" / "eval" / "metrics_full.json",
        *sorted((one / "grasp" / "eval").glob("confusion_*.csv")),
    ]
    assert len(compared) == 6
    for path in compared:
        assert path.read_bytes() == (two / path.relative_to(one)).read_bytes(), path
