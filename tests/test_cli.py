import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import vcas.cli
from vcas.cli import build_parser, config_from_args, main, parse_kv_text
from vcas.container import write_container
from vcas.envsim import ObservationModel, observation_model_to_csv
from vcas.errors import NumericalError, ParameterError
from vcas.features import load_kpca, save_kpca
from vcas.learn import TrainConfig
from vcas.pipeline import read_dataset, write_dataset

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


def test_eval_without_train_file_still_rejects_a_shared_session(workspace, tmp_path):
    out = _without_train_file(workspace, tmp_path)
    test_path = out / "grasp" / "data" / "in_distribution.test.vcas"
    test, meta = read_dataset(test_path)
    leaked = replace(test, session_ids=np.zeros(len(test), dtype=np.int64))
    write_dataset(leaked, test_path, "grasp", "in_distribution", meta["bin_hz"])
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(out)]) == 1


def test_kpca_file_without_training_sessions_exits_2(workspace, tmp_path, capsys):
    shutil.copytree(workspace / "grasp", tmp_path / "grasp")
    kpca_path = tmp_path / "grasp" / "models" / "kpca_full.vcas"
    kpca, _ = load_kpca(kpca_path)
    save_kpca(kpca, kpca_path)  # same fit, no session list
    capsys.readouterr()
    assert main(["eval", "--task", "grasp", *TINY_GRASP, "--out", str(tmp_path)]) == 2
    assert "lists no training sessions" in capsys.readouterr().err


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
    # Default grasp sizes: the train file (300 rows) outweighs the two
    # test files (75 rows each), so reading it would break the bound.
    args = ["--task", "grasp", "--set", "n_components=3", "--set", "max_epochs=2",
            "--out", str(tmp_path)]
    for command in ("synth-data", "train"):
        assert main([command, *args]) == 0
    capsys.readouterr()
    grasp = tmp_path / "grasp"
    read = [grasp / "models" / "kpca_full.vcas", grasp / "models" / "mlp_full.vcas",
            *sorted((grasp / "data").glob("*.test.vcas"))]
    bare, peak = _peak_rss(
        ["-c", "import vcas.cli"],
        ["-c", "from vcas.cli import run; run()", "eval", *args],
    )
    bound = bare + 2 * sum(p.stat().st_size for p in read)
    assert peak <= bound, f"eval peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"


def test_numerical_error_exits_3(monkeypatch, tmp_path):
    def diverge(args, out_dir):
        raise NumericalError("loss is NaN")

    monkeypatch.setattr(vcas.cli, "_dispatch", diverge)
    assert main(["train", "--task", "grasp", "--out", str(tmp_path)]) == 3


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
    csv = observation_model_to_csv(
        ObservationModel.default(0.9), tmp_path / "obs.csv"
    )
    rc = main(
        ["sim", "rollout", "--policy", str(sim_workspace / "sim" / "policy.vcas"),
         "--start", "85.5,85.5", "--obs", str(csv), "--out", str(tmp_path)]
    )
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "sim" / "rollout.json").exists()


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
    assert "window_length" in capsys.readouterr().err


def test_sim_eval_policy_rejects_a_policy_file_of_the_retired_kind(tmp_path, capsys):
    # Policies used to be their own payload kind, tag 6, with this layout.
    arrays = {"w0": np.zeros((40, 2)), "b0": np.zeros(2)}
    path = write_container(
        tmp_path / "policy.vcas", 6, arrays, {"n_layers": 1, "window_length": 10}
    )
    assert main(["sim", "eval-policy", "--policy", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown payload kind 6" in capsys.readouterr().err


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
