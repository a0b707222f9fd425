"""Command-line surface: synth-data, train, eval, sim, report.

Flat key=value config files feed RunConfig; --set and explicit flags
override file values in that order.  Every command resolves its artifact
root from --out, then the VCAS_DATA_DIR environment variable, then
./vcas_out.  Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .envsim import (
    ObservationModel,
    PoseState,
    episode_to_dict,
    expert_policy,
    generate_demos,
    observation_model_from_csv,
    read_demos,
    rollout,
    write_demos,
)
from .errors import DataError, ParameterError, VcasError
from .features import load_kpca, save_kpca, write_evr_csv
from .learn import (
    TrainConfig,
    load_mlp,
    save_mlp,
    write_confusion_csv,
    write_regression_csv,
)
from .pipeline import (
    BANDS,
    RunConfig,
    SplitData,
    TaskData,
    TaskModels,
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
from .policy import (
    as_rollout_policy,
    load_policy,
    policy_eval,
    policy_train,
    save_policy,
    write_eval_report_json,
)

DEFAULT_OUT = "vcas_out"


# --------------------------------------------------------------------------
# config plumbing

def parse_kv_text(text: str, origin: str = "config") -> dict[str, str]:
    """Flat KEY=VALUE lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{origin}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _collect_kv(args: argparse.Namespace) -> dict[str, str]:
    kv: dict[str, str] = {}
    config = getattr(args, "config", None)
    if config:
        path = Path(config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        kv.update(parse_kv_text(text, origin=str(path)))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        kv[key.strip()] = value.strip()
    return kv


def _cast_value(key: str, raw: str, caster):
    try:
        return caster(raw)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad value for {key}: {raw!r}") from exc


def _conditions_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_RUN_CASTS = {
    "task": str,
    "band": str,
    "seed": int,
    "n_components": int,
    "preset": str,
    "sessions_train": int,
    "sessions_test": int,
    "train_per_class": int,
    "test_per_class": int,
    "conditions": _conditions_list,
    "step_size": float,
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "min_delta": float,
    "validation_fraction": float,
}


def run_config_from_args(args: argparse.Namespace) -> RunConfig:
    kv = _collect_kv(args)
    kwargs = {}
    for key, raw in kv.items():
        if key not in _RUN_CASTS:
            raise ParameterError(f"unknown config key {key!r}")
        kwargs[key] = _cast_value(key, raw, _RUN_CASTS[key])
    if getattr(args, "task", None):
        kwargs["task"] = args.task
    if getattr(args, "band", None):
        kwargs["band"] = args.band
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    if "task" not in kwargs:
        raise ParameterError("task is required (pass --task or set task= in config)")
    return RunConfig(**kwargs)


_SIM_SPECS: dict[str, dict[str, tuple]] = {
    "demos": {
        "episodes": (int, 2000),
        "regime": (str, "interpolated"),
        "obs": (str, "default"),
        "obs_accuracy": (float, 0.95),
        "window_length": (int, 10),
        "seed": (int, 0),
    },
    "train-policy": {
        "demos": (str, None),
        "seed": (int, 0),
        "step_size": (float, 1e-3),
        "batch_size": (int, 32),
        "max_epochs": (int, 200),
        "patience": (int, 20),
        "min_delta": (float, 1e-4),
        "validation_fraction": (float, 0.1),
    },
    "eval-policy": {
        "policy": (str, None),
        "regime": (str, "fixed"),
        "episodes": (int, 1000),
        "obs": (str, "default"),
        "obs_accuracy": (float, 0.95),
        "mode": (str, "greedy"),
        "seed": (int, 0),
    },
    "rollout": {
        "policy": (str, "expert"),
        "start": (str, "45,45"),
        "obs": (str, "default"),
        "obs_accuracy": (float, 0.95),
        "max_steps": (int, 50),
        "window_length": (int, 10),
        "mode": (str, "greedy"),
        "seed": (int, 0),
    },
}

# argparse attribute name when it differs from the option key
_SIM_FLAG_NAMES = {"window_length": "window", "max_epochs": "epochs"}


def sim_options_from_args(args: argparse.Namespace, subcommand: str) -> dict:
    spec = _SIM_SPECS[subcommand]
    opts = {key: default for key, (_, default) in spec.items()}
    for key, raw in _collect_kv(args).items():
        if key not in spec:
            raise ParameterError(
                f"unknown config key {key!r} for sim {subcommand}"
            )
        opts[key] = _cast_value(key, raw, spec[key][0])
    for key in spec:
        flag = _SIM_FLAG_NAMES.get(key, key)
        value = getattr(args, flag, None)
        if value is not None:
            opts[key] = value
    return opts


# --------------------------------------------------------------------------
# commands

def cmd_synth_data(cfg: RunConfig, out_dir: str | Path) -> list[Path]:
    """Synthesize and persist every configured condition's datasets."""
    data = synth_task_data(cfg)
    written: list[Path] = []
    for cond in sorted(data.conditions):
        split = data.conditions[cond]
        if split.train is not None:
            written.append(
                write_dataset(
                    split.train,
                    dataset_path(out_dir, cfg.task, cond, "train"),
                    cfg.task,
                    cond,
                    data.bin_hz,
                )
            )
        written.append(
            write_dataset(
                split.test,
                dataset_path(out_dir, cfg.task, cond, "test"),
                cfg.task,
                cond,
                data.bin_hz,
            )
        )
    return written


def cmd_train(cfg: RunConfig, out_dir: str | Path) -> list[Path]:
    """Fit kernel PCA + MLP from on-disk training data; persist models."""
    train_path = dataset_path(out_dir, cfg.task, "in_distribution", "train")
    if not train_path.exists():
        raise DataError(f"no training data at {train_path}; run synth-data first")
    train_ds, meta = read_dataset(train_path)
    data = TaskData(
        cfg.task,
        float(meta["bin_hz"]),
        train_ds.label_names,
        {"in_distribution": SplitData(train=train_ds)},
    )
    models = train_task(data, cfg)
    mdir = Path(out_dir) / cfg.task / "models"
    history = history_to_dict(models.history)
    history.update(
        {
            "task": cfg.task,
            "band": cfg.band,
            "n_components": models.n_components,
            "evr_cumulative": list(
                np.cumsum(models.kpca.explained_variance_ratio)
            ),
        }
    )
    return [
        save_kpca(
            models.kpca,
            mdir / f"kpca_{cfg.band}.vcas",
            {"train_sessions": list(models.train_sessions)},
        ),
        save_mlp(
            models.mlp,
            mdir / f"mlp_{cfg.band}.vcas",
            {"fit_id": models.kpca.fit_id},
        ),
        write_evr_csv(models.kpca, mdir / f"evr_{cfg.band}.csv"),
        write_json(history, mdir / f"history_{cfg.band}.json"),
    ]


def cmd_eval(cfg: RunConfig, out_dir: str | Path) -> list[Path]:
    """Score persisted models on every condition found on disk."""
    mdir = Path(out_dir) / cfg.task / "models"
    kpca_path = mdir / f"kpca_{cfg.band}.vcas"
    mlp_path = mdir / f"mlp_{cfg.band}.vcas"
    for p in (kpca_path, mlp_path):
        if not p.exists():
            raise DataError(f"no model at {p}; run train first")
    kpca, kpca_meta = load_kpca(kpca_path)
    mlp, mlp_meta = load_mlp(mlp_path)
    if mlp_meta.get("fit_id") != kpca_meta.get("fit_id"):
        raise DataError(
            f"{mlp_path} was trained on kPCA fit {mlp_meta.get('fit_id')} but "
            f"{kpca_path} holds fit {kpca_meta.get('fit_id')}; the two files "
            "come from different train runs"
        )
    if "train_sessions" not in kpca_meta:
        raise DataError(f"{kpca_path} lists no training sessions; rerun train")

    # The test files carry the bin width and label names; the training
    # sessions come from the kPCA metadata, so the train file is not read.
    conditions: dict[str, SplitData] = {}
    bin_hz = None
    label_names = None
    for cond in cfg.conditions_resolved:
        test_path = dataset_path(out_dir, cfg.task, cond, "test")
        if not test_path.exists():
            if cond == "in_distribution":
                raise DataError(
                    f"no test data at {test_path}; run synth-data first"
                )
            continue
        test_ds, meta = read_dataset(test_path)
        bin_hz = float(meta["bin_hz"])
        label_names = test_ds.label_names
        conditions[cond] = SplitData(test=test_ds)

    data = TaskData(cfg.task, bin_hz, label_names, conditions)
    models = TaskModels(
        cfg.task,
        cfg.band,
        kpca.n_components,
        kpca,
        mlp,
        tuple(kpca_meta["train_sessions"]),
    )
    ev = eval_task(models, data)

    edir = Path(out_dir) / cfg.task / "eval"
    written = [write_json(metrics_to_dict(ev), edir / f"metrics_{cfg.band}.json")]
    for cond in sorted(ev.confusions):
        cm = ev.confusions[cond]
        if not cm.empty_rows:
            written.append(
                write_confusion_csv(cm, edir / f"confusion_{cfg.band}_{cond}.csv")
            )
    for cond in sorted(ev.regressions):
        written.append(
            write_regression_csv(
                ev.regressions[cond], edir / f"per_target_{cfg.band}_{cond}.csv"
            )
        )
    return written


def _resolve_observation_model(spec: str, accuracy: float) -> ObservationModel:
    if spec == "default":
        return ObservationModel.default(accuracy)
    if spec == "identity":
        return ObservationModel(np.eye(3))
    path = Path(spec)
    if not path.exists():
        raise DataError(
            f"observation model {spec!r} is neither default, identity, nor a file"
        )
    return observation_model_from_csv(path)


def cmd_sim(subcommand: str, options: dict, out_dir: str | Path) -> list[Path]:
    """Simulator workflows: demos, train-policy, eval-policy, rollout."""
    sim_dir = Path(out_dir) / "sim"
    if subcommand == "demos":
        m = _resolve_observation_model(options["obs"], options["obs_accuracy"])
        demos = generate_demos(
            options["episodes"],
            options["regime"],
            m,
            options["seed"],
            window_length=options["window_length"],
        )
        return [write_demos(demos, sim_dir / "demos.jsonl")]
    if subcommand == "train-policy":
        demos_path = Path(options["demos"] or sim_dir / "demos.jsonl")
        if not demos_path.exists():
            raise DataError(f"no demo set at {demos_path}; run sim demos first")
        demos = read_demos(demos_path)
        tc = TrainConfig(
            step_size=options["step_size"],
            batch_size=options["batch_size"],
            max_epochs=options["max_epochs"],
            patience=options["patience"],
            min_delta=options["min_delta"],
            validation_fraction=options["validation_fraction"],
            seed=options["seed"],
        )
        model, history = policy_train(demos, tc)
        history_payload = history_to_dict(history)
        history_payload["window_length"] = model.window_length
        return [
            save_policy(model, sim_dir / "policy.vcas"),
            write_json(history_payload, sim_dir / "policy_history.json"),
        ]
    if subcommand == "eval-policy":
        policy_path = Path(options["policy"] or sim_dir / "policy.vcas")
        if not policy_path.exists():
            raise DataError(f"no policy at {policy_path}; run train-policy first")
        model = load_policy(policy_path)
        m = _resolve_observation_model(options["obs"], options["obs_accuracy"])
        report = policy_eval(
            model,
            options["regime"],
            options["episodes"],
            m,
            options["seed"],
            mode=options["mode"],
        )
        return [
            write_eval_report_json(
                report, sim_dir / f"eval_{options['regime']}.json"
            )
        ]
    if subcommand == "rollout":
        if options["policy"] == "expert":
            policy_fn = expert_policy
            window_length = options["window_length"]
        else:
            policy_path = Path(options["policy"])
            if not policy_path.exists():
                raise DataError(f"no policy at {policy_path}")
            model = load_policy(policy_path)
            policy_fn = as_rollout_policy(model, mode=options["mode"])
            window_length = model.window_length
        try:
            x_str, z_str = options["start"].split(",")
            start = PoseState(float(x_str), float(z_str))
        except ValueError as exc:
            raise ParameterError(
                f"--start expects THETA_X,THETA_Z, got {options['start']!r}"
            ) from exc
        m = _resolve_observation_model(options["obs"], options["obs_accuracy"])
        episode = rollout(
            policy_fn,
            start,
            m,
            options["seed"],
            max_steps=options["max_steps"],
            window_length=window_length,
        )
        trace = episode_to_dict(episode)
        trace["length"] = len(episode.steps)
        print(json.dumps(trace, indent=2, sort_keys=True))
        return [write_json(trace, sim_dir / "rollout.json")]
    raise ParameterError(f"unknown sim subcommand {subcommand!r}")


_REPORT_COLUMNS = (
    "task",
    "band",
    "range_khz",
    "condition",
    "metric",
    "value",
    "n_test",
    "n_components",
)


def _report_rows_from_payload(payload: dict, origin: str) -> list[dict]:
    if "rows" in payload:
        rows = []
        for r in payload["rows"]:
            lo, hi = r.get("f_low_hz"), r.get("f_high_hz")
            rows.append(
                {
                    "task": r["task"],
                    "band": r["band"],
                    "range_khz": f"{lo / 1000:g}-{hi / 1000:g}" if lo is not None else "",
                    "condition": r["condition"],
                    "metric": r["metric"],
                    "value": r["value"],
                    "n_test": r.get("n_test", ""),
                    "n_components": r.get("n_components", ""),
                }
            )
        return rows
    if "success_rate" in payload:
        base = {
            "task": "sim",
            "band": "",
            "range_khz": "",
            "condition": payload["regime"],
            "n_test": payload["n_episodes"],
            "n_components": "",
        }
        return [
            dict(base, metric="success_rate", value=payload["success_rate"]),
            dict(base, metric="mean_length", value=payload["mean_length"]),
        ]
    raise DataError(f"unrecognized metrics payload in {origin}")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_report(paths: list[str | Path], out_dir: str | Path) -> list[Path]:
    """Merge metrics JSONs into one markdown + CSV summary table."""
    if not paths:
        raise ParameterError("report needs at least one metrics file")
    rows: list[dict] = []
    for p in paths:
        try:
            payload = json.loads(Path(p).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"unreadable metrics file {p}: {exc}") from exc
        rows.extend(_report_rows_from_payload(payload, str(p)))
    rows.sort(
        key=lambda r: (
            str(r["task"]),
            str(r["band"]),
            str(r["condition"]),
            str(r["metric"]),
        )
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    lines = [",".join(_REPORT_COLUMNS)]
    lines += [
        ",".join(_format_cell(r[c]) for c in _REPORT_COLUMNS) for r in rows
    ]
    csv_path.write_text("\n".join(lines) + "\n")
    md_path = out / "report.md"
    md_lines = ["# Results", ""]
    md_lines.append("| " + " | ".join(_REPORT_COLUMNS) + " |")
    md_lines.append("|" + "|".join([" --- "] * len(_REPORT_COLUMNS)) + "|")
    md_lines += [
        "| " + " | ".join(_format_cell(r[c]) for c in _REPORT_COLUMNS) + " |"
        for r in rows
    ]
    md_path.write_text("\n".join(md_lines) + "\n")
    return [md_path, csv_path]


# --------------------------------------------------------------------------
# parser / entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise ParameterError(message)


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat KEY=VALUE config file")
    sp.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable)",
    )
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="artifact root (default $VCAS_DATA_DIR or ./vcas_out)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vcas", description="Vibro-acoustic sensing pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("synth-data", "synthesize per-session datasets"),
        ("train", "fit kernel PCA + MLP on a task"),
        ("eval", "score trained models per condition"),
    ):
        sp = sub.add_parser(name, help=blurb)
        _add_common_flags(sp)
        sp.add_argument("--task", choices=("object", "grasp", "pose", "contact"))
        sp.add_argument("--band", choices=tuple(BANDS))

    sim = sub.add_parser("sim", help="simulator and policy workflows")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)

    d = sim_sub.add_parser("demos", help="generate expert demonstrations")
    _add_common_flags(d)
    d.add_argument("--episodes", type=int)
    d.add_argument("--regime", choices=("fixed", "interpolated", "out_of_distribution"))
    d.add_argument("--obs", help="default | identity | path to confusion CSV")
    d.add_argument("--obs-accuracy", dest="obs_accuracy", type=float)
    d.add_argument("--window", type=int)

    tp = sim_sub.add_parser("train-policy", help="behavior-clone a policy from demos")
    _add_common_flags(tp)
    tp.add_argument("--demos", help="demo JSONL path")
    tp.add_argument("--epochs", type=int)

    ep = sim_sub.add_parser("eval-policy", help="roll out a policy per regime")
    _add_common_flags(ep)
    ep.add_argument("--policy", help="policy container path")
    ep.add_argument("--regime", choices=("fixed", "interpolated", "out_of_distribution"))
    ep.add_argument("--episodes", type=int)
    ep.add_argument("--obs")
    ep.add_argument("--obs-accuracy", dest="obs_accuracy", type=float)
    ep.add_argument("--mode", choices=("greedy", "sample"))

    ro = sim_sub.add_parser("rollout", help="trace one verbose episode")
    _add_common_flags(ro)
    ro.add_argument("--policy", help="'expert' or policy container path")
    ro.add_argument("--start", help="THETA_X,THETA_Z")
    ro.add_argument("--obs")
    ro.add_argument("--obs-accuracy", dest="obs_accuracy", type=float)
    ro.add_argument("--max-steps", dest="max_steps", type=int)
    ro.add_argument("--window", type=int)
    ro.add_argument("--mode", choices=("greedy", "sample"))

    rep = sub.add_parser("report", help="merge metrics files into one table")
    rep.add_argument("paths", nargs="+")
    rep.add_argument("--out")
    return parser


def _dispatch(args: argparse.Namespace, out_dir: str) -> list[Path]:
    if args.command == "synth-data":
        return cmd_synth_data(run_config_from_args(args), out_dir)
    if args.command == "train":
        return cmd_train(run_config_from_args(args), out_dir)
    if args.command == "eval":
        return cmd_eval(run_config_from_args(args), out_dir)
    if args.command == "sim":
        return cmd_sim(
            args.sim_command, sim_options_from_args(args, args.sim_command), out_dir
        )
    if args.command == "report":
        return cmd_report(args.paths, out_dir)
    raise ParameterError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = (
            getattr(args, "out", None)
            or os.environ.get("VCAS_DATA_DIR")
            or DEFAULT_OUT
        )
        for path in _dispatch(args, out_dir):
            print(path)
        return 0
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except VcasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
