"""Command-line surface: synth-data, train, eval, sim, report.

Each command's settings form one config dataclass (RunConfig, or a sim
subcommand's options); a flat key=value config file, then --set, then
explicit flags fill it, each overriding the one before.  Every command
resolves its artifact root from --out, then the VCAS_DATA_DIR
environment variable, then ./vcas_out.  Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, get_args, get_type_hints

import numpy as np

from .envsim import (
    MAX_EPISODE_STEPS,
    WINDOW_LENGTH,
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


# The sim defaults reuse the simulator's own: this accuracy, WINDOW_LENGTH
# and MAX_EPISODE_STEPS.
_DEFAULT_ACCURACY = inspect.signature(ObservationModel.default).parameters[
    "accuracy"
].default


@dataclass(frozen=True)
class _SimOptions:
    """Keys shared by the sim subcommands that observe contacts."""

    obs: str = "default"
    obs_accuracy: float = _DEFAULT_ACCURACY
    seed: int = 0

    def observation_model(self) -> ObservationModel:
        if self.obs == "default":
            return ObservationModel.default(self.obs_accuracy)
        if self.obs == "identity":
            return ObservationModel.identity()
        path = Path(self.obs)
        if not path.exists():
            raise DataError(
                f"observation model {self.obs!r} is neither default, identity, "
                "nor a file"
            )
        return observation_model_from_csv(path)


@dataclass(frozen=True)
class _DemosOptions(_SimOptions):
    episodes: int = 2000
    regime: str = "interpolated"
    window_length: int = WINDOW_LENGTH


@dataclass(frozen=True)
class _TrainPolicyOptions:
    demos: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass(frozen=True)
class _EvalPolicyOptions(_SimOptions):
    policy: str | None = None
    regime: str = "fixed"
    episodes: int = 1000
    mode: str = "greedy"


@dataclass(frozen=True)
class _RolloutOptions(_SimOptions):
    policy: str = "expert"
    start: str = "45,45"
    max_steps: int = MAX_EPISODE_STEPS
    window_length: int = WINDOW_LENGTH
    mode: str = "greedy"


_SIM_OPTIONS = {
    "demos": _DemosOptions,
    "train-policy": _TrainPolicyOptions,
    "eval-policy": _EvalPolicyOptions,
    "rollout": _RolloutOptions,
}


def _conditions_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _casters(cls) -> dict[str, Callable[[str], object]]:
    """Config key -> caster, from the field types of a config dataclass.

    `X | None` casts as X and `tuple[str, ...]` from a comma list; a
    nested config dataclass contributes its own keys.
    """
    out = {}
    for key, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            out.update(_casters(hint))
            continue
        if type(None) in get_args(hint):
            (hint,) = (a for a in get_args(hint) if a is not type(None))
        out[key] = _conditions_list if hint == tuple[str, ...] else hint
    return out


def _build(cls, values: dict):
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            kwargs[f.name] = _build(hint, values)
        elif f.name in values:
            kwargs[f.name] = values[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ParameterError(
                f"{f.name} is required (pass --{f.name} or set {f.name}= in config)"
            )
    return cls(**kwargs)


# argparse attribute name when it differs from the config key
_FLAG_NAMES = {"window_length": "window", "max_epochs": "epochs"}


def config_from_args(args: argparse.Namespace):
    """The command's config dataclass from --config, then --set, then flags.

    Each later source overrides the earlier ones; a key that the config
    (or a config it nests) does not declare is an error.
    """
    if args.command == "sim":
        cls, command = _SIM_OPTIONS[args.sim_command], f"sim {args.sim_command}"
    else:
        cls, command = RunConfig, args.command
    casters = _casters(cls)
    values = {}
    for key, raw in _collect_kv(args).items():
        if key not in casters:
            raise ParameterError(f"unknown config key {key!r} for {command}")
        try:
            values[key] = casters[key](raw)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad value for {key}: {raw!r}") from exc
    for key in casters:
        value = getattr(args, _FLAG_NAMES.get(key, key), None)
        if value is not None:
            values[key] = value
    if values.get("seed", 0) < 0:
        raise ParameterError(f"seed must be >= 0, got {values['seed']}")
    return _build(cls, values)


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


def cmd_sim(subcommand: str, options, out_dir: str | Path) -> list[Path]:
    """Simulator workflows: demos, train-policy, eval-policy, rollout."""
    sim_dir = Path(out_dir) / "sim"
    if subcommand == "demos":
        demos = generate_demos(
            options.episodes,
            options.regime,
            options.observation_model(),
            options.seed,
            window_length=options.window_length,
        )
        return [write_demos(demos, sim_dir / "demos.jsonl")]
    if subcommand == "train-policy":
        demos_path = Path(options.demos or sim_dir / "demos.jsonl")
        if not demos_path.exists():
            raise DataError(f"no demo set at {demos_path}; run sim demos first")
        model, history = policy_train(read_demos(demos_path), options.train)
        history_payload = history_to_dict(history)
        history_payload["window_length"] = model.window_length
        return [
            save_policy(model, sim_dir / "policy.vcas"),
            write_json(history_payload, sim_dir / "policy_history.json"),
        ]
    if subcommand == "eval-policy":
        policy_path = Path(options.policy or sim_dir / "policy.vcas")
        if not policy_path.exists():
            raise DataError(f"no policy at {policy_path}; run train-policy first")
        report = policy_eval(
            load_policy(policy_path),
            options.regime,
            options.episodes,
            options.observation_model(),
            options.seed,
            mode=options.mode,
        )
        return [write_eval_report_json(report, sim_dir / f"eval_{options.regime}.json")]
    if subcommand == "rollout":
        if options.policy == "expert":
            policy_fn = expert_policy
            window_length = options.window_length
        else:
            policy_path = Path(options.policy)
            if not policy_path.exists():
                raise DataError(f"no policy at {policy_path}")
            model = load_policy(policy_path)
            policy_fn = as_rollout_policy(model, mode=options.mode)
            window_length = model.window_length
        try:
            x_str, z_str = options.start.split(",")
            start = PoseState(float(x_str), float(z_str))
        except ValueError as exc:
            raise ParameterError(
                f"--start expects THETA_X,THETA_Z, got {options.start!r}"
            ) from exc
        episode = rollout(
            policy_fn,
            start,
            options.observation_model(),
            options.seed,
            max_steps=options.max_steps,
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
    if args.command == "report":
        return cmd_report(args.paths, out_dir)
    config = config_from_args(args)
    if args.command == "sim":
        return cmd_sim(args.sim_command, config, out_dir)
    cmd = {"synth-data": cmd_synth_data, "train": cmd_train, "eval": cmd_eval}
    return cmd[args.command](config, out_dir)


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
