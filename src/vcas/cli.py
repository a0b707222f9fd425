"""Command-line surface: synth-data, train, eval, sim, report.

Each command's settings form one config dataclass (RunConfig, or a sim
subcommand's options), named in the _COMMANDS table with the keys that
also get a flag; a flat key=value config file, then --set, then those
flags fill it, each overriding the one before, and the field types check
every source alike.  Every command resolves its artifact root from
--out, then the VCAS_DATA_DIR environment variable, then ./vcas_out.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .container import atomic_write, built_from, read_text
from .envsim import (
    MAX_EPISODE_STEPS,
    OBS_ACCURACY,
    WINDOW_LENGTH,
    ObservationModel,
    PoseState,
    StartRegime,
    episode_to_dict,
    expert_policy,
    generate_demos,
    observation_model_from_csv,
    read_demos,
    rollout,
    write_demos,
)
from .errors import DataError, ParameterError, VcasError
from .features import load_kpca, write_evr_csv
from .learn import (
    ConfusionMatrix,
    TrainConfig,
    load_mlp,
    save_mlp,
    write_confusion_csv,
    write_regression_csv,
)
from .pipeline import (
    RunConfig,
    TaskModels,
    dataset_path,
    eval_task,
    history_to_dict,
    metrics_to_dict,
    open_dataset,
    plan_synthesis,
    read_dataset_lazily,
    synthesize,
    train_task,
    write_json,
)

# perfbench's tracer looks these up here (ROADMAP item 3), so they stay
# importable until its SITES table is retired; synth-data streams its
# rows through plan_synthesis, synthesize and open_dataset, eval reads
# its test files through read_dataset_lazily, and train's kPCA file is
# written by train_task as it is fitted, instead.
from .features import save_kpca  # noqa: F401, E402
from .pipeline import read_dataset, synth_task_data, write_dataset  # noqa: F401, E402
from .policy import (
    TOKEN_COUNT,
    PolicyMode,
    as_rollout_policy,
    load_policy,
    policy_eval,
    policy_train,
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
        kv.update(parse_kv_text(read_text(config), origin=config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        kv[key.strip()] = value.strip()
    return kv


# The sim defaults reuse the simulator's own: OBS_ACCURACY, WINDOW_LENGTH
# and MAX_EPISODE_STEPS.  A field's "help" metadata is its flag's help.
@dataclass(frozen=True)
class _SimOptions:
    """Keys shared by the sim subcommands that observe contacts."""

    obs: str = field(
        default="default", metadata={"help": "default | identity | path to confusion CSV"}
    )
    obs_accuracy: float = OBS_ACCURACY
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.obs_accuracy <= 1):
            raise ParameterError(f"obs_accuracy must be in (0, 1], got {self.obs_accuracy}")

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
    regime: StartRegime = "interpolated"
    window_length: int = WINDOW_LENGTH


@dataclass(frozen=True)
class _TrainPolicyOptions:
    demos: str | None = field(default=None, metadata={"help": "demo JSONL path"})
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass(frozen=True)
class _EvalPolicyOptions(_SimOptions):
    policy: str | None = field(default=None, metadata={"help": "policy container path"})
    regime: StartRegime = "fixed"
    episodes: int = 1000
    mode: PolicyMode = "greedy"


@dataclass(frozen=True)
class _RolloutOptions(_SimOptions):
    policy: str = field(
        default="expert", metadata={"help": "'expert' or policy container path"}
    )
    start: str = field(default="45,45", metadata={"help": "THETA_X,THETA_Z"})
    max_steps: int = MAX_EPISODE_STEPS
    mode: PolicyMode = "greedy"


# Command -> (its config dataclass, help line, the keys that also get a flag).
_COMMANDS = {
    "synth-data": (RunConfig, "synthesize per-session datasets", "seed task band"),
    "train": (RunConfig, "fit kernel PCA + MLP on a task", "seed task band"),
    "eval": (RunConfig, "score trained models per condition", "seed task band"),
    "sim demos": (_DemosOptions, "generate expert demonstrations",
                  "seed episodes regime obs obs_accuracy window_length"),
    "sim train-policy": (_TrainPolicyOptions, "behavior-clone a policy from demos",
                         "seed demos max_epochs"),
    "sim eval-policy": (_EvalPolicyOptions, "roll out a policy per regime",
                        "seed policy regime episodes obs obs_accuracy mode"),
    "sim rollout": (_RolloutOptions, "trace one verbose episode",
                    "seed policy start obs obs_accuracy max_steps mode"),
}

# Flag name when it differs from the config key (dashes aside).
_FLAG_NAMES = {"window_length": "window", "max_epochs": "epochs"}


def _conditions_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


class _Choices(tuple):
    """Caster for a Literal field: the value, if it is one of the choices."""

    def __call__(self, raw: str) -> str:
        if raw not in self:
            raise ValueError(raw)
        return raw


def _casters(cls) -> dict[str, Callable[[str], object]]:
    """Config key -> caster, from the field types of a config dataclass.

    `X | None` casts as X, `tuple[str, ...]` from a comma list and a
    `Literal` to one of its values; a nested config dataclass
    contributes its own keys.
    """
    out = {}
    for key, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            out.update(_casters(hint))
            continue
        if type(None) in get_args(hint):
            (hint,) = (a for a in get_args(hint) if a is not type(None))
        if get_origin(hint) is Literal:
            out[key] = _Choices(get_args(hint))
        else:
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


def config_from_args(args: argparse.Namespace):
    """The command's config dataclass from --config, then --set, then flags.

    Each later source overrides the earlier ones; a key that the config
    (or a config it nests) does not declare is an error.
    """
    command = args.command_name
    cls, _, flags = _COMMANDS[command]
    casters = _casters(cls)
    values = {}
    for key, raw in _collect_kv(args).items():
        if key not in casters:
            raise ParameterError(f"unknown config key {key!r} for {command}")
        try:
            values[key] = casters[key](raw)
        except (TypeError, ValueError) as exc:
            hint = (
                f"; use one of {casters[key]}" if isinstance(casters[key], _Choices) else ""
            )
            raise ParameterError(f"bad value for {key}: {raw!r}{hint}") from exc
    for key in flags.split():
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    if values.get("seed", 0) < 0:
        raise ParameterError(f"seed must be >= 0, got {values['seed']}")
    return _build(cls, values)


# --------------------------------------------------------------------------
# commands

def cmd_synth_data(cfg: RunConfig, out_dir: str | Path) -> list[Path]:
    """Synthesize every configured condition's datasets into their files.

    Each file is opened before synthesis starts, and each chunk of rows
    goes straight to its offset there, so no dataset is held in memory.
    """
    plan = plan_synthesis(cfg)
    paths = {
        (cond, split): dataset_path(out_dir, cfg.task, cond, split)
        for cond, split in sorted(plan.labels, key=lambda k: (k[0], k[1] != "train"))
    }
    with contextlib.ExitStack() as files:
        sinks = {
            key: files.enter_context(open_dataset(plan, key, path))
            for key, path in paths.items()
        }
        synthesize(plan, sinks)
    return list(paths.values())


def cmd_train(cfg: RunConfig, out_dir: str | Path) -> list[Path]:
    """Fit kernel PCA + MLP from on-disk training data; persist models."""
    train_path = dataset_path(out_dir, cfg.task, "in_distribution", "train")
    if not train_path.exists():
        raise DataError(f"no training data at {train_path}; run synth-data first")
    # The training rows stay in their file: kernel PCA reads them in
    # column blocks, so train never holds them all.  The projection goes
    # to its file as it is made, before the MLP trains, so train never
    # holds it either; a failed MLP leaves an unpaired kPCA file, which
    # eval's fit_id check refuses.
    mdir = Path(out_dir) / cfg.task / "models"
    kpca_path = mdir / f"kpca_{cfg.band}.vcas"
    with read_dataset_lazily(train_path) as train_ds:
        models = train_task(train_ds, cfg, kpca_path)
    history = history_to_dict(models.history)
    history.update(
        {
            "task": cfg.task,
            "band": cfg.band,
            "n_components": models.kpca.n_components,
            "evr_cumulative": list(
                np.cumsum(models.kpca.explained_variance_ratio)
            ),
        }
    )
    return [
        kpca_path,
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
    # The projection and each test file's rows stay in their files:
    # kernel PCA reads both in column blocks, so eval holds neither.
    # Conditions are scored one at a time, in sorted order.  The training
    # sessions come from the kPCA metadata, so the train file is not read.
    rows: list[dict] = []
    reports: dict = {}
    with load_kpca(kpca_path) as (kpca, kpca_meta):
        mlp, mlp_meta = load_mlp(mlp_path)
        if mlp_meta.get("fit_id") != kpca.fit_id:
            raise DataError(
                f"{mlp_path} was trained on kPCA fit {mlp_meta.get('fit_id')} but "
                f"{kpca_path} holds fit {kpca.fit_id}; the two files "
                "come from different train runs"
            )
        if "train_sessions" not in kpca_meta:
            raise DataError(f"{kpca_path} lists no training sessions; rerun train")

        models = TaskModels(
            cfg.task, cfg.band, kpca, mlp, tuple(kpca_meta["train_sessions"])
        )
        for cond in sorted(cfg.conditions):
            test_path = dataset_path(out_dir, cfg.task, cond, "test")
            if not test_path.exists():
                if cond == "in_distribution":
                    raise DataError(
                        f"no test data at {test_path}; run synth-data first"
                    )
                continue
            with read_dataset_lazily(test_path) as test:
                row, reports[cond] = eval_task(models, cond, test)
            rows.append(row)

    edir = Path(out_dir) / cfg.task / "eval"
    metrics_path = edir / f"metrics_{cfg.band}.json"
    written = [write_json(metrics_to_dict(models, rows), metrics_path)]
    for cond, report in reports.items():
        if not isinstance(report, ConfusionMatrix):
            path = edir / f"per_target_{cfg.band}_{cond}.csv"
            written.append(write_regression_csv(report, path))
        elif not report.empty_rows:
            path = edir / f"confusion_{cfg.band}_{cond}.csv"
            written.append(write_confusion_csv(report, path))
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
        try:
            net, history = policy_train(read_demos(demos_path), options.train)
        except ParameterError as exc:  # its settings were checked on parsing
            raise DataError(f"{demos_path}: {exc}") from exc
        history_payload = history_to_dict(history)
        history_payload["window_length"] = net.in_dim // TOKEN_COUNT
        return [
            save_mlp(net, sim_dir / "policy.vcas"),
            write_json(history_payload, sim_dir / "policy_history.json"),
        ]
    if subcommand == "eval-policy":
        policy_path = Path(options.policy or sim_dir / "policy.vcas")
        if not policy_path.exists():
            raise DataError(f"no policy at {policy_path}; run train-policy first")
        payload = policy_eval(
            load_policy(policy_path),
            options.regime,
            options.episodes,
            options.observation_model(),
            options.seed,
            mode=options.mode,
        )
        return [write_json(payload, sim_dir / f"eval_{options.regime}.json")]
    if subcommand == "rollout":
        policy = expert_policy
        if options.policy != "expert":
            if not Path(options.policy).exists():
                raise DataError(f"no policy at {options.policy}")
            policy = load_policy(options.policy)
        policy_fn, window_length = as_rollout_policy(policy, options.mode)
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
        trace = dict(episode_to_dict(episode), seed=options.seed, length=len(episode.steps))
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
        # A file that is not JSON, or JSON of the wrong shape, is unusable
        # data, not a crash.
        with built_from(p):
            rows.extend(_report_rows_from_payload(json.loads(read_text(p)), str(p)))
    rows.sort(
        key=lambda r: (
            str(r["task"]),
            str(r["band"]),
            str(r["condition"]),
            str(r["metric"]),
        )
    )
    csv_lines = [",".join(_REPORT_COLUMNS)]
    csv_lines += [
        ",".join(_format_cell(r[c]) for c in _REPORT_COLUMNS) for r in rows
    ]
    md_lines = ["# Results", ""]
    md_lines.append("| " + " | ".join(_REPORT_COLUMNS) + " |")
    md_lines.append("|" + "|".join([" --- "] * len(_REPORT_COLUMNS)) + "|")
    md_lines += [
        "| " + " | ".join(_format_cell(r[c]) for c in _REPORT_COLUMNS) + " |"
        for r in rows
    ]
    out = Path(out_dir)
    for name, lines in (("report.csv", csv_lines), ("report.md", md_lines)):
        with atomic_write(out / name) as fh:
            fh.write("\n".join(lines) + "\n")
    return [out / "report.md", out / "report.csv"]


# --------------------------------------------------------------------------
# parser / entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per _COMMANDS entry; its flags' types and choices
    come from the config dataclass, as --set and --config values' do."""
    parser = _Parser(prog="vcas", description="Vibro-acoustic sensing pipeline")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (cls, blurb, flags) in _COMMANDS.items():
        group, _, word = name.rpartition(" ")
        if group not in groups:
            sim = groups[""].add_parser(group, help="simulator and policy workflows")
            groups[group] = sim.add_subparsers(dest="sim_command", required=True)
        sp = groups[group].add_parser(word, help=blurb)
        sp.set_defaults(command_name=name)
        sp.add_argument("--config", help="flat KEY=VALUE config file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config value (repeatable)")
        sp.add_argument("--out", help="artifact root (default $VCAS_DATA_DIR or ./vcas_out)")
        casters = _casters(cls)
        helps = {f.name: f.metadata["help"] for f in fields(cls) if "help" in f.metadata}
        for key in flags.split():
            flag, caster = _FLAG_NAMES.get(key, key), casters[key]
            typed = {"type": caster, "metavar": flag.upper()}
            if isinstance(caster, _Choices):
                typed = {"choices": caster}
            sp.add_argument(
                "--" + flag.replace("_", "-"), dest=key, help=helps.get(key), **typed
            )

    rep = groups[""].add_parser("report", help="merge metrics files into one table")
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
