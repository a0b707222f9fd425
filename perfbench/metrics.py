"""Every metric the benchmark reports, and what each should move.

`BENCHMARK.json` is generated from these tables and the workloads in
`workloads.py` (`python3 perfbench/run.py --write-definition`); a self-test
checks that the committed file matches.  The "moves" column of each
per-layer metric names the end-to-end metric and workload it should move;
"control" names the workload where the prediction is little or no change.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    # (span name, statistic): "calls", "s", "self_s", "field:F",
    # "children:SPAN" (calls of SPAN directly under this span) or
    # "ratio:F/G" (sum of field F over sum of field G).  None marks a
    # metric the traced run computes itself.
    source: tuple[str, str] | None
    moves: str


STAGES = ("data", "train", "eval")

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median wall time of a fresh child that imports vcas.cli and exits"),
    EndToEnd("total_s", "s", "lower", 0.25,
             "wall time of the workload's three commands together"),
    EndToEnd("data_s", "s", "lower", 0.25,
             "child wall time of synth-data / sim demos"),
    EndToEnd("train_s", "s", "lower", 0.25,
             "child wall time of train / sim train-policy"),
    EndToEnd("eval_s", "s", "lower", 0.25,
             "child wall time of eval / sim eval-policy"),
    EndToEnd("data_rss_mb", "MB", "lower", 0.1,
             "peak RSS of the data stage's child (os.wait4 rusage)"),
    EndToEnd("train_rss_mb", "MB", "lower", 0.1,
             "peak RSS of the train stage's child"),
    EndToEnd("eval_rss_mb", "MB", "lower", 0.1,
             "peak RSS of the eval stage's child"),
    EndToEnd("data_bytes", "bytes", "lower", 0.15,
             "bytes of the datasets or demos.jsonl written under --out"),
    EndToEnd("model_bytes", "bytes", "lower", 0.05,
             "bytes of kpca_*.vcas + mlp_*.vcas, or of policy.vcas"),
    EndToEnd("quality", "ratio", "higher", 0.05,
             "in-distribution accuracy (grasp, contact); fixed-regime success rate (policy)"),
)

# Printed with the end-to-end metrics but not part of the result's
# "metrics" object: it is 0 on a correct run, and the result already
# carries its base as "attempted" and "failed".
ERROR_RATE = "error_rate"

_CONTAINER = "data_s/train_s/eval_s, *_rss_mb and *_bytes on contact; little on grasp; control: policy"

PER_LAYER: tuple[PerLayer, ...] = (
    # cli
    *(
        PerLayer(f"cli.{stage}.inproc_s", "s", "lower", (f"cli.{stage}", "s"),
                 f"{stage}_s on every workload; {stage}_s minus this is process start plus import")
        for stage in STAGES
    ),
    PerLayer("signal.import_s", "s", "lower", None,
             "setup_s on every workload (cumulative -X importtime of vcas.signal, which pulls in scipy.signal)"),
    # signal
    PerLayer("signal.modal_response.calls", "count", "lower", ("signal.modal_response", "calls"),
             "data_s on contact and grasp; control: policy"),
    PerLayer("signal.modal_response.s", "s", "lower", ("signal.modal_response", "s"),
             "data_s on contact and grasp; control: policy"),
    PerLayer("signal.apply_noise.calls", "count", "lower", ("signal.apply_noise", "calls"),
             "data_s on contact and grasp; control: policy"),
    PerLayer("signal.apply_noise.s", "s", "lower", ("signal.apply_noise", "s"),
             "data_s on contact and grasp; control: policy"),
    # features
    PerLayer("features.fft_magnitude.calls", "count", "lower", ("features.fft_magnitude", "calls"),
             "data_s on contact and grasp; control: policy"),
    PerLayer("features.fft_magnitude.s", "s", "lower", ("features.fft_magnitude", "s"),
             "data_s on contact and grasp; control: policy"),
    PerLayer("features.kpca_fit_transform.s", "s", "lower", ("features.kpca_fit_transform", "s"),
             "train_s on contact (n=900); little on grasp; control: policy"),
    PerLayer("features.kpca_transform.rows", "count", "lower", ("features.kpca_transform", "field:rows"),
             "eval_s on contact; control: policy"),
    PerLayer("features.kpca_transform.s", "s", "lower", ("features.kpca_transform", "s"),
             "eval_s on contact; little on grasp; control: policy"),
    PerLayer("features.save_kpca.s", "s", "lower", ("features.save_kpca", "s"),
             "train_s on contact; control: policy"),
    PerLayer("features.save_kpca.bytes", "bytes", "lower", ("features.save_kpca", "field:bytes"),
             "model_bytes on contact and grasp; control: policy"),
    PerLayer("features.load_kpca.s", "s", "lower", ("features.load_kpca", "s"),
             "eval_s and eval_rss_mb on contact; control: policy"),
    # learn
    PerLayer("learn.mlp_train.s", "s", "lower", ("learn.mlp_train", "s"),
             "train_s on every workload"),
    PerLayer("learn.mlp_train.self_s", "s", "lower", ("learn.mlp_train", "self_s"),
             "train_s on every workload (mostly the inline Adam update)"),
    PerLayer("learn.mlp_train.epochs", "count", "lower", ("learn.mlp_train", "field:epochs"),
             "train_s on every workload"),
    PerLayer("learn.mlp_train.steps", "count", "lower", ("learn.mlp_train", "children:learn.mlp_grad"),
             "train_s on every workload; a distinct-row change moves it on policy only"),
    PerLayer("learn.mlp_train.distinct_row_share", "ratio", "higher",
             ("learn.mlp_train", "ratio:distinct_rows/rows"),
             "train_s on policy (0.15 there) for a distinct-row change; control: grasp, contact (1.0)"),
    PerLayer("learn.mlp_grad.calls", "count", "lower", ("learn.mlp_grad", "calls"),
             "train_s on every workload; a distinct-row change moves it on policy only"),
    PerLayer("learn.mlp_grad.rows", "count", "lower", ("learn.mlp_grad", "field:rows"),
             "train_s on every workload; a distinct-row change moves it on policy only"),
    PerLayer("learn.mlp_grad.s", "s", "lower", ("learn.mlp_grad", "s"),
             "train_s on every workload"),
    PerLayer("learn.mlp_loss.calls", "count", "lower", ("learn.mlp_loss", "calls"),
             "train_s on every workload"),
    PerLayer("learn.mlp_loss.s", "s", "lower", ("learn.mlp_loss", "s"),
             "train_s on every workload"),
    PerLayer("learn.mlp_forward.calls", "count", "lower", ("learn.mlp_forward", "calls"),
             "eval_s on policy (one call per rollout step)"),
    PerLayer("learn.mlp_forward.s", "s", "lower", ("learn.mlp_forward", "s"),
             "eval_s on policy"),
    # container
    PerLayer("container.write_container.calls", "count", "lower", ("container.write_container", "calls"),
             _CONTAINER),
    PerLayer("container.write_container.bytes", "bytes", "lower", ("container.write_container", "field:bytes"),
             _CONTAINER),
    PerLayer("container.write_container.s", "s", "lower", ("container.write_container", "s"),
             _CONTAINER),
    PerLayer("container.read_container.calls", "count", "lower", ("container.read_container", "calls"),
             _CONTAINER),
    PerLayer("container.read_container.bytes", "bytes", "lower", ("container.read_container", "field:bytes"),
             _CONTAINER),
    PerLayer("container.read_container.s", "s", "lower", ("container.read_container", "s"),
             _CONTAINER),
    # pipeline
    PerLayer("pipeline.synth_task_data.s", "s", "lower", ("pipeline.synth_task_data", "s"),
             "data_s on grasp and contact; control: policy"),
    PerLayer("pipeline.synth_task_data.self_s", "s", "lower", ("pipeline.synth_task_data", "self_s"),
             "data_s on grasp and contact (loop overhead outside signal and features); control: policy"),
    PerLayer("pipeline.write_dataset.s", "s", "lower", ("pipeline.write_dataset", "s"),
             "data_s on contact and grasp; control: policy"),
    PerLayer("pipeline.read_dataset.s", "s", "lower", ("pipeline.read_dataset", "s"),
             "train_s and eval_s on contact and grasp (includes Dataset validation); control: policy"),
    PerLayer("pipeline.train_task.s", "s", "lower", ("pipeline.train_task", "s"),
             "train_s on contact and grasp; control: policy"),
    PerLayer("pipeline.eval_task.s", "s", "lower", ("pipeline.eval_task", "s"),
             "eval_s on contact and grasp; control: policy"),
    # plants
    PerLayer("plants.build_plant.calls", "count", "lower", ("plants.build_plant", "calls"),
             "data_s on grasp and contact (count only: negligible time); control: policy"),
    # envsim
    PerLayer("envsim.generate_demos.s", "s", "lower", ("envsim.generate_demos", "s"),
             "data_s on policy; control: grasp, contact"),
    PerLayer("envsim.generate_demos.pairs", "count", "higher", ("envsim.generate_demos", "field:pairs"),
             "data_bytes and train_s on policy; control: grasp, contact"),
    PerLayer("envsim.write_demos.s", "s", "lower", ("envsim.write_demos", "s"),
             "data_s on policy; control: grasp, contact"),
    PerLayer("envsim.write_demos.bytes", "bytes", "lower", ("envsim.write_demos", "field:bytes"),
             "data_bytes on policy; control: grasp, contact"),
    PerLayer("envsim.read_demos.s", "s", "lower", ("envsim.read_demos", "s"),
             "train_s on policy; control: grasp, contact"),
    PerLayer("envsim.read_demos.bytes", "bytes", "lower", ("envsim.read_demos", "field:bytes"),
             "train_s on policy; control: grasp, contact"),
    PerLayer("envsim.rollout.calls", "count", "lower", ("envsim.rollout", "calls"),
             "eval_s on policy; control: grasp, contact"),
    PerLayer("envsim.rollout.steps", "count", "lower", ("envsim.rollout", "field:steps"),
             "eval_s on policy; control: grasp, contact"),
    PerLayer("envsim.rollout.s", "s", "lower", ("envsim.rollout", "s"),
             "eval_s on policy; control: grasp, contact"),
    PerLayer("envsim.sample_observation.calls", "count", "lower", ("envsim.sample_observation", "calls"),
             "eval_s (and data_s) on policy; control: grasp, contact"),
    # policy
    PerLayer("policy.policy_train.s", "s", "lower", ("policy.policy_train", "s"),
             "train_s on policy; control: grasp, contact"),
    PerLayer("policy.policy_train.self_s", "s", "lower", ("policy.policy_train", "self_s"),
             "train_s on policy (dataset building outside encode_window and mlp_train); control: grasp, contact"),
    PerLayer("policy.policy_eval.s", "s", "lower", ("policy.policy_eval", "s"),
             "eval_s on policy; control: grasp, contact"),
    PerLayer("policy.encode_window.calls", "count", "lower", ("policy.encode_window", "calls"),
             "eval_s and train_s on policy; control: grasp, contact"),
    PerLayer("policy.encode_window.s", "s", "lower", ("policy.encode_window", "s"),
             "eval_s and train_s on policy; control: grasp, contact"),
    # the tracing itself
    PerLayer("trace.overhead_s", "s", "lower", None,
             "nothing: traced minus untraced in-process time of the same three commands"),
    *(
        PerLayer(f"trace.coverage.{stage}", "ratio", "higher", None,
                 f"nothing: share of cli.{stage}.inproc_s inside a layer span (the rest is unattributed)")
        for stage in STAGES
    ),
)


def layer_value(summary: dict[str, dict], source: tuple[str, str]) -> float:
    """Read one per-layer metric out of a tracer summary; absent spans give 0."""
    span, stat = source
    agg = summary.get(span)
    if agg is None:
        return 0
    if stat in ("calls", "s", "self_s"):
        return agg[stat]
    kind, _, arg = stat.partition(":")
    if kind == "field":
        return agg["fields"][arg]
    if kind == "children":
        return agg["child_calls"][arg]
    if kind == "ratio":
        num, den = arg.split("/")
        return agg["fields"][num] / agg["fields"][den] if agg["fields"][den] else 0
    raise ValueError(f"unknown statistic {stat!r}")
