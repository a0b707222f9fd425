"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: each traced vcas function
is swapped, in the module where its caller looks it up, for a wrapper
that opens a span around the call.  Spans stay in memory (name, start,
end, parent, workload, counted fields) and are written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from .stats import self_time

# measure(args, kwargs, result) -> counted fields for the span
Measure = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    workload: str
    end: float | None = None
    fields: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str, clock: Callable[[], float] = time.perf_counter):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, self._clock(), parent, self.workload)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if measure is not None:
                sp.fields.update(measure(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, sites) -> Iterator["Tracer"]:
        """Swap each (module, attribute) site for a traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, measure in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                kids[sp.parent].append(sp)
        return kids

    def self_seconds(self, sp: Span, kids: dict[int, list[Span]]) -> float:
        return self_time(sp.start, sp.end, [(c.start, c.end) for c in kids.get(sp.id, ())])

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, s (inclusive), self_s, summed fields, child calls."""
        kids = self.children()
        out: dict[str, dict] = {}
        for sp in self.spans:
            agg = out.setdefault(
                sp.name,
                {"calls": 0, "s": 0.0, "self_s": 0.0, "fields": Counter(), "child_calls": Counter()},
            )
            agg["calls"] += 1
            agg["s"] += sp.seconds
            agg["self_s"] += self.self_seconds(sp, kids)
            agg["fields"].update(sp.fields)
            agg["child_calls"].update(c.name for c in kids.get(sp.id, ()))
        return out

    def write_jsonl(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                rec = {
                    "id": sp.id,
                    "name": sp.name,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": sp.parent,
                    "workload": sp.workload,
                }
                rec.update(sp.fields)
                fh.write(json.dumps(rec) + "\n")
        return path


# --------------------------------------------------------------------------
# where vcas's layers are looked up by their callers on the CLI paths


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _arg_file_bytes(args, kwargs, result) -> dict:
    return {"bytes": _file_bytes(args[0])}


def _result_file_bytes(args, kwargs, result) -> dict:
    return {"bytes": _file_bytes(result)}


def _transform_rows(args, kwargs, result) -> dict:
    return {"rows": int(result.shape[0]) if result.ndim == 2 else 1}


def _batch_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1][0])}


def _train_rows(args, kwargs, result) -> dict:
    import numpy as np

    rows = args[0].rows
    model, history = result
    return {
        "rows": int(rows.shape[0]),
        "distinct_rows": int(np.unique(rows, axis=0).shape[0]),
        "epochs": history.n_epochs,
    }


def _pairs(args, kwargs, result) -> dict:
    return {"pairs": len(result)}


def _steps(args, kwargs, result) -> dict:
    return {"steps": len(result.steps)}


_CONTAINER_CALLERS = ("vcas.features", "vcas.learn", "vcas.pipeline", "vcas.policy")

SITES: tuple[tuple[str, str, str, Measure | None], ...] = (
    # signal
    ("vcas.pipeline", "modal_response", "signal.modal_response", None),
    ("vcas.pipeline", "apply_noise", "signal.apply_noise", None),
    # features
    ("vcas.pipeline", "fft_magnitude", "features.fft_magnitude", None),
    ("vcas.pipeline", "kpca_fit_transform", "features.kpca_fit_transform", None),
    ("vcas.pipeline", "kpca_transform", "features.kpca_transform", _transform_rows),
    ("vcas.cli", "save_kpca", "features.save_kpca", _result_file_bytes),
    ("vcas.cli", "load_kpca", "features.load_kpca", None),
    # learn
    ("vcas.pipeline", "mlp_train", "learn.mlp_train", _train_rows),
    ("vcas.policy", "mlp_train", "learn.mlp_train", _train_rows),
    ("vcas.learn", "mlp_grad", "learn.mlp_grad", _batch_rows),
    ("vcas.learn", "mlp_loss", "learn.mlp_loss", None),
    ("vcas.learn", "mlp_forward", "learn.mlp_forward", None),
    ("vcas.policy", "mlp_forward", "learn.mlp_forward", None),
    # container
    *(
        (mod, "write_container", "container.write_container", _result_file_bytes)
        for mod in _CONTAINER_CALLERS
    ),
    *(
        (mod, "read_container", "container.read_container", _arg_file_bytes)
        for mod in _CONTAINER_CALLERS
    ),
    # pipeline
    ("vcas.cli", "synth_task_data", "pipeline.synth_task_data", None),
    ("vcas.cli", "write_dataset", "pipeline.write_dataset", None),
    ("vcas.cli", "read_dataset", "pipeline.read_dataset", None),
    ("vcas.cli", "train_task", "pipeline.train_task", None),
    ("vcas.cli", "eval_task", "pipeline.eval_task", None),
    # plants
    ("vcas.plants", "build_plant", "plants.build_plant", None),
    # envsim
    ("vcas.cli", "generate_demos", "envsim.generate_demos", _pairs),
    ("vcas.cli", "write_demos", "envsim.write_demos", _result_file_bytes),
    ("vcas.cli", "read_demos", "envsim.read_demos", _arg_file_bytes),
    ("vcas.policy", "rollout", "envsim.rollout", _steps),
    ("vcas.envsim", "sample_observation", "envsim.sample_observation", None),
    # policy
    ("vcas.cli", "policy_train", "policy.policy_train", None),
    ("vcas.cli", "policy_eval", "policy.policy_eval", None),
    ("vcas.policy", "encode_window", "policy.encode_window", None),
)
