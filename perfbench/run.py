"""Benchmark the vcas CLI from the root of a source checkout.

    python3 perfbench/run.py --workload grasp --seed 0 --seconds 36 --trace 0

With `--trace 0` every command of the workload runs in its own child
process, one at a time, closed loop; the three commands repeat while one
more repeat still fits in `--seconds` (at least once), and the end-to-end
metrics are medians over those repeats.  With
`--trace 1` the same commands run in this process through
`vcas.cli.main`, once untraced and once with every layer wrapped by the
tracer, and the per-layer metrics come from the traced pass.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Artifacts go to `.perfbench/work/` and are deleted at the end; timings,
artifact hashes, the environment and (traced) spans go to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import metrics, stats
from perfbench.tracer import SITES, Tracer
from perfbench.workloads import WORKLOADS, Workload, read_quality, total_bytes

STATE_DIR = ".perfbench"
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0
CLI_ENTRY = "from vcas.cli import run; run()"
DEFINITION = "BENCHMARK.json"


# --------------------------------------------------------------------------
# operations and their checks


@dataclass
class Ledger:
    """Every operation attempted, with the problems that made it fail."""

    ops: list[tuple[str, list[str]]] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.ops.append((what, problems))
        return not problems

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.ops if problems)


def stage_problems(wl: Workload, stage, out: Path, returncode: int | None) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    missing = [a for a in stage.artifacts if not (out / a).is_file()]
    if missing:
        problems.append("missing " + ", ".join(missing))
    elif stage.name == "eval":
        quality = read_quality(wl, out)
        if quality < wl.quality_bar:
            problems.append(f"quality {quality} below the bar {wl.quality_bar}")
    return problems


def files_under(out: Path) -> set[str]:
    return {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}


def sha256_files(out: Path, names: set[str]) -> dict[str, str]:
    hashes = {}
    for rel in sorted(names):
        digest = hashlib.sha256()
        with (out / rel).open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        hashes[rel] = digest.hexdigest()
    return hashes


def check_stage(wl, stage, out, returncode, names, reference, ledger, label):
    """Check one finished command; returns (ok, sha256 of the files the stage writes)."""
    problems = stage_problems(wl, stage, out, returncode)
    hashes = sha256_files(out, {n for n in names if (out / n).is_file()})
    if reference is not None and hashes != reference:
        problems.append("artifacts differ from an earlier run of this seed")
    return ledger.record(f"{wl.name} {stage.name} {label}", problems), hashes


# --------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Child:
    wall_s: float
    rss_mb: float
    returncode: int | None


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, root: Path, output: Path, deadline: float) -> Child:
    """Run one child to completion; wall time and peak RSS from os.wait4."""
    limit = deadline - time.perf_counter()
    if limit <= 0:
        return Child(0.0, 0.0, None)
    with output.open("ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def run_untraced(wl: Workload, seed: int, seconds: float, root: Path, work: Path,
                 deadline: float) -> tuple[dict, Ledger, dict]:
    env = child_env(root)
    log = work / "children.log"
    ledger = Ledger()

    setup = []
    for i in range(SETUP_PROBES):
        child = run_child([sys.executable, "-c", "import vcas.cli"], env, root, log, deadline)
        problems = [] if child.returncode == 0 else [f"exit code {child.returncode}"]
        if ledger.record(f"setup probe {i}", problems):
            setup.append(child.wall_s)

    iterations: list[dict] = []
    reference: dict[str, dict] = {}
    started = time.perf_counter()
    while True:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        it: dict = {}
        complete = True
        for stage in wl.stages:
            before = files_under(out)
            child = run_child([sys.executable, "-c", CLI_ENTRY, *stage.args(seed, str(out))],
                              env, root, log, deadline)
            it[f"{stage.name}_s"] = child.wall_s
            it[f"{stage.name}_rss_mb"] = child.rss_mb
            ok, hashes = check_stage(wl, stage, out, child.returncode, files_under(out) - before,
                                     reference.get(stage.name), ledger, f"#{len(iterations)}")
            reference.setdefault(stage.name, hashes)
            if not ok:
                complete = False
                break
        if complete:
            it["total_s"] = sum(it[f"{s}_s"] for s in metrics.STAGES)
            it["data_bytes"] = total_bytes(out, wl.data_files)
            it["model_bytes"] = total_bytes(out, wl.model_files)
            it["quality"] = read_quality(wl, out)
        iterations.append(it)
        # Start another repeat only if one more of the same length still
        # ends within --seconds; the first repeat always runs.
        elapsed = time.perf_counter() - started
        if not complete or elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break

    values = {}
    complete_its = [it for it in iterations if "total_s" in it]
    for m in metrics.END_TO_END:
        samples = setup if m.name == "setup_s" else [it[m.name] for it in complete_its]
        if samples:
            values[m.name] = stats.median(samples)
    raw = {"setup_s": setup, "iterations": iterations, "hashes": reference}
    return values, ledger, raw


# --------------------------------------------------------------------------
# the traced run


def signal_import_seconds(env: dict, root: Path, work: Path, deadline: float) -> float | None:
    """Cumulative `-X importtime` of vcas.signal in a fresh interpreter."""
    output = work / "importtime.log"
    output.unlink(missing_ok=True)
    child = run_child([sys.executable, "-X", "importtime", "-c", "import vcas.signal"],
                      env, root, output, deadline)
    if child.returncode != 0:
        return None
    for line in output.read_text().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "vcas.signal":
            return int(parts[1]) / 1e6
    return None


def call_main(main, argv: list[str], log: Path) -> int | None:
    """vcas.cli.main in this process; its output goes to the log."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = main(argv)
    except Exception:
        buf.write(traceback.format_exc())
        rc = None
    with log.open("a") as fh:
        fh.write(buf.getvalue())
    return rc


def inprocess_chain(wl, seed, out, main, log, ledger, label, tracer=None, reference=None):
    """Run the three commands once; returns (their total seconds, hashes per stage)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    hashes: dict[str, dict] = {}
    total = 0.0
    for stage in wl.stages:
        before = files_under(out)
        start = time.perf_counter()
        with tracer.span(f"cli.{stage.name}") if tracer else nullcontext():
            rc = call_main(main, stage.args(seed, str(out)), log)
        total += time.perf_counter() - start
        ok, hashes[stage.name] = check_stage(
            wl, stage, out, rc, files_under(out) - before,
            None if reference is None else reference.get(stage.name), ledger, label)
        if not ok:
            break
    return total, hashes


def run_traced(wl: Workload, seed: int, root: Path, work: Path,
               deadline: float) -> tuple[dict, Ledger, dict, Tracer]:
    ledger = Ledger()
    import_s = signal_import_seconds(child_env(root), root, work, deadline)
    ledger.record("signal import probe", [] if import_s is not None else ["import failed"])

    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("vcas.cli")
    out, log = work / "out", work / "inprocess.log"
    untraced_s, reference = inprocess_chain(wl, seed, out, cli.main, log, ledger, "untraced")
    tracer = Tracer(wl.name)
    with tracer.patched(SITES):
        traced_s, _ = inprocess_chain(wl, seed, out, cli.main, log, ledger, "traced",
                                      tracer, reference)

    summary = tracer.summary()
    values = {m.name: metrics.layer_value(summary, m.source)
              for m in metrics.PER_LAYER if m.source is not None}
    if import_s is not None:
        values["signal.import_s"] = import_s
    values["trace.overhead_s"] = traced_s - untraced_s
    kids = tracer.children()
    for sp in tracer.spans:
        if sp.parent is None and sp.name.startswith("cli."):
            stage = sp.name.split(".", 1)[1]
            values[f"trace.coverage.{stage}"] = 1.0 - tracer.self_seconds(sp, kids) / sp.seconds
    raw = {"untraced_inprocess_s": untraced_s, "traced_inprocess_s": traced_s,
           "hashes": reference}
    return values, ledger, raw, tracer


# --------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }


# --------------------------------------------------------------------------
# entry point


def metric_table(trace: bool) -> tuple:
    return metrics.PER_LAYER if trace else metrics.END_TO_END


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 env_info: dict) -> tuple[dict, Ledger]:
    state = root / STATE_DIR
    work = state / "work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    tracer = None
    try:
        if trace:
            values, ledger, raw, tracer = run_traced(wl, seed, root, work, deadline)
        else:
            values, ledger, raw = run_untraced(wl, seed, seconds, root, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = state / "results"
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write_jsonl(results / f"{stem}.spans.jsonl")
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_info, "metrics": values, "raw": raw,
        "operations": [{"what": w, "problems": p} for w, p in ledger.ops],
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return values, ledger


def print_workload(wl: Workload, values: dict, ledger: Ledger, trace: bool) -> None:
    print(f"== {wl.name}: {wl.why}")
    for m in metric_table(trace):
        value = values.get(m.name)
        shown = "missing" if value is None else f"{value:.6g} {m.unit}"
        print(f"  {m.name:40s} {shown}")
    rate = stats.error_rate(ledger.attempted, ledger.failed)
    print(f"  {metrics.ERROR_RATE:40s} {rate:.6g} ratio"
          f"  ({ledger.failed} failed / {ledger.attempted} attempted)")
    for what, problems in ledger.ops:
        if problems:
            print(f"  FAILED {what}: {'; '.join(problems)}")


def definition() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 36,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=definition()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with what it should move, then exit")
    parser.add_argument("--write-definition", action="store_true",
                        help=f"regenerate {DEFINITION} from the metric and workload tables")
    args = parser.parse_args(argv)
    root = Path.cwd()

    if args.write_definition:
        (root / DEFINITION).write_text(json.dumps(definition(), indent=2) + "\n")
        return 0
    if args.list:
        for m in metrics.END_TO_END:
            print(f"{m.name:40s} {m.unit:6s} {m.better:6s} bound {m.bound}: {m.meaning}")
        for m in metrics.PER_LAYER:
            print(f"{m.name:40s} {m.unit:6s} {m.better:6s} moves {m.moves}")
        return 0
    if not (root / "src" / "vcas" / "cli.py").is_file():
        print(f"error: no vcas source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    env_info = environment(root)
    print("environment " + json.dumps(env_info, sort_keys=True))
    selected = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    combined, attempted, failed = {}, 0, 0
    for wl in selected:
        values, ledger = run_workload(wl, args.seed, args.seconds, trace, root, env_info)
        print_workload(wl, values, ledger, trace)
        prefix = "" if len(selected) == 1 else f"{wl.name}."
        for m in metric_table(trace):
            if m.name in values:
                combined[prefix + m.name] = {"value": values[m.name], "unit": m.unit}
        attempted += ledger.attempted
        failed += ledger.failed

    expected = len(selected) * len(metric_table(trace))
    correct = failed == 0 and len(combined) == expected
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
