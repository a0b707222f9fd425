"""Committed benchmark records (`BENCH_*.json` at the repository root).

Each record holds the runs of `perfbench/run.py` that a change's numbers
cite: per run, the side (parent or change), the commit its checkout was
at, the seed, the `environment` line and the last JSON line that run.py
printed.  These tests check the shape of every record, not its numbers.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SHA = re.compile(r"[0-9a-f]{40}")


def test_there_is_a_bench_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_bench_record_names_its_commits_and_seeds(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert SHA.fullmatch(record["parent_commit"])
    seeds = record["seeds"]
    assert seeds and all(isinstance(s, int) and s >= 0 for s in seeds)
    runs = record["runs"]
    assert {run["seed"] for run in runs} == set(seeds)
    for run in runs:
        assert run["side"] in ("parent", "change")
        assert SHA.fullmatch(run["commit"])
        assert isinstance(run["argv"], list) and run["argv"]
        env = run["environment"]
        assert SHA.fullmatch(env["git_commit"]) or env["git_commit"] is None
        assert re.fullmatch(r"[0-9a-f]{64}", env["source_sha256"])
        result = run["result"]
        assert {"correct", "attempted", "failed", "metrics"} <= result.keys()
        assert isinstance(result["failed"], int)
        for metric in result["metrics"].values():
            assert {"value", "unit"} <= metric.keys()
    # Both sides ran every seed, so each parent run has a change run to
    # pair with.
    sides = {(run["side"], run["seed"]) for run in runs}
    assert sides == {(side, s) for side in ("parent", "change") for s in seeds}
