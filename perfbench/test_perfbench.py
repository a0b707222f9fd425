"""Self-tests for the benchmark's own arithmetic and bookkeeping.

Run with `python3 -m pytest perfbench`; they need neither vcas nor numpy.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import types
from pathlib import Path

import pytest

from perfbench import metrics, stats
from perfbench.run import Ledger, check_stage, definition, files_under
from perfbench.tracer import SITES, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- medians and quartiles --------------------------------------------------


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.median([])


def test_quartiles_use_the_exclusive_method():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # exclusive method: positions (n+1)p = 2.75 and 8.25
    assert stats.quartiles(values) == pytest.approx((2.75, 5.5, 8.25))
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_interquartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([5.0] * 10) == 0.0


# -- span self time -------------------------------------------------------


def test_covered_merges_overlaps_and_keeps_gaps():
    assert stats.covered([]) == 0.0
    assert stats.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert stats.covered([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_children_once():
    # parent 0..10, children 1..3 and 2..5 overlap, 7..8 apart: covered 5
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)


def test_nested_spans_self_time_counts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer("w", clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("mid"):
            clock.now = 2.0
            with tracer.span("inner"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 10.0
    summary = tracer.summary()
    assert summary["outer"]["s"] == 10.0
    assert summary["outer"]["self_s"] == pytest.approx(5.0)  # minus mid (1..6)
    assert summary["mid"]["self_s"] == pytest.approx(2.0)  # minus inner (2..5)
    assert summary["inner"]["self_s"] == pytest.approx(3.0)
    outer, mid, inner = tracer.spans
    assert (outer.parent, mid.parent, inner.parent) == (None, outer.id, mid.id)
    assert {sp.workload for sp in tracer.spans} == {"w"}


def test_summary_sums_calls_fields_and_child_calls():
    clock = FakeClock()
    tracer = Tracer("w", clock)
    leaf = tracer.wrap("leaf", lambda n: n, measure=lambda a, k, r: {"rows": r})
    with tracer.span("train"):
        for n in (3, 4):
            clock.now += 1.0
            leaf(n)
    agg = tracer.summary()
    assert agg["leaf"]["calls"] == 2
    assert agg["leaf"]["fields"]["rows"] == 7
    assert agg["train"]["child_calls"]["leaf"] == 2
    assert metrics.layer_value(agg, ("train", "children:leaf")) == 2
    assert metrics.layer_value(agg, ("leaf", "field:rows")) == 7
    assert metrics.layer_value(agg, ("absent", "s")) == 0


def test_ratio_statistic_divides_summed_fields():
    tracer = Tracer("w", FakeClock())
    for rows, distinct in ((100, 15), (200, 30)):
        with tracer.span("fit") as sp:
            sp.fields.update(rows=rows, distinct_rows=distinct)
    share = metrics.layer_value(tracer.summary(), ("fit", "ratio:distinct_rows/rows"))
    assert share == pytest.approx(0.15)


def test_patched_swaps_and_restores_module_attributes(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    module.work = lambda x: x * 2
    original = module.work
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer("w")
    with tracer.patched([(module.__name__, "work", "fake.work", None)]):
        assert module.work is not original
        assert module.work(21) == 42
    assert module.work is original
    assert [sp.name for sp in tracer.spans] == ["fake.work"]


def test_write_jsonl_keeps_every_span(tmp_path):
    clock = FakeClock()
    tracer = Tracer("grasp", clock)
    with tracer.span("a") as sp:
        sp.fields["bytes"] = 8
        clock.now = 1.5
    path = tracer.write_jsonl(tmp_path / "spans.jsonl")
    (rec,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert rec == {"id": 0, "name": "a", "start": 0.0, "end": 1.5, "parent": None,
                   "workload": "grasp", "bytes": 8}


# -- error rate and its base ----------------------------------------------


def test_error_rate_base():
    assert stats.error_rate(4, 1) == 0.25
    assert stats.error_rate(1, 0) == 0.0
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(2, 3)


def test_ledger_counts_each_operation_once():
    ledger = Ledger()
    assert ledger.record("ok", [])
    assert not ledger.record("bad", ["exit code 1", "missing x"])
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert stats.error_rate(ledger.attempted, ledger.failed) == 0.5


def test_check_stage_flags_artifacts_that_differ_from_the_reference(tmp_path):
    wl = WORKLOADS["policy"]
    stage = wl.stages[0]
    (tmp_path / "sim").mkdir()
    demos = tmp_path / "sim" / "demos.jsonl"
    demos.write_text("one\n")
    ledger = Ledger()
    written = files_under(tmp_path)
    ok, first = check_stage(wl, stage, tmp_path, 0, written, None, ledger, "#0")
    assert ok and list(first) == ["sim/demos.jsonl"]
    assert check_stage(wl, stage, tmp_path, 0, written, first, ledger, "#1")[0]
    demos.write_text("two\n")
    assert not check_stage(wl, stage, tmp_path, 0, written, first, ledger, "#2")[0]
    assert not check_stage(wl, stage, tmp_path, 1, written, None, ledger, "#3")[0]
    assert (ledger.attempted, ledger.failed) == (4, 2)


# -- the definition -------------------------------------------------------


def test_committed_definition_matches_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == definition()


def test_definition_respects_its_limits():
    d = definition()
    names = [w["name"] for w in d["workloads"]]
    names += [m["name"] for m in d["end_to_end"] + d["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in d["workloads"])
    assert all(UNIT.fullmatch(m["unit"]) for m in d["end_to_end"] + d["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in d["end_to_end"])
    setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in d["end_to_end"])}]
    assert 2 <= len(d["workloads"]) <= 8 and 1 <= len(d["per_layer"]) <= 128
    assert len(json.dumps(d)) <= 64 * 1024


def test_every_layer_metric_reads_a_span_that_is_recorded():
    recorded = {name for _, _, name, _ in SITES} | {f"cli.{s}" for s in metrics.STAGES}
    for m in metrics.PER_LAYER:
        if m.source is not None:
            assert m.source[0] in recorded, m.name
            stat = m.source[1]
            if stat.startswith("children:"):
                assert stat.split(":", 1)[1] in recorded, m.name


def test_workloads_name_their_stages_in_order():
    for wl in WORKLOADS.values():
        assert tuple(s.name for s in wl.stages) == metrics.STAGES
        assert 0 < wl.quality_bar <= 1
