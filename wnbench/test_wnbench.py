"""Tests of the benchmark harness itself; not part of the tier-1 suite.

Run with ``python -m pytest wnbench/test_wnbench.py -q`` from the repository
root. The Spark-backed tests use one crime question, so they stay short.
"""
import copy
import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import Recorder, Tally, build_questions, layer_metrics, traced_loop  # noqa: E402
from make_reference import QUESTIONS  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _s(*tags):
    return sorted(tags)


# Explanation lists asserted by tests/test_scenarios_*.py,
# tests/test_crime_scenarios.py and benchmarks/bench_table7.py / bench_table8.py:
# (question, operation, how the assertion compares, expected).
ASSERTED = [
    ("D1", "wnpp", "exact", [_s("σ2")]),
    ("D1", "rpnosa", "exact", [_s("σ2")]),
    ("D1", "rp", "exact", [_s("σ2"), _s("π1")]),
    ("D2", "wnpp", "exact", []),
    ("D2", "rpnosa", "exact", []),
    ("D2", "rp", "exact", [_s("F^T3")]),
    ("D3", "wnpp", "exact", []),
    ("D3", "rpnosa", "exact", []),
    ("D3", "rp", "exact", [_s("F^T4")]),
    ("D4", "wnpp", "exact", [_s("σ6")]),
    ("D4", "rpnosa", "exact", [_s("σ6"), _s("σ6", "σ7")]),
    ("D4", "rp", "contains",
     [_s("σ6"), _s("σ6", "σ7"), _s("F^T5", "σ7"), _s("F^T5", "σ6", "σ7")]),
    ("D4", "rp", "first", _s("σ6")),
    ("D4", "rp", "count", 5),
    ("D5", "wnpp", "exact", [_s("F^I9")]),
    ("D5", "rp", "exact", [_s("F^I9"), _s("F^I9", "π8")]),
    ("T1", "wnpp", "exact", [_s("F^I11")]),
    ("T1", "rpnosa", "exact", [_s("F^I11", "σ12")]),
    ("T1", "rp", "exact", [_s("F^I11", "σ12"), _s("F^T10", "σ12")]),
    ("T2", "wnpp", "exact", [_s("σ15")]),
    ("T2", "rpnosa", "exact", [_s("σ15"), _s("σ14", "σ15")]),
    ("T2", "rp", "exact",
     [_s("σ15"), _s("F^T13"), _s("σ14", "σ15"), _s("F^T13", "σ14", "σ15")]),
    ("T3", "wnpp", "exact", [_s("F^I17")]),
    ("T3", "rp", "exact", [_s("F^I17"), _s("F^T16")]),
    ("T4", "wnpp", "exact", [_s("σ19")]),
    ("T4", "rp", "set", [_s("σ20"), _s("F^T18"), _s("σ19", "σ20"), _s("F^T18", "σ19")]),
    ("TASD", "wnpp", "exact", []),
    ("TASD", "rpnosa", "exact", []),
    ("TASD", "rp", "exact", [_s("F21"), _s("F21", "σ22")]),
    ("C1", "wnpp", "exact", [_s("σ1")]),
    ("C1", "conseil", "exact", [_s("σ1", "⋈2")]),
    ("C1", "rp", "contains", [_s("σ1", "⋈2")]),
    ("C1", "rp", "count", 1),
    ("C2", "wnpp", "exact", [_s("σ4")]),
    ("C2", "conseil", "exact", [_s("σ4")]),
    ("C2", "rp", "contains", [_s("σ4"), _s("σ3", "σ4")]),
    ("C2", "rp", "first", _s("σ4")),
    ("C3", "wnpp", "exact", [_s("⋈5")]),
    ("C3", "conseil", "exact", [_s("⋈5")]),
    ("C3", "rp", "contains", [_s("π6")]),
    ("C3", "rpnosa", "exact", []),
    ("Q1", "wnpp", "exact", [_s("σ24")]),
    ("Q1", "rpnosa", "exact", [_s("σ24")]),
    ("Q1", "rp", "exact", [_s("σ24"), _s("γ23"), _s("γ23", "σ24")]),
    ("Q3", "wnpp", "exact", [_s("σ27")]),
    ("Q3", "rpnosa", "exact", [_s("σ26", "σ27")]),
    ("Q3", "rp", "exact", [_s("σ26", "σ27"), _s("γ25", "σ26", "σ27")]),
    ("Q4", "wnpp", "exact", []),
    ("Q4", "rpnosa", "exact", []),
    ("Q4", "rp", "set",
     [_s("γ30"), _s("γ30", "σ29"), _s("γ30", "σ28"), _s("γ30", "σ29", "σ28")]),
    ("Q4", "rp", "first", _s("γ30")),
    ("Q6", "wnpp", "exact", [_s("σ32")]),
    ("Q6", "rpnosa", "set", [
        _s("σ32"), _s("σ33"), _s("σ34"), _s("σ32", "σ33"), _s("σ32", "σ34"),
        _s("σ33", "σ34"), _s("σ32", "σ33", "σ34")]),
    ("Q6", "rp", "contains", [
        _s("σ32"), _s("σ33"), _s("σ34"), _s("σ32", "σ33"), _s("σ32", "σ34"),
        _s("σ33", "σ34"), _s("σ32", "σ33", "σ34"), _s("π31", "σ33"),
        _s("π31", "σ32", "σ33"), _s("π31", "σ33", "σ34"), _s("π31", "σ32", "σ33", "σ34")]),
    ("Q10", "wnpp", "exact", [_s("⋈38")]),
    ("Q10", "rpnosa", "exact", [_s("σ35"), _s("σ35", "σ36")]),
    ("Q10", "rp", "exact",
     [_s("σ35"), _s("σ35", "σ36"), _s("π37", "σ35"), _s("π37", "σ35", "σ36")]),
    ("Q13", "wnpp", "exact", [_s("⋈39")]),
    ("Q13", "rpnosa", "exact", [_s("⋈39")]),
    ("Q13", "rp", "exact", [_s("⋈39")]),
]

# Table 7 counts (wnpp, rpnosa, rp) asserted by benchmarks/bench_table7.py.
TABLE7_COUNTS = {
    "D1": (1, 1, 2), "D2": (0, 0, 1), "D3": (0, 0, 1), "D4": (1, 2, 5),
    "D5": (1, 1, 2), "T1": (1, 1, 2), "T2": (1, 2, 4), "T3": (1, 1, 2),
    "T4": (1, 2, 4), "TASD": (0, 0, 2),
}


def test_reference_covers_every_question_and_operation():
    from repro.workloads.registry import all_scenarios

    scns = all_scenarios()
    assert set(REFERENCE["questions"]) == set(QUESTIONS)
    assert REFERENCE["sf"] == harness.SF
    for key in QUESTIONS:
        assert set(REFERENCE["questions"][key]) == set(harness.ops_for(scns[key]))
    for wl in harness.WORKLOADS.values():
        assert set(wl.questions) | {k for k, _ in wl.warmup} <= set(QUESTIONS)
        assert not set(wl.questions) & {k for k, _ in wl.warmup}


@pytest.mark.parametrize("key,op,how,want", ASSERTED,
                         ids=[f"{a[0]}-{a[1]}-{a[2]}" for a in ASSERTED])
def test_reference_agrees_with_asserted_sets(key, op, how, want):
    got = REFERENCE["questions"][key][op]
    if how == "exact":
        assert got == want
    elif how == "set":
        assert sorted(got) == sorted(want) and len(got) == len(want)
    elif how == "contains":
        assert all(e in got for e in want)
    elif how == "first":
        assert got[0] == want
    elif how == "count":
        assert len(got) == want


def test_reference_agrees_with_table7_counts():
    for key, counts in TABLE7_COUNTS.items():
        ref = REFERENCE["questions"][key]
        assert (len(ref["wnpp"]), len(ref["rpnosa"]), len(ref["rp"])) == counts, key


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)
    xs = [float(i) for i in range(1, 101)]
    assert harness.tail(xs) == (90.0, 90.0, 10)


def test_self_times_subtract_children():
    rec = Recorder()
    with rec.span("question", qid="q") as root:
        with rec.span("op.rp") as op:
            with rec.span("tracing.trace") as child:
                pass
    selfs = rec.self_times()
    assert selfs[0] == pytest.approx(root.duration - op.duration)
    assert selfs[1] == pytest.approx(op.duration - child.duration)
    assert sum(selfs) == pytest.approx(root.duration)
    assert {s.qid for s in rec.spans} == {"q"}


def test_op_span_wraps_the_library_call_only(monkeypatch):
    class SlowTags(dict):  # the answer's op-id -> tag mapping is harness work
        def get(self, *args):
            time.sleep(0.05)
            return super().get(*args)

    q = harness.Question("X", None, {}, None, SlowTags({1: "σ1"}), None, {})
    monkeypatch.setattr(harness, "ask", lambda q, op: ([[1]], [[1]]))
    rec = Recorder()
    with rec.span("question", qid="q"):
        Tally({"X": {"wnpp": [["σ1"]]}}).call(q, "wnpp", rec=rec)
    op = next(s for s in rec.spans if s.name == "op.wnpp")
    assert op.duration < 0.05 <= rec.self_times()[0]


@pytest.fixture(scope="module")
def crime_c1(spark):
    return build_questions(spark, ["C1"])


def test_correct_reference_counts_no_failure(crime_c1):
    tally = Tally(REFERENCE["questions"])
    tally.call(crime_c1["C1"], "wnpp")
    assert (tally.attempted, tally.failed) == (1, 0)
    assert len(tally.latencies["wnpp"]) == 1


def test_wrong_reference_entry_counts_as_failure(crime_c1):
    ref = copy.deepcopy(REFERENCE["questions"])
    ref["C1"]["wnpp"] = [["⋈2"]]
    tally = Tally(ref)
    tally.call(crime_c1["C1"], "wnpp")
    assert (tally.attempted, tally.failed) == (1, 1)
    assert len(tally.latencies["wnpp"]) == 1  # failed, but its time still counts


def test_missing_reference_entry_counts_as_failure(crime_c1):
    ref = copy.deepcopy(REFERENCE["questions"])
    del ref["C1"]["wnpp"]
    tally = Tally(ref)
    tally.call(crime_c1["C1"], "wnpp")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_traced_question_spans_account_for_wall_time(spark, crime_c1):
    from repro.core import msr

    original = msr.trace
    tally = Tally(REFERENCE["questions"])
    rec = Recorder()
    counts = traced_loop(spark, crime_c1, tally, random.Random(0), rec)
    assert msr.trace is original  # the wrappers are removed again
    assert tally.failed == 0
    assert tally.attempted == 2 * len(crime_c1["C1"].ops)  # untraced + traced
    metrics = counts | layer_metrics(rec)
    assert 0.99 < metrics["trace.accounted_ratio"] <= 1.0
    # the question's own self time and its layers' make up its wall time
    root = next(s for s in rec.spans if s.name == "question")
    in_question = [t for s, t in zip(rec.spans, rec.self_times())
                   if s is root or (s.parent is not None and s.qid == root.qid)]
    assert sum(in_question) == pytest.approx(root.duration)
    assert metrics["spark.jobs"] > 0 and metrics["spark.stages"] >= metrics["spark.jobs"]
    assert metrics["tracing.calls"] == 4  # one per operation on the original query
    assert metrics["msr.collect_stats_calls"] == 4
    assert metrics["msr.explanations"] == 1
    assert {s.qid for s in rec.spans} == {"wnbench-C1"}
