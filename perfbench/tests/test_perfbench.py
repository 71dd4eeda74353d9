"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def golden_records():
    _, records = gate.read_survey_file(gate.GOLDEN_RECORDS)
    return records


def first_of_kind(kind):
    return next(r for r in golden_records() if r["verdict"]["kind"] == kind)


# -- analyze_mixed input generator ------------------------------------------

POOLS = {workloads.field_name(p, k): [f"{p}^{k} curve {i}" for i in range(40)]
         for p, k, _ in workloads.MIXED_FIELDS}


def test_same_seed_gives_same_curves():
    assert workloads.mixed_inputs(POOLS, 7) == workloads.mixed_inputs(POOLS, 7)
    a = workloads.random_curve_text(random.Random("x"), 2, 5)
    assert a == workloads.random_curve_text(random.Random("x"), 2, 5)


def test_other_seed_gives_other_curves():
    assert set(workloads.mixed_inputs(POOLS, 7)) != set(workloads.mixed_inputs(POOLS, 8))


def test_every_seed_has_the_same_field_mix():
    want = sorted(f"{p}^{k}" for p, k, n in workloads.MIXED_FIELDS for _ in range(n))
    for seed in (1, 2, 3):
        curves = workloads.mixed_inputs(POOLS, seed)
        assert len(set(curves)) == len(curves)
        assert sorted(text.split(" curve")[0] for text in curves) == want


def test_reference_pool_curves_parse_to_themselves():
    ref = workloads.load_mixed_reference()
    import frobtorus as ft

    for field in ref["fields"]:
        text = field["pool"][0]["curve"]
        assert ft.curve_to_text(ft.curve_from_text(text)) == text
        assert len({str(e["weil"]) for e in field["pool"]}) == len(field["pool"])


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 6.5, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 5.0, 0], ["c", 3.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_aggregate_by_name():
    tr = tracing.Tracer()
    tr.spans[:] = [["survey", 0.0, 4.0, None], ["curves.count", 1.0, 2.0, 0],
                   ["curves.count", 2.5, 3.0, 0]]
    tr.counters["curves.count.elements"] = 100
    out = tracing.layer_metrics(tr)
    assert out["survey.self_s"] == pytest.approx(2.5)
    assert out["curves.count.self_s"] == pytest.approx(1.5)
    assert out["curves.count.calls"] == 2
    assert out["curves.count.us_per_element"] == pytest.approx(15000.0)


def test_install_records_spans_and_undo_restores():
    import frobtorus as ft
    from frobtorus import simplicity, survey

    original = survey.classify
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        # NotAbsolutelySimple with witness n = 6: the torsion scan runs
        ft.analyze_one(curve_text="5; h=; f=1,1,0,1,1,1")
    finally:
        undo()
    names = {span[0] for span in tr.spans}
    assert {"survey", "curves.validate", "curves.count", "simplicity.classify",
            "simplicity.torsion_scan", "simplicity.witness", "intpoly.factor"} <= names
    assert tr.counters["simplicity.torsion_scan.tests"] > 0
    assert survey.classify is original and simplicity.classify is original


# -- correctness gate ---------------------------------------------------------

def test_gate_accepts_the_golden_records():
    records = golden_records()
    g = gate.Gate()
    g.records(records, gate.load_survey_reference(gate.GOLDEN)["records"])
    assert (g.attempted, g.failed) == (len(records), 0)


def test_gate_rejects_a_changed_count():
    record = first_of_kind("AbsolutelySimple")
    ref = gate.reference_entry(record)
    bad = copy.deepcopy(record)
    bad["counts"]["counts"][0] += 1
    g = gate.Gate()
    g.record(bad, ref)
    assert g.failed == 1 and "counts" in g.problems[0]


def test_gate_rejects_not_simple_turned_absolutely_simple():
    record = first_of_kind("NotSimple")
    bad = copy.deepcopy(record)
    bad["verdict"] = {"kind": "AbsolutelySimple", "torsion_orders": []}
    g = gate.Gate()
    g.record(bad, gate.reference_entry(record))
    assert g.failed == 1


def test_gate_rejects_a_verdict_that_does_not_replay():
    record = first_of_kind("Inconclusive")
    bad = copy.deepcopy(record)
    bad["verdict"] = {"kind": "AbsolutelySimple", "torsion_orders": []}
    g = gate.Gate()
    g.record(bad, gate.reference_entry(record))
    assert g.failed == 1 and "replay" in g.problems[-1]


def test_gate_accepts_a_refined_inconclusive():
    record = first_of_kind("Inconclusive")
    ref = gate.reference_entry(record)
    refined = copy.deepcopy(record)
    refined["verdict"]["kind"] = "AbsolutelySimple"
    assert gate.record_problems(refined, ref) == []
    got = {"AbsolutelySimple": 85, "NotSimple": 27, "NotAbsolutelySimple": 39,
           "Inconclusive": 11}
    want = gate.load_survey_reference(gate.GOLDEN)["summary"]["by_kind"]
    assert gate.by_kind_problems(got, want) == []


def test_gate_rejects_kind_totals_moving_between_decided_kinds():
    want = gate.load_survey_reference(gate.GOLDEN)["summary"]["by_kind"]
    got = dict(want, NotSimple=want["NotSimple"] - 1,
               AbsolutelySimple=want["AbsolutelySimple"] + 1)
    assert gate.by_kind_problems(got, want)


def test_gate_counts_missing_records_as_failed():
    records = golden_records()
    refs = [gate.reference_entry(r) for r in records]
    g = gate.Gate()
    g.records(records[:-2], refs)
    assert (g.attempted, g.failed) == (len(records), 2)


def test_gate_passes_real_outputs_for_a_non_default_seed():
    import frobtorus as ft

    ref = workloads.load_mixed_reference()
    pools = {f["field"]: [e["curve"] for e in f["pool"]] for f in ref["fields"]}
    entries = {e["curve"]: e for f in ref["fields"] for e in f["pool"]}
    curves = workloads.mixed_inputs(pools, 12345)
    assert set(curves) <= set(entries)
    g = gate.Gate()
    for text in [c for c in curves if c.startswith(("31;", "3^3;", "5^2;"))][:3]:
        g.record(ft.analyze_one(curve_text=text), entries[text])
    assert (g.attempted, g.failed) == (3, 0)
