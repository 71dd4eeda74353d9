import io
import json
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from frobtorus import curves, gf, simplicity, survey
from frobtorus.curves import (
    PointCounts,
    count_points,
    curve_from_text,
    equation_text,
    validate_curve,
)
from frobtorus.errors import (
    BadDegrees,
    CorruptRecord,
    ParseError,
    ResumeMismatch,
    Singular,
    SizeExceeded,
    WeilBoundViolated,
)
from frobtorus.gf import field_create
from frobtorus.simplicity import classify, verdict_to_json
from frobtorus.survey import (
    FORMAT,
    SurveyConfig,
    analyze_one,
    curve_record,
    enumerate_equations,
    report,
    run_find,
    run_survey,
)
from frobtorus.zeta import weil_from_counts, weil_to_json
from oracles import naive_singular_ys_over_zero


def _run_to_file(tmp_path, name="s.jsonl", **kw):
    cfg = SurveyConfig(**kw)
    path = tmp_path / name
    summary = run_survey(cfg, out_path=str(path))
    return cfg, path, summary


def test_survey_config_validation():
    with pytest.raises(BadDegrees):
        SurveyConfig(p=3, genus=2, degree=4)
    with pytest.raises(BadDegrees):
        SurveyConfig(p=3, genus=0, degree=3)
    for limit in (0, 5.0, "5", True):
        with pytest.raises(ValueError, match="limit must be a positive int"):
            SurveyConfig(p=3, genus=1, degree=3, limit=limit)
    with pytest.raises(SizeExceeded):
        SurveyConfig(p=1031, genus=2, degree=5)


@pytest.mark.parametrize(
    "family", [(3, True, 3), (3, 2.0, 5), (3, 2, 5.0), (True, 2, 5), ("3", 2, 5)]
)
def test_survey_config_refuses_a_family_its_header_reader_refuses(family):
    # the header is written from these values, and report refuses a header
    # whose p, genus or degree is not a JSON integer: the writer refuses
    # them first, with the error report turns into CorruptRecord
    with pytest.raises(BadDegrees, match="must be ints"):
        SurveyConfig(*family)


def test_survey_config_rejects_genus_past_the_factoring_cap():
    # F_{2^9} and F_{2^10} are in range, but degree-18 Weil polynomials are not
    with pytest.raises(SizeExceeded, match="factoring cap"):
        SurveyConfig(p=2, genus=9, degree=19)
    SurveyConfig(p=2, genus=8, degree=17)


def test_enumeration_counts_and_order_odd_char():
    cfg = SurveyConfig(p=3, genus=1, degree=3)
    eqs = list(enumerate_equations(cfg))
    assert len(eqs) == 27
    assert eqs[0] == ((), (0, 0, 0, 1))
    assert eqs[1] == ((), (0, 0, 1, 1))  # low coefficients vary last-first
    assert eqs[-1] == ((), (2, 2, 2, 1))
    assert all(h == () for h, _ in eqs)


def test_enumeration_char2_walks_h_major():
    cfg = SurveyConfig(p=2, genus=1, degree=3)
    eqs = list(enumerate_equations(cfg))
    # 7 nonzero h vectors of length g+2=3, 8 f-lows each
    assert len(eqs) == 7 * 8
    assert eqs[0][0] == (0, 0, 1)
    assert [h for h, _ in eqs[:8]] == [(0, 0, 1)] * 8


def test_equation_text_matches_curve_record_key(tmp_path):
    rec = analyze_one("3; h=; f=0,1,0,1")
    assert rec["curve"] == equation_text(field_create(3), (), (0, 1, 0, 1))
    # trailing zeros in h are trimmed in the canonical text
    text = equation_text(field_create(2), (1, 0, 0), (0, 1, 0, 1))
    assert text == "2; h=1; f=0,1,0,1"


def test_run_survey_to_stream_has_header_and_summary():
    cfg = SurveyConfig(p=3, genus=1, degree=3, limit=5)
    buf = io.StringIO()
    summary = run_survey(cfg, out_path=None, stream=buf)
    lines = buf.getvalue().splitlines()
    head = json.loads(lines[0])
    assert head == {"format": FORMAT, "p": 3, "genus": 1, "degree": 3}
    assert len(lines) == 1 + 5
    assert summary["valid"] == 5
    assert summary["by_kind"]["AbsolutelySimple"] + summary["by_kind"][
        "NotSimple"
    ] + summary["by_kind"]["NotAbsolutelySimple"] + summary["by_kind"][
        "Inconclusive"
    ] == 5
    assert summary["config"]["limit"] == 5
    assert 0.0 <= summary["absolutely_simple_fraction"] <= 1.0


@pytest.mark.parametrize(
    "kw,expected",
    [
        (dict(p=7, genus=2, degree=6, limit=100),
         dict(enumerated=2516, valid=100, singular_skipped=2416,
              by_kind=[53, 29, 16, 2], absolutely_simple_fraction=0.53)),
        (dict(p=2, genus=2, degree=5, limit=50),
         dict(enumerated=114, valid=50, singular_skipped=64,
              by_kind=[21, 21, 8, 0], absolutely_simple_fraction=0.42)),
    ],
    ids=["p7-sieve", "p2"],
)
def test_survey_rejects_singular_equations_without_a_witness_search(
    monkeypatch, kw, expected
):
    # the gcd decides singularity; a survey never reads the witness, so the
    # root search behind it (gf.poly_roots) never runs
    calls = []
    poly_roots = gf.poly_roots
    monkeypatch.setattr(
        gf, "poly_roots", lambda *args: calls.append(args) or poly_roots(*args)
    )
    summary = run_survey(SurveyConfig(**kw), stream=io.StringIO())
    assert calls == []
    got = {k: summary[k] for k in expected}
    got["by_kind"] = list(got["by_kind"].values())
    assert got == expected


@pytest.mark.parametrize(
    "kw,counters",
    [(dict(p=5, genus=2, degree=5), [3125, 2500, 625]),
     (dict(p=2, genus=2, degree=5), [480, 256, 224]),
     (dict(p=1048573, genus=1, degree=4, limit=3),
      [1099505336332, 3, 1099505336329])],
    ids=["p5-g2-deg5", "p2-g2-deg5", "p1048573-slab"],
)
def test_survey_counters(kw, counters):
    # a block's singular equations are a count, enumerated less valid; the
    # last family's first 1048573^2 equations are one slab, counted whole
    summary = run_survey(SurveyConfig(**kw), stream=io.StringIO())
    got = [summary[k] for k in ("enumerated", "valid", "singular_skipped")]
    assert got == counters


def test_run_survey_full_family_summary(tmp_path):
    cfg, path, summary = _run_to_file(tmp_path, p=3, genus=1, degree=3)
    assert summary["enumerated"] == 27
    assert summary["valid"] + summary["singular_skipped"] == 27
    body = path.read_text().splitlines()
    assert len(body) == 1 + summary["valid"]
    # completed file re-runs to the identical summary without re-analysis
    again = run_survey(cfg, out_path=str(path))
    assert {k: v for k, v in again.items() if k != "elapsed_s"} == {
        k: v for k, v in summary.items() if k != "elapsed_s"
    }
    assert path.read_text().splitlines() == body


def test_resume_after_truncation_matches_uninterrupted(tmp_path):
    cfg, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3)
    full = path.read_bytes()
    for cut in (len(full) // 4, len(full) // 2, len(full) - 3):
        partial = tmp_path / f"cut{cut}.jsonl"
        partial.write_bytes(full[:cut])
        run_survey(SurveyConfig(p=3, genus=1, degree=3), out_path=str(partial))
        assert partial.read_bytes() == full


def test_resume_with_higher_limit_extends_the_same_file(tmp_path):
    cfg, path, s1 = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=4)
    assert s1["valid"] == 4
    s2 = run_survey(SurveyConfig(p=3, genus=1, degree=3, limit=9),
                    out_path=str(path))
    assert s2["valid"] == 9
    assert len(path.read_text().splitlines()) == 10
    # the first four records are untouched, and the five after them are the
    # limit-9 survey's
    ref = _run_to_file(tmp_path, name="ref.jsonl", p=3, genus=1, degree=3,
                       limit=9)[1]
    assert path.read_bytes() == ref.read_bytes()


def test_rerunning_a_finished_limit_survey_changes_nothing(tmp_path):
    cfg, path, first = _run_to_file(tmp_path, p=3, genus=2, degree=5, limit=5)
    data = path.read_bytes()
    assert (first["enumerated"], first["valid"], first["singular_skipped"]) == (
        33, 5, 28)
    for _ in range(2):
        again = run_survey(cfg, out_path=str(path))
        assert path.read_bytes() == data
        assert {k: v for k, v in again.items() if k != "elapsed_s"} == {
            k: v for k, v in first.items() if k != "elapsed_s"
        }


def test_resume_rejects_mismatched_header(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=3)
    with pytest.raises(ResumeMismatch):
        run_survey(SurveyConfig(p=3, genus=1, degree=4), out_path=str(path))
    with pytest.raises(ResumeMismatch):
        run_survey(SurveyConfig(p=5, genus=1, degree=3), out_path=str(path))


def test_resume_rejects_corrupt_interior_line(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=3)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]  # break a middle record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecord) as exc:
        run_survey(SurveyConfig(p=3, genus=1, degree=3), out_path=str(path))
    assert exc.value.line == 3


@pytest.fixture(scope="module")
def p3_limit5(tmp_path_factory):
    """A p=3 g=2 deg 5 survey file with a header and five records."""
    path = tmp_path_factory.mktemp("p3") / "limit5.jsonl"
    run_survey(SurveyConfig(p=3, genus=2, degree=5, limit=5), out_path=str(path))
    return path.read_bytes()


def _recounted(line: str, **counts) -> str:
    # the record with its counts changed and its Weil polynomial and verdict
    # recomputed from them, so that only its curve contradicts it
    doc = json.loads(line)
    doc["counts"].update(counts)
    P = weil_from_counts(PointCounts(**doc["counts"]))
    doc["weil"], doc["verdict"] = weil_to_json(P), verdict_to_json(classify(P))
    return json.dumps(doc)


def _tampered(data: bytes, case: str) -> bytes:
    lines = data.decode().splitlines()
    if case == "counts_q":
        # 3; h=; f=0,1,0,0,0,1 is NotSimple over F_3; its counts over F_5
        # give an AbsolutelySimple verdict
        lines[1] = _recounted(lines[1], q=5)
    elif case == "counts_g":
        lines[1] = _recounted(lines[1], g=1, counts=[4])
    elif case == "short_counts":
        doc = json.loads(lines[1])
        doc["counts"]["counts"] = doc["counts"]["counts"][:1]
        lines[1] = json.dumps(doc)
    elif case == "extra_member":
        doc = json.loads(lines[1])
        doc["extra"] = {"note": "no survey writes this member"}
        lines[1] = json.dumps(doc)
    elif case == "header_extra_member":
        lines[0] = lines[0].replace("}", ',"extra":1}')
    elif case == "header_float_genus":
        lines[0] = lines[0].replace('"genus":2,', '"genus":2.0,')
    elif case == "header_string_p":
        lines[0] = lines[0].replace('"p":3,', '"p":"3",')
    elif case == "string_count":
        doc = json.loads(lines[2])
        assert doc["counts"]["counts"] == [3, 13]
        doc["counts"]["counts"][1] = "13"
        lines[2] = json.dumps(doc)
    elif case == "trailing_zero":
        # a factor with a zero leading coefficient: the same polynomial,
        # written as no survey writes it
        doc = json.loads(lines[1])
        doc["verdict"]["factors"][0]["coeffs"].append(0)
        lines[1] = json.dumps(doc)
    elif case == "counts_g_headerless":
        # alone in its file, the record fixes the family itself
        lines = [_recounted(lines[1], g=1, counts=[4])]
    elif case == "curve_key":
        lines[1] = lines[1].replace('"3; h=; f=0,', '"3; h=; f=x,')
    elif case == "curve_key_huge_field":
        lines[1] = lines[1].replace('"3; h=; f=0,', '"3^30; h=; f=(0),')
    elif case == "curve_key_long":
        lines[1] = lines[1].replace('"3; h=; f=0,', '"3^2; h=; f=(' + "1" * 5000 + "),")
    elif case in ("odd_h", "non_monic"):
        # canonical keys that no p=3 survey enumerates: one with h = 1, one
        # with f = 2x^5 + x, which is not monic
        old = '"3; h=; f=0,1,0,0,0,1"'
        new = '"3; h=1; f=0,1,0,0,0,1"' if case == "odd_h" else '"3; h=; f=0,1,0,0,0,2"'
        lines[1] = lines[1].replace(old, new)
    elif case == "singular_key":
        # line 2's members under f = x^5, which has a repeated root: an
        # equation the survey enumerates and skips as singular
        lines[1] = lines[1].replace('"3; h=; f=0,1,0,0,0,1"', '"3; h=; f=0,0,0,0,0,1"')
    elif case == "duplicate":
        lines.append(lines[1])
    elif case in ("respelled", "respelled_field"):
        # another spelling of line 2's curve, which is 3; h=; f=0,1,0,0,0,1
        new = "3;h=;f=" if case == "respelled" else "3^1;h=;f="
        lines.append(lines[1].replace('"3; h=; f=', '"' + new))
    elif case == "foreign":
        p5 = curve_record(curve_from_text("5; h=; f=0,1,0,0,0,1"))
        lines.append(json.dumps(p5))
    elif case == "torn":
        return data[:-20]
    elif case == "whole_non_json":
        # a last line with its newline is whole, so it is held to the rule
        # whether or not it decodes
        lines.append("this is not json")
    elif case == "format":
        lines[0] = lines[0].replace(FORMAT, "frobtorus-survey-v0")
    elif case == "format_v1":
        # the format whose records carried a timing member
        lines[0] = lines[0].replace(FORMAT, "frobtorus-survey-v1")
    return ("\n".join(lines) + "\n").encode()


# (exception type, .line[, message pattern]) per caller; None means resume
# recovers
READ_EXPECTED = {
    "counts_q": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "counts_g": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "counts_g_headerless": {
        "report": (CorruptRecord, 1), "resume": (CorruptRecord, 1)
    },
    "short_counts": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "string_count": {"report": (CorruptRecord, 3), "resume": (CorruptRecord, 3)},
    "extra_member": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "header_extra_member": {
        "report": (CorruptRecord, 1), "resume": (CorruptRecord, 1)
    },
    "header_float_genus": {
        "report": (CorruptRecord, 1), "resume": (CorruptRecord, 1)
    },
    "header_string_p": {"report": (CorruptRecord, 1), "resume": (CorruptRecord, 1)},
    "trailing_zero": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "curve_key": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "curve_key_long": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "curve_key_huge_field": {
        "report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)
    },
    "duplicate": {"report": (CorruptRecord, 7), "resume": (CorruptRecord, 7)},
    "respelled": {"report": (CorruptRecord, 7), "resume": (CorruptRecord, 7)},
    "respelled_field": {
        "report": (CorruptRecord, 7), "resume": (CorruptRecord, 7)
    },
    "foreign": {"report": (CorruptRecord, 7), "resume": (CorruptRecord, 7)},
    "odd_h": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "non_monic": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "singular_key": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "torn": {"report": (CorruptRecord, 6), "resume": None},
    "whole_non_json": {"report": (CorruptRecord, 7), "resume": (CorruptRecord, 7)},
    "format": {"report": (CorruptRecord, 1), "resume": (ResumeMismatch, None)},
    "format_v1": {
        "report": (CorruptRecord, 1, "unknown format 'frobtorus-survey-v1'"),
        "resume": (ResumeMismatch, None, "frobtorus-survey-v1"),
    },
}


@pytest.mark.parametrize("case", list(READ_EXPECTED))
@pytest.mark.parametrize("caller", ["report", "resume"])
def test_report_and_resume_read_with_one_set_of_rules(
    tmp_path, p3_limit5, case, caller
):
    path = tmp_path / "s.jsonl"
    tampered = _tampered(p3_limit5, case)
    path.write_bytes(tampered)
    cfg = SurveyConfig(p=3, genus=2, degree=5, limit=5)
    run = {"report": lambda: report(str(path)),
           "resume": lambda: run_survey(cfg, out_path=str(path))}[caller]
    expected = READ_EXPECTED[case][caller]
    if expected is None:
        run()  # resume drops the torn line and recomputes its record
        assert path.read_bytes() == p3_limit5
        return
    exc_type, line, *match = expected
    with pytest.raises(exc_type, match=match[0] if match else None) as exc:
        run()
    assert getattr(exc.value, "line", None) == line
    assert path.read_bytes() == tampered


def test_report_refuses_a_header_of_a_family_no_survey_runs(tmp_path):
    # p = 4 is no prime, and deg f = 7 does not fit genus 2
    path = tmp_path / "s.jsonl"
    path.write_text('{"format":"%s","p":4,"genus":2,"degree":7}\n' % FORMAT)
    with pytest.raises(CorruptRecord, match="line 1: the header's family") as exc:
        report(str(path))
    assert exc.value.line == 1


def test_report_reads_find_output_without_a_header(tmp_path):
    # find writes AbsolutelySimple records and no header; the first record
    # fixes the family
    path = tmp_path / "find.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        assert run_find(SurveyConfig(p=3, genus=2, degree=5), 5, stream=fh) == 5
    summary = report(str(path))
    assert summary["records"] == 5
    assert summary["by_kind"]["AbsolutelySimple"] == 5


def test_report_and_resume_refuse_a_singular_key_at_p2(tmp_path):
    # the singular y^2 + x y = x^5 in place of a p = 2 record's curve,
    # whose h = x^3 fills the g + 2 = 4 columns
    cfg, path, _ = _run_to_file(tmp_path, p=2, genus=2, degree=5, limit=4)
    lines = path.read_text().splitlines()
    assert all('"2; h=0,0,0,1; f=' in line for line in lines[1:])
    key = json.loads(lines[3])["curve"]
    lines[3] = lines[3].replace(key, "2; h=0,1; f=0,0,0,0,0,1")
    path.write_text("\n".join(lines) + "\n")
    tampered = path.read_bytes()
    for run in (lambda: report(str(path)), lambda: run_survey(cfg, out_path=str(path))):
        with pytest.raises(CorruptRecord) as exc:
            run()
        assert exc.value.line == 4
        assert path.read_bytes() == tampered


def test_genus1_survey_never_reports_not_simple():
    # degree-2 Weil polynomials cannot carry two distinct rational factors
    # over a prime field, and dimension 1 is simple over every extension, so
    # every g=1 verdict is AS, the supersingular ones included
    cfg = SurveyConfig(p=5, genus=1, degree=3)
    buf = io.StringIO()
    summary = run_survey(cfg, out_path=None, stream=buf)
    assert summary["enumerated"] == 125
    assert summary["valid"] == summary["by_kind"]["AbsolutelySimple"]


def test_find_first_matches_lexicographically_first_hit():
    cfg_full = SurveyConfig(p=3, genus=2, degree=5)
    buf = io.StringIO()
    run_survey(cfg_full, out_path=None, stream=buf)
    buf2 = io.StringIO()
    assert run_find(cfg_full, 1, stream=buf2) == 1
    assert buf2.getvalue() == _hits(_records(buf.getvalue()))[0]


def test_run_find_streams_only_hits():
    cfg = SurveyConfig(p=5, genus=1, degree=3)
    buf = io.StringIO()
    found = run_find(cfg, 4, stream=buf)
    assert found == 4
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert json.loads(line)["verdict"]["kind"] == "AbsolutelySimple"


def test_run_find_reports_exhaustion():
    # tiny family: genus-1 over F_2 has 56 equations; ask for far more
    cfg = SurveyConfig(p=2, genus=1, degree=3)
    buf = io.StringIO()
    found = run_find(cfg, 10 ** 6, stream=buf)
    assert 0 < found < 10 ** 6
    assert found == len(buf.getvalue().splitlines())


def test_run_find_stops_at_the_configured_limit():
    # find walks the limit's first curves, as the survey of the same
    # configuration does: its hits are the survey's, and no more
    cfg = SurveyConfig(p=3, genus=2, degree=5, limit=40)
    buf = io.StringIO()
    summary = run_survey(cfg, stream=buf)
    hits = _hits(_records(buf.getvalue()))
    assert summary["valid"] == 40 and 0 < len(hits) < 40
    found = io.StringIO()
    assert run_find(cfg, 10 ** 6, stream=found) == len(hits)
    assert found.getvalue() == "".join(hits)


def test_run_find_rejects_nonpositive_count():
    cfg = SurveyConfig(p=3, genus=1, degree=3)
    for count in (0, -1):
        with pytest.raises(ValueError):
            run_find(cfg, count, stream=io.StringIO())


def test_analyze_one_requires_exactly_one_input():
    with pytest.raises(ValueError):
        analyze_one()
    with pytest.raises(ValueError):
        analyze_one("5; h=; f=0,1,0,1", {"q": 5, "g": 1, "coeffs": [5, -2, 1]})


def test_analyze_one_weil_path():
    rec = analyze_one(weil_json={"q": 5, "g": 1, "coeffs": [5, -2, 1]})
    assert "curve" not in rec and "counts" not in rec
    assert rec["verdict"]["kind"] == "AbsolutelySimple"
    assert rec["weil_check"]["ok"]
    rec = analyze_one(weil_json='{"q": 5, "g": 1, "coeffs": [5, -5, 1]}')
    assert not rec["weil_check"]["ok"]
    with pytest.raises(ParseError):
        analyze_one(weil_json="{not json")


def test_analyze_one_curve_path_propagates_singular():
    with pytest.raises(Singular):
        analyze_one("5; h=; f=0,0,1,1")


def test_analyze_one_refuses_a_genus_past_the_factoring_cap_before_validating(
    monkeypatch,
):
    # a dense deg f = 16,001 over F_3, genus 8,000: validation's gcd is
    # quadratic in the degree, and took 13 s before counting refused it
    def validated(*args):
        raise AssertionError("validate_curve ran")

    for module in (curves, survey):
        monkeypatch.setattr(module, "validate_curve", validated)
    rng = random.Random("16001")
    f = [rng.randrange(3) for _ in range(16001)] + [1]
    with pytest.raises(SizeExceeded, match="factoring cap"):
        analyze_one("3; h=; f=" + ",".join(map(str, f)))


def test_report_happy_path(tmp_path):
    _, path, summary = _run_to_file(tmp_path, p=3, genus=1, degree=3)
    rep = report(str(path))
    assert rep["records"] == summary["valid"]
    assert rep["by_kind"] == summary["by_kind"]
    assert rep["absolutely_simple_fraction"] == summary[
        "absolutely_simple_fraction"
    ]
    assert rep["verified"] is True


def test_report_classifies_each_distinct_weil_polynomial_once():
    # and decides it once per twist class {P(x), P(-x)}
    golden = Path(__file__).parent / "golden" / "p3_g2_deg5.jsonl"
    with open(golden) as fh:
        next(fh)
        weils = [tuple(json.loads(line)["weil"]["coeffs"]) for line in fh]
    classes = {min(c, tuple(-x if i % 2 else x for i, x in enumerate(c))) for c in weils}
    assert (len(set(weils)), len(classes)) == (32, 18)
    with mock.patch.object(simplicity, "_decide", wraps=simplicity._decide) as decide:
        rep = report(str(golden))
    info = classify.cache_info()
    assert rep["records"] == len(weils)
    # a lookup per distinct counts vector (one per Weil polynomial here),
    # and one more for the twin of each derived member
    assert (info.misses, info.misses + info.hits) == (32, 32 + 32 - 18)
    assert decide.call_count == 18
    # the encoded members of each counts vector are memoized too, so a
    # second report of the file classifies nothing
    assert report(str(golden)) == rep
    assert classify.cache_info() == info


def test_report_single_record_fraction(tmp_path):
    path = tmp_path / "one.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        assert run_find(SurveyConfig(p=5, genus=1, degree=3), 1, stream=fh) == 1
    rep = report(str(path))
    assert rep["records"] == 1
    assert rep["absolutely_simple_fraction"] == 1.0


def test_report_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    rep = report(str(path))
    assert rep["records"] == 0
    assert rep["absolutely_simple_fraction"] == 0.0


def test_report_flags_tampered_weil(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=3)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[1])
    doc["weil"]["coeffs"][1] += 3  # keep the functional equation... broken
    lines[1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecord) as exc:
        report(str(path))
    assert exc.value.line == 2


def test_report_flags_tampered_verdict(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=6)
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        doc = json.loads(lines[i])
        if doc["verdict"]["kind"] == "AbsolutelySimple":
            doc["verdict"]["kind"] = "NotSimple"
            lines[i] = json.dumps(doc)
            break
    else:
        pytest.skip("no AbsolutelySimple record in slice")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecord):
        report(str(path))


@pytest.mark.parametrize(
    "path,value",
    [
        (("verdict", "factors", 0, "mult"), "x"),
        (("verdict", "torsion_orders"), 5),
        (("verdict", "witness_n"), "2"),
        (("counts", "counts"), [3.0, 13.0]),
    ],
    ids=["mult", "torsion_orders", "witness_n", "counts"],
)
def test_report_rejects_malformed_record_fields(tmp_path, path, value):
    _, file, _ = _run_to_file(tmp_path, p=3, genus=2, degree=5, limit=5)
    lines = file.read_text().splitlines()
    doc = json.loads(lines[2])  # 3; h=; f=0,1,0,0,1,1 -- AbsolutelySimple
    assert doc["counts"]["counts"] == [3, 13]
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    lines[2] = json.dumps(doc)
    file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecord) as exc:
        report(str(file))
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "genus,line,path,value",
    [
        (2, 4, ("weil", "coeffs"), "93211"),
        (2, 4, ("verdict", "factors", 0, "coeffs"), "93211"),
        (2, 4, ("verdict", "factors"), "x"),
        (2, 4, ("verdict", "torsion_orders"), ""),
        (1, 2, ("counts", "counts"), "4"),
    ],
    ids=["weil", "factor-coeffs", "factors", "torsion_orders", "counts"],
)
def test_report_rejects_a_string_where_an_array_belongs(
    tmp_path, genus, line, path, value
):
    # each digit string, read character by character, rebuilds its array,
    # but it is not what the survey writes; the decoders' own refusals are
    # tested with them (test_zeta, test_simplicity)
    _, file, _ = _run_to_file(tmp_path, p=3, genus=genus, degree=2 * genus + 1,
                              limit=3)
    lines = file.read_text().splitlines()
    doc = json.loads(lines[line - 1])
    target = doc
    for key in path[:-1]:
        target = target[key]
    if path[-1] != "factors":
        assert "".join(map(str, target[path[-1]])) == value
    target[path[-1]] = value
    lines[line - 1] = json.dumps(doc)
    file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecord) as exc:
        report(str(file))
    assert exc.value.line == line


def test_report_flags_non_json_line(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=2)
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    with pytest.raises(CorruptRecord, match="line 4 is not what the survey writes") as exc:
        report(str(path))
    assert exc.value.line == 4


def test_resume_refuses_a_whole_last_line_that_is_no_record(tmp_path):
    # the line has its newline, so it is no torn write: resuming with a
    # higher limit refuses it and leaves the file as it was
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=2)
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    before = path.read_bytes()
    with pytest.raises(CorruptRecord) as exc:
        run_survey(SurveyConfig(p=3, genus=1, degree=3, limit=3), out_path=str(path))
    assert exc.value.line == 4
    assert path.read_bytes() == before


# -- a survey file is what the survey writes --------------------------------

GOLDEN = Path(__file__).parent / "golden" / "p3_g2_deg5.jsonl"


def _golden_variant(case: str) -> bytes:
    # the golden file with its records cut, reordered or edited; each record
    # left as it is stays byte for byte a line the survey writes
    head, *records = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    if case == "cut":
        # its 84 AbsolutelySimple records, whose fraction would read 1.0
        records = [r for r in records
                   if json.loads(r)["verdict"]["kind"] == "AbsolutelySimple"]
    elif case == "reversed":
        records.reverse()
    elif case == "swapped":
        # lines 2 and 3 trade their counts, weil and verdict members; each
        # record stays self-consistent
        a, b = json.loads(records[0]), json.loads(records[1])
        for member in ("counts", "weil", "verdict"):
            a[member], b[member] = b[member], a[member]
        records[:2] = (json.dumps(d, separators=(",", ":")) + "\n" for d in (a, b))
    elif case == "dropped":
        del records[50]  # line 52
    return "".join([head, *records]).encode()


@pytest.mark.parametrize(
    "case,line", [("cut", 2), ("reversed", 2), ("swapped", 2), ("dropped", 52)]
)
def test_report_refuses_a_file_that_is_not_the_surveys_output(tmp_path, case, line):
    path = tmp_path / "s.jsonl"
    path.write_bytes(_golden_variant(case))
    with pytest.raises(CorruptRecord) as exc:
        report(str(path))
    assert exc.value.line == line


def test_report_and_resume_refuse_a_line_past_the_familys_end(tmp_path):
    # the golden file holds the whole family; a copy of its last record
    # after it is a 163rd record, which no survey writes
    cfg = SurveyConfig(p=3, genus=2, degree=5)
    data = GOLDEN.read_bytes()
    path = tmp_path / "s.jsonl"
    path.write_bytes(data + data[data.rindex(b"\n", 0, -1) + 1:])
    longer = path.read_bytes()
    for run in (lambda: report(str(path)), lambda: run_survey(cfg, out_path=str(path))):
        with pytest.raises(CorruptRecord, match="past its family's end") as exc:
            run()
        assert exc.value.line == 164
        assert path.read_bytes() == longer
    # find output: every hit of the genus-1 family over F_2, then one more
    with path.open("w", encoding="utf-8") as fh:
        hits = run_find(SurveyConfig(p=2, genus=1, degree=3), 10 ** 6, stream=fh)
    path.write_bytes(path.read_bytes() + path.read_bytes().splitlines(True)[-1])
    with pytest.raises(CorruptRecord, match="past its family's end") as exc:
        report(str(path))
    assert exc.value.line == hits + 1


def test_resume_refuses_a_cut_file_and_leaves_it(tmp_path):
    path = tmp_path / "s.jsonl"
    cut = _golden_variant("cut")
    path.write_bytes(cut)
    with pytest.raises(CorruptRecord) as exc:
        run_survey(SurveyConfig(p=3, genus=2, degree=5), out_path=str(path))
    assert exc.value.line == 2
    assert path.read_bytes() == cut


@pytest.mark.parametrize("where", ["first", "weil", "last"])
def test_report_and_resume_refuse_a_one_byte_change(tmp_path, where):
    # line 3 of the golden file, 3; h=; f=0,1,0,0,1,1, with one byte
    # changed: its opening brace, the 9 that leads its weil coefficients, or
    # the closing brace before its newline, where a timing member once sat
    lines = GOLDEN.read_bytes().splitlines(keepends=True)
    line = lines[2]
    weil = b'"weil":{"q":3,"g":2,"coeffs":[9,'
    at, old, new = {
        "first": (0, b"{", b" "),
        "weil": (line.index(weil) + len(weil) - 2, b"9", b"8"),
        "last": (len(line) - 2, b"}", b" "),
    }[where]
    assert line[at:at + 1] == old
    lines[2] = line[:at] + new + line[at + 1:]
    path = tmp_path / "s.jsonl"
    path.write_bytes(b"".join(lines))
    changed = path.read_bytes()
    cfg = SurveyConfig(p=3, genus=2, degree=5)
    for run in (lambda: report(str(path)), lambda: run_survey(cfg, out_path=str(path))):
        with pytest.raises(CorruptRecord, match="line 3 is not what the survey writes") as exc:
            run()
        assert exc.value.line == 3
        assert path.read_bytes() == changed


def test_a_header_only_file_reports_nothing_and_resumes_whole(tmp_path):
    cfg = SurveyConfig(p=3, genus=2, degree=5)
    path = tmp_path / "s.jsonl"
    path.write_bytes(GOLDEN.read_bytes().split(b"\n")[0] + b"\n")
    rep = report(str(path))
    assert (rep["records"], rep["absolutely_simple_fraction"]) == (0, 0.0)
    summary = run_survey(cfg, out_path=str(path))
    assert summary["valid"] == 162
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_resume_with_a_lower_limit_leaves_the_file(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=2, degree=5, limit=9)
    data = path.read_bytes()
    cfg = SurveyConfig(p=3, genus=2, degree=5, limit=4)
    resumed = run_survey(cfg, out_path=str(path))
    assert path.read_bytes() == data
    fresh = run_survey(cfg, stream=io.StringIO())
    assert {k: v for k, v in resumed.items() if k != "elapsed_s"} == {
        k: v for k, v in fresh.items() if k != "elapsed_s"
    }


def test_resume_with_a_lower_limit_checks_the_records_past_it(tmp_path):
    # lines 9 and 10 of a limit-9 file trade places; a limit-4 resume
    # writes nothing, but refuses the file all the same
    _, path, _ = _run_to_file(tmp_path, p=3, genus=2, degree=5, limit=9)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:8] + lines[9:] + lines[8:9]))
    swapped = path.read_bytes()
    with pytest.raises(CorruptRecord) as exc:
        run_survey(SurveyConfig(p=3, genus=2, degree=5, limit=4), out_path=str(path))
    assert exc.value.line == 9
    assert path.read_bytes() == swapped


# -- batched counting ------------------------------------------------------


def _counting_curves(monkeypatch):
    # the number of curves (f rows) each count_batch call of the survey
    # receives
    sizes = []
    count_batch = survey.count_batch

    def counted(base, g, h, f):
        sizes.append(len(f))
        return count_batch(base, g, h, f)

    monkeypatch.setattr(survey, "count_batch", counted)
    return sizes


def _records(text: str):
    # the record lines of a survey's output, newlines kept
    return text.splitlines(keepends=True)[1:]


def _hits(lines):
    # the AbsolutelySimple lines among record lines
    return [line for line in lines
            if json.loads(line)["verdict"]["kind"] == "AbsolutelySimple"]


def _line(rec: dict) -> str:
    # the survey line of a curve_record (analyze) record: its timing removed
    rec = {k: v for k, v in rec.items() if k != "timing"}
    return json.dumps(rec, separators=(",", ":")) + "\n"


def _block_sizes(cfg, oracle):
    # the curves of each screened block that holds one, read off the
    # per-equation path's enumeration indices: blocks of BATCH equations
    # after the leading slab of p^(deg f - 2)
    slab = cfg.p ** (cfg.degree - 2)
    blocks = Counter((i - slab) // survey.BATCH for i, _ in oracle)
    return [blocks[b] for b in sorted(blocks)]


def test_survey_counts_no_curve_past_the_limit(monkeypatch):
    # one count_batch call per screened block, on its curves up to the
    # limit-th curve
    cfg = SurveyConfig(p=7, genus=2, degree=6, limit=250)
    expected = _block_sizes(cfg, _oracle(cfg))
    assert expected == [225, 25]
    sizes = _counting_curves(monkeypatch)
    buf = io.StringIO()
    summary = run_survey(SurveyConfig(p=7, genus=2, degree=6, limit=100), stream=buf)
    assert sizes == [100] and summary["valid"] == 100
    longer = io.StringIO()
    run_survey(cfg, stream=longer)
    assert sizes == [100, *expected]
    assert _records(buf.getvalue()) == _records(longer.getvalue())[:100]


def test_resume_counts_each_curve_of_the_limit_once(monkeypatch, tmp_path):
    # resume re-derives the 40 stored records to check them, and counts
    # them with the 60 missing ones, in the fresh survey's one batch
    cfg = SurveyConfig(p=7, genus=2, degree=6, limit=100)
    path = tmp_path / "s.jsonl"
    run_survey(cfg, out_path=str(path))
    whole = path.read_text()
    lines = whole.splitlines(keepends=True)
    path.write_text("".join(lines[:41]) + lines[41][:30])  # 40 records, torn
    sizes = _counting_curves(monkeypatch)
    run_survey(cfg, out_path=str(path))
    assert sizes == [100]
    assert path.read_text() == whole


def test_survey_batches_split_at_the_batch_size(monkeypatch, tmp_path):
    # p = 5, g = 1, deg 4 has 500 valid curves in three screened blocks,
    # counted a block at a time; a file cut in the middle of the second
    # resumes to the same records, re-deriving the stored ones in the same
    # blocks, and each record's counts are the batch-of-one counts
    cfg = SurveyConfig(p=5, genus=1, degree=4)
    expected = _block_sizes(cfg, _oracle(cfg))
    assert expected == [213, 212, 75]
    sizes = _counting_curves(monkeypatch)
    _, path, summary = _run_to_file(tmp_path, p=5, genus=1, degree=4)
    assert sizes == expected and summary["valid"] == sum(expected)
    whole = path.read_text()
    for rec in map(json.loads, _records(whole)):
        C = curve_from_text(rec["curve"])
        assert rec["counts"]["counts"] == [count_points(C, 1)]
    lines = whole.splitlines(keepends=True)
    cut = 1 + survey.BATCH + 100
    path.write_text("".join(lines[:cut]) + lines[cut][:25])
    sizes.clear()
    run_survey(cfg, out_path=str(path))
    assert sizes == expected
    assert path.read_text() == whole


def test_find_hits_are_the_first_absolutely_simple_golden_records():
    hits = _hits(_records(GOLDEN.read_text()))
    buf = io.StringIO()
    assert run_find(SurveyConfig(p=3, genus=2, degree=5), 7, stream=buf) == 7
    assert buf.getvalue() == "".join(hits[:7])


# -- block screening -------------------------------------------------------


def _oracle(cfg):
    # the survey one equation at a time: validate_curve, then curve_record
    # on each curve it accepts, up to the limit; (enumeration index, record)
    # pairs
    base = field_create(cfg.p)
    out = []
    for i, (h, f) in enumerate(enumerate_equations(cfg)):
        if len(out) == cfg.limit:
            break
        try:
            C = validate_curve(base, h, f, cfg.genus)
        except Singular:
            continue
        out.append((i, curve_record(C)))
    return out


@pytest.fixture(scope="module", params=[(2, 2, 5), (5, 1, 4)], ids=["p2", "p5"])
def screened_family(request):
    p, genus, degree = request.param
    cfg = SurveyConfig(p=p, genus=genus, degree=degree)
    return cfg, _oracle(cfg)


def test_screened_survey_matches_the_per_equation_path(screened_family):
    cfg, oracle = screened_family
    buf = io.StringIO()
    summary = run_survey(cfg, stream=buf)
    total = sum(1 for _ in enumerate_equations(cfg))
    assert _records(buf.getvalue()) == [_line(rec) for _, rec in oracle]
    assert (summary["enumerated"], summary["singular_skipped"]) == (
        total, total - len(oracle))


def test_screened_survey_limit_inside_a_later_block(screened_family):
    # the limit-th curve lies past the first screening block: the survey
    # stops at its equation
    cfg, oracle = screened_family
    limit = next(n for n, (i, _) in enumerate(oracle, 1) if i >= survey.BATCH + 3)
    buf = io.StringIO()
    summary = run_survey(
        SurveyConfig(p=cfg.p, genus=cfg.genus, degree=cfg.degree, limit=limit),
        stream=buf,
    )
    assert _records(buf.getvalue()) == [_line(rec) for _, rec in oracle[:limit]]
    assert summary["enumerated"] == oracle[limit - 1][0] + 1
    assert summary["singular_skipped"] == summary["enumerated"] - limit


@pytest.mark.parametrize("end", ["first", "last"])
def test_screened_survey_limit_on_a_block_end(monkeypatch, screened_family, end):
    # the limit-th curve is the first curve of the second screened block, or
    # the last curve of the first: the stream ends at its equation, and
    # each block's curves are counted by one call
    cfg, oracle = screened_family
    first = _block_sizes(cfg, oracle)[0]
    limit = first + 1 if end == "first" else first
    sizes = _counting_curves(monkeypatch)
    buf = io.StringIO()
    summary = run_survey(
        SurveyConfig(p=cfg.p, genus=cfg.genus, degree=cfg.degree, limit=limit),
        stream=buf,
    )
    assert _records(buf.getvalue()) == [_line(rec) for _, rec in oracle[:limit]]
    assert sizes == ([first, 1] if end == "first" else [first])
    assert summary["enumerated"] == oracle[limit - 1][0] + 1
    assert summary["singular_skipped"] == summary["enumerated"] - limit


def test_screened_survey_resumes_a_file_cut_inside_a_block(
    screened_family, tmp_path
):
    cfg, oracle = screened_family
    path = tmp_path / "s.jsonl"
    run_survey(cfg, out_path=str(path))
    lines = path.read_text().splitlines(keepends=True)
    # the cut record's equation lies inside the second screening block
    cut = 1 + next(n for n, (i, _) in enumerate(oracle) if i > survey.BATCH + 5)
    path.write_text("".join(lines[:cut]) + lines[cut][:20])
    summary = run_survey(cfg, out_path=str(path))
    assert _records(path.read_text()) == [_line(rec) for _, rec in oracle]
    assert summary["singular_skipped"] == summary["enumerated"] - len(oracle)


@pytest.mark.parametrize(
    "p,genus,degree",
    [(2, 1, 3), (2, 1, 4), (2, 2, 5), (2, 2, 6), (2, 3, 7), (2, 3, 8),
     (3, 1, 3), (3, 1, 4), (5, 1, 3), (5, 2, 5), (7, 2, 6)],
)
def test_leading_slab_is_the_first_run_of_the_family(p, genus, degree):
    # the slab holds the equations before the first screened one, each of
    # them singular with a singular point (0, y), and the stream gets the
    # rest in enumeration order
    cfg = SurveyConfig(p=p, genus=genus, degree=degree)
    n, rest = survey._leading_slab(cfg)
    equations = list(enumerate_equations(cfg))
    assert n == p ** (degree - 2)
    assert list(rest) == equations[n:]
    spec = field_create(p)
    for h, f in equations[:n]:
        with pytest.raises(Singular):
            validate_curve(spec, h, f, genus)
        assert naive_singular_ys_over_zero(p, h, f), (h, f)
    h, f = (np.array(a, dtype=np.int64) for a in zip(*equations[:n]))
    assert (survey.smoothness_gcd_degrees(p, h, f) > 0).all()


@pytest.mark.parametrize("p,genus,degree", [(2, 2, 5), (5, 1, 4), (10007, 1, 4)])
def test_result_stream_yields_the_leading_slab_first(monkeypatch, p, genus, degree):
    # the stream's first block is the slab: its p^(deg f - 2) equations and
    # no record, before any screening call
    calls = []
    monkeypatch.setattr(survey, "smoothness_gcd_degrees", lambda *a: calls.append(a))
    n, records = next(survey._result_stream(SurveyConfig(p, genus, degree)))
    assert (n, list(records), calls) == (p ** (degree - 2), [], [])


@pytest.mark.parametrize(
    "p,genus,degree,step",
    [(2, 1, 3, 1), (2, 1, 4, 1), (3, 1, 3, 1), (3, 1, 4, 1), (5, 1, 3, 1),
     (2, 2, 5, 7)],
)
def test_every_limit_cut_matches_the_per_equation_path(p, genus, degree, step):
    # the leading slab is counted whole at every limit, and the screened
    # equations after it only up to the limit-th curve
    oracle = _oracle(SurveyConfig(p=p, genus=genus, degree=degree))
    for limit in sorted({*range(1, len(oracle), step), len(oracle)}):
        buf = io.StringIO()
        summary = run_survey(
            SurveyConfig(p=p, genus=genus, degree=degree, limit=limit), stream=buf
        )
        records = [rec for _, rec in oracle[:limit]]
        kinds = [sum(rec["verdict"]["kind"] == k for rec in records)
                 for k in survey.KIND_ORDER]
        enumerated = oracle[limit - 1][0] + 1
        assert _records(buf.getvalue()) == list(map(_line, records))
        assert (summary["enumerated"], summary["singular_skipped"],
                summary["valid"], list(summary["by_kind"].values())) == (
            enumerated, enumerated - limit, limit, kinds), limit


def test_screened_find_hits_match_the_per_equation_path(screened_family):
    cfg, oracle = screened_family
    hits = [rec for _, rec in oracle
            if rec["verdict"]["kind"] == "AbsolutelySimple"]
    buf = io.StringIO()
    assert run_find(cfg, len(hits), stream=buf) == len(hits)
    assert buf.getvalue() == "".join(map(_line, hits))


# -- written lines and the record-tail memo ---------------------------------


@pytest.fixture(
    scope="module",
    params=[(2, 2, 5, None), (3, 2, 5, None), (3, 4, 9, 60), (7, 2, 6, 100)],
    ids=["p2", "p3", "p3-g4", "p7-sieve"],
)
def line_family(request):
    p, genus, degree, limit = request.param
    cfg = SurveyConfig(p=p, genus=genus, degree=degree, limit=limit)
    return cfg, [rec for _, rec in _oracle(cfg)]


def _assert_compact_json(lines):
    # each line is json.dumps, with compact separators, of what it decodes to
    for line in lines:
        assert json.dumps(json.loads(line), separators=(",", ":")) + "\n" == line


def test_survey_lines_are_the_compact_json_of_the_per_equation_records(
    line_family,
):
    cfg, oracle = line_family
    buf = io.StringIO()
    summary = run_survey(cfg, stream=buf)
    lines = buf.getvalue().splitlines(keepends=True)
    _assert_compact_json(lines)
    assert _records(buf.getvalue()) == list(map(_line, oracle))
    # the summary counts the kinds that the records hold
    assert summary["by_kind"] == {
        kind: sum(rec["verdict"]["kind"] == kind for rec in oracle)
        for kind in survey.KIND_ORDER
    }


def test_each_counts_vector_is_encoded_once(line_family):
    # a record holds its curve and its counts vector's tail, and nothing
    # else; each vector's tail is encoded by its first record alone
    cfg, oracle = line_family
    buf = io.StringIO()
    run_survey(cfg, stream=buf)
    seen = set()
    for rec in map(json.loads, _records(buf.getvalue())):
        assert list(rec) == ["curve", "counts", "weil", "verdict"]
        seen.add(tuple(rec["counts"]["counts"]))
    info = survey._record_tail.cache_info()
    assert (info.misses, info.hits) == (len(seen), len(oracle) - len(seen))


def test_find_lines_are_the_matching_survey_lines(line_family):
    # find runs first, from a cold memo; the survey after it reads the
    # tails that find encoded
    cfg, oracle = line_family
    hits = [rec for rec in oracle if rec["verdict"]["kind"] == "AbsolutelySimple"]
    found = io.StringIO()
    assert run_find(cfg, len(hits), stream=found) == len(hits)
    whole = io.StringIO()
    run_survey(cfg, stream=whole)
    _assert_compact_json(found.getvalue().splitlines(keepends=True))
    assert found.getvalue() == "".join(_hits(_records(whole.getvalue())))


def test_resume_across_a_cut_line_writes_the_same_records(line_family, tmp_path):
    cfg, oracle = line_family
    path = tmp_path / "s.jsonl"
    run_survey(cfg, out_path=str(path))
    whole = path.read_bytes()
    lines = whole.splitlines(keepends=True)
    cut = 1 + len(oracle) // 2
    path.write_bytes(b"".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2])
    run_survey(cfg, out_path=str(path))
    assert path.read_bytes() == whole


def test_families_that_share_counts_vectors_keep_their_own_records():
    # the p = 2 and p = 3 genus-2 deg-5 families share 7 counts vectors
    # (N_1, N_2); surveyed one after the other in one process, each family's
    # records are its per-equation records, over its own field
    runs = []
    for p in (2, 3):
        cfg = SurveyConfig(p=p, genus=2, degree=5)
        buf = io.StringIO()
        run_survey(cfg, stream=buf)
        oracle = [rec for _, rec in _oracle(cfg)]
        assert _records(buf.getvalue()) == list(map(_line, oracle))
        runs.append({tuple(rec["counts"]["counts"]) for rec in oracle})
    assert len(runs[0] & runs[1]) == 7


def test_a_mutated_curve_record_changes_no_later_record():
    cfg = SurveyConfig(p=3, genus=2, degree=5)
    before = io.StringIO()
    run_survey(cfg, stream=before)
    first = _records(before.getvalue())[0]
    curve = json.loads(first)["curve"]
    rec = curve_record(curve_from_text(curve))
    rec["counts"]["counts"].append(0)
    rec["weil"]["coeffs"][0] = -1
    rec["verdict"]["kind"] = "Mutated"
    assert _line(curve_record(curve_from_text(curve))) == first
    after = io.StringIO()
    run_survey(cfg, stream=after)
    assert after.getvalue() == before.getvalue()


def test_a_counts_vector_past_the_weil_bound_raises_every_time(monkeypatch):
    # the memo keeps no error: each survey that meets the vector raises
    monkeypatch.setattr(survey, "count_batch", lambda base, g, h, f: [[100, 0]] * len(f))
    cfg = SurveyConfig(p=3, genus=2, degree=5)
    for _ in range(2):
        with pytest.raises(WeilBoundViolated):
            run_survey(cfg, stream=io.StringIO())
    info = survey._record_tail.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def _smoothness_calls(monkeypatch):
    # calls of the scalar validation (through either module), of the scalar
    # gcd it runs, and of the batched kernel
    calls = {"validate_curve": 0, "pgcd": 0, "smoothness_gcd_degrees": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, call)

    counted(survey, "validate_curve")
    counted(curves, "validate_curve")
    counted(gf, "pgcd")
    counted(survey, "smoothness_gcd_degrees")
    return calls


def test_survey_decides_smoothness_once_per_block(monkeypatch):
    # survey_sieve's family: 2,516 equations to reach 100 curves.  The first
    # 7^4, with f0 = f1 = 0, are one slab, counted without a row; the 115
    # after it lie in the first block of BATCH rows, one kernel call
    calls = _smoothness_calls(monkeypatch)
    rows = []
    kernel = survey.smoothness_gcd_degrees
    monkeypatch.setattr(survey, "smoothness_gcd_degrees",
                        lambda p, h, f: rows.append(len(f)) or kernel(p, h, f))
    summary = run_survey(SurveyConfig(p=7, genus=2, degree=6, limit=100),
                         stream=io.StringIO())
    assert (summary["enumerated"], summary["singular_skipped"]) == (2516, 2416)
    assert calls == {"validate_curve": 0, "pgcd": 0, "smoothness_gcd_degrees": 1}
    assert rows == [survey.BATCH]


def test_a_large_field_survey_counts_its_first_slab_whole(monkeypatch):
    # p = 10007, g = 1, deg 4: the 10007^2 equations with f0 = f1 = 0 come
    # first, and the three curves after them lie in one screened block, so a
    # second kernel call means the slab was screened row by row
    calls = []
    kernel = survey.smoothness_gcd_degrees

    def once(p, h, f):
        calls.append(len(f))
        if len(calls) > 1:
            raise AssertionError(f"a second screening call, after {calls[0]} rows")
        return kernel(p, h, f)

    monkeypatch.setattr(survey, "smoothness_gcd_degrees", once)
    summary = run_survey(SurveyConfig(p=10007, genus=1, degree=4, limit=3),
                         stream=io.StringIO())
    assert (summary["enumerated"], summary["singular_skipped"],
            summary["valid"]) == (10007 ** 2 + 3, 10007 ** 2, 3)


@pytest.mark.parametrize("p,degree,blocks", [(3, 5, 1), (2, 5, 2)])
def test_survey_and_find_decide_smoothness_once_per_block(
    monkeypatch, p, degree, blocks
):
    # the golden family (243 equations) and p=2 g=2 deg5 (480), run through
    # to the end by both survey and find
    cfg = SurveyConfig(p=p, genus=2, degree=degree)
    calls = _smoothness_calls(monkeypatch)
    run_survey(cfg, stream=io.StringIO())
    assert calls == {"validate_curve": 0, "pgcd": 0,
                     "smoothness_gcd_degrees": blocks}
    run_find(cfg, 10 ** 6, stream=io.StringIO())
    assert calls == {"validate_curve": 0, "pgcd": 0,
                     "smoothness_gcd_degrees": 2 * blocks}


@pytest.mark.parametrize("p,degree", [(3, 5), (2, 5)])
def test_survey_and_find_build_no_curve_object(monkeypatch, p, degree):
    # a survey carries each equation as coefficient rows and text from
    # enumeration to record; curve objects come from validate_curve only
    def refused(*args, **kwargs):
        raise AssertionError("a survey built a HyperellipticCurve")

    cfg = SurveyConfig(p=p, genus=2, degree=degree)
    monkeypatch.setattr(curves.HyperellipticCurve, "__init__", refused)
    summary = run_survey(cfg, stream=io.StringIO())
    assert summary["valid"] > 0
    assert run_find(cfg, 10 ** 6, stream=io.StringIO()) > 0
    with pytest.raises(AssertionError, match="HyperellipticCurve"):
        analyze_one("3; h=; f=0,1,0,0,1,1")
