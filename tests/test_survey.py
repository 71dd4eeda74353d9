import io
import json
from pathlib import Path
from unittest import mock

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


def _strip_timing(lines):
    out = []
    for line in lines:
        d = json.loads(line)
        d.pop("timing", None)
        out.append(d)
    return out


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
    with pytest.raises(ValueError):
        SurveyConfig(p=3, genus=1, degree=3, limit=0)
    with pytest.raises(SizeExceeded):
        SurveyConfig(p=1031, genus=2, degree=5)


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
        assert _strip_timing(partial.read_text().splitlines()) == _strip_timing(
            full.decode().splitlines()
        )


def test_resume_with_higher_limit_extends_the_same_file(tmp_path):
    cfg, path, s1 = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=4)
    assert s1["valid"] == 4
    s2 = run_survey(SurveyConfig(p=3, genus=1, degree=3, limit=9),
                    out_path=str(path))
    assert s2["valid"] == 9
    lines = path.read_text().splitlines()
    assert len(lines) == 10
    # the first four records are untouched
    ref = _run_to_file(tmp_path, name="ref.jsonl", p=3, genus=1, degree=3,
                       limit=9)[1]
    assert _strip_timing(lines[1:]) == _strip_timing(
        ref.read_text().splitlines()[1:]
    )


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
    elif case == "format":
        lines[0] = lines[0].replace(FORMAT, "frobtorus-survey-v0")
    return ("\n".join(lines) + "\n").encode()


# (exception type, .line) per caller; None means resume recovers
READ_EXPECTED = {
    "counts_q": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "counts_g": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "counts_g_headerless": {
        "report": (CorruptRecord, 1), "resume": (CorruptRecord, 1)
    },
    "short_counts": {"report": (CorruptRecord, 2), "resume": (CorruptRecord, 2)},
    "string_count": {"report": (CorruptRecord, 3), "resume": (CorruptRecord, 3)},
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
    "torn": {"report": (CorruptRecord, 6), "resume": None},
    "format": {"report": (CorruptRecord, 1), "resume": (ResumeMismatch, None)},
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
        assert _strip_timing(path.read_text().splitlines()) == _strip_timing(
            p3_limit5.decode().splitlines()
        )
        return
    exc_type, line = expected
    with pytest.raises(exc_type) as exc:
        run()
    assert getattr(exc.value, "line", None) == line
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
    first_as = next(
        json.loads(l)
        for l in buf.getvalue().splitlines()[1:]
        if json.loads(l)["verdict"]["kind"] == "AbsolutelySimple"
    )
    buf2 = io.StringIO()
    assert run_find(cfg_full, 1, stream=buf2) == 1
    hit = json.loads(buf2.getvalue())
    assert hit["curve"] == first_as["curve"]
    assert hit["weil"] == first_as["weil"]


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
    hits = [rec for rec in _records(buf.getvalue())
            if rec["verdict"]["kind"] == "AbsolutelySimple"]
    assert summary["valid"] == 40 and 0 < len(hits) < 40
    found = io.StringIO()
    assert run_find(cfg, 10 ** 6, stream=found) == len(hits)
    assert _strip_timing(found.getvalue().splitlines()) == hits


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
    rec = curve_record(curve_from_text("5; h=; f=0,1,0,1"))
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(rec) + "\n")
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
    # each digit string, read character by character, rebuilds its array;
    # the decoders' own refusals are tested with them (test_zeta,
    # test_simplicity)
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
    assert f"its {path[0]} member" in str(exc.value)


def test_report_flags_non_json_line(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=2)
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    with pytest.raises(CorruptRecord) as exc:
        report(str(path))
    assert exc.value.line == 4


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
    return _strip_timing(text.splitlines()[1:])


def test_survey_counts_no_curve_past_the_limit(monkeypatch):
    sizes = _counting_curves(monkeypatch)
    buf = io.StringIO()
    summary = run_survey(SurveyConfig(p=7, genus=2, degree=6, limit=100), stream=buf)
    assert sizes == [100] and summary["valid"] == 100
    longer = io.StringIO()
    run_survey(SurveyConfig(p=7, genus=2, degree=6, limit=250), stream=longer)
    assert sizes == [100, 250]
    assert _records(buf.getvalue()) == _records(longer.getvalue())[:100]


def test_resume_counts_only_the_missing_curves(monkeypatch, tmp_path):
    cfg = SurveyConfig(p=7, genus=2, degree=6, limit=100)
    path = tmp_path / "s.jsonl"
    run_survey(cfg, out_path=str(path))
    whole = path.read_text()
    lines = whole.splitlines(keepends=True)
    path.write_text("".join(lines[:41]) + lines[41][:30])  # 40 records, torn
    sizes = _counting_curves(monkeypatch)
    run_survey(cfg, out_path=str(path))
    assert sizes == [60]
    assert _records(path.read_text()) == _records(whole)


def test_survey_batches_split_at_the_batch_size(monkeypatch, tmp_path):
    # p = 5, g = 1, deg 4 has 500 valid curves, two batches; a file cut in
    # the middle of the second resumes to the same records, and each
    # record's counts are the batch-of-one counts
    cfg = SurveyConfig(p=5, genus=1, degree=4)
    sizes = _counting_curves(monkeypatch)
    _, path, summary = _run_to_file(tmp_path, p=5, genus=1, degree=4)
    assert sizes == [survey.BATCH, summary["valid"] - survey.BATCH]
    whole = path.read_text()
    records = _records(whole)
    for rec in records:
        C = curve_from_text(rec["curve"])
        assert rec["counts"]["counts"] == [count_points(C, 1)]
    lines = whole.splitlines(keepends=True)
    cut = 1 + survey.BATCH + 100
    path.write_text("".join(lines[:cut]) + lines[cut][:25])
    sizes.clear()
    run_survey(cfg, out_path=str(path))
    assert sizes == [summary["valid"] - (cut - 1)]
    assert _records(path.read_text()) == records


def test_find_hits_are_the_first_absolutely_simple_golden_records():
    golden = Path(__file__).parent / "golden" / "p3_g2_deg5.jsonl"
    hits = [r for r in _records(golden.read_text())
            if r["verdict"]["kind"] == "AbsolutelySimple"]
    buf = io.StringIO()
    assert run_find(SurveyConfig(p=3, genus=2, degree=5), 7, stream=buf) == 7
    assert _strip_timing(buf.getvalue().splitlines()) == hits[:7]


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
    assert _records(buf.getvalue()) == _strip_timing(
        json.dumps(rec) for _, rec in oracle)
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
    assert _records(buf.getvalue()) == _strip_timing(
        json.dumps(rec) for _, rec in oracle[:limit])
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
    assert _records(path.read_text()) == _strip_timing(
        json.dumps(rec) for _, rec in oracle)
    assert summary["singular_skipped"] == summary["enumerated"] - len(oracle)


def test_screened_find_hits_match_the_per_equation_path(screened_family):
    cfg, oracle = screened_family
    hits = [rec for _, rec in oracle
            if rec["verdict"]["kind"] == "AbsolutelySimple"]
    buf = io.StringIO()
    assert run_find(cfg, len(hits), stream=buf) == len(hits)
    assert _strip_timing(buf.getvalue().splitlines()) == _strip_timing(
        json.dumps(rec) for rec in hits)


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
    records = _records(buf.getvalue())
    assert records == _strip_timing(json.dumps(rec) for rec in oracle)
    # the summary counts the kinds that the records hold
    assert summary["by_kind"] == {
        kind: sum(rec["verdict"]["kind"] == kind for rec in records)
        for kind in survey.KIND_ORDER
    }


def test_each_counts_vector_is_encoded_once_and_timed_by_the_hit_rule(
    line_family,
):
    # the first record of a counts vector times its decision; every later
    # one takes its lookup's time as zeta_s and 0.0 as classify_s
    cfg, oracle = line_family
    buf = io.StringIO()
    run_survey(cfg, stream=buf)
    seen = set()
    for line in buf.getvalue().splitlines()[1:]:
        rec = json.loads(line)
        timing = rec["timing"]
        assert sorted(timing) == ["classify_s", "count_s", "zeta_s"]
        assert all(type(v) is float and v >= 0.0 for v in timing.values())
        vector = tuple(rec["counts"]["counts"])
        if vector in seen:
            assert timing["classify_s"] == 0.0
        seen.add(vector)
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
    lines = found.getvalue().splitlines(keepends=True)
    _assert_compact_json(lines)
    assert _strip_timing(lines) == [
        rec for rec in _records(whole.getvalue())
        if rec["verdict"]["kind"] == "AbsolutelySimple"
    ]


def test_resume_across_a_cut_line_writes_the_same_records(line_family, tmp_path):
    cfg, oracle = line_family
    path = tmp_path / "s.jsonl"
    run_survey(cfg, out_path=str(path))
    lines = path.read_text().splitlines(keepends=True)
    cut = 1 + len(oracle) // 2
    path.write_text("".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2])
    run_survey(cfg, out_path=str(path))
    resumed = path.read_text().splitlines(keepends=True)
    assert resumed[:cut] == lines[:cut]
    _assert_compact_json(resumed)
    assert _records("".join(resumed)) == _records("".join(lines))


def test_families_that_share_counts_vectors_keep_their_own_records():
    # the p = 2 and p = 3 genus-2 deg-5 families share 7 counts vectors
    # (N_1, N_2); surveyed one after the other in one process, each family's
    # records are its per-equation records, over its own field
    runs = []
    for p in (2, 3):
        cfg = SurveyConfig(p=p, genus=2, degree=5)
        buf = io.StringIO()
        run_survey(cfg, stream=buf)
        records = _records(buf.getvalue())
        assert records == _strip_timing(json.dumps(rec) for _, rec in _oracle(cfg))
        runs.append({tuple(rec["counts"]["counts"]) for rec in records})
    assert len(runs[0] & runs[1]) == 7


def test_a_mutated_curve_record_changes_no_later_record():
    cfg = SurveyConfig(p=3, genus=2, degree=5)
    before = io.StringIO()
    run_survey(cfg, stream=before)
    first = _records(before.getvalue())[0]
    rec = curve_record(curve_from_text(first["curve"]))
    rec["counts"]["counts"].append(0)
    rec["weil"]["coeffs"][0] = -1
    rec["verdict"]["kind"] = "Mutated"
    again = curve_record(curve_from_text(first["curve"]))
    assert _strip_timing([json.dumps(again)]) == [first]
    after = io.StringIO()
    run_survey(cfg, stream=after)
    assert _records(after.getvalue()) == _records(before.getvalue())


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
    # survey_sieve's family: 2,516 equations to reach 100 curves, decided by
    # one kernel call per block of BATCH and by nothing else
    calls = _smoothness_calls(monkeypatch)
    summary = run_survey(SurveyConfig(p=7, genus=2, degree=6, limit=100),
                         stream=io.StringIO())
    assert summary["enumerated"] == 2516
    assert calls == {"validate_curve": 0, "pgcd": 0, "smoothness_gcd_degrees": 10}


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


def test_prime_field_survey_builds_no_zech_table(monkeypatch):
    # the Zech table serves scalar addition over a proper extension; a
    # survey over F_p counts over F_{p^2} from exp and log alone, so the
    # golden family reads no Zech table, with the tables built afresh
    reads = []
    zech = gf.LogTables.zech
    monkeypatch.setattr(
        gf.LogTables, "zech", property(lambda T: reads.append(T) or zech.func(T))
    )
    gf.log_tables.cache_clear()
    summary = run_survey(SurveyConfig(p=3, genus=2, degree=5), stream=io.StringIO())
    assert summary["valid"] == 162 and reads == []
    # an addition over F_9 reads it, once per field
    gf._adder.cache_clear()
    F9 = field_create(3, 2)
    assert gf.add(F9, 1, 2) == gf.add(F9, 2, 1) == 0
    assert reads == [gf.log_tables(F9)]
