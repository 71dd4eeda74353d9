import io
import json

import pytest

from frobtorus.curves import curve_from_text
from frobtorus.errors import (
    BadDegrees,
    CorruptRecord,
    ParseError,
    ResumeMismatch,
    Singular,
    SizeExceeded,
)
from frobtorus.survey import (
    FORMAT,
    SurveyConfig,
    analyze_one,
    curve_record,
    enumerate_equations,
    equation_text,
    report,
    run_find,
    run_survey,
)


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
        SurveyConfig(p=3, genus=1, degree=3, jobs=0)
    with pytest.raises(ValueError):
        SurveyConfig(p=3, genus=1, degree=3, limit=0)
    with pytest.raises(SizeExceeded):
        SurveyConfig(p=1031, genus=2, degree=5)


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
    assert rec["curve"] == equation_text(3, (), (0, 1, 0, 1))
    # trailing zeros in h are trimmed in the canonical text
    assert equation_text(2, (1, 0, 0), (0, 1, 0, 1)) == "2; h=1; f=0,1,0,1"


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


def _tampered(data: bytes, case: str) -> bytes:
    lines = data.decode().splitlines()
    if case == "duplicate":
        lines.append(lines[1])
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
    "duplicate": {"report": (CorruptRecord, 7), "resume": (CorruptRecord, 7)},
    "foreign": {"report": (CorruptRecord, 7), "resume": (CorruptRecord, 7)},
    "torn": {"report": (CorruptRecord, 6), "resume": None},
    "format": {"report": (CorruptRecord, 1), "resume": (ResumeMismatch, None)},
}


@pytest.mark.parametrize("case", list(READ_EXPECTED))
@pytest.mark.parametrize("caller", ["report", "resume"])
def test_report_and_resume_read_with_one_set_of_rules(
    tmp_path, p3_limit5, case, caller
):
    path = tmp_path / "s.jsonl"
    path.write_bytes(_tampered(p3_limit5, case))
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


def test_jobs_parallel_output_matches_serial(tmp_path):
    _, p1, s1 = _run_to_file(tmp_path, name="serial.jsonl",
                             p=3, genus=1, degree=3, limit=10)
    _, p2, s2 = _run_to_file(tmp_path, name="par.jsonl",
                             p=3, genus=1, degree=3, limit=10, jobs=2)
    assert _strip_timing(p1.read_text().splitlines()) == _strip_timing(
        p2.read_text().splitlines()
    )
    assert s1["valid"] == s2["valid"]


def test_genus1_survey_never_reports_not_simple():
    # degree-2 Weil polynomials cannot carry two distinct rational factors
    # over a prime field, so g=1 verdicts stay in {AS, Inconclusive}
    cfg = SurveyConfig(p=5, genus=1, degree=3)
    buf = io.StringIO()
    summary = run_survey(cfg, out_path=None, stream=buf)
    assert summary["enumerated"] == 125
    assert summary["by_kind"]["NotSimple"] == 0
    assert summary["by_kind"]["NotAbsolutelySimple"] == 0
    assert summary["valid"] == (
        summary["by_kind"]["AbsolutelySimple"] + summary["by_kind"]["Inconclusive"]
    )


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


def test_report_flags_non_json_line(tmp_path):
    _, path, _ = _run_to_file(tmp_path, p=3, genus=1, degree=3, limit=2)
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    with pytest.raises(CorruptRecord) as exc:
        report(str(path))
    assert exc.value.line == 4
