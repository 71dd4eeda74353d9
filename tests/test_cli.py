import json

import pytest

from frobtorus.cli import main


def test_analyze_curve_happy_path(capsys):
    assert main(["analyze", "--curve", "5; h=; f=0,1,0,1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["weil"]["coeffs"] == [5, -2, 1]
    assert rec["verdict"]["kind"] == "AbsolutelySimple"


def test_analyze_weil_happy_path(capsys):
    assert main(["analyze", "--weil", '{"q":5,"g":1,"coeffs":[5,-2,1]}']) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["weil_check"]["ok"] is True


def test_analyze_bad_curve_text_is_input_error(capsys):
    assert main(["analyze", "--curve", "not a curve"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_singular_curve_is_input_error(capsys):
    assert main(["analyze", "--curve", "5; h=; f=0,0,1,1"]) == 2


def test_analyze_nonprime_field_is_input_error(capsys):
    assert main(["analyze", "--curve", "6; h=; f=0,1,0,1"]) == 2


def test_analyze_fake_weil_is_verification_failure(capsys):
    assert main(["analyze", "--weil", '{"q":5,"g":1,"coeffs":[5,-5,1]}']) == 3
    out = capsys.readouterr()
    assert "sqrt(q)" in out.err
    assert json.loads(out.out)["weil_check"]["ok"] is False


def test_survey_stdout_roundtrip(capsys):
    assert main(["survey", "--p", "3", "--genus", "1", "--deg", "3",
                 "--limit", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = json.loads(lines[0])
    assert header["p"] == 3
    records = [json.loads(l) for l in lines[1:-1]]
    assert len(records) == 4
    summary = json.loads(lines[-1])
    assert summary["valid"] == 4


def test_survey_to_file_and_report(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["survey", "--p", "3", "--genus", "1", "--deg", "3",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["enumerated"] == 27
    assert main(["report", "--in", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["records"] == summary["valid"]


def test_survey_resume_mismatch_is_input_error(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["survey", "--p", "3", "--genus", "1", "--deg", "3",
                 "--limit", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["survey", "--p", "5", "--genus", "1", "--deg", "3",
                 "--out", str(out)]) == 2


def test_report_corrupt_file_is_verification_failure(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{}\n{broken\n")
    assert main(["report", "--in", str(bad)]) == 3


def test_report_missing_file_is_input_error(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "nope.jsonl")]) == 2


def test_find_prints_requested_count(capsys):
    assert main(["find", "--p", "5", "--genus", "1", "--count", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(
        json.loads(l)["verdict"]["kind"] == "AbsolutelySimple" for l in lines
    )


def test_find_exhaustion_still_succeeds(capsys):
    assert main(["find", "--p", "2", "--genus", "1", "--count", "99999"]) == 0
    out = capsys.readouterr()
    assert "exhausted" in out.err
    assert 0 < len(out.out.splitlines()) < 99999


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--p", "3", "--genus", "1", "--deg", "3", "--limit", "0"],
        ["survey", "--p", "3", "--genus", "1", "--deg", "3", "--jobs", "0"],
        ["find", "--p", "3", "--genus", "1", "--count", "0"],
    ],
)
def test_nonpositive_counts_are_input_errors(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "positive integer" in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
