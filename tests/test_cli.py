import json
import math
import time

import pytest

from frobtorus import report, zeta
from frobtorus._fpx import is_prime
from frobtorus.cli import main
from frobtorus.curves import parse_curve_text
from frobtorus.errors import CorruptRecord, ParseError
from frobtorus.intpoly import IntPoly


def test_analyze_curve_happy_path(capsys):
    assert main(["analyze", "--curve", "5; h=; f=0,1,0,1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["weil"]["coeffs"] == [5, -2, 1]
    assert rec["verdict"]["kind"] == "AbsolutelySimple"


def test_analyze_weil_happy_path(capsys):
    assert main(["analyze", "--weil", '{"q":5,"g":1,"coeffs":[5,-2,1]}']) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["weil_check"] == {"ok": True}


def test_analyze_weil_near_the_bound_is_accepted(capsys):
    # (x^2 - 2000000x + q)(x^2 - 1999999x + q), both a^2 < 4q; a numeric
    # root-modulus check once rejected it with exit 3
    P = ('{"q":1000000000039,"g":2,"coeffs":[1000000000078000000001521,'
         '-3999999000155999961,5999998000078,-3999999,1]}')
    assert main(["analyze", "--weil", P]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["weil_check"] == {"ok": True}


def test_analyze_bad_curve_text_is_input_error(capsys):
    assert main(["analyze", "--curve", "not a curve"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_overlong_tuple_coefficient_is_input_error(capsys):
    # 5,000 digits is past Python's int-string limit, which raises ValueError
    curve = "3^2; h=; f=(" + "1" * 5000 + ",0),(1),(0),(1)"
    assert main(["analyze", "--curve", curve]) == 2
    assert "coefficient tuple of 5002 characters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "curve,prefix",
    [
        ("3; h=; f=" + "1" * 5000 + ",1,0,1", "error: bad coefficient '1111"),
        ("3^2; h=; f=(1,0),(" + "1," * 2500 + "x)",
         "error: bad coefficient tuple list: '(1,0),(1,1,"),
        ("3^2; h=; f=(1,0),(" + "1," * 2500 + "1)",
         "error: coefficient tuple longer than k=2: '1,1,"),
    ],
    ids=["coefficient", "tuple-list", "tuple-length"],
)
def test_analyze_long_rejected_coefficients_are_named_clipped(curve, prefix, capsys):
    # each rejected text is named clipped: one short stderr line
    assert main(["analyze", "--curve", curve]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert " characters)\n" in err


@pytest.mark.parametrize("spec", ["1" * 5000, "3^" + "1" * 5000], ids=["p", "k"])
def test_analyze_field_spec_past_the_int_digit_limit_is_input_error(spec, capsys):
    # int() of 5,000 digits raises ValueError; the spec is named clipped
    curve = spec + "; h=; f=0,1,0,1"
    with pytest.raises(ParseError, match="bad field spec"):
        parse_curve_text(curve)
    assert main(["analyze", "--curve", curve]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad field spec")
    assert f"({len(spec) + 2} characters)\n" in err and err.count("\n") == 1


def test_analyze_singular_curve_is_input_error(capsys):
    assert main(["analyze", "--curve", "5; h=; f=0,0,1,1"]) == 2


@pytest.mark.parametrize(
    "curve,witness",
    [
        ("5; h=; f=0,0,1,1", "m=1, x=(0,), y=(0,)"),
        ("3; h=; f=0,1,0,2,0,1", "no point over F_q"),
        ("2; h=1,1,1; f=0,0,0,0,0,1", "m=2, x=(0, 1), y=(0, 1)"),
        ("2^2; h=(0,1),(1); f=(0),(0),(0),(0),(0),(1)", "m=1, x=(0, 1), y=(0, 1)"),
        # h = x^3 + x + 1 stays irreducible over F_{2^7}: its roots, all
        # singular, lie in F_{2^21}, past the field size cap
        ("2^7; h=(1),(1),(0),(1); f=(0),(0),(1),(1),(1),(1)",
         "not searched, field size 2^21 exceeds 2^20"),
    ],
    ids=["odd", "odd-none", "char2-ext", "char2-F4", "char2-past-cap"],
)
def test_analyze_singular_curve_names_its_witness(capsys, curve, witness):
    assert main(["analyze", "--curve", curve]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"; witness: {witness}\n")


def test_analyze_nonprime_field_is_input_error(capsys):
    assert main(["analyze", "--curve", "6; h=; f=0,1,0,1"]) == 2


def test_analyze_weil_coeffs_must_be_an_array(capsys):
    # the string "221" was once read digit by digit as T^2 + 2T + 2
    assert main(["analyze", "--weil", '{"q":2,"g":1,"coeffs":"221"}']) == 2
    assert "coeffs must be a JSON array" in capsys.readouterr().err


def test_analyze_weil_with_an_overlong_integer_literal_is_input_error(capsys):
    # from Python 3.11 json.loads refuses int literals past 4,300 digits with
    # a ValueError that is not a JSONDecodeError; before, the literal parses
    # and q = 10^5000 is refused as no prime power
    weil = '{"q": 1' + "0" * 5000 + ', "g": 1, "coeffs": [1, 0, 1]}'
    assert main(["analyze", "--weil", weil]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_weil_whose_h_is_singular_modulo_every_prime_to_349(capsys):
    # P = x^4 h(x + 2/x) with h = x(x - M)(x - 2M)(x - 3M), M the product of
    # the primes from 17 to 349: factor finds a good prime past 349
    M = math.prod(p for p in range(17, 350) if is_prime(p))
    P = IntPoly([1])
    for k in range(4):
        P = P * IntPoly([2, -k * M, 1])
    weil = json.dumps({"q": 2, "g": 4, "coeffs": list(P.coeffs)})
    assert main(["analyze", "--weil", weil]) == 3
    rec = json.loads(capsys.readouterr().out)
    assert rec["weil_check"]["ok"] is False
    assert rec["verdict"]["kind"] == "NotSimple"
    # coefficients past 2^53 are written as decimal strings
    assert [([int(c) for c in d["coeffs"]], d["mult"])
            for d in rec["verdict"]["factors"]] == [([2, -k * M, 1], 1) for k in (3, 2, 1, 0)]


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


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r["verdict"].update(witness_n=200000),
        lambda r: r["verdict"]["factors"][0].update(mult=10 ** 7),
        lambda r: r["verdict"]["factors"][0]["coeffs"].__setitem__(0, "7" * 5000),
        lambda r: r["verdict"]["factors"][0]["coeffs"].__setitem__(0, [1] * 2000),
        lambda r: r["counts"]["counts"].__setitem__(0, "7" * 4000),
    ],
    ids=["huge-witness", "huge-mult", "long-digits", "long-list", "long-count"],
)
def test_report_absurd_certificate_fails_fast(tmp_path, capsys, tamper):
    # replaying charpoly_power(P, 200000) or h ** 10**7 would not finish;
    # the fresh classification rejects the record before either is built.
    # A rejected literal shows up clipped, so the error stays one short line,
    # a count of 4,000 digits past the Weil bound too
    out = tmp_path / "run.jsonl"
    assert main(["survey", "--p", "3", "--genus", "2", "--deg", "5",
                 "--limit", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rec = json.loads(lines[1])
    assert rec["verdict"]["factors"]
    tamper(rec)
    lines[1] = json.dumps(rec)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["report", "--in", str(out)]) == 3
    assert time.perf_counter() - start < 3
    err = capsys.readouterr().err
    assert "line 2" in err
    assert len(err.encode()) < 300
    with pytest.raises(CorruptRecord) as bad:
        report(str(out))
    assert bad.value.line == 2


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
        ["survey", "--p", "3", "--genus", "1", "--deg", "3", "--limit", "-1"],
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


# (T^2 + 2)^9 over q = 2: a Weil polynomial of degree 18, past the factoring cap
_G9 = json.dumps({"q": 2, "g": 9, "coeffs": list((IntPoly([2, 0, 1]) ** 9).coeffs)})


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--weil", _G9],
        ["survey", "--p", "2", "--genus", "9", "--deg", "19", "--limit", "1"],
    ],
)
def test_genus_past_the_factoring_cap_is_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "factoring cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "curve,g",
    [
        ("3; h=; f=0,1,0,0,0,2,2,0,1,2,0,1,2,0,2,1", 7),
        ("3; h=; f=1,2,0,1,0,2,2,0,1,2,0,1,2,0,2,1,1,1", 8),
    ],
)
def test_genus_7_and_8_curves_get_a_verdict(curve, g, capsys):
    # inside the factoring cap; the torsion prefilter once asked for a prime
    # past the prime test bound here and exited 2
    assert main(["analyze", "--curve", curve]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["counts"]["g"] == g
    assert rec["verdict"]["kind"] == "AbsolutelySimple"


@pytest.mark.parametrize(
    "coeffs,orders",
    [([2147483713, 0, 1], [2]), ([2147483713, 1, 1], [])],
)
def test_analyze_weil_over_the_genus_1_prefilter_prime(coeffs, orders, capsys):
    # q is the prime that the torsion prefilter reduces R modulo for g = 1
    weil = json.dumps({"q": 2147483713, "g": 1, "coeffs": coeffs})
    assert main(["analyze", "--weil", weil]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["kind"] == "AbsolutelySimple"
    assert verdict["torsion_orders"] == orders


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--curve", "2305843009213693951; h=; f=0,1,0,1"],  # 2^61 - 1
        ["analyze", "--curve", "3^10000000; h=; f=0,1,0,1"],
        ["survey", "--p", "2305843009213693951", "--genus", "1", "--deg", "3"],
    ],
)
def test_huge_field_is_input_error_at_once(argv, capsys):
    # the size cap is checked before trial division and before p**k, which
    # took hours and seconds respectively
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 3
    err = capsys.readouterr().err
    assert "error:" in err and "exceeds 2^20" in err


def test_weil_over_a_huge_prime_q_is_classified_at_once(capsys):
    q = 2 ** 61 - 1
    argv = ["analyze", "--weil", json.dumps({"q": q, "g": 1, "coeffs": [q, 0, 1]})]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 3
    rec = json.loads(capsys.readouterr().out)
    assert rec["verdict"]["kind"] == "AbsolutelySimple"  # supersingular, g = 1


def test_weil_past_the_prime_test_bound_is_input_error_at_once(capsys):
    q = str(2 ** 89 - 1)
    argv = ["analyze", "--weil", json.dumps({"q": q, "g": 1, "coeffs": [q, 0, 1]})]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 3
    assert "past the prime test bound" in capsys.readouterr().err


def test_weil_over_a_q_of_4002_digits_is_input_error_without_integer_roots(
        monkeypatch, capsys):
    # q has no prime factor up to 41 and is past the prime test bound; its
    # exponents are ruled out by power residues, not by integer roots
    calls = []

    def counted(n, k):
        calls.append(k)
        return iroot(n, k)

    iroot = zeta._iroot
    monkeypatch.setattr(zeta, "_iroot", counted)
    q = 3 * 10 ** 4001 + 7
    argv = ["analyze", "--weil", json.dumps({"q": q, "g": 1, "coeffs": [q, 0, 1]})]
    assert main(argv) == 2
    assert len(calls) <= 3
    assert "past the prime test bound" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
