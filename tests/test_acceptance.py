"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the lines for passing criteria; pytest -v shows each
criterion's outcome by test name either way.
"""

import json
import random
import time
from pathlib import Path

import pytest
import sympy

from frobtorus import gf
from frobtorus.curves import PointCounts, curve_from_text, validate_curve
from frobtorus.errors import BadDegrees, Singular
from frobtorus.intpoly import IntPoly, factor, squarefree_part
from frobtorus.simplicity import (
    ABSOLUTELY_SIMPLE,
    charpoly_power,
    classify,
    ratio_torsion_orders,
    verdict_from_json,
    verify_verdict,
)
from frobtorus.survey import SurveyConfig, run_find, run_survey
from frobtorus.zeta import WeilPolynomial, is_weil, weil_from_counts, weil_from_json
from oracles import naive_count

GOLDEN = Path(__file__).parent / "golden"


def _line(n: int, ok: bool, what: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {what}")


def test_criterion_1_existence_of_absolutely_simple_curves():
    ok = True
    details = []
    for g, p in [(2, 3), (2, 5), (3, 3)]:
        cfg = SurveyConfig(p=p, genus=g, degree=2 * g + 1)
        import io

        buf = io.StringIO()
        t0 = time.perf_counter()
        found = run_find(cfg, 10, stream=buf)
        dt = time.perf_counter() - t0
        records = [json.loads(l) for l in buf.getvalue().splitlines()]
        curves = {r["curve"] for r in records}
        replayed = all(
            verify_verdict(
                weil_from_json(r["weil"]), verdict_from_json(r["verdict"])
            )
            and r["verdict"]["kind"] == ABSOLUTELY_SIMPLE
            for r in records
        )
        good = found == 10 and len(curves) == 10 and replayed and dt < 60.0
        details.append(f"(g={g},p={p}): {found} curves in {dt:.2f}s")
        ok = ok and good
    _line(1, ok, "find 10 absolutely simple curves per (g,p); " + "; ".join(details))
    assert ok


def test_criterion_2_survey_fraction_matches_frozen_golden(tmp_path):
    cfg = SurveyConfig(p=3, genus=2, degree=5)
    out = tmp_path / "survey.jsonl"
    t0 = time.perf_counter()
    summary = run_survey(cfg, out_path=str(out))
    dt = time.perf_counter() - t0
    golden_summary = json.loads((GOLDEN / "p3_g2_deg5_summary.json").read_text())
    summary.pop("elapsed_s")

    def strip(lines):
        out_l = []
        for line in lines:
            d = json.loads(line)
            d.pop("timing", None)
            out_l.append(d)
        return out_l

    records_match = strip(out.read_text().splitlines()) == strip(
        (GOLDEN / "p3_g2_deg5.jsonl").read_text().splitlines()
    )
    ok = (
        dt < 10.0
        and summary["absolutely_simple_fraction"] > 0
        and summary == golden_summary
        and records_match
    )
    _line(
        2,
        ok,
        f"243-equation survey in {dt:.2f}s, fraction "
        f"{summary['absolutely_simple_fraction']:.4f}, golden match={records_match}",
    )
    assert ok


def test_criterion_3_counting_kernel_vs_naive_oracle():
    rng = random.Random(1009)
    checked = 0
    mismatches = 0
    while checked < 500:
        p = rng.choice([3, 5, 7])
        g = rng.choice([1, 2])
        d = rng.choice([2 * g + 1, 2 * g + 2])
        spec = gf.field_create(p)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        try:
            C = validate_curve(spec, [], f, g)
        except (Singular, BadDegrees):
            continue
        from frobtorus.curves import count_points

        for i in range(1, g + 1):
            if count_points(C, i) != naive_count(C, i):
                mismatches += 1
        checked += 1
    ok = checked >= 500 and mismatches == 0
    _line(3, ok, f"{checked} random curves, {mismatches} count disagreements")
    assert ok


def test_criterion_4_hand_verified_anchors():
    results = []

    rec_counts = curve_from_text("5; h=; f=0,1,0,1")
    from frobtorus.curves import count_points

    n1 = count_points(rec_counts, 1)
    P = weil_from_counts(PointCounts(q=5, g=1, counts=(n1,)))
    v = classify(P)
    results.append(n1 == 4 and P.coeffs == (5, -2, 1) and v.kind == "AbsolutelySimple")

    C2 = curve_from_text("5; h=; f=1,0,0,1")
    n1 = count_points(C2, 1)
    P2 = weil_from_counts(PointCounts(q=5, g=1, counts=(n1,)))
    v2 = classify(P2)
    # supersingular, and simple over every extension since g = 1
    results.append(n1 == 6 and P2.coeffs == (5, 0, 1) and v2.kind == "AbsolutelySimple")

    P3 = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 2, 0, 1))
    v3 = classify(P3)
    results.append(v3.kind == "NotAbsolutelySimple" and v3.witness_n == 2)

    P4 = WeilPolynomial(q=3, g=2, coeffs=(9, 0, 0, 0, 1))
    v4 = classify(P4)
    results.append(v4.kind == "Inconclusive")

    ok = all(results)
    _line(4, ok, f"anchor outcomes {results}")
    assert ok


def test_criterion_5_ratio_torsion_vs_degree_stability():
    polys = {}
    with open(GOLDEN / "p3_g2_deg5.jsonl") as fh:
        next(fh)
        for line in fh:
            P = weil_from_json(json.loads(line)["weil"])
            polys.setdefault(P.coeffs, P)
    disagreements = 0
    for P in polys.values():
        if squarefree_part(IntPoly(P.coeffs)).degree == 2 * P.g:
            empty_torsion = ratio_torsion_orders(P) == set()
        else:
            # a repeated eigenvalue is a ratio of order 1: torus degenerate
            empty_torsion = False
        stable = all(
            squarefree_part(charpoly_power(P, n)).degree == 2 * P.g
            for n in range(1, 61)
        )
        if empty_torsion != stable:
            disagreements += 1
    ok = disagreements == 0
    _line(
        5,
        ok,
        f"{len(polys)} distinct Weil polynomials, {disagreements} disagreements "
        "between torsion orders and minpoly degrees (n <= 60)",
    )
    assert ok


def test_criterion_6_structural_invariants_and_multiplicativity():
    rng = random.Random(60)
    pool = []
    while len(pool) < 40:
        p = rng.choice([3, 5, 7])
        g = rng.choice([1, 2])
        spec = gf.field_create(p)
        f = [rng.randrange(p) for _ in range(2 * g + 1)] + [1]
        try:
            C = validate_curve(spec, [], f, g)
        except (Singular, BadDegrees):
            continue
        from frobtorus.curves import counts_up_to_genus
        from frobtorus.errors import NonIntegralCoefficient

        try:
            pool.append(weil_from_counts(counts_up_to_genus(C)))
        except NonIntegralCoefficient:
            continue

    failures = 0
    trials = 0
    while trials < 200:
        P = rng.choice(pool)
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        trials += 1
        cm = charpoly_power(P, m)
        # structural checks on the produced polynomial
        Pm = WeilPolynomial(q=P.q ** m, g=P.g, coeffs=cm.coeffs)  # functional eq
        if Pm.coeffs[0] != P.q ** (m * P.g):
            failures += 1
            continue
        if not is_weil(Pm):
            failures += 1
            continue
        if charpoly_power(P, m * n) != charpoly_power(Pm, n):
            failures += 1
    ok = failures == 0
    _line(6, ok, f"200 (P,m,n) triples, {failures} invariant failures")
    assert ok


def test_criterion_7_factorization_self_check():
    x = sympy.Symbol("x")
    rng = random.Random(7007)
    bad_product = 0
    bad_irreducible = 0
    for _ in range(1000):
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(-50, 51) for _ in range(deg)] + [1]
        f = IntPoly(coeffs)
        unit, fs = factor(f)
        prod = IntPoly([unit])
        for h, mult in fs:
            prod = prod * h ** mult
        if prod != f:
            bad_product += 1
            continue
        for h, _ in fs:
            if not sympy.Poly(list(reversed(h.coeffs)), x).is_irreducible:
                bad_irreducible += 1
    ok = bad_product == 0 and bad_irreducible == 0
    _line(
        7,
        ok,
        f"1000 random polynomials: {bad_product} product mismatches, "
        f"{bad_irreducible} factors that sympy finds reducible",
    )
    assert ok


def test_criterion_8_kill_and_resume_genus3_survey(tmp_path):
    cfg_kw = dict(p=3, genus=3, degree=7, limit=12)
    ref = tmp_path / "ref.jsonl"
    run_survey(SurveyConfig(**cfg_kw), out_path=str(ref))
    full = ref.read_bytes()

    def strip(lines):
        return [
            {k: v for k, v in json.loads(line).items() if k != "timing"}
            for line in lines
        ]

    want = strip(full.decode().splitlines())
    cuts = [
        len(full) // 5,
        len(full) // 2,
        full.index(b"\n") + 1,          # right after the header
        len(full) - 4,                  # inside the last record
        full.index(b"\n", full.index(b"\n") + 1) + 30,  # mid second line
    ]
    ok = True
    for cut in cuts:
        trunc = tmp_path / f"cut{cut}.jsonl"
        trunc.write_bytes(full[:cut])
        run_survey(SurveyConfig(**cfg_kw), out_path=str(trunc))
        if strip(trunc.read_text().splitlines()) != want:
            ok = False
    _line(8, ok, f"resume from {len(cuts)} interruption points reproduces the run")
    assert ok
