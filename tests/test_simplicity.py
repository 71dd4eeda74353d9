import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobtorus.curves import PointCounts
from frobtorus.intpoly import IntPoly, X, squarefree_part
from frobtorus.simplicity import (
    ABSOLUTELY_SIMPLE,
    INCONCLUSIVE,
    NOT_ABSOLUTELY_SIMPLE,
    NOT_SIMPLE,
    REASON_PURE_POWER,
    REASON_REPEATED_BASE,
    SimplicityVerdict,
    charpoly_power,
    classify,
    elliptic_torus_test,
    minpoly_power,
    ratio_poly,
    ratio_torsion_orders,
    verdict_from_json,
    verdict_to_json,
    verify_verdict,
)
from frobtorus.errors import NonIntegralCoefficient, ParseError, WeilBoundViolated
from frobtorus.zeta import WeilPolynomial, weil_from_counts
from oracles import (
    charpoly_power_by_resultant,
    minpoly_degree_over_q,
    powmod_monic,
    ratio_poly_by_resultant,
)

P_ORD = WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))     # ordinary elliptic
P_SS = WeilPolynomial(q=5, g=1, coeffs=(5, 0, 1))       # supersingular
P_SPLIT2 = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 2, 0, 1))   # T^4+2T^2+25
P_INC2 = WeilPolynomial(q=3, g=2, coeffs=(9, 0, 0, 0, 1))      # T^4+9
P_AS2 = WeilPolynomial(q=3, g=2, coeffs=(9, -3, 2, -1, 1))


def test_charpoly_power_identity():
    assert charpoly_power(P_ORD, 1) == IntPoly([5, -2, 1])


def test_charpoly_power_symmetric_function_values():
    # pi + pib = 2, pi*pib = 5 => squares sum to -6, multiply to 25
    assert charpoly_power(P_ORD, 2) == IntPoly([25, 6, 1])
    # cubes: s3 = s1^3 - 3*q*s1 = 8 - 30 = -22
    assert charpoly_power(P_ORD, 3) == IntPoly([125, 22, 1])


def test_charpoly_power_constant_frobenius_branch():
    # for T^2 + 5, pi^2 = -5 exactly: charpoly is (T + 5)^2
    assert charpoly_power(P_SS, 2) == IntPoly([25, 10, 1])
    assert charpoly_power(P_SS, 4) == IntPoly([625, -50, 1])  # (T - 25)^2


def test_charpoly_power_rejects_bad_n():
    with pytest.raises(ValueError):
        charpoly_power(P_ORD, 0)


def test_charpoly_power_is_multiplicative():
    rng = random.Random(5)
    pool = [P_ORD, P_SS, P_AS2, P_INC2, P_SPLIT2]
    for P in pool:
        for m in (1, 2, 3):
            for n in (1, 2):
                lhs = charpoly_power(P, m * n)
                mid = WeilPolynomial(
                    q=P.q ** m, g=P.g, coeffs=tuple(charpoly_power(P, m).coeffs)
                )
                assert lhs == charpoly_power(mid, n), (P.coeffs, m, n)


def test_minpoly_power_is_squarefree_part():
    assert minpoly_power(P_SS, 2) == IntPoly([5, 1])
    assert minpoly_power(P_ORD, 2) == charpoly_power(P_ORD, 2)


def test_minpoly_power_degree_against_linear_algebra_oracle():
    for P in (P_ORD, P_SS, P_AS2, P_INC2):
        mod = IntPoly(P.coeffs)
        for n in range(1, 8):
            got = minpoly_power(P, n).degree
            elem = list(powmod_monic(X, n, mod).coeffs)
            want = minpoly_degree_over_q(elem, list(P.coeffs))
            assert got == want, (P.coeffs, n, got, want)


def test_ratio_poly_known_values():
    assert ratio_poly(P_SS) == IntPoly([25, 0, -50, 0, 25])
    assert ratio_poly(P_ORD) == IntPoly([25, -20, -10, -20, 25])


def test_ratio_poly_rejects_repeated_roots():
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))  # (T^2+5)^2
    with pytest.raises(ValueError):
        ratio_poly(P)


def _weil_in_window(q, g, counts):
    # counts inside the Weil bounds that give an integral Weil polynomial
    try:
        return weil_from_counts(PointCounts(q=q, g=g, counts=counts))
    except (WeilBoundViolated, NonIntegralCoefficient):
        return None


weil_in_window = st.one_of(
    st.tuples(st.integers(0, 11), st.integers(0, 51)).map(
        lambda c: _weil_in_window(3, 2, c)),
    st.tuples(st.integers(0, 11), st.integers(0, 17), st.integers(0, 26)).map(
        lambda c: _weil_in_window(2, 3, c)),
).filter(lambda P: P is not None)


@given(weil_in_window)
@settings(max_examples=40, deadline=None)
def test_power_sum_kernel_matches_resultant_oracles(P):
    for n in range(1, 13):
        assert charpoly_power(P, n) == charpoly_power_by_resultant(P, n), n
    if squarefree_part(IntPoly(P.coeffs)) == IntPoly(P.coeffs):
        assert ratio_poly(P) == ratio_poly_by_resultant(P)


def test_ratio_torsion_orders():
    assert ratio_torsion_orders(P_ORD) == set()
    assert ratio_torsion_orders(P_SS) == {2}
    assert ratio_torsion_orders(P_INC2) == {2, 4}
    assert ratio_torsion_orders(P_AS2) == set()


def test_classify_absolutely_simple():
    v = classify(P_AS2)
    assert v.kind == ABSOLUTELY_SIMPLE
    assert v.witness_n is None
    assert v.torsion_orders == ()
    assert verify_verdict(P_AS2, v)


def test_classify_not_simple():
    P = weil_from_counts(PointCounts(q=3, g=2, counts=(4, 14)))
    v = classify(P)
    assert v.kind == NOT_SIMPLE
    assert len(v.factors) == 2
    assert verify_verdict(P, v)


def test_classify_not_absolutely_simple_with_witness():
    v = classify(P_SPLIT2)
    assert v.kind == NOT_ABSOLUTELY_SIMPLE
    assert v.witness_n == 2
    assert v.factors  # factorization of the power charpoly is the certificate
    assert verify_verdict(P_SPLIT2, v)


def test_classify_repeated_ordinary_base_is_nas_at_one():
    # (T^2 - 2T + 5)^2: repeated ordinary factor means isogenous to a square
    # already over the base field, so the witness is n = 1
    sq = IntPoly(P_ORD.coeffs)
    P = WeilPolynomial(q=5, g=2, coeffs=(sq * sq).coeffs)
    v = classify(P)
    assert v.kind == NOT_ABSOLUTELY_SIMPLE
    assert v.witness_n == 1
    assert verify_verdict(P, v)


def test_classify_repeated_supersingular_base_is_inconclusive():
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))  # (T^2+5)^2
    v = classify(P)
    assert v.kind == INCONCLUSIVE
    assert v.reason == REASON_REPEATED_BASE
    assert verify_verdict(P, v)


def test_classify_pure_nonordinary_power_is_inconclusive():
    v = classify(P_INC2)
    assert v.kind == INCONCLUSIVE
    assert v.reason == REASON_PURE_POWER
    assert sorted(v.torsion_orders) == [2, 4]
    assert verify_verdict(P_INC2, v)


def test_classify_supersingular_elliptic_is_inconclusive():
    v = classify(P_SS)
    assert v.kind == INCONCLUSIVE
    assert verify_verdict(P_SS, v)


def test_elliptic_torus_test_is_irreducibility():
    assert elliptic_torus_test(P_ORD)
    assert elliptic_torus_test(P_SS)   # irreducible even though supersingular
    assert elliptic_torus_test(P_AS2)
    assert elliptic_torus_test(P_SPLIT2)  # irreducible; splits only at n=2
    split = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 6, 0, 1))
    assert not elliptic_torus_test(split)  # (T^2-2T+5)(T^2+2T+5)
    repeated = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))
    assert not elliptic_torus_test(repeated)


def test_verdict_json_roundtrip():
    for P in (P_AS2, P_SPLIT2, P_INC2, P_SS):
        v = classify(P)
        doc = verdict_to_json(v)
        assert verdict_from_json(doc) == v


def test_verdict_json_rejections():
    with pytest.raises(ParseError):
        verdict_from_json({"kind": "Mystery"})
    with pytest.raises(ParseError):
        verdict_from_json({"witness_n": 2})
    with pytest.raises(ParseError):
        verdict_from_json("AbsolutelySimple")


def test_verify_verdict_rejects_tampering():
    v = classify(P_AS2)
    forged = SimplicityVerdict(
        kind=NOT_SIMPLE, factors=v.factors, torsion_orders=v.torsion_orders
    )
    assert not verify_verdict(P_AS2, forged)
    wrong_witness = SimplicityVerdict(
        kind=NOT_ABSOLUTELY_SIMPLE, witness_n=3,
        factors=classify(P_SPLIT2).factors,
    )
    assert not verify_verdict(P_SPLIT2, wrong_witness)


def test_degree_stability_agrees_with_torsion_orders():
    # spot-check the equivalence the acceptance suite sweeps in bulk
    for P in (P_ORD, P_SS, P_AS2, P_INC2):
        orders = ratio_torsion_orders(P)
        stable = all(
            minpoly_power(P, n).degree == 2 * P.g for n in range(1, 25)
        )
        assert (orders == set()) == stable
