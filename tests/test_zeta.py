import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobtorus.errors import (
    InvariantViolation,
    NonIntegralCoefficient,
    ParseError,
    WeilBoundViolated,
)
from frobtorus.curves import PointCounts
from frobtorus.zeta import (
    WeilPolynomial,
    is_weil,
    power_sums,
    prime_power,
    weil_from_counts,
    weil_from_json,
    weil_to_json,
)


def test_prime_power_decomposition():
    assert prime_power(9) == (3, 2)
    assert prime_power(1024) == (2, 10)
    assert prime_power(7) == (7, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_power_sums():
    counts = PointCounts(q=5, g=2, counts=(4, 30))
    assert power_sums(counts) == (5 + 1 - 4, 25 + 1 - 30)


def test_weil_from_counts_elliptic():
    P = weil_from_counts(PointCounts(q=5, g=1, counts=(4,)))
    assert (P.q, P.g, P.coeffs) == (5, 1, (5, -2, 1))


def test_weil_from_counts_genus2():
    P = weil_from_counts(PointCounts(q=3, g=2, counts=(3, 13)))
    assert P.coeffs == (9, -3, 2, -1, 1)


def test_weil_from_counts_rejects_non_integral():
    with pytest.raises(NonIntegralCoefficient):
        weil_from_counts(PointCounts(q=3, g=2, counts=(3, 10)))


def test_point_counts_enforce_weil_bound():
    with pytest.raises(WeilBoundViolated):
        PointCounts(q=3, g=1, counts=(9,))
    # boundary case: N = q + 1 + 2g*sqrt(q) only allowed when sqrt(q) integral
    PointCounts(q=4, g=1, counts=(9,))  # 4 + 1 + 2*2
    with pytest.raises(WeilBoundViolated):
        PointCounts(q=4, g=1, counts=(10,))


def test_weil_polynomial_validation():
    WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=5, g=1, coeffs=(5, -2, 2))  # not monic
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=5, g=1, coeffs=(4, -2, 1))  # constant != q^g
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=3, g=2, coeffs=(9, 2, 1, 2, 1))  # c1 != q*c3
    with pytest.raises(ValueError):
        WeilPolynomial(q=6, g=1, coeffs=(6, 0, 1))  # q not a prime power
    with pytest.raises(InvariantViolation):
        WeilPolynomial(q=5, g=2, coeffs=(5, -2, 1))  # wrong length


def test_is_weil_accepts_true_weil_polynomials():
    chk = is_weil(WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1)))
    assert chk.ok and chk.max_rel_error < 1e-9


def test_is_weil_accepts_repeated_root_case():
    # (T^2 + 5)^2 has doubled roots; the check runs on the squarefree part
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))
    assert is_weil(P).ok


def test_is_weil_rejects_wrong_modulus():
    # T^2 - 5T + 5 satisfies the functional equation for g=1 (only the
    # constant is pinned) but has real roots of modulus != sqrt(5)
    P = WeilPolynomial(q=5, g=1, coeffs=(5, -5, 1))
    chk = is_weil(P)
    assert not chk.ok and chk.max_rel_error > 1e-3


def test_weil_json_roundtrip_small():
    P = WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))
    d = weil_to_json(P)
    assert d == {"q": 5, "g": 1, "coeffs": [5, -2, 1]}
    assert weil_from_json(d) == P
    assert weil_from_json(json.loads(json.dumps(d))) == P


def test_weil_json_big_integers_become_strings():
    q = 2 ** 19
    c0 = q ** 3
    assert c0 > 2 ** 53
    P = WeilPolynomial(
        q=q, g=3, coeffs=(c0, 0, 3 * q ** 2, 0, 3 * q, 0, 1)
    )
    d = weil_to_json(P)
    assert d["coeffs"][0] == str(c0)
    assert d["coeffs"][2] == 3 * q ** 2  # still below the cutoff
    assert weil_from_json(d) == P


@pytest.mark.parametrize(
    "doc",
    [
        {"q": 5, "g": 1},
        {"q": 5, "g": 1, "coeffs": [5, "x", 1]},
        {"q": 5, "g": 1, "coeffs": [5, True, 1]},
        {"q": 5, "g": 1, "coeffs": [5, 2.5, 1]},
        {"q": 5, "g": 1, "coeffs": [4, -2, 1]},  # fails Weil shape checks
        "not even an object",
    ],
)
def test_weil_from_json_rejects_garbage(doc):
    with pytest.raises(ParseError):
        weil_from_json(doc)


@settings(max_examples=60)
@given(st.integers(0, 11), st.integers(0, 51))
def test_counts_in_weil_window_give_weil_poly_or_nonintegral(n1, n2):
    # genus 2 over F_3: every count vector inside the Weil bounds either
    # yields a valid Weil polynomial or trips the integrality check
    try:
        counts = PointCounts(q=3, g=2, counts=(n1, n2))
    except WeilBoundViolated:
        return
    try:
        P = weil_from_counts(counts)
    except NonIntegralCoefficient:
        return
    assert P.coeffs[0] == 9 and P.coeffs[4] == 1
    assert P.coeffs[1] == 3 * P.coeffs[3]
