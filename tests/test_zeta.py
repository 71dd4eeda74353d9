import itertools
import json
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobtorus.errors import (
    InvariantViolation,
    NonIntegralCoefficient,
    ParseError,
    SizeExceeded,
    WeilBoundViolated,
)
from frobtorus import _fpx, zeta
from frobtorus._fpx import MR_BOUND
from frobtorus.curves import PointCounts
from frobtorus.intpoly import IntPoly, squarefree_part
from frobtorus.zeta import (
    _maybe_power,
    _sturm,
    _variations,
    WeilPolynomial,
    is_weil,
    power_sums,
    prime_power,
    weil_from_counts,
    weil_from_json,
    weil_to_json,
)
from oracles import prime_power_by_trial_division


def test_prime_power_decomposition():
    assert prime_power(9) == (3, 2)
    assert prime_power(1024) == (2, 10)
    assert prime_power(7) == (7, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_prime_power_matches_trial_division_below_1e5():
    for q in range(100_000):
        try:
            got = prime_power.__wrapped__(q)
        except ValueError:
            got = None
        assert got == prime_power_by_trial_division(q), q


def test_prime_power_takes_composite_exponents_as_prime_roots():
    for p, k in ((3, 40), (2, 60), (7, 6), (5, 12), (11, 9), (2, 97)):
        assert prime_power.__wrapped__(p ** k) == (p, k)
    with pytest.raises(ValueError):
        prime_power.__wrapped__(6 ** 10)


@pytest.mark.parametrize("untested", [False, True])
def test_prime_power_refusal_clips_a_long_q(untested):
    # 6 * 10^300 is even and not a power of 2; the other q has no prime
    # factor up to 41, so the prime test refuses it past MR_BOUND
    q = 6 * 10 ** 300
    if untested:
        q = next(n for n in range(q + 1, q + 10 ** 4)
                 if all(n % a for a in _fpx.MR_BASES))
    with pytest.raises(SizeExceeded if untested else ValueError) as refused:
        prime_power.__wrapped__(q)
    message = str(refused.value)
    assert len(message) < 120
    assert message.startswith(str(q)[:40]) and "(301 characters)" in message


def test_prime_power_refuses_a_q_past_the_int_string_limit_by_name():
    # 10^5000 has more digits than Python 3.11 turns into a string; the
    # refusal still names it in one short line
    with pytest.raises(ValueError, match="is not a prime power") as refused:
        prime_power.__wrapped__(10 ** 5000)
    assert len(str(refused.value)) < 120


def test_the_power_residue_pretest_never_rules_out_a_true_power():
    # the base 30030 is divisible by every prime up to 13, so the pretest
    # must skip the primes ell that divide it
    for r in (2, 3, 7, 30030, 2 ** 61 - 1, 10 ** 40 + 1):
        for e in (2, 3, 5, 7, 11, 13, 31, 97):
            assert _maybe_power(r ** e, e), (r, e)


def test_a_huge_q_is_refused_without_integer_roots(monkeypatch):
    # 3 * 10^4001 + 7 has about 13,300 bits, so about 1,580 prime exponents
    # e <= log2 q; the power residue pretest rules every one of them out
    calls = []

    def counted(n, k):
        calls.append(k)
        return iroot(n, k)

    iroot = zeta._iroot
    monkeypatch.setattr(zeta, "_iroot", counted)
    with pytest.raises(SizeExceeded):
        prime_power.__wrapped__(3 * 10 ** 4001 + 7)
    assert len(calls) <= 3


def test_prime_power_is_exact_up_to_the_miller_rabin_bound():
    M61 = 2 ** 61 - 1
    assert prime_power(M61) == (M61, 1)
    assert prime_power(M61 ** 30) == (M61, 30)  # the base, not q, is tested
    assert prime_power(43 ** 20) == (43, 20)
    # strong pseudoprimes to the first 11 and the first 12 prime bases
    for spsp in (3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError):
            prime_power(spsp)
    # MR_BOUND itself passes all 13 bases but is composite, so it is refused,
    # as is the prime 2^89 - 1 and any power of it
    for huge in (MR_BOUND, 2 ** 89 - 1, (2 ** 89 - 1) ** 2):
        with pytest.raises(SizeExceeded):
            prime_power(huge)
    # a factor up to 41 refuses a huge q before the bound is consulted;
    # 43 is not a base, so it leaves the root to the bound
    with pytest.raises(ValueError):
        prime_power(2 * (2 ** 89 - 1))
    with pytest.raises(SizeExceeded):
        prime_power(43 * (2 ** 89 - 1))


def test_is_prime_matches_trial_division_below_2e5():
    for n in range(200_000):
        assert _fpx.is_prime(n) == (n >= 2 and next(_fpx.prime_divisors(n)) == n), n


def test_is_prime_is_exact_up_to_the_miller_rabin_bound():
    assert _fpx.is_prime(2 ** 61 - 1)
    for spsp in (3825123056546413051, 318665857834031151167461):
        assert not _fpx.is_prime(spsp)
    assert not _fpx.is_prime(2 * (2 ** 89 - 1))  # decided by division
    with pytest.raises(SizeExceeded):
        _fpx.is_prime(2 ** 89 - 1)


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


def test_point_counts_hold_one_count_per_genus():
    # weil_from_counts reads N_1 .. N_g; a short vector used to reach it and
    # fail there with an IndexError, a long one with a Newton error
    with pytest.raises(InvariantViolation, match="genus 2 needs 2 point counts, not 1"):
        PointCounts(q=3, g=2, counts=(4,))
    with pytest.raises(InvariantViolation, match="not 3"):
        PointCounts(q=3, g=2, counts=(4, 14, 28))


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
    assert is_weil(WeilPolynomial(q=5, g=1, coeffs=(5, -2, 1))) is True
    # (x^2 - 2000000x + q)(x^2 - 1999999x + q) with a^2 - 4q = -156 for the
    # first factor: its roots are nearly a double root at sqrt(q), which
    # double-precision root finding put off the circle |x| = sqrt(q) by 2e-5
    q = 1000000000039
    c2 = 2 * q + 2000000 * 1999999
    P = WeilPolynomial(q=q, g=2, coeffs=(q * q, -3999999 * q, c2, -3999999, 1))
    assert is_weil(P) is True


def test_is_weil_accepts_repeated_root_case():
    # (T^2 + 5)^2 has doubled roots; the count runs on the squarefree part
    P = WeilPolynomial(q=5, g=2, coeffs=(25, 0, 10, 0, 1))
    assert is_weil(P) is True
    # (T - 2)^2 (T + 2)^2 over F_4: the roots +-sqrt(q) make y = +-2 sqrt(q),
    # the ends of the interval
    P = WeilPolynomial(q=4, g=2, coeffs=(16, 0, -8, 0, 1))
    assert is_weil(P) is True


def test_is_weil_rejects_wrong_modulus():
    # T^2 - 5T + 5 satisfies the functional equation for g=1 (only the
    # constant is pinned) but has real roots of modulus != sqrt(5)
    P = WeilPolynomial(q=5, g=1, coeffs=(5, -5, 1))
    assert is_weil(P) is False


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_is_weil_decides_products_of_quadratics(q):
    # every product of x^2 - a x + q with |a| up to 2 past the bound, each
    # multiset once: a Weil polynomial iff every a^2 <= 4q
    r = math.isqrt(4 * q) + 2
    for g in (1, 2, 3):
        for a in itertools.combinations_with_replacement(range(-r, r + 1), g):
            P = IntPoly([1])
            for ai in a:
                P = P * IntPoly([q, -ai, 1])
            want = all(ai * ai <= 4 * q for ai in a)
            assert is_weil(WeilPolynomial(q=q, g=g, coeffs=P.coeffs)) is want, a


def test_sturm_count_matches_sympy():
    # sparse coefficients make degree gaps in the remainder sequence, where
    # a pseudo-remainder by a negative leading coefficient to an odd power
    # would flip the sign of a term
    x = sympy.Symbol("x")
    rng = random.Random(5)
    for _ in range(500):
        d = rng.randrange(1, 8)
        cs = [rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(d)]
        S = squarefree_part(IntPoly(cs + [rng.choice([1, -1, 2, -3])]))
        a, b = sorted(rng.sample(range(-12, 13), 2))
        want = sympy.Poly(S.coeffs[::-1], x).count_roots(a, b) - (S(a) == 0)
        seq = _sturm(S)
        assert _variations(seq, a) - _variations(seq, b) == want, (S, a, b)


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
        {"q": 2, "g": 1, "coeffs": "221"},  # a string, not an array
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
