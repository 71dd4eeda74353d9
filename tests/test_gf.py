import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobtorus import _fpx, gf
from frobtorus.errors import NonPrime, SizeExceeded
from oracles import (
    div_rem_by_long_division,
    gcd_by_long_division,
    is_irreducible_by_rabin,
    rem_by_long_division,
)


def test_prime_field_has_trivial_modulus():
    spec = gf.field_create(7)
    assert (spec.p, spec.k, spec.q) == (7, 1, 7)


@pytest.mark.parametrize(
    "p,k,modulus",
    [
        (2, 2, (1, 1, 1)),        # x^2 + x + 1
        (2, 3, (1, 0, 1, 1)),     # x^3 + x^2 + 1 beats x^3 + x + 1 in rep order
        (3, 2, (1, 0, 1)),        # x^2 + 1 is the first irreducible over F_3
        (5, 2, (1, 1, 1)),        # x^2 + x + 1; x^2 + 1 splits since -1 is square
        # the other extension fields the benchmark workloads create
        (2, 5, (1, 0, 0, 1, 0, 1)),
        (2, 10, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
        (3, 3, (1, 0, 2, 1)),
        (3, 6, (1, 0, 0, 0, 1, 1, 1)),
        (5, 4, (1, 0, 1, 1, 1)),
        (7, 2, (1, 0, 1)),
        (31, 2, (1, 0, 1)),
        (37, 2, (1, 3, 1)),
        (41, 2, (1, 1, 1)),
        (43, 2, (1, 0, 1)),
        (47, 2, (1, 0, 1)),
        (53, 2, (1, 1, 1)),
        (59, 2, (1, 0, 1)),
        (61, 2, (1, 5, 1)),
    ],
)
def test_modulus_is_first_irreducible_in_lex_order(p, k, modulus):
    assert gf.field_create(p, k).modulus == modulus
    assert is_irreducible_by_rabin(list(modulus), p)


def test_one_block_ddf_is_rabins_irreducibility_test():
    # field_create takes a modulus as irreducible when ddf returns it as one
    # block; that must hold for non-squarefree candidates too
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(2, 12):
            if p ** k > 2048:
                break
            for c0 in range(1, p):
                for rest in itertools.product(range(p), repeat=k - 1):
                    m = [c0, *rest, 1]
                    assert (_fpx.ddf(m, p) == [(k, m)]) == is_irreducible_by_rabin(
                        m, p
                    ), (p, m)


def test_field_create_rejections():
    with pytest.raises(NonPrime):
        gf.field_create(4)
    with pytest.raises(NonPrime):
        gf.field_create(1)
    with pytest.raises(SizeExceeded):
        gf.field_create(2, 21)  # 2^21 > size cap
    with pytest.raises(ValueError):
        gf.field_create(5, 0)


def test_size_cap_boundary_is_inclusive():
    spec = gf.field_create(2, 20)
    assert spec.q == 1 << 20


def test_field_create_fails_fast_on_a_huge_field():
    # the size cap comes first: a prime p past it is refused by size, not
    # by the primality test, and 3**(10**7), which takes seconds, is never
    # computed
    with pytest.raises(SizeExceeded):
        gf.field_create(2305843009213693951)  # 2^61 - 1, prime
    with pytest.raises(SizeExceeded):
        gf.field_create(3, 10 ** 7)


def test_element_coefficients_reduced_mod_p_and_modulus():
    spec = gf.field_create(3, 2)
    assert gf.digits(spec, gf.code(spec, [4, -1])) == (1, 2)
    # x^2 = -1 under modulus x^2 + 1
    assert gf.digits(spec, gf.code(spec, [0, 0, 1])) == (2, 0)
    assert gf.code(spec, [1]) == 1


def test_generator_powers_reach_modulus_root():
    spec = gf.field_create(2, 4)
    t = gf.code(spec, [0, 1])
    # the generator satisfies its own modulus
    assert gf.evaluate(spec, list(spec.modulus), t) == 0
    acc = 0
    for i, c in enumerate(spec.modulus):
        acc = gf.add(spec, acc, gf.mul(spec, c, gf.power(spec, t, i)))
    assert acc == 0


@settings(max_examples=60)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_f27(a, b, c):
    spec = gf.field_create(3, 3)

    def add(x, y):
        return gf.add(spec, x, y)

    def mul(x, y):
        return gf.mul(spec, x, y)

    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(a, mul(2, a)) == 0  # 2 = -1
    assert mul(a, 1) == a and add(a, 0) == a


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (3, 3)])
def test_scalar_ops_match_log_tables(p, k):
    # every pair: mul against exp[log a + log b], and add against the
    # evaluation kernel's value of x + b at x = a; the tables take k
    # products per block of the exp table, the rest is numpy
    spec = gf.field_create(p, k)
    T = gf.log_tables(spec)
    m = spec.q - 1
    rows = np.array([[b, 1] for b in range(spec.q)])
    sums = np.concatenate([v for _, v in gf.evaluations(spec, rows)], axis=1)
    for a in range(spec.q):
        for b in range(spec.q):
            assert gf.add(spec, a, b) == sums[b, a]
            la, lb = int(T.log[a]), int(T.log[b])
            if a == 0 or b == 0:
                assert gf.mul(spec, a, b) == 0
                assert gf.add(spec, a, b) == a + b
                continue
            assert gf.mul(spec, a, b) == T.exp[(la + lb) % m]


def test_frobenius_is_additive_in_char_2():
    spec = gf.field_create(2, 6)
    for a, b in zip(range(0, 64, 7), range(1, 64, 5)):
        assert gf.power(spec, gf.add(spec, a, b), 2) == gf.add(
            spec, gf.mul(spec, a, a), gf.mul(spec, b, b)
        )


def test_poly_roots_sorted_and_exact():
    spec = gf.field_create(5, 1)
    # x^2 - 1 has roots 1 and 4
    assert gf.poly_roots(spec, [4, 0, 1]) == [1, 4]
    # x^q - x splits completely
    q = spec.q
    xq_minus_x = [0] * (q + 1)
    xq_minus_x[1] = q - 1
    xq_minus_x[q] = 1
    assert gf.poly_roots(spec, xq_minus_x) == list(range(q))


def test_poly_roots_in_extension_field():
    spec = gf.field_create(3, 2)
    # x^2 + 1 factors over F_9 since the modulus is x^2 + 1
    roots = gf.poly_roots(spec, [1, 0, 1])
    assert len(roots) == 2
    for r in roots:
        assert gf.mul(spec, r, r) == 2  # -1


def _rep_order(spec):
    return sorted(range(spec.q), key=lambda c: gf.digits(spec, c))


@pytest.mark.parametrize("p,k", [(2, 4), (2, 7), (3, 2), (5, 2), (3, 3)])
def test_poly_roots_char2_extension_matches_brute_force(p, k):
    # each trial has a root pair r, r + t^(k-1), which differ only in the top
    # digit; every third trial also has the root 0, the one x whose log the
    # evaluation kernel cannot use
    spec = gf.field_create(p, k)
    rng = random.Random(k)
    top = p ** (k - 1)
    minus_one = p - 1
    for trial in range(6):
        r = rng.randrange(spec.q)
        roots = {r, gf.add(spec, r, top)}
        roots |= {rng.randrange(spec.q) for _ in range(trial)}
        if trial % 3 == 0:
            roots.add(0)
        a = [1]
        for x in roots:
            a = gf.pmul(spec, a, [gf.mul(spec, minus_one, x), 1])
        # a quadratic factor may add roots, or repeat one, or add none
        a = gf.pmul(spec, a, [top, 1, 1]) if trial % 2 else a
        expected = [e for e in _rep_order(spec) if gf.evaluate(spec, a, e) == 0]
        assert gf.poly_roots(spec, a) == expected


def test_poly_divmod_and_gcd():
    # a = Q * prod(x - r, r in A), b = Q * prod(x - r, r in B) with Q an
    # irreducible quadratic: gcd = Q * prod(x - r, r in A & B).  pgcd is
    # monic over a prime field and a gcd up to a unit otherwise.
    for p, k in [(7, 1), (3, 2), (2, 3), (5, 2)]:
        spec = gf.field_create(p, k)
        rng = random.Random(f"gcd {p}^{k}")
        quad = next(
            [c0, c1, 1] for c0 in range(1, spec.q) for c1 in range(spec.q)
            if not gf.poly_roots(spec, [c0, c1, 1])
        )

        def with_roots(roots):
            out = quad
            for r in sorted(roots):
                out = gf.pmul(spec, out, [gf.mul(spec, p - 1, r), 1])
            return out

        for _ in range(10):
            A = set(rng.sample(range(spec.q), 4))
            B = set(rng.sample(range(spec.q), 3))
            g = gf.pgcd(spec, with_roots(A), with_roots(B))
            assert len(g) - 1 == 2 + len(A & B) and g[-1] == 1
            rep_order = sorted(A & B, key=lambda c: gf.digits(spec, c))
            assert gf.poly_roots(spec, g) == rep_order
            if k == 1:
                assert g == with_roots(A & B)
        assert gf.pgcd(spec, quad, []) == quad


def _fpx_poly(m, max_degree):
    # any coefficients in [0, m), trimmed: zero, constant, non-monic
    return st.lists(st.integers(0, m - 1), max_size=max_degree + 1).map(_fpx.trim)


@st.composite
def _fpx_pairs(draw):
    # degrees 0..16; half the pairs share a factor c, so gcds are nontrivial
    p = draw(st.sampled_from([2, 3, 7, 17, 61]))
    if draw(st.booleans()):
        return p, draw(_fpx_poly(p, 16)), draw(_fpx_poly(p, 16))
    a, b, c = (draw(_fpx_poly(p, 8)) for _ in range(3))
    return p, _fpx.mul(a, c, p), _fpx.mul(b, c, p)


@settings(max_examples=400, deadline=None)
@given(_fpx_pairs())
@example((7, [], []))
@example((7, [3], []))
@example((2, [], [1, 1]))
@example((61, [5, 0, 2], [0, 0, 0, 4, 9]))  # deg a < deg b, non-monic
@example((17, [1, 2, 3, 4, 5, 6], [9]))
def test_fpx_division_and_gcd_match_long_division(case):
    p, a, b = case
    ab = (a[:], b[:])
    assert _fpx.gcd(a, b, p) == gcd_by_long_division(a, b, p)
    assert _fpx.gcd(b, a, p) == gcd_by_long_division(b, a, p)
    if b:
        assert _fpx.div_rem(a, b, p) == div_rem_by_long_division(a, b, p)
        assert _fpx.rem(a, b, p) == rem_by_long_division(a, b, p)
    assert (a, b) == ab  # inputs are not modified


@st.composite
def _monic_division_mod_17_powers(draw):
    m = draw(st.sampled_from([17 ** 2, 17 ** 4]))
    return m, draw(_fpx_poly(m, 16)), draw(_fpx_poly(m, 15)) + [1]


@settings(max_examples=200, deadline=None)
@given(_monic_division_mod_17_powers())
def test_fpx_division_by_a_monic_divisor_modulo_a_prime_power(case):
    # Hensel lifting divides modulo p**(2**k) by monic divisors
    m, a, b = case
    q, r = _fpx.div_rem(a, b, m)
    assert (q, r) == div_rem_by_long_division(a, b, m)
    assert _fpx.rem(a, b, m) == r
    assert len(r) < len(b) and _fpx.add(_fpx.mul(q, b, m), r, m) == a


@st.composite
def _fpx_products_mod_monic(draw):
    p = draw(st.sampled_from([2, 3, 17, 349]))
    m = draw(_fpx_poly(p, 11)) + [1]
    return p, draw(_fpx_poly(p, 16)), draw(_fpx_poly(p, 16)), m


@settings(max_examples=300, deadline=None)
@given(_fpx_products_mod_monic())
@example((2, [1], [1], [1]))  # modulus of degree 0
@example((349, [348] * 12, [348] * 12, [348, 0, 1]))
def test_fpx_mul_rem_is_the_remainder_of_the_product(case):
    # pow_mod and the Frobenius rows reduce each product as it is formed
    p, a, b, m = case
    abm = (a[:], b[:], m[:])
    assert _fpx.mul_rem(a, b, m, p) == _fpx.rem(_fpx.mul(a, b, p), m, p)
    assert (a, b, m) == abm  # inputs are not modified


def test_field_create_is_cached():
    assert gf.field_create(3, 2) is gf.field_create(3, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 1), (3, 10)])
def test_log_tables_invariants(p, k):
    spec = gf.field_create(p, k)
    q = spec.q
    T = gf.log_tables(spec)
    for arr in (T.exp, T.log):
        assert arr.dtype == np.int32 and not arr.flags.writeable
    assert T.exp.nbytes + T.log.nbytes <= 8 * q
    # exp and log are inverse bijections between [0, q-1) and the nonzero codes
    assert np.array_equal(np.sort(T.exp), np.arange(1, q))
    assert np.array_equal(T.log[T.exp], np.arange(q - 1))
    assert T.log[0] == -1
    # g = exp[1] has order q-1 (exp is a bijection and exp[n+1] = exp[n] g,
    # below), and every element of smaller code has a smaller order
    g = int(T.exp[1 % (q - 1)])
    assert T.exp[0] == 1 and gf.power(spec, g, q - 1) == 1
    proper = [d for d in range(1, q - 1) if (q - 1) % d == 0]
    for c in range(1, g):
        assert any(gf.power(spec, c, d) == 1 for d in proper)
    # exp[n] = g^n, by the _fpx scalar arithmetic; the mid-size field checks
    # a sample
    ns = range(q - 1) if q < 1000 else random.Random(q).sample(range(q - 1), 2000)
    for n in ns:
        assert gf.mul(spec, int(T.exp[n]), g) == T.exp[(n + 1) % (q - 1)]
        assert tuple(T.exp_digits[:, n]) == gf.digits(spec, int(T.exp[n]))
    assert T.exp_digits.dtype == np.uint8 and not T.exp_digits.flags.writeable


def test_code_round_trip():
    spec = gf.field_create(3, 3)
    reps = list(itertools.product(range(3), repeat=3))
    codes = [gf.code(spec, r) for r in reps]
    assert sorted(codes) == list(range(27))
    for r, c in zip(reps, codes):
        assert gf.digits(spec, c) == r
    assert gf.code(spec, [0, 1]) == 3


def _trace(spec, a):
    acc = t = a
    for _ in range(spec.k - 1):
        t = gf.mul(spec, t, t)
        acc = gf.add(spec, acc, t)
    return acc


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_trace_mask_is_the_absolute_trace(k):
    # exp_trace[n] is Tr(g^n), against the brute-force sum of conjugates
    spec = gf.field_create(2, k)
    T = gf.log_tables(spec)
    assert [int(t) for t in T.exp_trace] == [_trace(spec, int(a)) for a in T.exp]
    assert T.exp_trace[0] == k % 2  # Tr(1)
    assert T.exp_trace.dtype == np.int8 and not T.exp_trace.flags.writeable
