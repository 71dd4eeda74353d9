import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobtorus import gf
from frobtorus.errors import NonPrime, SizeExceeded


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
    ],
)
def test_modulus_is_first_irreducible_in_lex_order(p, k, modulus):
    assert gf.field_create(p, k).modulus == modulus


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


def test_enumerate_is_lexicographic_and_complete():
    spec = gf.field_create(3, 2)
    elems = list(gf.enumerate_elements(spec))
    assert len(elems) == 9
    assert [e.rep for e in elems] == [
        t for t in itertools.product(range(3), repeat=2)
    ]
    assert len(set(elems)) == 9


def test_element_coefficients_reduced_mod_p_and_modulus():
    spec = gf.field_create(3, 2)
    assert gf.element(spec, [4, -1]).rep == (1, 2)
    # x^2 = -1 under modulus x^2 + 1
    assert gf.element(spec, [0, 0, 1]).rep == (2, 0)
    assert gf.element(spec, [1]).rep == (1, 0)


def test_inverse_on_every_nonzero_element():
    for p, k in [(7, 1), (3, 3), (2, 5)]:
        spec = gf.field_create(p, k)
        for a in gf.enumerate_elements(spec):
            if not a:
                with pytest.raises(ZeroDivisionError):
                    gf.inv(a)
                continue
            assert a * gf.inv(a) == gf.one(spec)


def test_pow_handles_negative_exponents():
    spec = gf.field_create(5, 2)
    a = gf.gen(spec) + gf.one(spec)
    assert a ** -3 == gf.inv(a) ** 3
    assert a ** 0 == gf.one(spec)


def test_generator_powers_reach_modulus_root():
    spec = gf.field_create(2, 4)
    t = gf.gen(spec)
    # the generator satisfies its own modulus
    acc = gf.zero(spec)
    for i, c in enumerate(spec.modulus):
        acc = acc + gf.scalar(spec, c) * t ** i
    assert not acc


def test_mixed_spec_arithmetic_is_rejected():
    a = gf.one(gf.field_create(3))
    b = gf.one(gf.field_create(5))
    with pytest.raises(ValueError):
        a + b


@settings(max_examples=60)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_f27(i, j, k):
    spec = gf.field_create(3, 3)
    elems = list(gf.enumerate_elements(spec))
    a, b, c = elems[i], elems[j], elems[k]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == gf.zero(spec)


def test_frobenius_is_additive_in_char_2():
    spec = gf.field_create(2, 6)
    elems = list(gf.enumerate_elements(spec))
    for a, b in zip(elems[::7], elems[1::5]):
        assert (a + b) ** 2 == a ** 2 + b ** 2


def test_poly_roots_sorted_and_exact():
    spec = gf.field_create(5, 1)
    # x^2 - 1 has roots 1 and 4
    roots = gf.poly_roots(spec, gf.poly_from_ints(spec, [-1, 0, 1]))
    assert [r.rep for r in roots] == [(1,), (4,)]
    # x^q - x splits completely
    q = spec.q
    xq_minus_x = [gf.zero(spec)] * (q + 1)
    xq_minus_x[1] = -gf.one(spec)
    xq_minus_x[q] = gf.one(spec)
    roots = gf.poly_roots(spec, xq_minus_x)
    assert [r.rep for r in roots] == [e.rep for e in gf.enumerate_elements(spec)]


def test_poly_roots_in_extension_field():
    spec = gf.field_create(3, 2)
    # x^2 + 1 factors over F_9 since the modulus is x^2 + 1
    roots = gf.poly_roots(spec, gf.poly_from_ints(spec, [1, 0, 1]))
    assert len(roots) == 2
    for r in roots:
        assert r * r == -gf.one(spec)


@pytest.mark.parametrize("p,k", [(2, 4), (2, 7), (3, 2), (5, 2), (3, 3)])
def test_poly_roots_char2_extension_matches_brute_force(p, k):
    # each trial has a root pair r, r + t^(k-1), which differ only in the top
    # digit; every third trial also has the root 0, which is not among the
    # x = g^n that gf.values evaluates at
    spec = gf.field_create(p, k)
    rng = random.Random(k)
    elems = list(gf.enumerate_elements(spec))
    top = gf.FieldElement(spec, (0,) * (k - 1) + (1,))
    for trial in range(6):
        r = rng.choice(elems)
        roots = {r.rep, (r + top).rep} | {rng.choice(elems).rep for _ in range(trial)}
        if trial % 3 == 0:
            roots.add(gf.zero(spec).rep)
        a = [gf.one(spec)]
        for rep in roots:
            a = gf.poly_mul(spec, a, [-gf.FieldElement(spec, rep), gf.one(spec)])
        # a quadratic factor may add roots, or repeat one, or add none
        a = gf.poly_mul(spec, a, [top, gf.one(spec), gf.one(spec)]) if trial % 2 else a
        expected = [e.rep for e in elems if not gf.poly_eval(spec, a, e)]
        assert [x.rep for x in gf.poly_roots(spec, a)] == expected


def test_poly_divmod_and_gcd():
    spec = gf.field_create(7, 1)
    a = gf.poly_from_ints(spec, [1, 0, 1])    # x^2 + 1
    b = gf.poly_from_ints(spec, [1, 1])       # x + 1
    prod = gf.poly_mul(spec, a, b)
    q, r = gf.poly_divmod(spec, prod, a)
    assert [c.rep for c in q] == [c.rep for c in b]
    assert r == []
    g = gf.poly_gcd(spec, prod, gf.poly_mul(spec, b, b))
    assert [c.rep for c in g] == [c.rep for c in b]


def test_field_create_is_cached():
    assert gf.field_create(3, 2) is gf.field_create(3, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 1), (3, 10)])
def test_log_tables_invariants(p, k):
    spec = gf.field_create(p, k)
    q = spec.q
    T = gf.log_tables(spec)
    for arr in (T.exp, T.log, T.zech):
        assert arr.dtype == np.int32 and not arr.flags.writeable
    assert T.exp.nbytes + T.log.nbytes + T.zech.nbytes <= 12 * q
    # exp and log are inverse bijections between [0, q-1) and the nonzero codes
    assert np.array_equal(np.sort(T.exp), np.arange(1, q))
    assert np.array_equal(T.log[T.exp], np.arange(q - 1))
    assert T.log[0] == -1
    # g = exp[1] has order q-1 (exp is a bijection and exp[n+1] = exp[n] g,
    # below), and every element of smaller code has a smaller order
    g_code = int(T.exp[1 % (q - 1)])
    g = gf.from_code(spec, g_code)
    assert T.exp[0] == 1 and g ** (q - 1) == gf.one(spec)
    proper = [d for d in range(1, q - 1) if (q - 1) % d == 0]
    for c in range(1, g_code):
        assert any(gf.from_code(spec, c) ** d == gf.one(spec) for d in proper)
    # exp[n] = g^n and zech[n] = log(1 + g^n), by FieldElement arithmetic;
    # the mid-size field checks a sample
    ns = range(q - 1) if q < 1000 else random.Random(q).sample(range(q - 1), 2000)
    for n in ns:
        a = gf.from_code(spec, int(T.exp[n]))
        assert gf.code(a * g) == T.exp[(n + 1) % (q - 1)]
        b = gf.one(spec) + a
        assert T.zech[n] == (T.log[gf.code(b)] if b else -1)


def test_code_round_trip():
    spec = gf.field_create(3, 3)
    codes = [gf.code(a) for a in gf.enumerate_elements(spec)]
    assert sorted(codes) == list(range(27))
    for c in codes:
        assert gf.code(gf.from_code(spec, c)) == c
    assert gf.code(gf.gen(spec)) == 3


def _trace(a):
    acc, t = a, a
    for _ in range(a.spec.k - 1):
        t = t * t
        acc = acc + t
    return acc


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_trace_mask_is_the_absolute_trace(k):
    spec = gf.field_create(2, k)
    mask = gf.log_tables(spec).trace_mask

    def tr(c):
        return bin(c & mask).count("1") % 2

    assert tr(1) == k % 2
    for a in gf.enumerate_elements(spec):
        assert _trace(a).rep == (tr(gf.code(a)),) + (0,) * (k - 1)
    elems = list(gf.enumerate_elements(spec))
    for a in elems:
        for b in elems[:: max(1, spec.q // 16)]:
            assert tr(gf.code(a + b)) == tr(gf.code(a)) ^ tr(gf.code(b))
