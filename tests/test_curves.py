import random

import pytest

from frobtorus import gf
from frobtorus.curves import (
    HyperellipticCurve,
    count_points,
    counts_up_to_genus,
    curve_from_text,
    curve_to_text,
    embed,
    genus_for_degree,
    validate_curve,
)
from frobtorus.errors import BadDegrees, ParseError, Singular, SizeExceeded
from oracles import naive_count


def _f(spec, ints):
    return [gf.scalar(spec, c) for c in ints]


def test_genus_for_degree():
    assert genus_for_degree(3) == 1
    assert genus_for_degree(4) == 1
    assert genus_for_degree(5) == 2
    assert genus_for_degree(6) == 2
    assert genus_for_degree(7) == 3


def test_validate_accepts_smooth_odd_char_curve():
    spec = gf.field_create(5)
    C = validate_curve(spec, [], _f(spec, [0, 1, 0, 1]), 1)
    assert isinstance(C, HyperellipticCurve)
    assert C.genus == 1 and len(C.h) == 0


@pytest.mark.parametrize(
    "h,f,g",
    [
        ([], [0, 1, 0, 1], 0),        # genus < 1
        ([], [0, 1, 1], 1),           # deg f = 2 wrong for genus 1
        ([], [0, 1, 0, 2], 1),        # f not monic
        ([1], [0, 1, 0, 1], 1),       # h != 0 in odd characteristic
        ([], [0, 1, 0, 0, 0, 1], 1),  # deg f = 5 wrong for genus 1
    ],
)
def test_validate_bad_degrees_odd_char(h, f, g):
    spec = gf.field_create(5)
    with pytest.raises(BadDegrees):
        validate_curve(spec, _f(spec, h), _f(spec, f), g)


def test_validate_char2_requires_nonzero_h():
    spec = gf.field_create(2)
    with pytest.raises(BadDegrees):
        validate_curve(spec, [], _f(spec, [0, 0, 0, 1]), 1)
    with pytest.raises(BadDegrees):
        # deg h = 3 > g + 1 = 2
        validate_curve(spec, _f(spec, [0, 0, 0, 1]), _f(spec, [0, 0, 0, 1]), 1)


def test_validate_rejects_singular_odd_char():
    spec = gf.field_create(5)
    # f = x^3 + x^2 has a node at the origin
    with pytest.raises(Singular) as exc:
        validate_curve(spec, [], _f(spec, [0, 0, 1, 1]), 1)
    w = exc.value.witness
    assert w is not None and w[0] == 1 and w[1] == (0,)


def test_validate_rejects_pth_power_f():
    spec = gf.field_create(3)
    # f = x^3 is a cube: f' vanishes identically
    with pytest.raises(Singular):
        validate_curve(spec, [], _f(spec, [0, 0, 0, 1]), 1)


def test_validate_rejects_singular_char2():
    spec = gf.field_create(2)
    # y^2 + x*y = x^5: singular at (0, 0)
    with pytest.raises(Singular) as exc:
        validate_curve(spec, _f(spec, [0, 1]), _f(spec, [0, 0, 0, 0, 0, 1]), 2)
    assert exc.value.witness == (1, (0,), (0,))


def test_validate_char2_singularity_in_extension_only():
    spec = gf.field_create(2)
    # h = x^2 + x + 1 has no roots over F_2 but splits over F_4; pick f so
    # the singularity condition fires only at those extension roots
    h = _f(spec, [1, 1, 1])
    f = _f(spec, [1, 0, 1, 0, 0, 1])
    try:
        C = validate_curve(spec, h, f, 2)
    except Singular as exc:
        assert exc.witness[0] == 2  # found over F_4, not F_2
    else:
        assert C.genus == 2


def test_count_points_elliptic_known_values():
    spec = gf.field_create(5)
    C = validate_curve(spec, [], _f(spec, [0, 1, 0, 1]), 1)
    assert count_points(C, 1) == 4
    C = validate_curve(spec, [], _f(spec, [1, 0, 0, 1]), 1)
    assert count_points(C, 1) == 6


def test_count_points_char2_supersingular():
    spec = gf.field_create(2)
    C = validate_curve(spec, _f(spec, [1]), _f(spec, [0, 0, 0, 1]), 1)
    assert count_points(C, 1) == 3
    assert count_points(C, 1) == naive_count(C, 1)


def test_counts_up_to_genus_matches_oracle_on_random_curves():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        p = rng.choice([2, 3, 5, 7])
        g = rng.choice([1, 2])
        d = rng.choice([2 * g + 1, 2 * g + 2])
        spec = gf.field_create(p)
        f = _f(spec, [rng.randrange(p) for _ in range(d)] + [1])
        h = _f(spec, [rng.randrange(2) for _ in range(g + 2)]) if p == 2 else []
        if p == 2 and not any(h):
            h = _f(spec, [1])
        try:
            C = validate_curve(spec, h, f, g)
        except (Singular, BadDegrees):
            continue
        pc = counts_up_to_genus(C)
        assert pc.counts == tuple(naive_count(C, i) for i in range(1, g + 1))
        checked += 1


def test_count_points_extension_base_field():
    spec = gf.field_create(3, 2)
    f = [gf.scalar(spec, 1), gf.gen(spec), gf.zero(spec), gf.zero(spec),
         gf.zero(spec), gf.scalar(spec, 1)]
    C = validate_curve(spec, [], f, 2)
    assert count_points(C, 1) == naive_count(C, 1)
    assert count_points(C, 2) == naive_count(C, 2)


def test_count_points_rejects_out_of_range_extension():
    spec = gf.field_create(5)
    C = validate_curve(spec, [], _f(spec, [0, 1, 0, 1]), 1)
    with pytest.raises(ValueError):
        count_points(C, 0)
    with pytest.raises(ValueError):
        count_points(C, 2)  # beyond the genus


def test_count_points_extension_size_cap():
    spec = gf.field_create(1031)
    f = _f(spec, [1, 1, 0, 0, 0, 1])
    C = validate_curve(spec, [], f, 2)
    with pytest.raises(SizeExceeded):
        count_points(C, 2)  # 1031^2 is just past the 2^20 cap


def test_counts_up_to_genus_checks_the_largest_field_first(monkeypatch):
    # deg 27 gives g = 13, and F_{3^13} is past the cap: fail before N_1
    C = curve_from_text("3; h=; f=1,1," + "0," * 25 + "1")
    assert C.genus == 13

    def no_counting(*args):
        raise AssertionError("count_points called before the size check")

    monkeypatch.setattr("frobtorus.curves.count_points", no_counting)
    with pytest.raises(SizeExceeded):
        counts_up_to_genus(C)


def test_curve_text_roundtrip_prime_field():
    text = "5; h=; f=0,1,0,1"
    C = curve_from_text(text)
    assert curve_to_text(C) == text
    assert C.base.q == 5 and C.genus == 1


def test_curve_text_roundtrip_char2():
    text = "2; h=1; f=0,0,0,1"
    C = curve_from_text(text)
    assert curve_to_text(C) == text


def test_curve_text_roundtrip_extension_field():
    text = "3^2; h=; f=(1,0),(0,1),(0,0),(0,0),(0,0),(1,0)"
    C = curve_from_text(text)
    assert curve_to_text(C) == text
    assert C.base.q == 9


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "5; f=0,1,0,1",
        "5; h=; f=",
        "5; h=; f=0,1",            # degree too small for any genus
        "4; h=; f=0,1,0,1",        # 4 is not prime
        "5; h=; g=0,1,0,1",        # wrong label
        "5; h=; f=0,1,0,x",        # junk coefficient
        "5;; h=; f=0,1,0,1",
        "3^0; h=; f=0,1,0,1",
        "5; h=; f=(1,0),(0,1)",    # tuple coeffs on a prime field
    ],
)
def test_curve_from_text_rejects_garbage(bad):
    with pytest.raises(ParseError):
        curve_from_text(bad)


def test_curve_from_text_rejects_singular_model():
    with pytest.raises(Singular):
        curve_from_text("5; h=; f=0,0,1,1")


def test_embed_is_a_field_homomorphism():
    src = gf.field_create(3, 1)
    dst = gf.field_create(3, 2)
    elems = list(gf.enumerate_elements(src))
    for a in elems:
        for b in elems:
            assert embed(src, dst, a + b) == embed(src, dst, a) + embed(src, dst, b)
            assert embed(src, dst, a * b) == embed(src, dst, a) * embed(src, dst, b)
    assert embed(src, dst, gf.one(src)) == gf.one(dst)


def test_embed_extension_to_extension():
    src = gf.field_create(2, 2)
    dst = gf.field_create(2, 4)
    images = [embed(src, dst, a) for a in gf.enumerate_elements(src)]
    assert len(set(images)) == 4  # injective
    g_img = embed(src, dst, gf.gen(src))
    # image satisfies the source modulus
    acc = gf.zero(dst)
    for i, c in enumerate(src.modulus):
        acc = acc + gf.scalar(dst, c) * g_img ** i
    assert not acc


def test_embed_rejects_incompatible_fields():
    with pytest.raises(ValueError):
        embed(gf.field_create(2, 2), gf.field_create(2, 3), gf.one(gf.field_create(2, 2)))
