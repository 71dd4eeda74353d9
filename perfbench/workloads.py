"""Workload definitions and the analyze_mixed input generator.

The survey families are fixed by definition: a survey walks its family in
enumeration order, so the seed has nothing to vary there.  analyze_mixed
draws its curves from the seed.  The draw is stratified by field, so every
run counts points over the same fields and the latency mix does not depend
on the seed; only the coefficients do.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# the g=3 family makes classification (ratio_poly's bivariate resultant) the
# largest layer, and its 100 curves share far fewer Weil polynomials
SURVEY_FAMILIES = {
    "survey_p3": (
        {"p": 3, "genus": 2, "degree": 5},
        {"p": 3, "genus": 3, "degree": 7, "limit": 100},
    ),
    # lexicographic order puts the 7^4 equations with f0 = f1 = 0, all
    # singular, before the first valid curve: validation leads.  p = 11 gives
    # a sharper sieve, but its ~6 s repetitions leave too few per run to
    # steady the medians on a shared host
    "survey_sieve": (
        {"p": 7, "genus": 2, "degree": 6, "limit": 100},
    ),
}
REPORT_FAMILIES = SURVEY_FAMILIES["survey_p3"]

# (p, k, curves per run).  Counting costs about q + q^2 field elements per
# genus-2 curve, so p = 31..61 spreads latency over a 4x range.  F_{2^5}
# runs the characteristic-2 and embedding paths at ~0.4 s a curve; half the
# share of the others keeps it above the 90th percentile instead of on it.
# 105 curves give the 90th percentile ten samples beyond it.
MIXED_FIELDS = (
    (31, 1, 10), (37, 1, 10), (41, 1, 10), (43, 1, 10), (47, 1, 10), (53, 1, 10),
    (59, 1, 10), (61, 1, 10), (3, 3, 10), (5, 2, 10), (2, 5, 5),
)
MIXED_DEGREE = 5
MIXED_POOL_SIZE = 40

WORKLOADS = ("survey_p3", "survey_sieve", "analyze_mixed", "report_p3")


def field_name(p: int, k: int) -> str:
    return str(p) if k == 1 else f"{p}^{k}"


def random_curve_text(rng: random.Random, p: int, k: int) -> str:
    """A genus-2 equation with deg f = 5 over F_{p^k}, in curve text format.

    Characteristic 2 draws a nonzero h of degree <= 3; odd characteristic
    has h = 0.  The curve may be singular; callers filter.
    """
    def coeff():
        return tuple(rng.randrange(p) for _ in range(k))

    def text(cs):
        if k == 1:
            return ",".join(str(c[0]) for c in cs)
        return ",".join("(" + ",".join(map(str, c)) + ")" for c in cs)

    monic = (1,) + (0,) * (k - 1)
    f = [coeff() for _ in range(MIXED_DEGREE)] + [monic]
    h = []
    if p == 2:
        while not any(any(c) for c in h):
            h = [coeff() for _ in range(4)]
        while not any(h[-1]):
            h.pop()
    return f"{field_name(p, k)}; h={text(h)}; f={text(f)}"


def load_mixed_reference() -> dict:
    with open(os.path.join(REFERENCE_DIR, "analyze_mixed.json"), encoding="utf-8") as fh:
        return json.load(fh)


def mixed_inputs(pools: dict[str, list[str]], seed: int) -> list[str]:
    """The curve texts of one analyze_mixed run: per field, a seeded sample
    of that field's pool of nonsingular curves, in seeded order."""
    out = []
    for p, k, per_run in MIXED_FIELDS:
        pool = pools[field_name(p, k)]
        out += random.Random(f"{seed}:{p}^{k}").sample(pool, per_run)
    random.Random(seed).shuffle(out)
    return out
