"""A fixed CPU probe that measures how fast the host runs Python right now.

On a shared host the same repetition ran at two speeds about 1.7x apart, in
spells from under a second to minutes.  A worker asks for this probe just
before and just after its work; run.py runs it in its own process while the
worker waits, and scales the repetition's times by REFERENCE_S over the
probe's mean time.  The probe touches no frobtorus code and runs outside the
worker, so a change to the program cannot move it.  Its mix follows the
program's hot paths: exact Fraction interpolation, small-integer polynomial
evaluation with table lookups, and JSON encoding and decoding.
"""

import json
import time
from fractions import Fraction

ROUNDS = 36
# the time of ROUNDS rounds on the reference host (2 shared cores, Python
# 3.11) in a fast spell; scaled times equal wall times whenever the probe
# runs this fast
REFERENCE_S = 0.25


def _interpolate(points):
    acc = [Fraction(0)] * len(points)
    for xi, yi in points:
        num, den = [1], 1
        for xj, _ in points:
            if xj == xi:
                continue
            nxt = [0] * (len(num) + 1)
            for idx, c in enumerate(num):
                nxt[idx] -= c * xj
                nxt[idx + 1] += c
            num, den = nxt, den * (xi - xj)
        scale = Fraction(yi, den)
        for idx, c in enumerate(num):
            acc[idx] += c * scale
    return acc


def _count(p, f):
    squares = {}
    for z in range(p):
        squares[z * z % p] = squares.get(z * z % p, 0) + 1
    total = 0
    for x in range(p):
        v = 0
        for c in reversed(f):
            v = (v * x + c) % p
        total += squares.get(v, 0)
    return total


def _work():
    points = [(x, (x ** 9 - 7 * x ** 4 + 3) * (x - 11)) for x in range(-12, 13)]
    _interpolate(points)
    for p in (101, 103, 107, 109, 113):
        _count(p, (3, 1, 4, 1, 5, 9, 1))
    record = {"curve": "61; h=; f=1,2,3,4,5,1", "counts": [60, 3720],
              "weil": {"q": 61, "coeffs": [3721, -61, 7, -1, 1]}}
    for _ in range(300):
        json.loads(json.dumps(record, separators=(",", ":")))


def run(rounds: int = ROUNDS) -> float:
    """Seconds that ROUNDS rounds of the probe take now, measured on `rounds`."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        _work()
    return (time.perf_counter() - t0) * ROUNDS / rounds
