"""Absolute-simplicity classification of an isogeny class from its Weil
polynomial.

The decision rests on two exactly computable facts about the Frobenius
eigenvalues alpha_1..alpha_2g:

  - P irreducible over Q makes Q[pi] a field of degree 2g, so Frobenius acts
    irreducibly on the Tate module;
  - the degree of Q(pi^n) drops below 2g for some n exactly when some
    eigenvalue ratio alpha_i/alpha_j is a root of unity, and every such ratio
    is a root of the degree-(2g)^2 ratio polynomial, so its order m obeys
    phi(m) <= (2g)^2.

That turns "for every power of Frobenius" into a finite list of cyclotomic
divisibility tests, each replayable from the emitted certificate.  The power
charpolys and the ratio polynomial are rebuilt exactly from eigenvalue power
sums by Newton's identities (intpoly.root_power_sums, from_power_sums).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import InvariantViolation, ParseError
from .intpoly import (
    IntPoly,
    cyclotomic,
    divmod_monic,
    factor,
    from_power_sums,
    root_power_sums,
    squarefree_part,
)
from .intpoly import resultant_y  # noqa: F401  (perfbench/tracing.py hooks this name)
from .zeta import WeilPolynomial, decode_int, encode_int, prime_power

ABSOLUTELY_SIMPLE = "AbsolutelySimple"
NOT_SIMPLE = "NotSimple"
NOT_ABSOLUTELY_SIMPLE = "NotAbsolutelySimple"
INCONCLUSIVE = "Inconclusive"

REASON_REPEATED_BASE = "repeated-factor base"
REASON_PURE_POWER = "degree drop with pure non-ordinary power"


@dataclass(frozen=True)
class SimplicityVerdict:
    kind: str
    witness_n: int | None = None
    factors: tuple[tuple[IntPoly, int], ...] | None = None
    torsion_orders: tuple[int, ...] | None = None
    reason: str | None = None


def charpoly_power(P: WeilPolynomial, n: int) -> IntPoly:
    """Monic integer polynomial whose roots are the alpha_i^n.

    Newton's identities rebuild it from the power sums S_n, S_2n, ...,
    S_2gn of the roots of P.  Every call checks the result as a Weil
    polynomial over q^n: monic, constant term q^(gn), functional equation.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    S = root_power_sums(IntPoly(P.coeffs), 2 * P.g * n)
    C = from_power_sums(S[n - 1::n])
    WeilPolynomial(q=P.q ** n, g=P.g, coeffs=C.coeffs)
    return C


def minpoly_power(P: WeilPolynomial, n: int) -> IntPoly:
    """Minimal polynomial of pi^n (for irreducible P): the squarefree part
    of charpoly_power; its degree is [Q(pi^n) : Q]."""
    return squarefree_part(charpoly_power(P, n))


def ratio_poly(P: WeilPolynomial) -> IntPoly:
    """R(x) = Res_y(P(y), sum_i c_i x^(2g-i) y^i), degree (2g)^2.

    R vanishes exactly at the eigenvalue ratios alpha_j/alpha_i; (x-1)^2g
    splits off from the diagonal pairs.  Content is not stripped.  Computed
    as R~(qx)/q^(2g^2), where R~ is the monic polynomial with roots the
    products alpha_i*alpha_j = q*alpha_i/conj(alpha_j): its power sums are
    S_k^2.
    """
    Pp = IntPoly(P.coeffs)
    if squarefree_part(Pp) != Pp:
        raise ValueError("ratio_poly requires squarefree input")
    n = 2 * P.g
    Rt = from_power_sums([s * s for s in root_power_sums(Pp, n * n)])
    scaled = [c * P.q ** i for i, c in enumerate(Rt.coeffs)]
    den = P.q ** (n * n // 2)
    if any(c % den for c in scaled):
        raise InvariantViolation("ratio polynomial is not integral")
    R = IntPoly([c // den for c in scaled])
    if R.degree != n * n:
        raise InvariantViolation(f"ratio polynomial degree {R.degree} != (2g)^2")
    return R


def euler_phi(m: int) -> int:
    out = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


@functools.lru_cache(maxsize=None)
def _torsion_candidates(bound: int) -> tuple[int, ...]:
    # all m >= 2 with phi(m) <= bound; phi(m) >= sqrt(m/2) caps the scan
    top = 2 * bound * bound + 1
    return tuple(m for m in range(2, top + 1) if euler_phi(m) <= bound)


def ratio_torsion_orders(P: WeilPolynomial) -> set[int]:
    """{m >= 2 : the m-th cyclotomic polynomial divides ratio_poly(P)}.

    Empty exactly when [Q(pi^n) : Q] = 2g for every n >= 1.
    """
    R = ratio_poly(P)
    bound = (2 * P.g) ** 2
    out = set()
    for m in _torsion_candidates(bound):
        if divmod_monic(R, cyclotomic(m))[1].is_zero:
            out.add(m)
    return out


def elliptic_torus_test(P: WeilPolynomial) -> bool:
    """True iff P is irreducible over Q (Q[pi] has full degree 2g)."""
    _, factors = factor(IntPoly(P.coeffs))
    return len(factors) == 1 and factors[0][1] == 1


def _factor_is_ordinary(h: IntPoly, p: int) -> bool:
    # middle-coefficient rule applied to the factor's own degree
    return math.gcd(h.coeffs[h.degree // 2], p) == 1


def classify(P: WeilPolynomial) -> SimplicityVerdict:
    """Decision procedure over the Weil polynomial alone.

    NotSimple: P has two distinct irreducible factors.
    NotAbsolutelySimple: a repeated ordinary factor at some n (n = 1, or a
        witness from the ratio-torsion orders), or distinct factors of a
        power charpoly.
    AbsolutelySimple: P irreducible and no eigenvalue ratio is a root of
        unity, so every power of Frobenius keeps full degree.
    Inconclusive: pure repeated non-ordinary factors (possibly still simple
        with a larger endomorphism algebra); never guessed.
    """
    p = prime_power(P.q)[0]
    _, fs = factor(IntPoly(P.coeffs))
    if len(fs) >= 2:
        return SimplicityVerdict(kind=NOT_SIMPLE, factors=tuple(fs))
    h, e = fs[0]
    if e >= 2:
        if _factor_is_ordinary(h, p):
            return SimplicityVerdict(
                kind=NOT_ABSOLUTELY_SIMPLE, witness_n=1, factors=((h, e),)
            )
        return SimplicityVerdict(
            kind=INCONCLUSIVE, reason=REASON_REPEATED_BASE, factors=((h, e),)
        )
    orders = tuple(sorted(ratio_torsion_orders(P)))
    if not orders:
        return SimplicityVerdict(
            kind=ABSOLUTELY_SIMPLE, torsion_orders=(), factors=((h, 1),)
        )
    for m in orders:
        cm = charpoly_power(P, m)
        _, cfs = factor(cm)
        if len(cfs) >= 2:
            return SimplicityVerdict(
                kind=NOT_ABSOLUTELY_SIMPLE,
                witness_n=m,
                factors=tuple(cfs),
                torsion_orders=orders,
            )
        hh, ee = cfs[0]
        if ee >= 2 and _factor_is_ordinary(hh, p):
            return SimplicityVerdict(
                kind=NOT_ABSOLUTELY_SIMPLE,
                witness_n=m,
                factors=((hh, ee),),
                torsion_orders=orders,
            )
    return SimplicityVerdict(
        kind=INCONCLUSIVE, reason=REASON_PURE_POWER, torsion_orders=orders
    )


# ---------------------------------------------------------------------------
# Verdict persistence and replay.

def verdict_to_json(v: SimplicityVerdict) -> dict:
    out: dict = {"kind": v.kind}
    if v.witness_n is not None:
        out["witness_n"] = v.witness_n
    if v.factors is not None:
        out["factors"] = [
            {"coeffs": [encode_int(c) for c in h.coeffs], "mult": e}
            for h, e in v.factors
        ]
    if v.torsion_orders is not None:
        out["torsion_orders"] = list(v.torsion_orders)
    if v.reason is not None:
        out["reason"] = v.reason
    return out


def verdict_from_json(d) -> SimplicityVerdict:
    if not isinstance(d, dict) or "kind" not in d:
        raise ParseError("verdict JSON must be an object with a 'kind'")
    kind = d["kind"]
    if kind not in (ABSOLUTELY_SIMPLE, NOT_SIMPLE, NOT_ABSOLUTELY_SIMPLE, INCONCLUSIVE):
        raise ParseError(f"unknown verdict kind {kind!r}")
    factors = None
    if "factors" in d:
        try:
            factors = tuple(
                (IntPoly([decode_int(c) for c in item["coeffs"]]), int(item["mult"]))
                for item in d["factors"]
            )
        except (TypeError, KeyError):
            raise ParseError("malformed verdict factors") from None
    torsion = tuple(d["torsion_orders"]) if "torsion_orders" in d else None
    return SimplicityVerdict(
        kind=kind,
        witness_n=d.get("witness_n"),
        factors=factors,
        torsion_orders=torsion,
        reason=d.get("reason"),
    )


def verify_verdict(P: WeilPolynomial, v: SimplicityVerdict) -> bool:
    """Replay the certificate: the claimed factorizations must multiply back
    to their targets, and a fresh classification must agree exactly."""
    if v.factors is not None:
        target = IntPoly(P.coeffs)
        if v.witness_n is not None and v.witness_n > 1:
            target = charpoly_power(P, v.witness_n)
        prod = IntPoly([1])
        for h, e in v.factors:
            prod = prod * h ** e
        if prod != target:
            return False
    return classify(P) == v
