"""Exact absolute-simplicity verdicts for Jacobians of hyperelliptic curves
over small finite fields, via irreducibility of the Weil polynomial and
degree stability of Frobenius powers."""

from .errors import (
    BadDegrees,
    CorruptRecord,
    FrobtorusError,
    InvariantViolation,
    NonIntegralCoefficient,
    NonPrime,
    ParseError,
    ResumeMismatch,
    Singular,
    SizeExceeded,
    WeilBoundViolated,
    ZeroPolynomial,
)
from .gf import FieldSpec, field_create
from .intpoly import IntPoly
from .zeta import WeilPolynomial, weil_from_counts, weil_from_json
from .curves import (
    HyperellipticCurve,
    PointCounts,
    count_points,
    curve_from_text,
    curve_to_text,
    validate_curve,
)
from .simplicity import (
    ABSOLUTELY_SIMPLE,
    INCONCLUSIVE,
    NOT_ABSOLUTELY_SIMPLE,
    NOT_SIMPLE,
    SimplicityVerdict,
    charpoly_power,
    classify,
    ratio_torsion_orders,
    verdict_from_json,
    verify_verdict,
)
from .survey import SurveyConfig, analyze_one, report, run_survey

__version__ = "0.1.0"

__all__ = [
    "ABSOLUTELY_SIMPLE",
    "BadDegrees",
    "CorruptRecord",
    "FieldSpec",
    "FrobtorusError",
    "HyperellipticCurve",
    "INCONCLUSIVE",
    "IntPoly",
    "InvariantViolation",
    "NOT_ABSOLUTELY_SIMPLE",
    "NOT_SIMPLE",
    "NonIntegralCoefficient",
    "NonPrime",
    "ParseError",
    "PointCounts",
    "ResumeMismatch",
    "SimplicityVerdict",
    "Singular",
    "SizeExceeded",
    "SurveyConfig",
    "WeilBoundViolated",
    "WeilPolynomial",
    "ZeroPolynomial",
    "analyze_one",
    "charpoly_power",
    "classify",
    "count_points",
    "curve_from_text",
    "curve_to_text",
    "field_create",
    "ratio_torsion_orders",
    "report",
    "run_survey",
    "validate_curve",
    "verdict_from_json",
    "verify_verdict",
    "weil_from_counts",
    "weil_from_json",
]
