"""Command-line interface.

Exit codes: 0 success, 2 malformed input (bad curve, bad field, resume
mismatch, singular model), 3 verification failure (corrupt survey record,
violated internal invariant).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    CorruptRecord,
    FrobtorusError,
    InvariantViolation,
    NonIntegralCoefficient,
    WeilBoundViolated,
)
from .survey import SurveyConfig, analyze_one, report, run_find, run_survey

_VERIFY_FAILURES = (
    CorruptRecord,
    WeilBoundViolated,
    NonIntegralCoefficient,
    InvariantViolation,
)


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobtorus",
        description="absolute-simplicity verdicts for hyperelliptic Jacobians "
        "over small finite fields",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sv = sub.add_parser("survey", help="enumerate a curve family and record verdicts")
    sv.add_argument("--p", type=int, required=True, help="field characteristic")
    sv.add_argument("--genus", type=int, required=True)
    sv.add_argument("--deg", type=int, required=True, help="degree of f (2g+1 or 2g+2)")
    sv.add_argument("--limit", type=_positive_int, default=None,
                    help="stop after this many valid curves")
    sv.add_argument("--out", default=None,
                    help="JSONL output path (resumable); default stdout")
    sv.add_argument("--jobs", type=_positive_int, default=1,
                    help="worker processes for curve analysis")

    fd = sub.add_parser("find", help="print absolutely simple curves as found")
    fd.add_argument("--p", type=int, required=True)
    fd.add_argument("--genus", type=int, required=True)
    fd.add_argument("--count", type=_positive_int, required=True,
                    help="stop after this many hits")

    an = sub.add_parser("analyze", help="full pipeline on one curve or polynomial")
    src = an.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", help='curve text, e.g. "5; h=; f=0,1,0,1"')
    src.add_argument("--weil", help="Weil polynomial JSON object")

    rp = sub.add_parser("report", help="re-verify a survey file and summarize")
    rp.add_argument("--in", dest="infile", required=True, help="survey JSONL path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "survey":
            cfg = SurveyConfig(p=args.p, genus=args.genus, degree=args.deg,
                               limit=args.limit, jobs=args.jobs)
            summary = run_survey(cfg, out_path=args.out)
            if args.out is None:
                print(json.dumps(summary, separators=(",", ":")))
            else:
                print(json.dumps(summary, indent=2))
        elif args.cmd == "find":
            cfg = SurveyConfig(p=args.p, genus=args.genus,
                               degree=2 * args.genus + 1)
            found = run_find(cfg, args.count)
            if found < args.count:
                print(f"family exhausted after {found} hit(s)", file=sys.stderr)
        elif args.cmd == "analyze":
            record = analyze_one(curve_text=args.curve, weil_json=args.weil)
            print(json.dumps(record, indent=2))
            check = record.get("weil_check")
            if check is not None and not check["ok"]:
                print("error: root moduli violate the sqrt(q) bound",
                      file=sys.stderr)
                return 3
        elif args.cmd == "report":
            print(json.dumps(report(args.infile), indent=2))
    except FrobtorusError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, _VERIFY_FAILURES) else 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
