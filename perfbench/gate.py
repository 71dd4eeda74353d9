"""Correctness gate: every output of a run is compared with a reference made
from the program before any optimisation, and every verdict is replayed.

Point counts, Weil coefficients and survey totals must match exactly.  A
verdict kind may differ only where the reference says Inconclusive, which
leaves room for proven refinements of that verdict.
"""

from __future__ import annotations

import json
import os

from workloads import HERE, REFERENCE_DIR

INCONCLUSIVE = "Inconclusive"
ROOT = os.path.dirname(HERE)
GOLDEN = {"p": 3, "genus": 2, "degree": 5}
GOLDEN_RECORDS = os.path.join(ROOT, "tests", "golden", "p3_g2_deg5.jsonl")
GOLDEN_SUMMARY = os.path.join(ROOT, "tests", "golden", "p3_g2_deg5_summary.json")
SUMMARY_KEYS = ("enumerated", "valid", "singular_skipped")


def family_label(family: dict) -> str:
    label = "p{p}_g{genus}_deg{degree}".format(**family)
    return label + (f"_limit{family['limit']}" if family.get("limit") else "")


def reference_entry(record: dict) -> dict:
    """The fields of an output record that the gate compares."""
    return {
        "curve": record["curve"],
        "counts": record["counts"],
        "weil": record["weil"],
        "kind": record["verdict"]["kind"],
    }


def read_survey_file(path: str) -> tuple[dict, list[dict]]:
    """(header, records) of a survey JSONL file."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[0], lines[1:]


def load_survey_reference(family: dict) -> dict:
    """{"summary": ..., "records": [...]} for one survey family.

    The full p=3, g=2, deg 5 family is the repository's golden survey; the
    other families were recorded by make_reference.py.
    """
    if family == GOLDEN:
        _, records = read_survey_file(GOLDEN_RECORDS)
        with open(GOLDEN_SUMMARY, encoding="utf-8") as fh:
            summary = json.load(fh)
        return {"summary": {k: summary[k] for k in SUMMARY_KEYS + ("by_kind",)},
                "records": [reference_entry(r) for r in records]}
    path = os.path.join(REFERENCE_DIR, f"survey_{family_label(family)}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def record_problems(record: dict, ref: dict) -> list[str]:
    """Differences between one output record and its reference entry."""
    out = []
    if record.get("curve") != ref["curve"]:
        return [f"curve {record.get('curve')!r} where {ref['curve']!r} was expected"]
    counts, want = record.get("counts") or {}, ref["counts"]
    if (counts.get("q"), counts.get("g")) != (want["q"], want["g"]) or \
            _ints(counts.get("counts", ())) != _ints(want["counts"]):
        out.append(f"{ref['curve']}: counts {counts} != {want}")
    weil, want = record.get("weil") or {}, ref["weil"]
    if (weil.get("q"), weil.get("g")) != (want["q"], want["g"]) or \
            _ints(weil.get("coeffs", ())) != _ints(want["coeffs"]):
        out.append(f"{ref['curve']}: Weil polynomial {weil} != {want}")
    kind = (record.get("verdict") or {}).get("kind")
    if kind != ref["kind"] and ref["kind"] != INCONCLUSIVE:
        out.append(f"{ref['curve']}: verdict {kind} where the reference says {ref['kind']}")
    return out


def by_kind_problems(got: dict, want: dict) -> list[str]:
    """Kind totals may move only out of Inconclusive, into decided kinds."""
    if sum(got.values()) != sum(want.values()):
        return [f"by_kind total {sum(got.values())} != {sum(want.values())}"]
    moved = [k for k in want if k != INCONCLUSIVE and got.get(k, 0) < want[k]]
    if moved or got.get(INCONCLUSIVE, 0) > want.get(INCONCLUSIVE, 0):
        return [f"by_kind {got} is not a refinement of {want}"]
    return []


def summary_problems(summary: dict, ref_summary: dict) -> list[str]:
    out = [f"{key} = {summary.get(key)} where {ref_summary[key]} was expected"
           for key in SUMMARY_KEYS if summary.get(key) != ref_summary[key]]
    return out + by_kind_problems(summary.get("by_kind", {}), ref_summary["by_kind"])


def report_problems(summary: dict, ref_summary: dict) -> list[str]:
    out = []
    if summary.get("verified") is not True:
        out.append("report did not verify")
    if summary.get("records") != ref_summary["valid"]:
        out.append(f"report saw {summary.get('records')} records, "
                   f"expected {ref_summary['valid']}")
    return out + by_kind_problems(summary.get("by_kind", {}), ref_summary["by_kind"])


class Gate:
    """Counts outputs attempted and failed, and replays each distinct
    (Weil polynomial, verdict) pair once with the program's verify_verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._replayed: dict[str, bool] = {}

    def judge(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def replay_problems(self, record: dict) -> list[str]:
        from frobtorus import verdict_from_json, verify_verdict, weil_from_json

        key = json.dumps([record.get("weil"), record.get("verdict")], sort_keys=True)
        if key not in self._replayed:
            try:
                ok = verify_verdict(weil_from_json(record["weil"]),
                                    verdict_from_json(record["verdict"]))
            except Exception as exc:  # a crash in replay is a failed output
                ok = False
                self.problems.append(f"replay raised {exc!r}")
            self._replayed[key] = ok
        if self._replayed[key]:
            return []
        return [f"{record.get('curve')}: verdict does not replay"]

    def records(self, records: list[dict], refs: list[dict]) -> None:
        """Judge output records in order against the reference entries."""
        for record, ref in zip(records, refs):
            self.judge(record_problems(record, ref) or self.replay_problems(record))
        for _ in range(abs(len(records) - len(refs))):
            self.judge([f"{len(records)} records where {len(refs)} were expected"])

    def record(self, record: dict, ref: dict) -> None:
        self.records([record], [ref])
