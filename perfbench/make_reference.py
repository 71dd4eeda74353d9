"""Record the correctness references in perfbench/reference/ from the program
as it stands.

    PYTHONPATH=src python3 perfbench/make_reference.py

The references were made from the program before any optimisation.  Rerun
this only for a change that is meant to alter outputs, and say why in that
change.  The full p=3, g=2, deg 5 family needs no file here: its reference
is the repository's golden survey.
"""

from __future__ import annotations

import io
import json
import os
import random

import frobtorus as ft

from gate import GOLDEN, SUMMARY_KEYS, family_label, reference_entry
from workloads import (MIXED_FIELDS, MIXED_POOL_SIZE, REFERENCE_DIR, SURVEY_FAMILIES,
                       field_name, random_curve_text)


def write_json(name: str, obj) -> None:
    with open(os.path.join(REFERENCE_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def survey_reference(family: dict) -> dict:
    out = io.StringIO()
    summary = ft.run_survey(ft.SurveyConfig(**family), stream=out)
    records = [json.loads(line) for line in out.getvalue().splitlines()[1:]]
    return {"family": family,
            "summary": {k: summary[k] for k in SUMMARY_KEYS + ("by_kind",)},
            "records": [reference_entry(r) for r in records]}


def field_pool(p: int, k: int) -> dict:
    """One warm-up curve and a pool of nonsingular curves whose Weil
    polynomials are pairwise distinct and differ from the warm-up's."""
    rng = random.Random(f"pool:{field_name(p, k)}")
    seen, entries = set(), []
    while len(entries) < MIXED_POOL_SIZE + 1:
        try:
            record = ft.analyze_one(curve_text=random_curve_text(rng, p, k))
        except ft.Singular:
            continue
        key = tuple(record["weil"]["coeffs"])
        if key not in seen:
            seen.add(key)
            entries.append(reference_entry(record))
    return {"field": field_name(p, k), "warm": entries[0]["curve"], "pool": entries[1:]}


def main() -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for families in SURVEY_FAMILIES.values():
        for family in families:
            if family != GOLDEN:
                write_json(f"survey_{family_label(family)}.json", survey_reference(family))
    write_json("analyze_mixed.json",
               {"fields": [field_pool(p, k) for p, k, _ in MIXED_FIELDS]})


if __name__ == "__main__":
    main()
