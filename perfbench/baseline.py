"""Record a baseline: every workload once per seed 1-10 untraced, once
traced, for run_seconds of BENCHMARK.json, with the environment, the
medians and the run-to-run spread.

    python3 perfbench/baseline.py --out perfbench/baseline/baseline.json

Spread is the distance between the first and third quartiles of a metric
over the seeds, as a share of its median.  It is recorded for the reported
(probe-scaled) metrics and for the unscaled ones, so the probe's effect is
on record.  The traced run gives each workload's layer shares: self time
divided by traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import HERE, WORKLOADS

ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def environment() -> dict:
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "git_revision": rev}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    """The run's result line and, untraced, its unscaled metrics."""
    lines = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip().splitlines()
    unscaled = [json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("unscaled ")]
    return json.loads(lines[-1]), (unscaled[0] if unscaled else None)


def summarize(runs: list[dict[str, float]], units: dict[str, str]) -> dict:
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "spread": (q3 - q1) / median,
                     "unit": units[name], "values": values}
    return out


def layer_shares(metrics: dict) -> dict:
    wall = metrics["trace.wall_s"]["value"]
    return {name[:-len(".self_s")]: m["value"] / wall
            for name, m in metrics.items() if name.endswith(".self_s")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    result = {"environment": environment(), "seconds": seconds,
              "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        traced, _ = bench(workload, SEEDS[0], seconds, 1)
        units = {n: m["unit"] for n, m in runs[0][0]["metrics"].items()}
        reported = [{n: m["value"] for n, m in r["metrics"].items()} for r, _ in runs]
        result["workloads"][workload] = {
            "all_correct": all(r["correct"] for r, _ in runs + [(traced, None)]),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "end_to_end": summarize(reported, units),
            "end_to_end_unscaled": summarize([u for _, u in runs], units),
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
            "layer_shares": layer_shares(traced["metrics"]),
        }
        spreads = {kind: {n: round(m["spread"], 4)
                          for n, m in result["workloads"][workload][kind].items()}
                   for kind in ("end_to_end", "end_to_end_unscaled")}
        print(workload, json.dumps(spreads), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
