"""Summarize benchmark records: per workload and metric, the values and their quartiles.

    python3 perfbench/summarize.py .perfbench_out/*-trace0.json > summary.json

Each record is the JSON file run.py writes for one run.  The spread is the
distance between the first and third quartile as a share of the median,
which is how run-to-run steadiness is judged against the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(records) -> dict:
    values = defaultdict(lambda: defaultdict(dict))
    for rec in records:
        for name, value in rec["metrics"].items():
            values[rec["workload"]][name][rec["seed"]] = value
    out = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {}
        for name, by_seed in metrics.items():
            vals = list(by_seed.values())
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            out[workload][name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "by_seed": by_seed,
            }
    return out


def main(paths) -> None:
    records = [json.load(open(p)) for p in paths]
    bad = [r["workload"] + "/" + str(r["seed"]) for r in records if not r["correct"]]
    if bad:
        sys.exit("incorrect runs: " + ", ".join(bad))
    commits = sorted({str(r["commit"]) for r in records})
    print(json.dumps({"commits": commits, "runs": len(records),
                      "workloads": summarize(records)}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
