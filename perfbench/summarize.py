#!/usr/bin/env python3
"""Summarize results files across runs, per workload and metric.

Usage, from the repository root: python3 perfbench/summarize.py [FILE...]

Without arguments it reads every perfbench/results/*.json.  For each
end-to-end metric of the untraced runs it prints the median, the quartiles,
the number of runs and the spread (interquartile range over median); for
each per-layer metric of the traced runs, the median.  The output is one
JSON object; perfbench/baseline.json is this output at the seed commit.
"""

import json
import statistics
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, RESULTS, quartiles


def summarize(files) -> dict:
    values: dict[tuple[str, int], dict[str, list[float]]] = {}
    meta = {"git_commit": set(), "python": set(), "cpu_model": set(), "nproc": set(),
            "seconds": set()}
    failed = attempted = 0
    for path in files:
        record = json.loads(Path(path).read_text())
        for field in meta:
            meta[field].add(record.get(field, record["metadata"].get(field)))
        failed += record["failed"]
        attempted += record["attempted"]
        per_metric = values.setdefault((record["workload"], record["trace"]), {})
        for name, value in record["metrics"].items():
            per_metric.setdefault(name, []).append(value)
    out = {field: sorted(v, key=str) for field, v in meta.items()}
    out.update({"attempted_jobs": attempted, "failed_jobs": failed, "workloads": {}})
    for (workload, trace), per_metric in sorted(values.items()):
        entry = out["workloads"].setdefault(workload, {})
        if trace:
            entry["traced_runs"] = len(per_metric["cli.jobs"])
            entry["per_layer"] = {name: statistics.median(per_metric[name]) for name in PER_LAYER}
            continue
        for name in END_TO_END:
            q = quartiles(per_metric[name])
            entry[name] = {"unit": END_TO_END[name], **q,
                           "spread": (q["q3"] - q["q1"]) / q["median"]}
    return out


if __name__ == "__main__":
    files = sys.argv[1:] or sorted(RESULTS.glob("*.json"))
    print(json.dumps(summarize(files), indent=1))
