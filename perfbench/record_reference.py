#!/usr/bin/env python3
"""Record reference.json: each job's exit code and stdout sha256.

Usage, from the repository root: python3 perfbench/record_reference.py

The reference was recorded at the commit that introduced the benchmark.
Re-record only when a job's output is meant to change, and say so in the
change, because the benchmark counts any difference as a failed job.
"""

import json

import jobs
from run import REFERENCE, run_pass


def main() -> None:
    reference = {}
    for workload, pool in jobs.POOLS.items():
        done = run_pass(pool, trace=False)
        reference[workload] = {r["job"]: {"exit": r["exit"], "sha256": r["sha256"]}
                               for r in done["jobs"]}
        errors = [r for r in done["jobs"] if r["error"]]
        if errors:
            raise SystemExit(f"{workload}: jobs raised {errors}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
