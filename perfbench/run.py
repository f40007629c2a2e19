#!/usr/bin/env python3
"""End-to-end benchmark of the heckekit CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload kl-afn --seed 1 --seconds 36 --trace 0

A workload is a fixed pool of CLI jobs (jobs.py).  Each pass starts a fresh
worker process that imports heckekit from ``src/`` and runs the pool back to
back through ``heckekit.cli.main`` with stdout captured: a closed loop with
one client.  The seed only permutes the job order of each pass, so every
seed does the same work.  Every job's exit code and stdout sha256 are
checked against reference.json, recorded at the seed commit.

With ``--trace 0`` the run measures passes for ``--seconds`` seconds: the
first pass always runs whole, and later jobs start only while their
first-pass time still fits in the budget.  Before and after the passes it
starts a few workers only to time set-up.  Both times are scaled to a
reference interpreter speed by calibration chunks timed during the job, or
right before and right after the set-up (calibration.py).  It reports

* ``wall_s``: time to the full answer of the pool, the sum over jobs of the
  median of each job's scaled times in this run;
* ``setup_s``: median scaled time from spawning a worker until heckekit is
  imported and ready;
* ``peak_rss_mb``: median over whole passes of the worker's peak RSS.

The unscaled times are printed and kept in the results file.

With ``--trace 1`` it runs one untraced pass and then traced passes (at
least one, more while the budget allows) whose workers wrap heckekit's
layers with tracer.py, and reports the per-layer metrics and the tracing
overhead.  Failed jobs are counted in both modes; the last line of stdout
is one JSON object, and a results file with the raw samples and the run
metadata is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
from calibration import REFERENCE_S, calibrate, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
SETUP_PROBES = 5  # before the measured passes, and as many after them

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.mul.term_pairs": "count",
    "laurent.add.calls": "count",
    "laurent.add.self_s": "s",
    "laurent.exact_div.calls": "count",
    "laurent.exact_div.self_s": "s",
    "coxeter.build.calls": "count",
    "coxeter.enumerations": "count",
    "coxeter.build.hit_ratio": "ratio",
    "coxeter.build.self_s": "s",
    "klcells.kl_cbasis.self_s": "s",
    "klcells.bar_row.calls": "count",
    "klcells.cbasis.nonzeros": "count",
    "klcells.hconst.self_s": "s",
    "klcells.hconst.entries": "count",
    "klcells.cexpand.calls": "count",
    "klcells.cexpand.self_s": "s",
    "klcells.afn.self_s": "s",
    "klcells.gamma.self_s": "s",
    "klcells.checks.self_s": "s",
    "klcells.check.P15prime.self_s": "s",
    "klcells.jring.self_s": "s",
    "klcells.phi.self_s": "s",
    "schur.all_invariants.self_s": "s",
    "schur.schur_element_B.calls": "count",
    "schur.schur_element_B.self_s": "s",
    "fock.crystal.self_s": "s",
    "fock.crystal.vertices": "count",
    "fock.crystal.edges": "count",
    "fock.ftilde.calls": "count",
    "fock.ftilde.self_s": "s",
    "fock.ftilde.hit_ratio": "ratio",
    "basicsets.basic_set.self_s": "s",
    "basicsets.basic_set.labels": "count",
    "basicsets.verify_decomp.self_s": "s",
    "cli.jobs": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


class Worker:
    """A fresh worker process; the constructor returns once heckekit is ready."""

    def __init__(self, trace: bool):
        before = calibrate()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if trace else "0"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self._receive()
            seconds = time.perf_counter() - start
            after = self._receive()["calibration_s"]
            self.setup = {"seconds": seconds, "calibration_s": (before + after) / 2}
        except BaseException:
            self.close()
            raise

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        result = self._receive()
        result["job"] = jobs.key(argv)
        return result

    def finish(self) -> dict:
        """End the input and return the worker's final report."""
        self.proc.stdin.close()
        final = self._receive()
        self.proc.wait(timeout=60)
        return final

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=60)
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def probe_setup() -> dict:
    with Worker(trace=False) as worker:
        worker.finish()
    return worker.setup


def run_pass(order: list[list[str]], trace: bool, fits=lambda argv: True) -> dict:
    """Run jobs of order in one fresh worker until fits(next job) is false."""
    with Worker(trace) as worker:
        results = []
        for argv in order:
            if not fits(argv):
                break
            results.append(worker.run(argv))
        final = worker.finish()
    return {"setup": worker.setup, "complete": len(results) == len(order),
            "wall_s": sum(r["seconds"] for r in results),
            "rss_mb": final["rss_kb"] / 1024, "jobs": results,
            "trace": final.get("trace"), "spans": final.get("spans")}


def failures(results: list[dict], reference: dict) -> list[dict]:
    """Jobs whose exit code or stdout digest differs from the reference."""
    return [r for r in results
            if r["job"] not in reference
            or (r["exit"], r["sha256"]) != (reference[r["job"]]["exit"],
                                            reference[r["job"]]["sha256"])]


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes of one benchmark run; see the module docstring."""
    orders = jobs.pass_orders(workload, seed)
    probes = [probe_setup() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    untraced = [run_pass(next(orders), trace=False)] if trace else []
    passes = [run_pass(next(orders), trace)]
    first = {r["job"]: r["seconds"] for r in passes[0]["jobs"]}

    def fits(argv):
        return time.perf_counter() - start + first[jobs.key(argv)] <= seconds

    while True:
        order = next(orders)
        if trace:
            if time.perf_counter() - start + passes[0]["wall_s"] > seconds:
                break
            passes.append(run_pass(order, trace=True))
        else:
            if not fits(order[0]):
                break
            passes.append(run_pass(order, trace=False, fits=fits))
            if not passes[-1]["complete"]:
                break
    probes += [probe_setup() for _ in range(SETUP_PROBES)]
    return {"setup_probes": probes, "untraced": untraced, "passes": passes}


def setups(run: dict) -> list[dict]:
    return run["setup_probes"] + [p["setup"] for p in run["passes"]]


def pool_wall(passes: list[dict], scale: bool) -> float:
    """Sum over jobs of the median of each job's (scaled) times."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p["jobs"]:
            t = scaled(r["seconds"], r["calibration_s"]) if scale else r["seconds"]
            samples.setdefault(r["job"], []).append(t)
    return sum(statistics.median(s) for s in samples.values())


def end_to_end(run: dict) -> dict:
    return {
        "wall_s": pool_wall(run["passes"], scale=True),
        "setup_s": statistics.median(scaled(s["seconds"], s["calibration_s"])
                                     for s in setups(run)),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in run["passes"] if p["complete"]),
    }


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass, with the derived ratios."""
    m = dict(p["trace"])
    m["cli.jobs"] = len(p["jobs"])
    m["cli.stdout_bytes"] = sum(r["bytes"] for r in p["jobs"])
    builds = m.get("coxeter.build.calls", 0)
    m["coxeter.build.hit_ratio"] = (
        1 - m.get("coxeter.enumerations", 0) / builds if builds else 0.0)
    ftilde = m.get("fock.ftilde.calls", 0)
    m["fock.ftilde.hit_ratio"] = m.get("fock.crystal.edges", 0) / ftilde if ftilde else 0.0
    m["trace.wall_s"] = p["wall_s"]
    m["trace.self_sum_s"] = sum(v for k, v in p["trace"].items() if k.endswith(".self_s"))
    return m


def per_layer(run: dict) -> dict:
    passes = [layer_metrics(p) for p in run["passes"]]
    out = {name: statistics.median(m.get(name, 0) for m in passes) for name in PER_LAYER}
    out["trace.overhead_s"] = out["trace.wall_s"] - run["untraced"][0]["wall_s"]
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_heckekit_lines": sum(len(f.read_text().splitlines())
                                  for f in sorted((SRC / "heckekit").rglob("*.py"))),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(jobs.POOLS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heckekit" / "__init__.py").is_file():
        print(f"error: no heckekit source tree under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())[args.workload]
    load_before = os.getloadavg()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    load_after = os.getloadavg()

    results = [r for p in run["untraced"] + run["passes"] for r in p["jobs"]]
    failed = failures(results, reference)
    if args.trace:
        values, units = per_layer(run), PER_LAYER
    else:
        values, units = end_to_end(run), END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "attempted": len(results), "failed": len(failed),
        "failed_frac": len(failed) / len(results), "failures": failed,
        "metrics": values,
        "raw_wall_s": pool_wall(run["passes"], scale=False),
        "raw_pass_wall_s": quartiles([p["wall_s"] for p in run["passes"] if p["complete"]]),
        "raw_setup_s": quartiles([s["seconds"] for s in setups(run)]),
        "calibration_s": quartiles([r["calibration_s"] for r in results]),
        "run": run,
    }
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"{args.workload}: {len(run['untraced'])} untraced and {len(run['passes'])} "
          f"{'traced' if args.trace else 'measured'} passes, results in "
          f"{out_file.relative_to(ROOT)}")
    print(f"  failed_frac = {record['failed_frac']:.6g} fraction "
          f"({len(failed)} of {len(results)} jobs)")
    print(f"  raw_wall_s = {record['raw_wall_s']:.6g} s (unscaled; calibration median "
          f"{record['calibration_s']['median']:.4g} s, reference {REFERENCE_S} s)")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed, "attempted": len(results), "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
