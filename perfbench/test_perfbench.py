"""Self-tests of the benchmark harness (run with pytest from the repo root)."""

import json
import re
import time

import calibration
import jobs
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CHEAP = ["schur", "--type", "G2", "--a", "1", "--b", "2"]


def _benchmark():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_harness():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(jobs.POOLS)
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name


def test_every_metric_is_emitted_with_its_unit():
    pool = [CHEAP,
            ["kl", "--type", "A", "--rank", "2", "--weights", "1", "--emit", "afn"],
            ["kl", "--type", "A", "--rank", "2", "--weights", "1", "--emit", "cbasis"],
            ["schur", "--type", "B", "--n", "2", "--a", "1", "--b", "1"],
            ["crystal", "--l", "2", "--r", "2", "--u", "0,1", "--n", "3"],
            ["basicset", "--type", "A", "--n", "5", "--xi-order", "2"],
            ["verify-decomp", jobs.FIXTURES + "table3_b2.json"]]
    untraced = run.run_pass(pool, trace=False)
    traced = run.run_pass(pool, trace=True)
    measured = {"setup_probes": [untraced["setup"]], "untraced": [untraced], "passes": [traced]}

    e2e = run.end_to_end({**measured, "passes": [untraced]})
    assert set(e2e) == set(run.END_TO_END)
    assert all(v > 0 for v in e2e.values())
    layers = run.per_layer(measured)
    assert set(layers) == set(run.PER_LAYER)
    for name in ("laurent.mul.calls", "coxeter.build.calls", "klcells.cbasis.nonzeros",
                 "klcells.hconst.entries", "schur.schur_element_B.calls",
                 "fock.ftilde.calls", "basicsets.basic_set.labels", "cli.stdout_bytes"):
        assert layers[name] > 0, name
    assert layers["cli.jobs"] == len(pool)
    # self times of all spans add up to the time spent in cli.main, which the
    # worker's per-job timer encloses with a few microseconds to spare
    assert 0 <= layers["trace.wall_s"] - layers["trace.self_sum_s"] < 0.002 * len(pool)
    assert [r["sha256"] for r in untraced["jobs"]] == [r["sha256"] for r in traced["jobs"]]


def test_seeds_only_permute_the_jobs():
    for workload, pool in jobs.POOLS.items():
        expected = sorted(pool)
        for seed in (0, 1, 987654321):
            orders = jobs.pass_orders(workload, seed)
            for _ in range(3):
                assert sorted(next(orders)) == expected
        assert next(jobs.pass_orders(workload, 0)) == next(jobs.pass_orders(workload, 0))


def test_reference_covers_every_job():
    reference = json.loads(run.REFERENCE.read_text())
    for workload, pool in jobs.POOLS.items():
        assert set(reference[workload]) == {jobs.key(argv) for argv in pool}


def test_tampered_reference_counts_as_failure():
    reference = json.loads(run.REFERENCE.read_text())["reps-tables"]
    bad_input = ["schur", "--type", "B", "--a", "1", "--b", "2", "--bipartition", "5"]
    done = run.run_pass([bad_input, CHEAP], trace=False)
    bad, good = done["jobs"]
    assert run.failures([good], reference) == []
    # a job without a matching reference, e.g. one that raised, is a failure
    assert run.failures([bad], reference) == [bad]
    assert (bad["exit"] is None) == (bad["error"] is not None)

    key = jobs.key(CHEAP)
    for field, value in (("sha256", "0" * 64), ("exit", 1)):
        tampered = {key: dict(reference[key], **{field: value})}
        assert run.failures([good], tampered) == [good]


def test_calibration_scales_by_the_chunk_times_around_a_job():
    ref = calibration.REFERENCE_S
    assert calibration.scaled(3.0, ref) == 3.0
    assert calibration.scaled(3.0, 4 * ref) == 3.0 * 0.25 ** calibration.SENSITIVITY

    sampler = calibration.Sampler()
    for _ in range(10):
        sampler.add(1.0)
    start = time.perf_counter()
    # before any sample of the job, the recent ones stand for it
    assert sampler.median_since(start) == 1.0
    for _ in range(sampler.RECENT + 1):
        sampler.add(3.0)
    assert sampler.median_since(start) == 3.0
