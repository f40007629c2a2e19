import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections import Counter
from functools import cached_property
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckekit import cli, klcells, schur
from heckekit.cli import main
from heckekit.coxeter import CoxeterType, _cached_group, weight_from_ab
from heckekit.fock import ARIKI, FLOTW, FockParams, crystal
from heckekit.klcells import PROPERTY_NAMES, KLData
from heckekit.laurent import LaurentPoly
from oracles import gamma_by_rescan, kl_cbasis_report
from test_fock import json_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    """Exit code and stdout of main(argv) for hypothesis tests, which cannot
    use the function-scoped capsys fixture; stderr must hold no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def assert_input_error(code, out, err):
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in out + err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


REPO_ROOT = Path(__file__).parents[1]

#: exit code and stdout sha256 of every benchmark job, by the job's argv
#: joined by spaces; paths in the argv are relative to the repository root
BENCHMARK_REFERENCE = {
    job: expected
    for pool in json.loads((REPO_ROOT / "perfbench" / "reference.json").read_text()).values()
    for job, expected in pool.items()}


class TestCrystalCommand:
    def test_flotw_level3(self, capsys):
        data = run_json(capsys, "crystal", "--l", "2", "--r", "2", "--u", "0,1",
                        "--n", "3", "--order", "flotw", "--format", "json")
        level3 = {tuple(tuple(c) for c in mp) for mp in data["levels"][3]}
        assert level3 == {((3,), ()), ((2,), (1,)), ((1,), (2,)), ((), (3,))}

    def test_ariki_level3(self, capsys):
        data = run_json(capsys, "crystal", "--l", "2", "--r", "2", "--u", "0,1",
                        "--n", "3", "--order", "ariki")
        level3 = {tuple(tuple(c) for c in mp) for mp in data["levels"][3]}
        assert level3 == {((3,), ()), ((2, 1), ()), ((1,), (2,)), ((2,), (1,))}

    def test_level_zero(self, capsys):
        data = run_json(capsys, "crystal", "--l", "2", "--r", "2", "--u", "0,1",
                        "--n", "0")
        assert data["levels"] == [[[[], []]]]
        assert data["edges"] == []

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "crystal", "--l", "2", "--r", "2", "--u", "0,1",
                           "--n", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '[label="1"]' in out

    def test_deterministic(self, capsys):
        args = ("crystal", "--l", "3", "--r", "2", "--u", "0,1", "--n", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_bad_flags(self, capsys):
        code, _, _ = run(capsys, "crystal", "--l", "1", "--r", "2", "--u", "0,1",
                         "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("l, u, n, order", [
        (4, (0, 1, 3), 7, FLOTW), (3, (0, 1), 7, ARIKI),
        (5, (2,), 8, FLOTW),          # one component
        (2, (0, 0), 6, FLOTW),        # vertices with equal components share a text
        (2, (0, 0), 6, ARIKI),
        (2, (0,), 12, FLOTW),         # parts of 10 or more: text order is not tuple order
        (2, (0, 1), 11, ARIKI)])
    def test_json_bytes_match_oracle(self, capsys, l, u, n, order):
        code, out, _ = run(capsys, "crystal", "--l", str(l), "--r", str(len(u)),
                           "--u", ",".join(map(str, u)), "--n", str(n),
                           "--order", order, "--format", "json")
        assert code == 0
        p = FockParams(l=l, r=len(u), u=u, node_order=order)
        assert out == json_oracle(crystal(p, n)) + "\n"

    def test_a_huge_l_costs_only_the_rims(self, capsys):
        # nothing in the closure or the JSON grows with l
        start = time.perf_counter()
        code, out, _ = run(capsys, "crystal", "--l", "1000000", "--r", "2", "--u", "0,1",
                           "--n", "3")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "47e86fbeed07af550d16fd417abccae2ffedab22b9895208d17d276b6e8f7f5c"

    def test_a_crystal_over_the_vertex_cap_prints_nothing(self, capsys):
        # at l = 1000 every multipartition is a vertex: n = 30 would print
        # gigabytes, so the closure is refused once it passes VERTEX_CAP
        code, out, err = run(capsys, "crystal", "--l", "1000", "--r", "2", "--u", "0,1",
                             "--n", "30")
        assert_input_error(code, out, err)
        assert out == ""


class TestBasicsetCommand:
    def test_type_b_jacon(self, capsys):
        data = run_json(capsys, "basicset", "--type", "B", "--n", "3", "--a", "1",
                        "--b", "0", "--xi-order", "2", "--char", "0")
        assert data["tag"] == "Jacon-b0"
        labels = {tuple(tuple(c) for c in mp) for mp in data["labels"]}
        assert labels == {((3,), ()), ((2,), (1,)), ((1,), (2,)), ((), (3,))}

    def test_type_a(self, capsys):
        data = run_json(capsys, "basicset", "--type", "A", "--n", "5", "--a", "1",
                        "--xi-order", "2")
        assert [tuple(nu) for nu in data["labels"]] == [(5,), (4, 1), (3, 2)]

    def test_type_d(self, capsys):
        data = run_json(capsys, "basicset", "--type", "D", "--n", "3",
                        "--xi-order", "2")
        assert data["tag"] == "Jacon-D"
        assert len(data["labels"]) == 2

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_type_d_uses_the_order_of_xi_to_the_a(self, capsys, fmt):
        # xi^3 has order 2 when xi has order 6
        argv = ["basicset", "--type", "D", "--n", "6", "--format", fmt]
        code, out, _ = run(capsys, *argv, "--a", "3", "--xi-order", "6")
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--xi-order", "2")[:2]

    def test_type_d_odd_order_of_xi_to_the_a(self, capsys):
        # xi^2 has order 3 when xi has order 6
        assert_input_error(*run(capsys, "basicset", "--type", "D", "--n", "4",
                                "--a", "2", "--xi-order", "6"))

    def test_char_two_exit_code(self, capsys):
        code, _, err = run(capsys, "basicset", "--type", "B", "--n", "3",
                           "--a", "1", "--b", "0", "--xi-order", "2",
                           "--char", "2")
        assert code == 2 and "char" in err.lower()

    def test_type_d_at_a_huge_order_of_xi(self, capsys):
        # the charge gap l/2 is far past n: every bipartition is in the set,
        # and the FLOTW enumeration does not grow with the gap
        argv = ["basicset", "--type", "D", "--n", "10"]
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--xi-order", "1000000")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--xi-order", "1000")[:2]

    def test_type_d_over_cap_exit_code(self, capsys):
        assert_input_error(*run(capsys, "basicset", "--type", "D", "--n", "31",
                                "--xi-order", "6"))

    @pytest.mark.parametrize("n", ["0", "1"])
    @pytest.mark.parametrize("command", [["schur"], ["basicset", "--xi-order", "6"]],
                             ids=["schur", "basicset"])
    def test_type_d_below_rank_two_exit_code(self, capsys, command, n):
        # there is no D_0 or D_1
        assert_input_error(*run(capsys, *command, "--type", "D", "--n", n))

    def test_uncovered_case_exit_code(self, capsys):
        code, _, _ = run(capsys, "basicset", "--type", "B", "--n", "3",
                         "--a", "1", "--b", "2", "--xi-order", "4")
        assert code == 2


class TestSchurCommand:
    def test_g2_table(self, capsys):
        data = run_json(capsys, "schur", "--type", "G2", "--a", "1", "--b", "2")
        rows = {r["label"]: (r["f"], r["alpha"]) for r in data["rows"]}
        assert rows == {"1": (1, 0), "eps": (1, 9), "eps1": (1, 4),
                        "eps2": (1, 1), "E+": (2, 2), "E-": (2, 2)}

    def test_b_table_alpha_column(self, capsys):
        data = run_json(capsys, "schur", "--type", "B", "--n", "3", "--a", "1",
                        "--b", "4")
        alphas = sorted(r["alpha"] for r in data["rows"])
        assert alphas == [0, 1, 3, 4, 5, 7, 9, 10, 13, 18]

    def test_f4_all_rows(self, capsys):
        data = run_json(capsys, "schur", "--type", "F4", "--a", "1", "--b", "1")
        assert len(data["rows"]) == 25

    def test_single_bipartition_polynomial(self, capsys):
        data = run_json(capsys, "schur", "--type", "B", "--n", "3", "--a", "1",
                        "--b", "1", "--bipartition", "[[2],[]]")
        assert data["alpha"] == 0 and data["f"] == 1
        assert data["element"][0] == [0, "1"]

    MALFORMED = ["[1]", "[]", "{}", "null", "[[1.5],[]]", '[["a"],[]]', "[[1],[1],[1]]",
                 "[[1],2]", "[[1],[2]", "[[0],[]]", "[[true],[]]"]

    # outside type B any --bipartition is refused, a well-formed one too
    @pytest.mark.parametrize("ctype, body", [("B", body) for body in MALFORMED] + [
        ("A", "garbage"), ("G2", "garbage"), ("F4", "[[2,1],[1]]"),
    ], ids=MALFORMED + ["A-garbage", "G2-garbage", "F4-well-formed"])
    def test_malformed_bipartition(self, capsys, ctype, body):
        assert_input_error(*run(capsys, "schur", "--type", ctype, "--a", "1",
                                "--b", "1", "--bipartition", body))

    def test_bipartition_builds_the_element_once(self, capsys, monkeypatch):
        calls = []
        real = schur.schur_element_B
        monkeypatch.setattr(schur, "schur_element_B",
                            lambda *args: calls.append(args) or real(*args))
        data = run_json(capsys, "schur", "--type", "B", "--a", "1", "--b", "2",
                        "--bipartition", "[[2,1],[1]]")
        assert len(calls) == 1
        assert (data["alpha"], data["f"]) == tuple(schur.invariants_B(((2, 1), (1,)), 1, 2))

    @pytest.mark.parametrize("lam", [[[schur.ELEMENT_CAP + 1], []], [[1], [10**9]],
                                     [[20], [schur.ELEMENT_CAP - 19]]],
                             ids=["one-past", "huge", "both-components"])
    def test_a_large_bipartition_is_refused_at_once(self, capsys, monkeypatch, lam):
        def formed(*args):
            raise AssertionError("a factor was formed before the size cap was checked")

        monkeypatch.setattr(schur, "_factors_B", formed)
        start = time.perf_counter()
        code, out, err = run(capsys, "schur", "--type", "B", "--a", "1", "--b", "2",
                             "--bipartition", json.dumps(lam))
        assert time.perf_counter() - start < 1
        assert_input_error(code, out, err)
        assert f"<= {schur.ELEMENT_CAP}" in err

    def test_type_a_weights(self, capsys):
        assert_input_error(*run(capsys, "schur", "--type", "A", "--n", "3", "--a", "-2"))
        data = run_json(capsys, "schur", "--type", "A", "--n", "3", "--a", "0")
        assert {str(r["label"]): r["f"] for r in data["rows"]} == \
            {"[3]": 6, "[2, 1]": 3, "[1, 1, 1]": 6}

    @pytest.mark.parametrize("a", [1, 2])
    def test_d3_table_is_the_a3_table(self, capsys, a):
        d3 = run_json(capsys, "schur", "--type", "D", "--n", "3", "--a", str(a))
        a3 = run_json(capsys, "schur", "--type", "A", "--n", "4", "--a", str(a))
        assert set(d3) == {"type", "n", "a", "rows"}
        assert Counter((r["alpha"], r["f"]) for r in d3["rows"]) == \
            Counter((r["alpha"], r["f"]) for r in a3["rows"])
        assert d3["rows"] == sorted(d3["rows"], key=lambda r: (r["alpha"], json.dumps(r["label"])))

    def test_regime_not_covered(self, capsys):
        code, _, _ = run(capsys, "schur", "--type", "G2", "--a", "2", "--b", "1")
        assert code == 2

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "schur", "--type", "G2", "--a", "1", "--b", "2",
                           "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["E", "f", "alpha"]
        assert len(lines) == 7


def raise_gamma(monkeypatch, key):
    """Make KLData.gamma one higher at key (absent keys count as 0)."""
    original = KLData.gamma.func

    def raised(self):
        gamma = dict(original(self))
        gamma[key] = gamma.get(key, 0) + 1
        return gamma

    prop = cached_property(raised)
    prop.__set_name__(KLData, "gamma")
    monkeypatch.setattr(KLData, "gamma", prop)


class TestKlCommand:
    def test_afn_s3(self, capsys):
        data = run_json(capsys, "kl", "--type", "A", "--rank", "2",
                        "--weights", "1", "--emit", "afn")
        assert data["afn"] == {"e": 0, "s1": 1, "s2": 1, "s1.s2": 1,
                               "s2.s1": 1, "s1.s2.s1": 3}

    def test_checks_pass_b2(self, capsys):
        data = run_json(capsys, "kl", "--type", "B", "--rank", "2",
                        "--weights", "1,3",
                        "--check", "P2,P3,P4,P5,P6,P7,P8,P15")
        assert all(c["passed"] for c in data["checks"])
        assert len(data["checks"]) == 8

    def test_cbasis_text(self, capsys):
        data = run_json(capsys, "kl", "--type", "A", "--rank", "2",
                        "--weights", "1", "--emit", "cbasis")
        assert data["cbasis_text"]["s1"] == "v^-1*Tt_e + Tt_s1"

    def test_phimatrix_det(self, capsys):
        data = run_json(capsys, "kl", "--type", "A", "--rank", "2",
                        "--weights", "1", "--emit", "phimatrix")
        assert data["det"] != []

    # A2: e, s1, s2, s1.s2, s2.s1, s1.s2.s1 with distinguished e, s1, s2 and w0
    @pytest.mark.parametrize("key,failed,witness", [
        ((0, 1, 1), "P2", ["e", "s1", "s1", 1]),
        ((1, 1, 0), "P3", ["s1", ["e", "s1"]]),
        ((1, 1, 1), "P5", ["s1", "s1", 2, 1]),
    ], ids=["P2", "P3", "P5"])
    def test_witness_names_only_the_elements(self, capsys, monkeypatch, key, failed, witness):
        raise_gamma(monkeypatch, key)
        code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "2",
                           "--weights", "1", "--check", "P2,P3,P5")
        assert code == 1
        expected = [{"property": p, "passed": True} for p in ("P2", "P3", "P5")]
        expected[("P2", "P3", "P5").index(failed)] = {
            "property": failed, "passed": False, "witness": witness}
        assert json.loads(out)["checks"] == expected

    @pytest.mark.parametrize("family,rank,weights,checks", [
        ("A", 1, "1", ()),
        ("A", 3, "1", ()),
        ("G2", 2, "2,1", ()),
        ("B", 3, "1,2", ()),
        ("D", 4, "1", ()),
        ("A", 3, "1", ("P6",)),
        ("B", 3, "1,2", ("P2", "P6")),
    ], ids=["A1", "A3", "G2", "B3", "D4", "A3-P6", "B3-P2-P6"])
    def test_cbasis_bytes_match_the_dict_oracle(self, capsys, family, rank, weights, checks):
        argv = ["kl", "--type", family, "--rank", str(rank), "--weights", weights,
                "--emit", "cbasis"] + (["--check", ",".join(checks)] if checks else [])
        code, out, _ = run(capsys, *argv)
        ct = CoxeterType(family, rank)
        data = KLData(ct, weight_from_ab(ct, *map(int, weights.split(","))))
        assert code == 0
        assert (code, out) == kl_cbasis_report(data, checks)

    @pytest.mark.parametrize("family,rank,weights", [("B", 3, "1,2"), ("D", 4, "1")],
                             ids=["B3", "D4"])
    def test_cbasis_report_hashes_no_polynomial(self, capsys, monkeypatch, family, rank, weights):
        # kl_cbasis interns each coefficient, and the report looks them up by id
        argv = ["kl", "--type", family, "--rank", str(rank), "--weights", weights,
                "--emit", "cbasis"]

        def refuse(self):
            raise AssertionError("a LaurentPoly was hashed")

        with monkeypatch.context() as patched:
            patched.setattr(LaurentPoly, "__hash__", refuse)
            unhashed = run(capsys, *argv)
        assert unhashed == run(capsys, *argv)
        assert unhashed[0] == 0

    def test_cbasis_with_a_failing_check_exits_1(self, capsys, monkeypatch):
        raise_gamma(monkeypatch, (1, 1, 1))
        code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "2", "--weights", "1",
                           "--emit", "cbasis", "--check", "P5,P6")
        ct = CoxeterType("A", 2)
        assert (code, out) == kl_cbasis_report(KLData(ct, weight_from_ab(ct, 1)), ("P5", "P6"))
        assert code == 1

    @pytest.mark.parametrize("job", sorted(BENCHMARK_REFERENCE))
    def test_cbasis_jobs_match_the_benchmark_reference(self, capsys, monkeypatch, job):
        # every job of every workload, not only kl-cbasis
        monkeypatch.chdir(REPO_ROOT)
        code, out, _ = run(capsys, *job.split())
        expected = BENCHMARK_REFERENCE[job]
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
            (expected["exit"], expected["sha256"])

    @pytest.mark.parametrize("argv", [
        ("--type", "A", "--rank", "3", "--weights", "1", "--check", "P2,P15"),
        ("--type", "G2", "--rank", "2", "--weights", "1,1", "--emit", "jring"),
        ("--type", "G2", "--rank", "2", "--weights", "1,2", "--emit", "phimatrix"),
    ], ids=["A3-check", "G2-jring", "G2-phimatrix"])
    def test_a_small_group_scans_hconst_for_afn_once(self, capsys, monkeypatch, argv):
        # afn checks itself under AFN_CHECK_CAP; gamma returns that scan's gamma
        original = KLData.check_afn
        checked = []

        def spy(self, a):
            checked.append(self)
            return original(self, a)

        monkeypatch.setattr(KLData, "check_afn", spy)
        code, _, err = run(capsys, "kl", *argv)
        assert code == 0, err
        assert len(checked) == 1
        data = checked[0]
        assert len(data.group) <= klcells.AFN_CHECK_CAP
        assert list(data.gamma.items()) == list(gamma_by_rescan(data).items())

    def test_group_too_large(self, capsys):
        code, _, _ = run(capsys, "kl", "--type", "F4", "--rank", "4",
                         "--weights", "1,1", "--emit", "afn")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--type", "F4", "--rank", "4", "--weights", "1,1", "--emit", "afn"),
        ("--type", "D", "--rank", "4", "--weights", "1", "--emit", "gamma"),
        ("--type", "D", "--rank", "4", "--weights", "1", "--emit", "jring"),
        ("--type", "D", "--rank", "4", "--weights", "1", "--check", "P2"),
        ("--type", "D", "--rank", "4", "--weights", "1", "--emit", "phimatrix"),
        ("--type", "D", "--rank", "4", "--weights", "1", "--check", "P6"),
        ("--type", "B", "--rank", "4", "--weights", "1,2", "--check", "P15"),
        ("--type", "F4", "--rank", "4", "--weights", "1,1", "--emit", "cbasis"),
    ], ids=["F4-afn", "D4-gamma", "D4-jring", "D4-check", "D4-phimatrix", "D4-check-P6",
            "B4-check-P15", "F4-cbasis"])
    def test_over_the_cap_is_refused_before_enumeration(self, capsys, argv):
        before = _cached_group.cache_info()
        assert_input_error(*run(capsys, "kl", *argv))
        assert _cached_group.cache_info() == before

    def test_unknown_check_is_refused_before_any_work(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(KLData, "_check_P2", lambda self: calls.append(self))
        before = _cached_group.cache_info()
        assert_input_error(*run(capsys, "kl", "--type", "A", "--rank", "2",
                                "--weights", "1", "--check", "P2,P9"))
        assert calls == []
        assert _cached_group.cache_info() == before

    def test_d4_afn_is_under_the_cells_cap(self, capsys):
        data = run_json(capsys, "kl", "--type", "D", "--rank", "4",
                        "--weights", "1", "--emit", "afn")
        assert len(data["afn"]) == 192
        assert data["afn"]["e"] == 0

    def test_weight_count_validation(self, capsys):
        code, _, err = run(capsys, "kl", "--type", "B", "--rank", "2",
                           "--weights", "1", "--emit", "afn")
        assert code == 2
        assert "takes 2 weight(s), got 1" in err

    @pytest.mark.parametrize("family,weights", [
        ("A", ("--weights", "-1")), ("A", ("--weights", "0")), ("B", ("--weights", "1,-2")),
        ("B", ("--weights=-1,2",)), ("B", ("--weights", "0,1")), ("G2", ("--weights", "1,0"))])
    def test_a_weight_below_one_is_named_as_such(self, capsys, family, weights):
        code, out, err = run(capsys, "kl", "--type", family, "--rank", "2", *weights,
                             "--emit", "afn")
        assert_input_error(code, out, err)
        assert "needs L(s) > 0" in err
        assert "conjugate" not in err

    @pytest.mark.parametrize("argv", [
        ("--emit", "afn"), ("--emit", "dinv"), ("--emit", "cbasis"), ("--emit", "gamma"),
        ("--emit", "jring"), ("--emit", "phimatrix"), ("--check", "P2,P3,P4,P5,P6,P7,P8,P15"),
    ], ids=["afn", "dinv", "cbasis", "gamma", "jring", "phimatrix", "check"])
    def test_no_kl_job_builds_a_tt_algebra(self, capsys, monkeypatch, argv):
        # the Tt-basis algebra is a test-oracle base: no stage needs it
        def refuse(self, *args):
            raise AssertionError("a kl job built a HeckeAlgebra")

        monkeypatch.setattr(klcells.HeckeAlgebra, "__init__", refuse)
        code, out, err = run(capsys, "kl", "--type", "G2", "--rank", "2", "--weights", "1,2",
                             *argv)
        assert code == 0, err
        json.loads(out)

    @pytest.mark.parametrize("family,rank,weights,force,cap", [
        ("A", 2000, "1", False, 400),
        ("A", 1000000, "1", False, 400),
        ("B", 10 ** 18, "1,2", False, 400),
        ("A", 3000, "1", True, 2000),
        ("A", 1000000, "1", True, 2000),
        ("D", 10 ** 18, "1", True, 2000),
    ], ids=["A2000", "A1e6", "B1e18", "A3000-force", "A1e6-force", "D1e18-force"])
    def test_a_huge_rank_is_refused_at_once(self, capsys, monkeypatch, family, rank,
                                           weights, force, cap):
        # |W|, the diagram, the Cartan matrix and the weights are all
        # rank-sized: none is formed
        def rank_sized(*args):
            raise AssertionError("rank-sized work before the caps were checked")

        monkeypatch.setattr(CoxeterType, "order", rank_sized)
        monkeypatch.setattr(CoxeterType, "diagram", rank_sized)
        monkeypatch.setattr(CoxeterType, "cartan_matrix", rank_sized)
        monkeypatch.setattr(klcells, "weight_from_ab", rank_sized)
        before = _cached_group.cache_info()
        argv = ["kl", "--type", family, "--rank", str(rank), "--weights", weights,
                "--emit", "afn"] + ["--force"] * force
        code, out, err = run(capsys, *argv)
        assert_input_error(code, out, err)
        assert f"{family}{rank}" in err and f"<= {cap}" in err
        assert _cached_group.cache_info() == before

    @pytest.mark.parametrize("argv,name,cap", [
        (("--type", "A", "--rank", "7", "--weights", "1", "--force"), "A7", 2000),
        (("--type", "B", "--rank", "5", "--weights", "1,2"), "B5", 400),
        (("--type", "D", "--rank", "4", "--weights", "1", "--check", "P2"), "D4", 120),
    ], ids=["A7-force", "B5", "D4-check"])
    def test_the_cap_message_names_the_type_and_the_cap(self, capsys, argv, name, cap):
        code, out, err = run(capsys, "kl", *argv)
        assert_input_error(code, out, err)
        assert name in err and f"<= {cap}" in err


KL_EMITS = ["cbasis", "afn", "gamma", "dinv", "jring", "phimatrix"]


@st.composite
def kl_argv(draw):
    """kl argv over types A/B/G2 of rank <= 3, mostly well-formed."""
    family, rank = draw(st.sampled_from([
        ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G2", 2),
        ("A", 0), ("B", 1), ("G2", 3)]))
    count = 1 if family == "A" else 2
    kind = draw(st.integers(0, 3))
    if kind < 2:
        weights = ",".join(map(str, draw(st.lists(st.integers(1, 3), min_size=count,
                                                  max_size=count))))
    elif kind == 2:  # any count, zero and negative weights
        weights = ",".join(map(str, draw(st.lists(st.integers(-1, 3), max_size=3))))
    else:
        weights = draw(st.sampled_from(["", ",", "1,,2", "x", "1.5", "2,b", "--"]))
    argv = ["kl", "--type", family, "--rank", str(rank), "--weights", weights]
    emit = draw(st.sampled_from([None, *KL_EMITS]))
    if emit:
        argv += ["--emit", emit]
    names = st.sampled_from([*PROPERTY_NAMES, "P15", "P15prime", "P1", "P9", "p2", ""])
    if draw(st.booleans()):
        argv += ["--check", ",".join(draw(st.lists(names, min_size=1, max_size=3)))]
    return argv


class TestKlFuzz:
    @settings(max_examples=40, deadline=None)
    @given(kl_argv())
    def test_exit_contract(self, argv):
        code, out = run_quiet(argv)
        assert code in (0, 1, 2)
        if code in (0, 1):
            json.loads(out)


@st.composite
def schur_argv(draw):
    """schur argv over types A/B/D/G2/F4, n <= 10, weights in [-1, 4]."""
    argv = ["schur", "--type", draw(st.sampled_from(["A", "B", "D", "G2", "F4"])),
            "--n", str(draw(st.integers(0, 10))),
            "--a", str(draw(st.integers(-1, 4))), "--b", str(draw(st.integers(-1, 4)))]
    kind = draw(st.integers(0, 3))
    if kind == 1:  # a well-formed pair of lists, not always of partitions
        parts = st.lists(st.integers(-1, 3), max_size=3)
        lam = draw(st.tuples(parts, parts).filter(
            lambda lam: sum(map(abs, lam[0] + lam[1])) <= 6))
        argv += ["--bipartition", json.dumps(lam)]
    elif kind == 2:
        argv += ["--bipartition", draw(st.sampled_from([
            "", "[", "[[1],[2]", "[[1]]", "[[1],[1],[1]]", "[[1.5],[]]", '[["1"],[]]',
            "[[true],[]]", "[[1],null]", "{}", "7", "[[0],[]]", "[[1,2],[]]"]))]
    return argv


class TestSchurFuzz:
    @settings(max_examples=60, deadline=None)
    @given(schur_argv())
    def test_exit_contract(self, argv):
        code, out = run_quiet(argv)
        assert code in (0, 2)
        if code == 0:
            json.loads(out)


@st.composite
def crystal_argv(draw):
    """crystal argv with n <= 8, l and r in [0, 4], u of any length, u_j in [-1, 4]."""
    u = draw(st.lists(st.integers(-1, 4), max_size=5))
    return ["crystal", "--l", str(draw(st.integers(0, 4))),
            "--r", str(draw(st.integers(0, 4))), "--u=" + ",".join(map(str, u)),
            "--n", str(draw(st.integers(0, 8))),
            "--order", draw(st.sampled_from([FLOTW, ARIKI])),
            "--format", draw(st.sampled_from(["json", "dot"]))]


@st.composite
def basicset_argv(draw):
    """basicset argv with n <= 8, xi-order in [0, 6], a and b in [-1, 3], char 0 or 2."""
    return ["basicset", "--type", draw(st.sampled_from(["A", "B", "D"])),
            "--n", str(draw(st.integers(0, 8))),
            "--a", str(draw(st.integers(-1, 3))), "--b", str(draw(st.integers(-1, 3))),
            "--xi-order", str(draw(st.integers(0, 6))),
            "--char", str(draw(st.sampled_from([0, 2]))),
            "--format", draw(st.sampled_from(["json", "text"]))]


class TestCrystalBasicsetFuzz:
    @settings(max_examples=60, deadline=None)
    @given(crystal_argv())
    def test_crystal_exit_contract(self, argv):
        code, out = run_quiet(argv)
        assert code in (0, 2)
        if code == 0 and argv[-1] == "json":
            json.loads(out)
        elif code == 0:
            assert out.startswith("digraph crystal {") and out.endswith("}\n")

    @settings(max_examples=60, deadline=None)
    @given(basicset_argv())
    def test_basicset_exit_contract(self, argv):
        code, out = run_quiet(argv)
        assert code in (0, 2)
        if code == 0 and argv[-1] == "json":
            json.loads(out)
        elif code == 0:
            header, *labels = out.splitlines()
            assert header.startswith("# ")
            for line in labels:
                json.loads(line)


class TestVerifyCommand:
    def fixture_path(self, name):
        return str(resources.files("heckekit.fixtures").joinpath(name))

    def test_b0_fixture(self, capsys):
        code, out, _ = run(capsys, "verify-decomp", self.fixture_path("table3_b0.json"))
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "exists" and len(data["labels"]) == 4

    def test_g2_fixture_fails(self, capsys):
        code, out, _ = run(capsys, "verify-decomp", self.fixture_path("g2_char2.json"))
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "fails"
        assert data["witness_column"] == 1
        assert sorted(data["witness_rows"]) == ["E+", "E-"]

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify-decomp", str(bad))
        assert code == 2 and err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify-decomp", "/nonexistent/file.json")
        assert code == 2

    def test_empty_matrix_is_not_called_ragged(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"rows": []}))
        code, out, err = run(capsys, "verify-decomp", str(bad))
        assert_input_error(code, out, err)
        assert "the matrix has no rows" in err
        assert "ragged" not in err

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "noalpha.json"
        bad.write_text(json.dumps(
            {"rows": [{"label": [[1], []], "entries": [1]}]}))
        code, _, _ = run(capsys, "verify-decomp", str(bad))
        assert code == 2

    @pytest.mark.parametrize("body", [
        [],
        {"rows": "x"},
        {"rows": [5]},
        {"rows": [{"label": 5, "alpha": 0, "entries": [1]}]},
        {"rows": [{"label": [[1], 2], "alpha": 0, "entries": [1]}]},
        {"rows": [{"label": [[1], []], "alpha": None, "entries": [1]}]},
        {"rows": [{"label": [[1], []], "alpha": 0, "entries": 1}]},
        {"rows": [{"label": [[1], []], "alpha": 0, "entries": ["1"]}]},
        {"rows": [{"label": [[1], []], "alpha": 0, "entries": [True]}]},
        {"rows": [{"label": [[1], []], "alpha": True, "entries": [1]}]},
        {"rows": [{"label": [[1], []], "alpha": 0, "dim": "x", "entries": [1]}]},
        {"rows": [{"label": [[1], []], "alpha": 0, "dim": True, "entries": [1]}]},
    ])
    def test_wrong_shape_is_an_input_error(self, tmp_path, capsys, body):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps(body))
        assert_input_error(*run(capsys, "verify-decomp", str(bad)))


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                         st.sampled_from(["", "x", "E+", "1"]), st.just(1.5))


@st.composite
def decomp_body(draw):
    """Text of a verify-decomp file: mostly the documented schema, and now and
    then one row field of the wrong shape, or no object with rows at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "{", "[]", "7", "null", '{"rows": 5}', '{"rows": [1]}']))
    ncols = draw(st.integers(0, 3))
    part = st.lists(st.integers(1, 3), max_size=3).map(lambda p: sorted(p, reverse=True))
    label = st.one_of(st.sampled_from(["E1", "E2", "E+"]), part,
                      st.lists(part, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = {"label": draw(label), "alpha": draw(st.integers(0, 4)),
               "entries": draw(st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols))}
        if draw(st.booleans()):
            row["dim"] = draw(st.one_of(st.integers(1, 6), st.none()))
        rows.append(row)
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(["label", "alpha", "entries", "dim"]))
        if draw(st.booleans()):
            row[key] = draw(st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3)))
        else:
            row.pop(key, None)
    return json.dumps({"type": "B", "n": 3, "rows": rows})


class TestVerifyFuzz:
    @settings(max_examples=60, deadline=None)
    @given(decomp_body())
    def test_exit_contract(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "matrix.json")
            with open(path, "w") as fh:
                fh.write(body)
            code, out = run_quiet(["verify-decomp", path])
        assert code in (0, 1, 2)
        if code == 0:
            assert json.loads(out)["verdict"] == "exists"
        elif code == 1:
            assert json.loads(out)["verdict"] == "fails"


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("crystal", "--l", "2", "--r", "2", "--u", "0,1", "--n", "-1"),
        ("basicset", "--type", "A", "--n", "-1", "--xi-order", "2"),
        ("basicset", "--type", "B", "--n", "-2", "--xi-order", "2"),
        ("schur", "--type", "B", "--n", "-1"),
        ("schur", "--type", "A", "--n", "-3"),
    ])
    def test_negative_n(self, capsys, argv):
        assert_input_error(*run(capsys, *argv))

    @pytest.mark.parametrize("argv", [
        ("schur", "--type", "A", "--a", "1"),
        ("schur", "--type", "B", "--a", "1", "--b", "2"),
        ("schur", "--type", "D", "--a", "1"),
        ("basicset", "--type", "A", "--a", "1", "--xi-order", "3"),
        ("basicset", "--type", "B", "--a", "1", "--b", "2", "--xi-order", "6"),
        ("basicset", "--type", "D", "--a", "1", "--xi-order", "4"),
    ], ids=["schur-A", "schur-B", "schur-D", "basicset-A", "basicset-B", "basicset-D"])
    def test_a_huge_n_is_refused_at_once(self, capsys, monkeypatch, argv):
        # no partition is listed before the cap is checked
        def listed(*args):
            raise AssertionError("partitions listed before the size cap was checked")

        monkeypatch.setattr(schur, "_capped_partitions", listed)
        monkeypatch.setattr(schur, "multipartitions", listed)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--n", "1000000000")
        assert time.perf_counter() - start < 1
        assert_input_error(code, out, err)
        family = argv[2]
        assert f"type {family}" in err and f"<= {schur.SIZE_CAPS[family]}" in err

    @pytest.mark.parametrize("char", [str(2 * 10**400), "4", "-3"],
                             ids=["huge", "composite", "negative"])
    def test_bad_char(self, capsys, char):
        assert_input_error(*run(capsys, "basicset", "--type", "B", "--n", "3",
                                "--xi-order", "2", "--char", char))

    def test_nineteen_digit_prime_char(self, capsys):
        data = run_json(capsys, "basicset", "--type", "B", "--n", "3",
                        "--xi-order", "2", "--char", str(10**18 + 3))
        assert data["tag"] == "Jacon-b0"


def fresh_cli():
    """heckekit.cli executed anew: its own parser and module state, shared
    with no other call."""
    spec = importlib.util.spec_from_file_location("heckekit._fresh_cli", cli.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def src_env() -> dict:
    """The environment of a child Python that imports heckekit from src/, with
    help and usage wrapped at a fixed width."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}


def count_parsers(monkeypatch) -> list:
    """A list that grows by one for every argparse.ArgumentParser constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestParserReuse:
    def test_import_builds_no_parser(self):
        # a parser built at import would cost every worker's set-up
        script = ("import argparse\n"
                  "built = []\n"
                  "init = argparse.ArgumentParser.__init__\n"
                  "def counted(self, *args, **kwargs):\n"
                  "    built.append(self)\n"
                  "    init(self, *args, **kwargs)\n"
                  "argparse.ArgumentParser.__init__ = counted\n"
                  "import heckekit.cli\n"
                  "print(len(built))\n"
                  "heckekit.cli.make_parser()\n"
                  "print(len(built))\n")
        done = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        # one parser and one per subcommand, once make_parser is called
        assert done.stdout.split() == ["0", "6"]

    def test_main_builds_the_tree_once(self, capsys, monkeypatch):
        cli.make_parser.cache_clear()
        built = count_parsers(monkeypatch)
        for argv in (["kl", "--type", "A", "--rank", "2", "--weights", "1", "--emit", "afn"],
                     ["crystal", "--l", "2", "--r", "2", "--u", "0,1", "--n", "2"],
                     ["frobnicate"]):
            run(capsys, *argv)
        assert len(built) == 6
        assert {p.prog for p in built} == {"heckekit"} | {
            f"heckekit {c}" for c in ("crystal", "basicset", "schur", "kl", "verify-decomp")}

    def test_interleaved_calls_match_a_new_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        kl = ["kl", "--type", "B", "--rank", "2", "--weights", "1,2"]
        sequence = [
            kl + ["--emit", "afn"],
            ["kl", "--type", "A", "--rank", "2", "--weights", "1,x"],
            ["--help"],
            ["kl", "--type", "C", "--rank", "2", "--weights", "1"],
            ["crystal", "--l", "3", "--r", "2", "--u", "0,1", "--n", "3"],
            kl + ["--check", "P2,P15"],
            kl,
        ]
        shared = [run(capsys, *argv) for argv in sequence]
        for argv, got in zip(sequence, shared):
            code = fresh_cli().main(argv)
            captured = capsys.readouterr()
            assert got == (code, captured.out, captured.err), argv
        assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0, 0]
        assert "checks" in json.loads(shared[-2][1])
        assert "checks" not in json.loads(shared[-1][1])


class TestLeanImport:
    def test_the_cli_loads_no_heavy_stdlib_module(self):
        # every command and every benchmark worker pays the import: -S keeps
        # site (and any .pth file) from loading these first, -B writes no bytecode
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
                  "import heckekit.cli, heckekit\n"
                  "print([n for n in heckekit.__all__ if not hasattr(heckekit, n)])\n"
                  "print(sorted({'dataclasses', 'inspect', 'typing', 'importlib.resources'}\n"
                  "             & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[]"]


class TestEntryPoint:
    @pytest.mark.parametrize("expected,argv", [
        (0, ["crystal", "--l", "2", "--r", "2", "--u", "0,1", "--n", "3"]),
        (1, ["verify-decomp", str(resources.files("heckekit.fixtures").joinpath("g2_char2.json"))]),
        (2, ["kl", "--type", "A", "--rank", "2", "--weights", "1", "--emit", "frobnicate"]),
    ], ids=["exit0", "exit1", "exit2"])
    def test_a_process_exits_as_main_returns(self, capsys, monkeypatch, expected, argv):
        # python -m heckekit.cli runs entry(), which raises SystemExit(main())
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *argv)
        assert code == expected
        done = subprocess.run([sys.executable, "-m", "heckekit.cli", *argv], env=src_env(),
                              capture_output=True, timeout=60)
        assert done.returncode == code
        assert done.stdout == out.encode()
        assert done.stderr.decode() == err
        assert "Traceback" not in err

    def test_a_closed_stdout_exits_2_without_a_traceback(self):
        # `... | head -c 10`: about 465 KB of JSON, most of it written after the close
        argv = ["crystal", "--l", "4", "--r", "3", "--u", "0,1,3", "--n", "12"]
        with subprocess.Popen([sys.executable, "-m", "heckekit.cli", *argv], env=src_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err


def readme_cli_lines() -> list[str]:
    """The `heckekit ...` lines of the sh block under "## CLI" in README.md."""
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("heckekit ")]


class TestReadme:
    def test_every_subcommand_has_an_example(self):
        assert {line.split()[1] for line in readme_cli_lines()} == \
            {"crystal", "basicset", "schur", "kl", "verify-decomp"}

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_cli_example(self, capsys, monkeypatch, line):
        # paths in the examples are relative to the repository root
        monkeypatch.chdir(REPO_ROOT)
        code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == (1 if "exits 1" in line else 0), err
