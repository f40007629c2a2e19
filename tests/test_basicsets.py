import json
import random
from importlib import resources

import pytest

from heckekit.basicsets import (BasicSetResult, CaseNotCovered,
                                CharTwoUnsupported, DecompMatrix, MissingAlpha,
                                OddOrderUnsupported, SpecParams, basic_set_B,
                                basic_set_D, basic_set_sym, PRIME_LIMIT, e_value, fn_zero, is_prime,
                                verify_decomp)
from heckekit.fock import ARIKI, FLOTW, FockParams, uryu_set
from heckekit.schur import all_invariants, bipartitions, e_regular, invariants_B, partitions
from oracles import check_dominance_triangularity, dim_bipartition


def load_fixture(name):
    text = resources.files("heckekit.fixtures").joinpath(name).read_text()
    return DecompMatrix.from_json_dict(json.loads(text))


class TestEValue:
    def test_order_two(self):
        assert e_value(SpecParams(char=0, xi_order=2, a=1, b=0)) == 2

    def test_infinite(self):
        assert e_value(SpecParams(char=0, xi_order=1, a=1, b=0)) is None

    def test_reduced_order(self):
        # xi of order 6, a = 2: the order of xi^2 is 3 (frozen from the
        # primitive-root computation 1 + w + w^2 = 0, 1 + w != 0)
        assert e_value(SpecParams(char=0, xi_order=6, a=2, b=0)) == 3

    def test_positive_characteristic(self):
        assert e_value(SpecParams(char=3, xi_order=1, a=1, b=0)) == 3
        assert e_value(SpecParams(char=5, xi_order=5, a=5, b=0)) == 5


class TestCharacteristic:
    def test_small_numbers_oracle(self):
        for n in range(-3, 2000):
            trial = n > 1 and all(n % d for d in range(2, n))
            assert is_prime(n) == trial, n

    def test_large_primes_and_pseudoprimes(self):
        assert is_prime(10**18 + 3)          # 19 digits: too slow for trial division
        assert not is_prime(10**18 + 1)
        assert not is_prime(3215031751)      # strong pseudoprime to 2, 3, 5, 7
        assert not is_prime(3825123056546413051)  # ... to every base up to 23
        assert is_prime(2**61 - 1)

    def test_spec_params_bounds(self):
        assert SpecParams(char=10**18 + 3, xi_order=2, a=1, b=0).char == 10**18 + 3
        for char in (-3, 1, 4, 10**18 + 1, PRIME_LIMIT, 2 * 10**400):
            with pytest.raises(ValueError):
                SpecParams(char=char, xi_order=2, a=1, b=0)


class TestFnZero:
    def test_basic_vanishing(self):
        assert fn_zero(SpecParams(char=0, xi_order=2, a=1, b=0), 3) == (True, 1)

    def test_even_b(self):
        assert fn_zero(SpecParams(char=0, xi_order=2, a=1, b=2), 3) == (True, 1)

    def test_odd_order_never(self):
        for b in range(4):
            assert fn_zero(SpecParams(char=0, xi_order=3, a=1, b=b), 3) == (False, None)

    def test_char_two_refused(self):
        with pytest.raises(CharTwoUnsupported):
            fn_zero(SpecParams(char=2, xi_order=1, a=1, b=0), 3)

    def test_integer_product_oracle(self):
        # for m in {1, 2} the value of xi is +-1 and the product is an integer
        rng = random.Random(9)
        for _ in range(40):
            m = rng.choice([1, 2])
            a, b, n = rng.randrange(0, 4), rng.randrange(0, 4), rng.randrange(1, 5)
            xi = 1 if m == 1 else -1
            product = 1
            for i in range(-(n - 1), n):
                product *= xi ** b + xi ** (a * i)
            flag, d = fn_zero(SpecParams(char=0, xi_order=m, a=a, b=b), n)
            assert flag == (product == 0)
            if flag:
                assert abs(d) <= n - 1 and xi ** (b + a * d) == -1


class TestBasicSetA:
    def test_two_regular(self):
        got = basic_set_sym(SpecParams(char=0, xi_order=2, a=1, b=0), 5)
        assert got == [(5,), (4, 1), (3, 2)]

    def test_infinite_e_gives_everything(self):
        got = basic_set_sym(SpecParams(char=0, xi_order=1, a=1, b=0), 4)
        assert got == list(partitions(4))

    def test_three_regular(self):
        got = basic_set_sym(SpecParams(char=0, xi_order=3, a=1, b=0), 3)
        assert got == [(3,), (2, 1)]


class TestBasicSetB:
    def test_jacon_b0(self):
        labels, tag = basic_set_B(SpecParams(char=0, xi_order=2, a=1, b=0), 3)
        assert tag == "Jacon-b0"
        assert set(labels) == {((3,), ()), ((2,), (1,)), ((1,), (2,)), ((), (3,))}

    def test_asymptotic_is_component_order_set(self):
        labels, tag = basic_set_B(SpecParams(char=0, xi_order=2, a=1, b=4), 3)
        assert tag == "asymptotic/DJM"
        assert set(labels) == {((3,), ()), ((2, 1), ()), ((1,), (2,)), ((2,), (1,))}

    def test_dj_extension(self):
        # xi = -1, a = 2 makes xi^a = 1; b = 1 makes xi^b = -1; char 0 -> all
        # partitions of 3 in the first component
        labels, tag = basic_set_B(SpecParams(char=0, xi_order=2, a=2, b=1), 3)
        assert tag == "DJ-extension"
        assert set(labels) == {((3,), ()), ((2, 1), ()), ((1, 1, 1), ())}

    def test_dj_morita_count(self):
        params = SpecParams(char=0, xi_order=3, a=1, b=1)
        labels, tag = basic_set_B(params, 4)
        assert tag == "DJ-Morita"
        e = e_value(params)
        expected = sum(
            sum(1 for fst in partitions(r) if e_regular(fst, e))
            * sum(1 for snd in partitions(4 - r) if e_regular(snd, e))
            for r in range(5))
        assert len(labels) == expected

    def test_jacon_equal(self):
        labels, tag = basic_set_B(SpecParams(char=0, xi_order=4, a=1, b=1), 3)
        assert tag == "Jacon-equal"
        p = FockParams(l=4, r=2, u=(1, 2), node_order=FLOTW)
        assert set(labels) == uryu_set(p, 3)

    def test_scaling_reduction(self):
        # a = b = 2 with xi of order 8 behaves like a = b = 1 with xi^2 of order 4
        labels2, tag2 = basic_set_B(SpecParams(char=0, xi_order=8, a=2, b=2), 3)
        labels1, tag1 = basic_set_B(SpecParams(char=0, xi_order=4, a=1, b=1), 3)
        assert tag1 == tag2 == "Jacon-equal"
        assert labels1 == labels2

    def test_char_two_refused(self):
        with pytest.raises(CharTwoUnsupported):
            basic_set_B(SpecParams(char=2, xi_order=2, a=1, b=0), 3)

    def test_uncovered_case(self):
        # product vanishes, xi^a != 1, a != b, b != 0, not asymptotic
        with pytest.raises(CaseNotCovered):
            basic_set_B(SpecParams(char=0, xi_order=4, a=1, b=2), 3)

    def test_a_zero_paths(self):
        # a = 0 with xi^b != -1 goes through the product-nonzero case
        labels, tag = basic_set_B(SpecParams(char=0, xi_order=3, a=0, b=1), 2)
        assert tag == "DJ-Morita"
        assert len(labels) == len(list(bipartitions(2)))  # e = infinity
        # a = 0 with xi^b = -1 goes through the extension case
        labels, tag = basic_set_B(SpecParams(char=0, xi_order=2, a=0, b=1), 2)
        assert tag == "DJ-extension"
        assert set(labels) == {((2,), ()), ((1, 1), ())}

    def test_asymptotic_matches_translated_crystal(self):
        # the charge shift depends on the parity of b: xi^(b + d) = -1
        for (b, n) in [(4, 4), (5, 4), (3, 3)]:
            params = SpecParams(char=0, xi_order=2, a=1, b=b)
            labels, tag = basic_set_B(params, n)
            assert tag == "asymptotic/DJM"
            _, d = fn_zero(params, n)
            p = FockParams(l=2, r=2, u=(0, d % 2), node_order=ARIKI)
            assert set(labels) == uryu_set(p, n)


class TestBasicSetD:
    def test_n3_l2(self):
        labels = basic_set_D(SpecParams(char=0, xi_order=2, a=1, b=0), 3)
        assert set(labels) == {("pair", (3,), ()), ("pair", (2,), (1,))}

    def test_n2_no_splits(self):
        # 1-regular partitions of 1 do not exist, so no split labels
        labels = basic_set_D(SpecParams(char=0, xi_order=2, a=1, b=0), 2)
        assert all(lab[0] == "pair" for lab in labels)

    def test_n2_l4_splits(self):
        labels = basic_set_D(SpecParams(char=0, xi_order=4, a=1, b=0), 2)
        splits = [lab for lab in labels if lab[0] == "split"]
        assert splits == [("split", (1,), "+"), ("split", (1,), "-")]

    def test_odd_order_refused(self):
        with pytest.raises(OddOrderUnsupported):
            basic_set_D(SpecParams(char=0, xi_order=3, a=1, b=0), 3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_labels_are_the_schur_table_labels(self, n):
        # at a large order every bipartition is in the crystal set, so both
        # name every unordered pair and every split label, the same way
        labels = basic_set_D(SpecParams(char=0, xi_order=1000, a=1, b=0), n)
        assert set(labels) == {label for label, _ in all_invariants("D", 1, n=n)}

    def test_crystal_set_is_swap_stable(self):
        # the unordered collapse is well defined because the source set is
        # invariant under swapping the two components
        for l in (2, 4):
            p = FockParams(l=l, r=2, u=(0, l // 2), node_order=FLOTW)
            for n in range(6):
                S = uryu_set(p, n)
                assert {(mu, lam) for (lam, mu) in S} == S

    def test_pair_labels_come_from_crystal_set(self):
        params = SpecParams(char=0, xi_order=4, a=1, b=0)
        p = FockParams(l=4, r=2, u=(0, 2), node_order=FLOTW)
        for n in range(2, 5):
            S = uryu_set(p, n)
            pairs = [lab for lab in basic_set_D(params, n) if lab[0] == "pair"]
            assert all((lam, mu) in S or (mu, lam) in S for _, lam, mu in pairs)
            distinct = {frozenset(x) for x in S if x[0] != x[1]}
            assert len(pairs) == len(distinct)


class TestVerifyDecomp:
    def test_b0_block(self):
        M = load_fixture("table3_b0.json")
        r = verify_decomp(M)
        assert r.exists
        assert set(r.selected_labels(M)) == \
            {((3,), ()), ((), (3,)), ((1,), (2,)), ((2,), (1,))}

    @pytest.mark.parametrize("name", ["table3_b2.json", "table3_b4.json"])
    def test_b2_b4_blocks(self, name):
        M = load_fixture(name)
        r = verify_decomp(M)
        assert r.exists
        assert set(r.selected_labels(M)) == \
            {((3,), ()), ((2, 1), ()), ((2,), (1,)), ((1,), (2,))}

    def test_crystal_set_linkage(self):
        b0 = verify_decomp(load_fixture("table3_b0.json"))
        flotw = uryu_set(FockParams(l=2, r=2, u=(0, 1), node_order=FLOTW), 3)
        assert set(b0.selected_labels(load_fixture("table3_b0.json"))) == flotw
        b4 = verify_decomp(load_fixture("table3_b4.json"))
        ariki = uryu_set(FockParams(l=2, r=2, u=(0, 1), node_order=ARIKI), 3)
        assert set(b4.selected_labels(load_fixture("table3_b4.json"))) == ariki

    def test_g2_char2_fails(self):
        M = load_fixture("g2_char2.json")
        r = verify_decomp(M)
        assert not r.exists
        assert r.witness_column == 1
        assert sorted(M.labels[i] for i in r.witness_rows) == ["E+", "E-"]

    def test_permutation_invariance(self):
        M0 = load_fixture("table3_b4.json")
        base = set(verify_decomp(M0).selected_labels(M0))
        rng = random.Random(123)
        for _ in range(12):
            rp = list(range(len(M0.labels)))
            cp = list(range(M0.ncols))
            rng.shuffle(rp)
            rng.shuffle(cp)
            M1 = DecompMatrix([M0.labels[i] for i in rp],
                              [M0.alpha[i] for i in rp],
                              [[M0.entries[i][j] for j in cp] for i in rp])
            r1 = verify_decomp(M1)
            assert r1.exists and set(r1.selected_labels(M1)) == base

    def test_alpha_column_cross_validated(self):
        for name, (a, b) in [("table3_b0.json", (1, 0)),
                             ("table3_b2.json", (1, 2)),
                             ("table3_b4.json", (1, 4))]:
            M = load_fixture(name)
            for lab, alpha in zip(M.labels, M.alpha):
                assert invariants_B(lab, a, b).alpha == alpha, (name, lab)

    def test_dim_column_cross_validated(self):
        for name in ("table3_b0.json", "table3_b2.json", "table3_b4.json"):
            M = load_fixture(name)
            for lab, dim in zip(M.labels, M.dims):
                assert dim == dim_bipartition(lab)

    def test_missing_alpha(self):
        with pytest.raises(MissingAlpha):
            DecompMatrix.from_json_dict(
                {"rows": [{"label": [[1], []], "entries": [1]}]})

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            DecompMatrix([((1,), ())], [0], [[0]])

    def test_unitriangular_shape_after_sorting(self):
        M = load_fixture("table3_b4.json")
        r = verify_decomp(M)
        cols = sorted(range(M.ncols), key=lambda j: r.breve_alpha[j])
        for pos, j in enumerate(cols):
            sel = r.assignment[j]
            assert M.entries[sel][j] == 1
            for later in cols[pos + 1:]:
                # selected rows of later columns vanish on earlier columns
                assert M.entries[r.assignment[later]][j] == 0 or \
                    r.breve_alpha[later] > r.breve_alpha[j]
            for other in cols:
                if r.breve_alpha[other] == r.breve_alpha[j] and other != j:
                    assert M.entries[sel][other] == 0


class TestDominanceTriangularity:
    def test_b4_block_passes(self):
        M = load_fixture("table3_b4.json")
        ok, witness = check_dominance_triangularity(M, verify_decomp(M))
        assert ok and witness is None

    def test_identity_matrix(self):
        labels = [((2,), ()), ((1, 1), ())]
        M = DecompMatrix(labels, [0, 1], [[1, 0], [0, 1]])
        ok, _ = check_dominance_triangularity(M, verify_decomp(M))
        assert ok

    def test_constructed_counterexample(self):
        # entry strictly above the selected label in dominance
        labels = [((1, 1), ()), ((2,), ())]
        M = DecompMatrix(labels, [0, 1], [[1, 0], [1, 1]])
        r = verify_decomp(M)
        assert r.exists
        ok, witness = check_dominance_triangularity(M, r)
        assert not ok
        assert witness == (((2,), ()), ((1, 1), ()))


class TestDims:
    def test_hook_length_oracle(self):
        assert dim_bipartition(((3,), ())) == 1
        assert dim_bipartition(((2, 1), ())) == 2
        assert dim_bipartition(((1,), (2,))) == 3
        assert dim_bipartition(((1, 1), (1,))) == 3
