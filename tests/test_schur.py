import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from heckekit import schur
from heckekit.laurent import LaurentPoly, vpow
from heckekit.schur import (ELEMENT_CAP, G2_LABELS, SCHUR_CHECK_CAP, SIZE_CAPS, DomainError,
                            RegimeNotCovered, SizeCapExceeded, _extract_invariants,
                            all_invariants, bipartitions, check_size, conjugate,
                            e_regular,
                            f4_invariants, f4_labels, g2_invariants, g2_schur,
                            invariants_A, invariants_asymptotic,
                            invariants_azero, invariants_B, l_good,
                            nfun, partitions, schur_element_B,
                            standard_tableaux, typeD_invariants,
                            typeD_invariants_split)
from oracles import (MTooSmall, Symbol, dominance_leq, dominance_leq_multi,
                     min_symbol_size, schur_element_B_by_symbols, symbol_of)

# Table of alpha values per weight pair, one block per even b
TABLE3_ALPHA = {
    (1, 0): {((3,), ()): 0, ((), (3,)): 0, ((1,), (2,)): 1, ((2,), (1,)): 1,
             ((2, 1), ()): 2, ((), (2, 1)): 2, ((1, 1), (1,)): 3,
             ((1,), (1, 1)): 3, ((1, 1, 1), ()): 6, ((), (1, 1, 1)): 6},
    (1, 2): {((3,), ()): 0, ((2, 1), ()): 1, ((2,), (1,)): 2, ((1, 1), (1,)): 3,
             ((1, 1, 1), ()): 3, ((), (3,)): 3, ((1,), (2,)): 3,
             ((1,), (1, 1)): 6, ((), (2, 1)): 7, ((), (1, 1, 1)): 12},
    (1, 4): {((3,), ()): 0, ((2, 1), ()): 1, ((1, 1, 1), ()): 3, ((2,), (1,)): 4,
             ((1, 1), (1,)): 5, ((1,), (2,)): 7, ((), (3,)): 9,
             ((1,), (1, 1)): 10, ((), (2, 1)): 13, ((), (1, 1, 1)): 18},
}


#: Weight pairs covering a = 0, b = 0, b = a, b < a, b > a and b > (n-1)a.
REGIMES = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (1, 7), (0, 1), (3, 2)]

#: sha256 of the JSON list [[label, element.json_pairs()], ...] over every
#: bipartition with n <= 4, as the full-polynomial product formula gave it
#: before the factors were shared with invariants_B.
ELEMENT_DIGESTS = {
    (1, 0): "89eb8d460c0d023ce1b3c0cb56b04c3ab47c9f1b9c8aa4af6488a3424aa09848",
    (1, 1): "257d6ee4ba0955da322aad4b5c26429a21dc10911f5bc833d79d388346daabc9",
    (1, 2): "795835ccded4f7b31db38649d2dd58c8a78ab12b75c68f6f11cdbf7c3177d0de",
    (1, 3): "2b55aff20ec0bda11152f6c98af111cfa06520a8d0f6d0be93540db8f0ecf659",
    (2, 1): "36dee598e558c776fcb43a1001fa599f1f89666f3e51beb02be8993ffcd36c73",
    (2, 3): "675616dd18e844a8f5b7978d4da50dc4fe0cbfea23cf7cbd69210c615d2e5736",
    (1, 7): "7707e43ce0831228752d21cbbac03371d863d7bb79baafc69babebf408205413",
    (0, 1): "e7b8408408672fd43b6570b783ea3c3ffddf04fabb4336360d00d83d2d644a72",
    (3, 2): "834357f9c6713d8dc5ff78fe540c95e73a4b73b8b30a1d71119a1471e2e576cf",
}


class TestPartitionBasics:
    def test_nfun_and_conjugate(self):
        assert nfun((1, 1, 1)) == 3
        assert nfun((3,)) == 0
        assert conjugate((2, 1)) == (2, 1)
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    def test_dominance_chain(self):
        assert dominance_leq((1, 1, 1), (2, 1))
        assert dominance_leq((2, 1), (3,))
        assert not dominance_leq((3,), (2, 1))

    def test_dominance_monotone_under_nfun(self):
        # nu <= nu' in dominance forces n(nu') <= n(nu), equal only when equal
        for n in range(1, 9):
            parts = list(partitions(n))
            for nu in parts:
                for nu2 in parts:
                    if dominance_leq(nu, nu2):
                        assert nfun(nu2) <= nfun(nu)
                        if nfun(nu2) == nfun(nu):
                            assert nu == nu2

    def test_e_regular(self):
        assert [nu for nu in partitions(5) if e_regular(nu, 2)] == \
            [(5,), (4, 1), (3, 2)]
        assert all(e_regular(nu, None) for nu in partitions(6))

    def test_counts(self):
        assert len(list(partitions(8))) == 22
        assert len(list(bipartitions(3))) == 10

    def test_partition_counts_and_order(self):
        # p(n) by Euler's pentagonal recurrence, and reverse lexicographic order
        p = [1]
        for n in range(1, 25):
            p.append(sum((-1) ** (k + 1) * p[n - g] for k in range(1, n + 1)
                         for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= n))
        for n in range(25):
            parts = list(partitions(n))
            assert len(parts) == p[n] and parts == sorted(parts, reverse=True)

    def test_standard_tableaux(self):
        assert standard_tableaux((2, 1)) == 2
        assert standard_tableaux((3,)) == 1
        assert standard_tableaux((2, 2)) == 2
        assert standard_tableaux(()) == 1


class TestSymbols:
    def test_empty_padding(self):
        sym = symbol_of(((), ()), 1)
        assert sym == Symbol((0, 1), (0,), 1)

    def test_direct_evaluation(self):
        sym = symbol_of(((2,), (1,)), 1)
        assert sym.top == (0, 3) and sym.bottom == (1,)

    def test_single_row(self):
        sym = symbol_of(((4,), ()), 0)
        assert sym.top == (4,) and sym.bottom == ()

    def test_too_small(self):
        with pytest.raises(MTooSmall):
            symbol_of(((1, 1), (1,)), 0)


class TestSchurElementB:
    @pytest.mark.parametrize("ab", sorted(TABLE3_ALPHA))
    def test_alpha_columns(self, ab):
        for lam, alpha in TABLE3_ALPHA[ab].items():
            assert invariants_B(lam, *ab).alpha == alpha

    def test_asymptotic_agrees_with_formula(self):
        for n in range(1, 6):
            for lam in bipartitions(n):
                assert invariants_B(lam, 1, n) == invariants_asymptotic(lam, 1, n)

    def test_asymptotic_closed_form_example(self):
        assert invariants_asymptotic(((1,), (2,)), 1, 4) == (7, 1)

    def test_asymptotic_precondition(self):
        with pytest.raises(DomainError):
            invariants_asymptotic(((1,), (2,)), 1, 2)

    def test_m_independence(self):
        for lam in bipartitions(3):
            m0 = min_symbol_size(lam)
            for (a, b) in [(1, 1), (1, 2), (2, 1), (1, 0), (0, 1)]:
                vals = {schur_element_B_by_symbols(lam, a, b, m) for m in range(m0, m0 + 3)}
                assert len(vals) == 1

    def test_trivial_is_poincare_b2(self):
        # a = b = 1: the Poincare polynomial (1+v^2)^2 (1+v^4)
        c = schur_element_B(((2,), ()), 1, 1)
        assert c == (vpow(2) + 1) * (vpow(2) + 1) * (vpow(4) + 1)

    def test_sign_alpha_is_longest_weight(self):
        for n in range(1, 5):
            for (a, b) in [(1, 1), (2, 3), (1, 0), (0, 2)]:
                got = invariants_B(((), (1,) * n), a, b)
                assert got.alpha == n * b + (n * n - n) * a

    def test_type_a_restriction(self):
        for n in range(1, 6):
            for nu in partitions(n):
                assert invariants_A(nu, 1) == (nfun(nu), 1)
                assert invariants_asymptotic((nu, ()), 1, n) == (nfun(nu) * 1, 1)

    def test_type_a_negative_weight(self):
        with pytest.raises(DomainError):
            invariants_A((2, 1), -2)

    def test_type_a_group_algebra(self):
        # a = 0 gives Q[S_n], whose Schur elements n!/dim E satisfy
        # sum dim(E)/c_E = 1
        assert [invariants_A(nu, 0) for nu in partitions(3)] == [(0, 6), (0, 3), (0, 6)]
        for n in range(7):
            assert sum(Fraction(standard_tableaux(nu), invariants_A(nu, 0).f)
                       for nu in partitions(n)) == 1

    def test_azero(self):
        assert invariants_azero(((2,), (1,)), 5).alpha == 5
        for lam in bipartitions(3):
            assert invariants_azero(lam, 2).alpha == 2 * sum(lam[1])

    def test_size_caps(self):
        for family, cap in SIZE_CAPS.items():
            check_size(family, cap)
            with pytest.raises(SizeCapExceeded, match=f"type {family} .* <= {cap}"):
                check_size(family, cap + 1)

    def test_element_cap(self, monkeypatch):
        # the cap counts the boxes of both components, before any factor
        monkeypatch.setattr(schur, "_factors_B", lambda *args: iter(()))
        assert schur_element_B(((ELEMENT_CAP - 1,), (1,)), 1, 2) == LaurentPoly.one()
        with pytest.raises(SizeCapExceeded, match=f"<= {ELEMENT_CAP}"):
            schur_element_B(((ELEMENT_CAP,), (1,)), 1, 2)

    def test_bad_weights(self):
        with pytest.raises(DomainError):
            schur_element_B(((1,), ()), 0, 0)
        with pytest.raises(DomainError):
            invariants_B(((1,), ()), -1, 2)


class TestLowestTerms:
    """invariants_B reads (alpha, f) off the factors' lowest terms."""

    @pytest.mark.parametrize("ab", REGIMES)
    def test_equals_the_divided_element(self, ab):
        for n in range(7):
            for lam in bipartitions(n):
                assert invariants_B(lam, *ab) == _extract_invariants(schur_element_B(lam, *ab))

    @pytest.mark.parametrize("ab", REGIMES)
    def test_hook_product_is_the_symbol_formula(self, ab):
        for n in range(7):
            for lam in bipartitions(n):
                assert schur_element_B(lam, *ab) == schur_element_B_by_symbols(lam, *ab), lam

    @pytest.mark.parametrize("ab", [(1, 2), (1, 0), (0, 1)])
    def test_lowest_term_of_the_symbol_formula(self, ab):
        for n in range(10):
            for lam in bipartitions(n):
                assert invariants_B(lam, *ab) == \
                    _extract_invariants(schur_element_B_by_symbols(lam, *ab)), lam

    @pytest.mark.parametrize("ab", REGIMES)
    def test_element_unchanged(self, ab):
        rows = [[[list(c) for c in lam], schur_element_B(lam, *ab).json_pairs()]
                for n in range(5) for lam in bipartitions(n)]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ELEMENT_DIGESTS[ab]

    @pytest.mark.parametrize("n, a, b", [(10, 1, 10), (12, 1, 12), (10, 2, 19)])
    def test_asymptotic_past_the_oracle(self, n, a, b):
        for lam, pair in all_invariants("B", a, b, n):
            assert pair == invariants_asymptotic(lam, a, b)

    def test_full_element_only_up_to_the_cap(self, monkeypatch):
        calls = []
        real = schur.schur_element_B
        monkeypatch.setattr(schur, "schur_element_B",
                            lambda *args: calls.append(args) or real(*args))
        invariants_B(((1,), (1,) * (SCHUR_CHECK_CAP - 1)), 1, 2)
        assert len(calls) == 1
        calls.clear()
        invariants_B(((2,), (1,) * (SCHUR_CHECK_CAP - 1)), 1, 2)
        assert calls == []

    def test_self_check_catches_a_disagreement(self, monkeypatch):
        monkeypatch.setattr(schur, "_extract_invariants", lambda c: (-1, 1))
        with pytest.raises(AssertionError):
            invariants_B(((1,), ()), 1, 1)


class TestTypeD:
    def test_pair_inherits_b0(self):
        assert typeD_invariants((2,), (1,), 1).alpha == 1

    def test_split_keeps_f(self):
        # each split character has the Schur element of (lam, lam) at b = 0
        base = invariants_B(((1,), (1,)), 1, 0)
        split = typeD_invariants_split((1,), 1)
        assert split == (base.alpha, base.f)

    def test_pair_halves_f(self):
        base = invariants_B(((2,), (1,)), 1, 0)
        assert typeD_invariants((2,), (1,), 1) == (base.alpha, base.f // 2)

    @pytest.mark.parametrize("a", [1, 2])
    def test_d3_is_a3(self, a):
        d3 = Counter((pair.alpha, pair.f) for _, pair in all_invariants("D", a, n=3))
        a3 = Counter((pair.alpha, pair.f) for _, pair in all_invariants("A", a, n=4))
        assert d3 == a3

    def test_d2_is_a1_times_a1(self):
        d2 = Counter((pair.alpha, pair.f) for _, pair in all_invariants("D", 1, n=2))
        assert d2 == Counter({(0, 1): 1, (1, 1): 2, (2, 1): 1})

    def test_split_label_computed_once(self, monkeypatch):
        calls = []
        real = schur.typeD_invariants_split
        monkeypatch.setattr(schur, "typeD_invariants_split",
                            lambda lam, a: calls.append(lam) or real(lam, a))
        rows = dict(all_invariants("D", 1, n=4))
        assert sorted(calls) == [(1, 1), (2,)]
        assert rows[("split", (2,), "+")] == rows[("split", (2,), "-")]

    def test_unordered_symmetry(self):
        for (lam, mu) in [((2,), (1,)), ((3,), ()), ((2, 1), (1,))]:
            assert typeD_invariants(lam, mu, 1) == typeD_invariants(mu, lam, 1)


class TestG2:
    def test_table_rows_all_regimes(self):
        expected = {
            # regime: {label: (alpha, f)}
            (1, 2): {"1": (0, 1), "eps": (9, 1), "eps1": (4, 1), "eps2": (1, 1),
                     "E+": (2, 2), "E-": (2, 2)},
            (1, 1): {"1": (0, 1), "eps": (6, 1), "eps1": (1, 3), "eps2": (1, 3),
                     "E+": (1, 6), "E-": (1, 2)},
            (0, 1): {"1": (0, 2), "eps": (3, 2), "eps1": (3, 2), "eps2": (0, 2),
                     "E+": (1, 2), "E-": (1, 2)},
        }
        for (a, b), rows in expected.items():
            for lab, pair in rows.items():
                assert g2_invariants(lab, a, b) == pair

    def test_table_agrees_with_closed_forms(self):
        for (a, b) in [(1, 2), (2, 7), (1, 1), (4, 4), (0, 1), (0, 3)]:
            for lab in G2_LABELS:
                lo, coeff, _, _ = g2_schur(lab, a, b).extremal()
                assert (-lo // 2, coeff) == tuple(g2_invariants(lab, a, b))

    def test_regime_not_covered(self):
        with pytest.raises(RegimeNotCovered):
            g2_invariants("1", 2, 1)
        with pytest.raises(RegimeNotCovered):
            g2_schur("eps", 1, 0)


class TestF4:
    def test_spot_rows(self):
        assert f4_invariants("1_2", 1, 3) == (12 * 3 - 9 * 1, 1)
        assert f4_invariants("12_1", 1, 1) == (4, 24)
        assert f4_invariants("9_1", 0, 1) == (2, 2)
        assert f4_invariants("1_1", 2, 3) == (0, 1)    # 2a>b>a>0 column
        assert f4_invariants("8_3", 1, 2) == (3, 2)    # b=2a column

    def test_label_count(self):
        assert len(f4_labels()) == 25

    def test_uncovered(self):
        with pytest.raises(RegimeNotCovered):
            f4_invariants("1_1", 2, 1)
        with pytest.raises(RegimeNotCovered):
            f4_invariants("1_1", 1, 0)


class TestLGood:
    def test_asymptotic_b_all_good(self):
        for p in (2, 3, 5, 7):
            assert l_good(p, "B", 1, 3, 3)

    def test_g2_equal_parameters(self):
        assert not l_good(2, "G2", 1, 1)
        assert not l_good(3, "G2", 1, 1)
        assert l_good(5, "G2", 1, 1)

    def test_f4_large_b(self):
        assert l_good(5, "F4", 1, 3)
        assert not l_good(3, "F4", 1, 3)

    def test_type_a(self):
        for p in (2, 3, 5):
            assert l_good(p, "A", 1, n=4)

    def test_type_d(self):
        assert l_good(2, "D", 1, n=2)  # D2 = A1 x A1: every f is 1
        assert not l_good(2, "D", 1, n=4)
