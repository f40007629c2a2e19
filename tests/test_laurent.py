import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckekit.laurent import (DivisionByZero, LaurentPoly, NotDivisible, ZeroPolynomial,
                              add_into, add_product_into, interned, vpow)
from oracles import neg_part

term_maps = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9).filter(bool), max_size=6)
polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(bool)


def P(pairs):
    return LaurentPoly(pairs)


class TestBasics:
    def test_add_cancellation(self):
        assert P({1: 1, 0: 1}) + P({0: -1}) == vpow(1)

    def test_add_identity(self):
        p = P({3: 2, -1: 5})
        assert p + LaurentPoly.zero() == p

    def test_add_inverse(self):
        p = P({2: 1, 0: -1})
        assert p + (-p) == LaurentPoly.zero()

    def test_mul_difference_of_squares(self):
        assert (vpow(1) + vpow(-1)) * (vpow(1) - vpow(-1)) == P({2: 1, -2: -1})

    def test_mul_identity(self):
        p = P({5: 3, -2: 1})
        assert p * LaurentPoly.one() == p

    def test_mul_three_factor_product(self):
        # (v^2+1)(v^4+1)(v^12+v^6+1), expanded by hand
        prod = (vpow(2) + 1) * (vpow(4) + 1) * (vpow(12) + vpow(6) + 1)
        expected = P({18: 1, 16: 1, 14: 1, 12: 2, 10: 1, 8: 1, 6: 2, 4: 1, 2: 1, 0: 1})
        assert prod == expected
        assert prod.at_one() == 2 * 2 * 3

    def test_bar(self):
        assert P({2: 1, -1: 3}).bar() == P({-2: 1, 1: 3})
        assert vpow(-4).bar() == vpow(4)

    def test_bar_involution(self):
        p = P({3: 1, 0: -2, -5: 7})
        assert p.bar().bar() == p

    def test_bar_symmetric_part(self):
        assert P({3: 1, 0: -2, -5: 7}).bar_symmetric_part() == P({3: 1, 0: -2, -3: 1})
        assert P({-1: 4}).bar_symmetric_part() == LaurentPoly.zero()

    @given(polys)
    def test_bar_symmetric_part_differs_by_negative_degrees(self, p):
        m = p.bar_symmetric_part()
        assert m.bar() == m
        assert neg_part(p - m) == p - m


class TestExactDiv:
    def test_factorization(self):
        num = P({2: 1, -2: -1})
        den = P({1: 1, -1: -1})
        assert num.exact_div(den) == vpow(1) + vpow(-1)

    def test_self_division(self):
        p = P({4: 2, 1: -3, 0: 1})
        assert p.exact_div(p) == LaurentPoly.one()

    def test_long_division_oracle(self):
        # (v^2+v+1)(v^2-v+1) = v^4+v^2+1, so the quotient is v^2-v+1
        num = P({4: 1, 2: 1, 0: 1})
        den = P({2: 1, 1: 1, 0: 1})
        quot = num.exact_div(den)
        assert quot == P({2: 1, 1: -1, 0: 1})
        assert quot * den == num

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            P({1: 1, 0: 1}).exact_div(P({0: 2}))
        with pytest.raises(NotDivisible):
            P({2: 1, 0: 1}).exact_div(P({1: 1, 0: 1}))

    def test_non_monic_divisor(self):
        den = P({1: 2, 0: 2})  # 2v + 2
        quot = P({2: 1, 0: -3})
        assert (den * quot).exact_div(den) == quot

    def test_negative_leading_coefficient(self):
        den = P({2: -1, 1: 3, 0: -1})
        quot = P({-1: 1, 0: 4, 3: -2})
        assert (den * quot).exact_div(den) == quot

    def test_rational_quotient_is_not_divisible(self):
        # (v^2 - 1) / (2v + 2) = (v - 1) / 2 lies in Q[v, v^-1] only
        with pytest.raises(NotDivisible):
            P({2: 1, 0: -1}).exact_div(P({1: 2, 0: 2}))
        with pytest.raises(NotDivisible):
            P({1: 1, -1: -1}).exact_div(P({0: 2, -1: 2}))

    def test_remainder_below_lowest_degree(self):
        # v^-2 (v^5 + 2) leaves the remainder v^-2 after dividing by v + 1
        with pytest.raises(NotDivisible):
            P({3: 1, -2: 2}).exact_div(P({1: 1, 0: 1}))

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            P({0: 1}).exact_div(LaurentPoly.zero())

    def test_zero_dividend(self):
        assert LaurentPoly.zero().exact_div(P({3: 2})) == LaurentPoly.zero()


class TestExtremal:
    def test_spread(self):
        assert P({-6: 1, -2: 2, 4: 1}).extremal() == (-6, 1, 4, 1)

    def test_monomial(self):
        assert P({-2: 3}).extremal() == (-2, 3, -2, 3)

    def test_g2_trivial_invariants(self):
        # the six-factor product for a=1, b=2 has extremal data (0,1,...)
        c = (vpow(2) + 1) * (vpow(4) + 1) * (vpow(12) + vpow(6) + 1)
        lo, lc, _, _ = c.extremal()
        assert (lo, lc) == (0, 1)

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            LaurentPoly.zero().extremal()


class TestRendering:
    def test_text(self):
        assert P({-2: 1, 0: -3, 3: 2}).text() == "v^-2 - 3 + 2*v^3"
        assert LaurentPoly.zero().text() == "0"
        assert P({1: -1}).text() == "-v"

    def test_json_pairs(self):
        assert P({2: -1, -1: 3}).json_pairs() == [[-1, "3"], [2, "-1"]]


class TestEquality:
    def test_polynomials(self):
        assert P({2: 1, -1: 3}) == P({-1: 3, 2: 1})
        assert P({2: 1}) != P({2: 1, 0: 1})
        assert P({2: 1}) != P({2: 2})

    def test_integers(self):
        assert LaurentPoly.zero() == 0
        assert LaurentPoly.one() == 1
        assert P({0: 3}) == 3
        assert 1 == LaurentPoly.one()
        assert LaurentPoly.one() != 0
        assert vpow(1) != 1

    def test_other_types(self):
        assert LaurentPoly.one().__eq__("1") is NotImplemented
        assert LaurentPoly.one().__eq__(1.0) is NotImplemented
        assert LaurentPoly.zero() != None  # noqa: E711
        assert LaurentPoly.one() != "1"

    def test_equal_polynomials_hash_alike(self):
        p, q = P({2: 1, -1: 3}), P({-1: 3, 2: 1})
        assert hash(p) == hash(q)
        assert {p: "x"}[q] == "x"


class TestAddInto:
    def test_cancellation_deletes_the_key(self):
        acc = {"x": vpow(1), "y": LaurentPoly.one()}
        assert add_into(acc, {"x": -vpow(1)}) is acc
        assert acc == {"y": LaurentPoly.one()}

    def test_zero_input_creates_no_key(self):
        acc = {}
        add_into(acc, {"x": LaurentPoly.zero(), "y": 0})
        add_into(acc, {"z": vpow(2)}, LaurentPoly.zero())
        assert acc == {}

    def test_scale(self):
        acc = {"x": vpow(1)}
        add_into(acc, {"x": vpow(1), "y": vpow(-1)}, vpow(1) - 1)
        assert acc == {"x": vpow(2), "y": -vpow(-1) + 1}
        add_into(acc, {"x": LaurentPoly.one()}, -vpow(2))
        assert acc == {"y": -vpow(-1) + 1}

    def test_int_values(self):
        acc = {1: 2}
        add_into(acc, {1: 1, 2: 3}, -2)
        assert acc == {2: -6}
        add_into(acc, {2: 6, 3: 0})
        assert acc == {}


class TestAddProductInto:
    def test_cancellation_deletes_the_key(self):
        acc = {1: 1, 0: 1}
        assert add_product_into(acc, {0: 1, 2: 1}, {-1: -1}) is acc
        assert acc == {0: 1, -1: -1}  # v + 1 - (1 + v^2) v^-1

    @settings(max_examples=80)
    @given(term_maps, term_maps, term_maps)
    def test_adds_the_product_and_stores_no_zero(self, acc, p, q):
        expected = LaurentPoly(acc) + LaurentPoly(p) * LaurentPoly(q)
        p_before, q_before = dict(p), dict(q)
        add_product_into(acc, p, q)
        assert 0 not in acc.values()
        assert LaurentPoly(acc) == expected
        assert (p, q) == (p_before, q_before)


class TestInterned:
    def test_equal_maps_give_one_object(self):
        table = {}
        p = interned(table, {1: 1, -1: 2})
        assert interned(table, {-1: 2, 1: 1}) is p
        assert p == vpow(1) + vpow(-1, 2)
        assert hash(p) == hash(vpow(1) + vpow(-1, 2))
        assert interned(table, {1: 1}) is not p
        assert len(table) == 2


class TestHash:
    def test_a_constant_hashes_as_the_int_it_equals(self):
        five, zero = LaurentPoly.const(5), LaurentPoly.zero()
        assert five == 5 and 5 in {five} and five in {5}
        assert zero == 0 and hash(zero) == hash(0) and {zero: "z"}[0] == "z"
        assert hash(LaurentPoly.one()) == hash(1)

    @given(polys, st.integers())
    def test_equal_values_hash_equal(self, p, c):
        assert hash(p) == hash(LaurentPoly(dict(p.items())))
        assert hash(LaurentPoly.const(c)) == hash(c)


class TestRingAxioms:
    @settings(max_examples=80)
    @given(polys, polys, polys)
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert (p + q) + r == p + (q + r)

    @settings(max_examples=80)
    @given(polys, polys)
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @settings(max_examples=80)
    @given(polys, polys, polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=80)
    @given(polys, polys)
    def test_bar_is_ring_hom(self, p, q):
        assert (p * q).bar() == p.bar() * q.bar()
        assert (p + q).bar() == p.bar() + q.bar()

    @settings(max_examples=80)
    @given(polys, nonzero_polys)
    def test_exact_div_roundtrip(self, p, q):
        assert (p * q).exact_div(q) == p

    @settings(max_examples=80)
    @given(nonzero_polys, nonzero_polys)
    def test_mindeg_additivity(self, p, q):
        assert (p * q).extremal()[0] == p.extremal()[0] + q.extremal()[0]
