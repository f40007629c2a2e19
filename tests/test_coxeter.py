from itertools import combinations, product

import pytest

from heckekit import coxeter
from heckekit.coxeter import (CoxeterType, GroupTooLarge, WeightFunction,
                              build, weight_from_ab)
from oracles import (_mat_mul, bruhat_leq, descents_left, descents_right, element_from_word,
                     generator, length, lweight, weyl_group_by_peeling)


def test_classical_orders():
    assert len(build(CoxeterType("A", 2))) == 6
    assert len(build(CoxeterType("A", 3))) == 24
    assert len(build(CoxeterType("B", 2))) == 8
    assert len(build(CoxeterType("B", 3))) == 48
    assert len(build(CoxeterType("D", 3))) == 24
    assert len(build(CoxeterType("D", 4))) == 192
    assert len(build(CoxeterType("G2", 2))) == 12
    assert len(build(CoxeterType("F4", 4))) == 1152


def test_cap(monkeypatch):
    with pytest.raises(GroupTooLarge):
        build(CoxeterType("A", 7))  # order 40320
    monkeypatch.setattr(coxeter, "GROUP_CAP", 23)
    assert len(build(CoxeterType("A", 2))) == 6
    with pytest.raises(GroupTooLarge):
        build(CoxeterType("A", 3))  # order 24


def test_cache_is_keyed_by_type_alone(monkeypatch):
    ct = CoxeterType("A", 4)
    W = build(ct)
    monkeypatch.setattr(coxeter, "GROUP_CAP", 5000)
    assert build(ct) is W
    monkeypatch.setattr(coxeter, "GROUP_CAP", 100)
    with pytest.raises(GroupTooLarge):
        build(ct)  # cached, and still refused
    enumerated = []
    monkeypatch.setattr(coxeter, "WeylGroup", lambda *args, **kw: enumerated.append(args))
    before = coxeter._cached_group.cache_info()
    for refused in (CoxeterType("B", 4), CoxeterType("A", 9)):  # orders 384 and 10!
        with pytest.raises(GroupTooLarge):
            build(refused)
    assert not enumerated
    assert coxeter._cached_group.cache_info() == before


def test_exceeds_is_the_order_against_the_cap(monkeypatch):
    for family, ranks in (("A", range(1, 9)), ("B", range(2, 8)), ("D", range(2, 8)),
                          ("G2", [2]), ("F4", [4])):
        for rank in ranks:
            ct = CoxeterType(family, rank)
            for cap in (0, 1, 5, 23, 24, 120, 400, 2000, ct.order() - 1, ct.order()):
                assert ct.exceeds(cap) == (ct.order() > cap), (ct, cap)
    # a huge rank is decided without forming |W|
    monkeypatch.setattr(CoxeterType, "order", lambda self: pytest.fail("|W| was formed"))
    assert CoxeterType("A", 10 ** 9).exceeds(2000)
    with pytest.raises(GroupTooLarge, match="A1000000000 .* 2000"):
        build(CoxeterType("A", 10 ** 9))


def test_unique_extremes():
    for ct in (CoxeterType("A", 3), CoxeterType("B", 3), CoxeterType("G2", 2)):
        W = build(ct)
        lengths = [len(word) for word in W.words]
        assert lengths.count(0) == 1
        assert lengths.count(max(lengths)) == 1
        assert W.words[0] == ()
        assert lengths[-1] == max(lengths)


def test_generator_involutions():
    W = build(CoxeterType("A", 2))
    for s in range(W.rank):
        g = generator(W, s)
        assert W.mult(g, g) == 0
        assert W.mult(g, 0) == g
        assert W.words[g] == (s,)


def test_length_changes_by_one():
    for ct in (CoxeterType("A", 2), CoxeterType("B", 2), CoxeterType("G2", 2)):
        W = build(ct)
        for w in range(len(W)):
            for s in range(W.rank):
                g = generator(W, s)
                assert abs(length(W, W.mult(g, w)) - length(W, w)) == 1
                assert abs(length(W, W.mult(w, g)) - length(W, w)) == 1


def test_poincare_counts():
    # length generating function: S3 -> 1,2,2,1; B2 -> 1,2,2,2,1
    W = build(CoxeterType("A", 2))
    counts = [0] * 4
    for w in range(len(W)):
        counts[length(W, w)] += 1
    assert counts == [1, 2, 2, 1]
    W = build(CoxeterType("B", 2))
    counts = [0] * 5
    for w in range(len(W)):
        counts[length(W, w)] += 1
    assert counts == [1, 2, 2, 2, 1]


def test_normal_forms_are_lex_smallest_reduced():
    W = build(CoxeterType("B", 2))
    for w, word in enumerate(W.words):
        assert element_from_word(W, word) == w
        # reduced: every prefix is as long as its product
        assert all(length(W, element_from_word(W, word[:k])) == k for k in range(len(word)))


def test_mult_and_inverse():
    W = build(CoxeterType("B", 3))
    w = element_from_word(W, (0, 1, 2, 0))
    w_inv = W.inverse_index(w)
    assert W.mult(w, w_inv) == 0
    assert W.mult(w_inv, w) == 0
    assert W.inverse_index(w_inv) == w
    # the reversed word is a reduced word for the inverse
    assert element_from_word(W, tuple(reversed(W.words[w]))) == w_inv
    # associativity spot check
    for a in range(8):
        for b in range(8):
            for c in range(5):
                assert W.mult(W.mult(a, b), c) == W.mult(a, W.mult(b, c))
    # inversion is an involution, and an anti-automorphism
    for u in range(len(W)):
        assert W.inverse_index(W.inverse_index(u)) == u
        assert W.mult(u, W.inverse_index(u)) == 0
    for u in range(0, len(W), 7):
        for v in range(0, len(W), 5):
            assert W.inverse_index(W.mult(u, v)) == \
                W.mult(W.inverse_index(v), W.inverse_index(u))


def _bruhat_subword_oracle(W, y, w):
    """Exhaustive subword check on the canonical reduced word of w."""
    word = W.words[w]
    target = set()

    def rec(i, cur):
        if i == len(word):
            target.add(element_from_word(W, cur))
            return
        rec(i + 1, cur)
        rec(i + 1, cur + [word[i]])

    rec(0, [])
    return y in target


def test_bruhat_matches_subword_oracle():
    W = build(CoxeterType("A", 2))
    n = len(W)
    for y in range(n):
        for w in range(n):
            assert bruhat_leq(W, y, w) == _bruhat_subword_oracle(W, y, w)
    s1, s2 = generator(W, 0), generator(W, 1)
    assert bruhat_leq(W, s1, n - 1)
    assert not bruhat_leq(W, W.mult(s1, s2), W.mult(s2, s1))
    for w in range(n):
        assert bruhat_leq(W, 0, w)
        assert bruhat_leq(W, w, w)


def test_bruhat_partial_order_refines_length():
    W = build(CoxeterType("B", 2))
    elems = range(len(W))
    for y in elems:
        for w in elems:
            if bruhat_leq(W, y, w) and y != w:
                assert length(W, y) < length(W, w)
            # antisymmetry
            if bruhat_leq(W, y, w) and bruhat_leq(W, w, y):
                assert y == w
    for x, y, z in combinations(elems, 3):
        if bruhat_leq(W, x, y) and bruhat_leq(W, y, z):
            assert bruhat_leq(W, x, z)


def test_weights_and_descents():
    ct = CoxeterType("B", 2)
    W = build(ct)
    L = weight_from_ab(ct, 1, 3)  # a=1 on s1, b=3 on t
    assert L.values == (3, 1)
    w0 = len(W) - 1
    assert lweight(W, 0, L) == 0
    assert lweight(W, w0, L) == 2 * 1 + 2 * 3
    assert W.name(w0) == "t.s1.t.s1"
    assert W.name(0) == "e"
    assert descents_left(W, w0) == frozenset({0, 1})
    assert descents_right(W, w0) == frozenset({0, 1})
    assert descents_right(W, 0) == frozenset()


def test_validate_weight():
    B3 = CoxeterType("B", 3)
    assert B3.validate_weight((4, 1, 1))
    assert not B3.validate_weight((4, 1, 2))
    A2 = CoxeterType("A", 2)
    assert A2.validate_weight((2, 2))
    assert not A2.validate_weight((1, 2))
    F4 = CoxeterType("F4", 4)
    assert F4.validate_weight((1, 1, 2, 2))
    assert not F4.validate_weight((1, 2, 2, 2))
    D4 = CoxeterType("D", 4)
    assert D4.validate_weight((1, 1, 1, 1))
    assert not D4.validate_weight((2, 1, 1, 1))


def test_weight_arity():
    assert weight_from_ab(CoxeterType("A", 2), 2).values == (2, 2)
    assert weight_from_ab(CoxeterType("G2", 2), 1, 2).values == (1, 2)
    for ct, weights in [(CoxeterType("A", 2), (1, 2)), (CoxeterType("D", 4), (1, 1)),
                        (CoxeterType("B", 2), (1,)), (CoxeterType("F4", 4), (1, 2, 3)),
                        (CoxeterType("G2", 2), ())]:
        with pytest.raises(ValueError):
            weight_from_ab(ct, *weights)


# Per family: generator names, Cartan matrix, and the standard weights at
# a = 2 (A, D) or (a, b) = (2, 3).  The Cartan matrices also fix the bond
# direction, which the group tables and the KL output do not see.
FAMILY_DATA = [
    (("A", 1), ["s1"], ((2,),), (2,)),
    (("A", 2), ["s1", "s2"], ((2, -1), (-1, 2)), (2, 2)),
    (("A", 3), ["s1", "s2", "s3"],
     ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (2, 2, 2)),
    (("A", 4), ["s1", "s2", "s3", "s4"],
     ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)), (2, 2, 2, 2)),
    (("B", 2), ["t", "s1"], ((2, -2), (-1, 2)), (3, 2)),
    (("B", 3), ["t", "s1", "s2"],
     ((2, -2, 0), (-1, 2, -1), (0, -1, 2)), (3, 2, 2)),
    (("B", 4), ["t", "s1", "s2", "s3"],
     ((2, -2, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)), (3, 2, 2, 2)),
    (("D", 2), ["s0", "s1"], ((2, 0), (0, 2)), (2, 2)),
    (("D", 3), ["s0", "s1", "s2"],
     ((2, 0, -1), (0, 2, -1), (-1, -1, 2)), (2, 2, 2)),
    (("D", 4), ["s0", "s1", "s2", "s3"],
     ((2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -1, 2)), (2, 2, 2, 2)),
    (("G2", 2), ["s", "t"], ((2, -1), (-3, 2)), (2, 3)),
    (("F4", 4), ["s1", "s2", "s3", "s4"],
     ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)), (2, 2, 3, 3)),
]


@pytest.mark.parametrize("family_rank,names,cartan,weights", FAMILY_DATA,
                         ids=[f"{f}{r}" for (f, r), *_ in FAMILY_DATA])
def test_family_data_is_pinned(family_rank, names, cartan, weights):
    ct = CoxeterType(*family_rank)
    assert ct.diagram()[0] == build(ct).names == names
    assert ct.cartan_matrix() == cartan
    ab = (2,) if ct.family in ("A", "D") else (2, 3)
    assert weight_from_ab(ct, *ab).values == weights


def _conjugacy_classes_of_generators(ct):
    """Generators up to conjugacy in W, from the peeling oracle's matrices:
    t ~ s iff M_t = M_w M_s M_w^-1 for some w."""
    oracle = weyl_group_by_peeling(ct)
    mats = oracle.matrices
    gens = [mats[oracle.left_table[s][0]] for s in range(ct.rank)]
    conjugates = [{_mat_mul(_mat_mul(M, g), mats[oracle.inverse_index[w]])
                   for w, M in enumerate(mats)} for g in gens]
    return {frozenset(t for t in range(ct.rank) if gens[t] in conjugates[s])
            for s in range(ct.rank)}


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("D", 2), ("D", 3), ("D", 4), ("G2", 2), ("F4", 4)])
def test_validate_weight_is_constancy_on_conjugacy_classes(family, rank):
    ct = CoxeterType(family, rank)
    classes = _conjugacy_classes_of_generators(ct)
    for weights in product((1, 2), repeat=rank):
        constant = all(len({weights[s] for s in cls}) == 1 for cls in classes)
        assert ct.validate_weight(weights) == constant, weights


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G2", 2), ("D", 4)])
def test_products_match_the_oracle_matrices(family, rank):
    ct = CoxeterType(family, rank)
    W = build(ct)
    mats = weyl_group_by_peeling(ct).matrices
    for u in range(len(W)):
        for v in range(len(W)):
            assert mats[W.mult(u, v)] == _mat_mul(mats[u], mats[v])


def test_inverses_match_the_oracle():
    ct = CoxeterType("F4", 4)
    W = build(ct)
    oracle = weyl_group_by_peeling(ct)
    assert [W.inverse_index(u) for u in range(len(W))] == oracle.inverse_index


def test_type_b_parabolic_is_symmetric_group():
    """Closure of s1, s2 inside B3 has order 3! = 6."""
    W = build(CoxeterType("B", 3))
    gens = [generator(W, 1), generator(W, 2)]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                x = W.mult(w, s)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    assert len(seen) == 6


def test_longest_element_b2_weight():
    ct = CoxeterType("B", 2)
    W = build(ct)
    for (a, b) in [(1, 3), (2, 5)]:
        L = weight_from_ab(ct, a, b)
        assert lweight(W, len(W) - 1, L) == 2 * a + 2 * b


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("D", 2), ("D", 3), ("D", 4), ("G2", 2), ("F4", 4)])
def test_enumeration_matches_the_peeling_oracle(family, rank):
    ct = CoxeterType(family, rank)
    W = coxeter.WeylGroup(ct)
    oracle = weyl_group_by_peeling(ct)
    assert len(W) == ct.order()
    assert W.words == oracle.words
    assert W.left_table == oracle.left_table
    assert [W.inverse_index(i) for i in range(len(W))] == oracle.inverse_index
    assert [W.words[generator(W, s)] for s in range(rank)] == [(s,) for s in range(rank)]
