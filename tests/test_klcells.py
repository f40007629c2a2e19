import random
from collections import Counter
from functools import lru_cache

import pytest

from heckekit import cli, klcells
from heckekit.coxeter import (CoxeterType, GroupTooLarge, WeightFunction, _cached_group, build,
                              weight_from_ab)
from heckekit.klcells import (HCONST_CAP, HeckeAlgebra, KLData, PropertyFailure,
                              det_laurent_matrix, kl_cbasis, strongly_connected_components)
from heckekit.laurent import LaurentPoly, add_into, vpow
from heckekit.schur import bipartitions, invariants_B, nfun, partitions
from oracles import (TtAlgebra, bruhat_leq, check_star_compatibility, cs_times_cw,
                     dim_bipartition, gamma_by_rescan, generator, hconst_by_columns, jmap,
                     jring_mul_by_scan, kl_cbasis_all_products, neg_part,
                     p4_witness_by_scan, partner_witnesses, phi_by_cexpand,
                     phi_det_by_elimination, phi_matrix_by_cexpand, tau, wgraph_by_products)
from test_schur import REGIMES


def weights_ab(ct, a, b):
    """The standard weights: b is None for the one-parameter families A and D."""
    return weight_from_ab(ct, a) if b is None else weight_from_ab(ct, a, b)


def algebra(family, rank, a, b=None):
    ct = CoxeterType(family, rank)
    return TtAlgebra(build(ct), weights_ab(ct, a, b))


S3 = algebra("A", 2, 1)
B2_13 = algebra("B", 2, 1, 3)
G2_EQ = algebra("G2", 2, 1, 1)
A3 = algebra("A", 3, 1)
B3_12 = algebra("B", 3, 1, 2)


def assert_kl_basis(alg, rows):
    """bar(c_w) = c_w, p_{w,w} = 1, other p_{y,w} in v^-1 Z[v^-1] with y <= w."""
    W = alg.group
    for w, row in enumerate(rows):
        assert alg.bar(alg.element(row)).coeffs == row
        assert row[w] == LaurentPoly.one()
        for y, p in row.items():
            if y != w:
                assert p.extremal()[2] < 0  # strictly negative degrees
                assert bruhat_leq(W, y, w)


def p15prime_sides(data, x, xp, y, w):
    """Both sides of P15' at one (x, x', y, w), summed over all u."""
    n, inv = len(data.group), data.group.inverse_index
    zero = LaurentPoly.zero()
    lhs = sum((data.hconst[(x, u)].get(y, zero) * data.gamma.get((w, xp, inv(u)), 0)
               for u in range(n)), zero)
    rhs = sum((data.hconst[(x, w)].get(u, zero) * data.gamma.get((u, xp, inv(y)), 0)
               for u in range(n)), zero)
    return lhs, rhs


def p15prime_dense_witness(data):
    """Oracle: the first failing (x, x', y, w) of the dense O(|W|^5) scan, or None."""
    n, a = len(data.group), data.afn
    for x in range(n):
        for w in range(n):
            for y in range(n):
                if a[w] != a[y]:
                    continue
                for xp in range(n):
                    lhs, rhs = p15prime_sides(data, x, xp, y, w)
                    if lhs != rhs:
                        return (x, xp, y, w)
    return None


def kl_cbasis_pushed(alg):
    """Oracle: the c-basis by a pushed solve over whole bar rows.

    For each w, rest[z] collects bar(p_{y,w}) * bar_row(y)[z] over the y
    solved so far, and p_{z,w} = neg_part(rest[z]) for the largest z left: a
    bar row reaches only shorter elements besides its own, and the canonical
    index order sorts by length.
    """
    basis = []
    for w in range(len(alg.group)):
        known = {w: LaurentPoly.one()}
        rest = dict(alg.bar_row(w))
        del rest[w]
        while rest:
            z = max(rest)
            p = neg_part(rest[z])
            if p:
                known[z] = p
                add_into(rest, alg.bar_row(z), p.bar())
            rest.pop(z, None)
        basis.append(known)
    return basis


def kl(alg):
    return KLData(alg.group.ctype, alg.weights)


@lru_cache(maxsize=None)
def shared_kl(family, rank, a, b=None, force=False):
    """One KLData per algebra, for tests that only read it (B3 hconst takes seconds)."""
    ct = CoxeterType(family, rank)
    return KLData(ct, weights_ab(ct, a, b), force=force)


def afn_from_hconst(data):
    """Oracle: a(z) = the largest -deg over every h_{x,y,z}, from all |W|^2 products."""
    a = [0] * len(data.group)
    for row in data.hconst.values():
        for z, p in row.items():
            a[z] = max(a[z], -p.mindeg)
    return a


@lru_cache(maxsize=None)
def hconst_by_cexpand(data):
    """Oracle: h[(x, y)] from Tt-coordinates and back-substitution, over all |W|^2 pairs.

    For each y, the column Tt_w c_y comes from Tt_sw c_y by one left
    multiplication by Tt_s; c_x c_y sums p_{u,x} Tt_u c_y over the Tt-terms of
    c_x, and cexpand turns it into c-coordinates.  Cached per KLData (B3
    takes seconds); callers only read the table.
    """
    n = len(data.group)
    alg, W = TtAlgebra.of(data), data.group
    table = {}
    for y in range(n):
        col = [data.cbasis[y]]  # col[w] = Tt_w c_y, by increasing length
        for w in range(1, n):
            s = W.words[w][0]
            col.append(alg._lgen(s, col[W.left_table[s][w]]))
        for x in range(n):
            acc = {}
            for u, p in data.cbasis[x].items():
                add_into(acc, col[u], p)
            table[(x, y)] = data.cexpand(acc)
    return table


def left_cells_by_cexpand(data):
    """Oracle: left cells from the c-coordinates of every c_s c_w with sw > w."""
    alg, W = TtAlgebra.of(data), data.group
    edges = []
    for w in range(len(W)):
        cw = data.cbasis[w]
        targets = set()
        for s in range(W.rank):
            if W.left_table[s][w] > w:
                prod = add_into(alg._lgen(s, cw), cw, vpow(-alg.weights(s)))
                targets.update(data.cexpand(prod))
        edges.append(list(targets))
    return strongly_connected_components(edges)


def afn_failure_oracle(data, a):
    """The message of check_afn's first failure under a: the first h_{x,y,z}
    in the order of hconst with a term below v^-a(z), else the least z that
    no h_{x,y,z} reaches v^-a(z) at."""
    name = [data.group.name(w) for w in range(len(data.group))]
    reached = set()
    for (x, y), row in data.hconst.items():
        for z, p in row.items():
            if p.mindeg < -a[z]:
                return (f"h_{{{name[x]},{name[y]},{name[z]}}} has a term v^{p.mindeg} "
                        f"below v^-a = v^{-a[z]}")
            if p.mindeg == -a[z]:
                reached.add(z)
    z = min(set(range(len(name))) - reached)
    return f"no h_{{x,y,{name[z]}}} reaches v^-a = v^{-a[z]}"


def involution_count(group):
    return sum(1 for z in range(len(group)) if group.inverse_index(z) == z)


class TestHeckeMultiplication:
    def test_quadratic_relation(self):
        for alg in (S3, B2_13):
            for s in range(alg.group.rank):
                ts = alg.t(generator(alg.group, s))
                expected = alg.one() + ts.scale(alg.zeta[s])
                assert alg.mul(ts, ts) == expected

    def test_identity(self):
        h = S3.t(3) + S3.t(1).scale(vpow(2))
        assert S3.mul(S3.one(), h) == h
        assert S3.mul(h, S3.one()) == h

    def test_tw_times_inverse_supports_identity(self):
        W = S3.group
        w = W.mult(generator(W, 0), generator(W, 1))
        prod = S3.mul(S3.t(w), S3.t(W.inverse_index(w)))
        assert prod.coeffs[0] == LaurentPoly.one()
        # lower-order support only
        for y in prod.coeffs:
            assert bruhat_leq(W, y, len(W) - 1)

    def test_associativity_random(self):
        rng = random.Random(11)
        W = S3.group
        for _ in range(12):
            hs = [S3.t(rng.randrange(len(W))).scale(vpow(rng.randrange(-2, 3)))
                  + S3.t(rng.randrange(len(W)))
                  for _ in range(3)]
            assert S3.mul(S3.mul(hs[0], hs[1]), hs[2]) == \
                S3.mul(hs[0], S3.mul(hs[1], hs[2]))

    def test_tau(self):
        W = S3.group
        assert tau(S3, S3.one()) == LaurentPoly.one()
        for w in range(1, len(W)):
            assert not tau(S3, S3.t(w))
            assert tau(S3, S3.mul(S3.t(w), S3.t(W.inverse_index(w)))) == LaurentPoly.one()

    def test_tau_symmetry_random(self):
        rng = random.Random(5)
        W = B2_13.group
        for _ in range(10):
            h1 = B2_13.t(rng.randrange(len(W))) + \
                B2_13.t(rng.randrange(len(W))).scale(vpow(rng.randrange(-2, 3)))
            h2 = B2_13.t(rng.randrange(len(W)))
            assert tau(B2_13, B2_13.mul(h1, h2)) == tau(B2_13, B2_13.mul(h2, h1))


class TestInvolutions:
    @pytest.mark.parametrize("alg", [S3, B2_13], ids=["S3", "B2"])
    def test_bar_of_generator(self, alg):
        for s in range(alg.group.rank):
            ts = alg.t(generator(alg.group, s))
            assert alg.bar(ts) == ts + alg.one().scale(-alg.zeta[s])

    @pytest.mark.parametrize("alg", [S3, B2_13], ids=["S3", "B2"])
    def test_bar_is_involution(self, alg):
        for w in range(len(alg.group)):
            assert alg.bar(alg.bar(alg.t(w))) == alg.t(w)

    def test_bar_is_multiplicative(self):
        W = S3.group
        rng = random.Random(3)
        for _ in range(8):
            h1 = S3.t(rng.randrange(len(W)))
            h2 = S3.t(rng.randrange(len(W)))
            assert S3.bar(S3.mul(h1, h2)) == S3.mul(S3.bar(h1), S3.bar(h2))

    def test_jmap_on_generator(self):
        for s in range(S3.group.rank):
            ts = S3.t(generator(S3.group, s))
            assert jmap(S3, ts) == ts.scale(LaurentPoly.const(-1))

    def test_dagger_squares_to_identity_and_bar_factorization(self):
        for w in range(len(S3.group)):
            h = S3.t(w)
            assert S3.dagger(S3.dagger(h)) == h
            assert jmap(S3, S3.dagger(h)) == S3.bar(h)

    def test_dagger_is_homomorphism(self):
        W = S3.group
        for u in range(len(W)):
            for v in range(len(W)):
                lhs = S3.dagger(S3.mul(S3.t(u), S3.t(v)))
                rhs = S3.mul(S3.dagger(S3.t(u)), S3.dagger(S3.t(v)))
                assert lhs == rhs

    def test_dagger_of_c_s(self):
        data = kl(S3)
        for s in range(S3.group.rank):
            cs = S3.element(data.cbasis[generator(S3.group, s)])
            assert S3.dagger(cs) == jmap(S3, cs)


class TestKLBasis:
    def test_c_identity_and_c_s(self):
        for alg in (S3, B2_13, G2_EQ):
            data = kl(alg)
            assert data.cbasis[0] == {0: LaurentPoly.one()}
            for s in range(alg.group.rank):
                g = generator(alg.group, s)
                assert data.cbasis[g] == {g: LaurentPoly.one(), 0: vpow(-alg.weights(s))}

    def test_longest_element_s3(self):
        data = kl(S3)
        words = S3.group.words
        assert data.cbasis[len(words) - 1] == \
            {y: vpow(len(word) - 3) for y, word in enumerate(words)}

    @pytest.mark.parametrize("alg", [S3, B2_13, G2_EQ, A3, B3_12],
                             ids=["S3", "B2", "G2", "A3", "B3"])
    def test_bar_invariance_and_congruence(self, alg):
        assert_kl_basis(alg, kl(alg).cbasis)

    @pytest.mark.parametrize("family,rank,a,b", [
        ("A", 2, 1, None), ("A", 3, 1, None), ("A", 4, 1, None), ("D", 4, 1, None),
        ("G2", 2, 1, 1), ("G2", 2, 1, 2), ("B", 2, 1, 3), ("B", 2, 1, 1), ("B", 2, 2, 5),
        ("B", 3, 1, 2), ("B", 3, 1, 1), ("B", 3, 2, 1), ("B", 3, 1, 3)])
    def test_recursion_matches_pushed_solve_oracle(self, family, rank, a, b):
        alg = algebra(family, rank, a, b)
        assert kl_cbasis(alg.group, alg.weights) == kl_cbasis_pushed(alg)

    @pytest.mark.parametrize("family,rank,a,b", [
        ("G2", 2, 1, 2), ("B", 3, 2, 1), ("D", 4, 1, None), ("B", 4, 1, 4), ("B", 4, 2, 1)])
    def test_symmetric_recursion_matches_all_products_oracle(self, family, rank, a, b):
        alg = algebra(family, rank, a, b)
        assert kl_cbasis(alg.group, alg.weights) == kl_cbasis_all_products(alg.group, alg.weights)

    @pytest.mark.parametrize("family,rank,a,b", [("B", 3, 1, 2), ("B", 4, 1, 4)])
    def test_rows_are_symmetric_under_inversion(self, family, rank, a, b):
        # p_{y,w} = p_{y^-1,w^-1}, and the relabelled rows share coefficients
        alg = algebra(family, rank, a, b)
        inv = alg.group.inverse_index
        basis = kl_cbasis(alg.group, alg.weights)
        for w, row in enumerate(basis):
            mirror = basis[inv(w)]
            assert {inv(y): p for y, p in row.items()} == mirror
            if inv(w) < w:
                assert all(p is mirror[inv(y)] for y, p in row.items())

    @pytest.mark.parametrize("family,rank,a,b", [
        ("G2", 2, 1, 2), ("G2", 2, 1, 1), ("G2", 2, 2, 1),
        # the Kazhdan-Lusztig stages need L(s) > 0
        *[("B", 3, a, b) for a, b in REGIMES if a > 0 and b > 0],
        ("B", 4, 1, 4), ("B", 4, 2, 1), ("A", 4, 1, None), ("D", 4, 1, None)])
    def test_every_left_descent_shifts_the_coefficients(self, family, rank, a, b):
        # c_s c_w = (v^L(s) + v^-L(s)) c_w when sw < w (Lusztig, ch. 6), so
        # p_{y,w} = v^-L(s) p_{sy,w} whenever sy > y; kl_cbasis fills half of
        # each row it builds from this, for the first letter of w only
        alg = algebra(family, rank, a, b)
        W = alg.group
        basis = kl_cbasis(W, alg.weights)
        for s in range(W.rank):
            table = W.left_table[s]
            shift = vpow(-alg.weights(s))
            low = [y for y in range(len(W)) if table[y] > y]
            for w, row in enumerate(basis):
                if table[w] > w:
                    continue
                for y in low:
                    p = row.get(table[y])
                    assert row.get(y) == (None if p is None else p * shift), (w, s, y)

    @pytest.mark.parametrize("family,rank,a,b", [("B", 3, 1, 2), ("B", 4, 1, 4)])
    def test_equal_coefficients_are_one_object(self, family, rank, a, b):
        alg = algebra(family, rank, a, b)
        coeffs = [p for row in kl_cbasis(alg.group, alg.weights) for p in row.values()]
        assert len({id(p) for p in coeffs}) == len(set(coeffs))

    def test_cbasis_stage_calls_the_module_function(self, monkeypatch):
        # perfbench/tracer.py times the stage by rebinding klcells.kl_cbasis
        real = klcells.kl_cbasis
        calls = []
        monkeypatch.setattr(klcells, "kl_cbasis",
                            lambda *args: calls.append(args) or real(*args))
        data = kl(S3)
        assert data.cbasis == real(data.group, data.weights)
        assert calls == [(data.group, data.weights)]

    def test_w_graph_edges_give_the_c_expansion(self):
        # c_s c_w = c_sw + sum of M^s_{z,w} c_z, each M bar-invariant and
        # nonzero only for sz < z < w
        data = shared_kl("B", 3, 1, 2)
        W, alg = data.group, TtAlgebra.of(data)
        basis = data.cbasis
        for w in range(len(W)):
            for s in range(W.rank):
                sw = W.left_table[s][w]
                if sw < w:
                    continue
                csw, M = cs_times_cw(W, data.weights, basis, s, w)
                assert csw == basis[sw]
                cs = alg.element(basis[generator(W, s)])
                expected = alg.mul(cs, alg.element(basis[w])).coeffs
                for z, m in M.items():
                    assert m.bar() == m
                    assert W.left_table[s][z] < z < w
                    add_into(expected, basis[z], -m)
                assert expected == csw

    def test_properties_fix_the_basis(self):
        # Adding q*Tt_y with q in v^-1 Z[v^-1] to c_w keeps every property but
        # bar invariance, so the properties leave no other choice of c_w.
        for alg in (S3, B2_13):
            W = alg.group
            for w, row in enumerate(kl_cbasis(alg.group, alg.weights)):
                for y in range(len(W)):
                    if y != w and bruhat_leq(W, y, w):
                        moved = alg.element(add_into(dict(row), {y: vpow(-1)}))
                        assert alg.bar(moved) != moved


class TestStructureConstants:
    def test_identity_row(self):
        data = kl(S3)
        for y in range(len(S3.group)):
            assert data.hconst[(0, y)] == {y: LaurentPoly.one()}

    def test_h_sss(self):
        data = kl(S3)
        s = generator(S3.group, 0)
        assert data.hconst[(s, s)] == {s: vpow(1) + vpow(-1)}

    @pytest.mark.parametrize("alg", [S3, B2_13], ids=["S3", "B2"])
    def test_bar_invariant(self, alg):
        data = kl(alg)
        for (_, _), row in data.hconst.items():
            for p in row.values():
                assert p.bar() == p

    @pytest.mark.parametrize("family,rank,a,b", [
        ("G2", 2, 1, 2), ("G2", 2, 1, 1), ("G2", 2, 2, 1), ("A", 2, 1, None),
        ("A", 3, 1, None), ("B", 2, 1, 3), ("B", 2, 1, 1), ("B", 2, 2, 5),
        ("B", 3, 1, 2), ("B", 3, 1, 1), ("B", 3, 2, 1), ("B", 3, 1, 3)])
    def test_w_graph_recursion_matches_cexpand_oracle(self, family, rank, a, b):
        data = shared_kl(family, rank, a, b)
        assert data.hconst == hconst_by_cexpand(data)

    @pytest.mark.parametrize("family,rank,a,b", [
        ("A", 4, 1, None), ("G2", 2, 1, 2), ("G2", 2, 1, 1), ("G2", 2, 2, 1), ("B", 3, 1, 3)])
    def test_half_table_matches_the_full_column_recursion(self, family, rank, a, b):
        # the rows with x > index(y^-1) are read off h_{y^-1,x^-1,z^-1}; A4
        # (120 elements) is past the reach of the cexpand oracle
        data = shared_kl(family, rank, a, b)
        expected = hconst_by_columns(data)
        assert data.hconst == expected
        assert list(data.hconst) == list(expected)

    @pytest.mark.parametrize("family,rank,a,b", [("G2", 2, 1, 2), ("B", 3, 1, 2)])
    def test_structure_constants_are_interned_and_never_changed(self, family, rank, a, b):
        # equal h_{x,y,z} are one object, shared by many rows, so neither the
        # recursion nor any check may update one in place
        data = kl(algebra(family, rank, a, b))
        coeffs = [p for row in data.hconst.values() for p in row.values()]
        assert len({id(p) for p in coeffs}) == len(set(coeffs))
        assert all(data.check_all())
        assert data.hconst == hconst_by_cexpand(shared_kl(family, rank, a, b))

    @pytest.mark.parametrize("family,rank,a,b", [("B", 3, 1, 2), ("G2", 2, 1, 2)])
    def test_w_graph_rows_are_c_coordinates_of_cs_cw(self, family, rank, a, b):
        # both kinds of row: c_s c_w = (v^L + v^-L) c_w when sw < w, and
        # c_sw + sum of M^s_{z,w} c_z when sw > w
        data = shared_kl(family, rank, a, b)
        W, alg = data.group, TtAlgebra.of(data)
        for s in range(W.rank):
            cs = alg.element(data.cbasis[generator(W, s)])
            for w in range(len(W)):
                expected = data.cexpand(alg.mul(cs, alg.element(data.cbasis[w])).coeffs)
                assert data.wgraph[s][w] == expected

    @pytest.mark.parametrize("family,rank,a,b", [
        ("G2", 2, 1, 2), ("G2", 2, 1, 3), ("G2", 2, 1, 1), ("A", 3, 1, None), ("B", 3, 1, 2),
        ("B", 3, 2, 1), ("B", 3, 1, 1), ("D", 4, 1, None), ("B", 4, 1, 4)])
    def test_w_graph_matches_products_oracle(self, family, rank, a, b):
        # with equal parameters (G2 (1,1), A3, B3 (1,1), D4) every M is mu(y, w)
        data = shared_kl(family, rank, a, b)
        assert data.wgraph == wgraph_by_products(data)

    def test_w_graph_forms_no_product(self, monkeypatch):
        # the M are read off the c-basis rows: no c_s c_w is formed, neither
        # by the c-basis kernel nor by any left multiplication by Tt_s
        data = kl(B3_12)
        expected = wgraph_by_products(data)  # builds the c-basis too
        calls = []
        monkeypatch.setattr(klcells, "csw_terms", lambda *args: calls.append(args))
        monkeypatch.setattr(HeckeAlgebra, "_lgen", lambda *args, **kw: calls.append(args))
        assert data.wgraph == expected
        assert calls == []

    def test_cap(self):
        ct = CoxeterType("F4", 4)
        before = _cached_group.cache_info()
        with pytest.raises(GroupTooLarge):
            KLData(ct, weight_from_ab(ct, 1, 1))
        assert _cached_group.cache_info() == before

    def test_hconst_cap(self):
        # D4 (192 elements) is under the c-basis cap but over the
        # structure-constant cap; the refusal comes before any c-basis work.
        data = kl(algebra("D", 4, 1))
        assert len(data.group) > HCONST_CAP
        with pytest.raises(GroupTooLarge):
            data.hconst
        assert "cbasis" not in data.__dict__


class TestStronglyConnected:
    def test_small_graph(self):
        edges = [[1], [2], [0, 3], [4], [3], []]
        assert strongly_connected_components(edges) == [[0, 1, 2], [3, 4], [5]]

    def test_long_path_needs_no_recursion(self):
        n = 5000
        cycle = [[i + 1] for i in range(n - 1)] + [[0]]
        assert strongly_connected_components(cycle) == [list(range(n))]
        path = [[i + 1] for i in range(n - 1)] + [[]]
        assert strongly_connected_components(path) == [[i] for i in range(n)]


class TestAFunction:
    def test_s3_values(self):
        data = kl(S3)
        assert data.afn == [0, 1, 1, 1, 1, 3]
        assert sorted(set(data.afn)) == sorted({nfun(nu) for nu in partitions(3)})

    def test_b2_asymptotic_value_set_matches_schur(self):
        data = kl(B2_13)
        alphas = {invariants_B(lam, 1, 3).alpha for lam in bipartitions(2)}
        assert set(data.afn) == alphas

    def test_b2_25_value_set_matches_schur(self):
        data = kl(algebra("B", 2, 2, 5))
        alphas = {invariants_B(lam, 2, 5).alpha for lam in bipartitions(2)}
        assert set(data.afn) == alphas == {0, 2, 5, 8, 14}

    def test_s4_value_set_is_nfun_image(self):
        data = kl(algebra("A", 3, 1))
        assert set(data.afn) == {nfun(nu) for nu in partitions(4)}
        for res in data.check_all(("P2", "P3", "P4", "P5", "P6", "P7", "P8")):
            assert res.passed

    @pytest.mark.parametrize("alg", [S3, B2_13, G2_EQ], ids=["S3", "B2", "G2"])
    def test_inverse_symmetry_and_identity(self, alg):
        data = kl(alg)
        W = alg.group
        assert data.afn[0] == 0
        assert 0 in data.dinv and data.nz[0] == 1
        for z in range(len(W)):
            assert data.afn[z] == data.afn[W.inverse_index(z)]

    def test_dinv_closed_under_inverse(self):
        data = kl(B2_13)
        W = data.group
        assert {W.inverse_index(d) for d in data.dinv} == set(data.dinv)

    @pytest.mark.parametrize("family,rank,a,b", [
        ("G2", 2, 1, 2), ("G2", 2, 1, 1), ("G2", 2, 2, 1), ("A", 2, 1, None),
        ("A", 3, 1, None), ("B", 2, 1, 3), ("B", 2, 1, 1), ("B", 2, 2, 5),
        ("B", 3, 1, 2), ("B", 3, 1, 3)])
    def test_cells_afn_matches_hconst_oracle(self, family, rank, a, b):
        data = shared_kl(family, rank, a, b)
        assert data.afn == afn_from_hconst(data)
        assert data.gamma  # the cross-check in the gamma scan passes too

    @pytest.mark.parametrize("family,rank,a,b", [
        ("G2", 2, 1, 2), ("A", 3, 1, None), ("D", 4, 1, None), ("B", 3, 1, 2),
        ("B", 3, 1, 1), ("B", 3, 2, 1)])
    def test_w_graph_cells_match_cexpand_oracle(self, family, rank, a, b):
        data = shared_kl(family, rank, a, b)
        assert data.left_cells == left_cells_by_cexpand(data)

    @pytest.mark.parametrize("family,rank", [("A", 4), ("D", 4)])
    def test_cells_afn_matches_hconst_beyond_the_oracle(self, family, rank):
        # A4 (120 elements) and D4 (192): the structure constants from the
        # W-graph take about 0.5 s and 2 s, so the a-function from the cells
        # is tied to them past the reach of the cexpand oracle
        data = shared_kl(family, rank, 1, force=True)
        assert data.afn == afn_from_hconst(data)
        data.check_afn(data.afn)

    @pytest.mark.parametrize("family,rank,a,b,force", [
        ("G2", 2, 1, 2, False), ("B", 2, 1, 3, False), ("A", 3, 1, None, False),
        ("B", 3, 1, 2, False), ("D", 4, 1, None, True)])
    def test_gamma_from_the_check_scan_matches_rescan_oracle(self, family, rank, a, b, force):
        # value and key order: the P2, P7 and P8 witnesses are the first
        # failing key in that order
        data = shared_kl(family, rank, a, b, force)
        assert list(data.gamma.items()) == list(gamma_by_rescan(data).items())

    @pytest.mark.parametrize("step", [1, -1], ids=["raised", "lowered"])
    def test_gamma_rejects_a_moved_afn(self, step):
        base = shared_kl("B", 2, 1, 3)
        moved = 0
        for z in range(len(base.group)):
            if base.afn[z] + step < 0:
                continue
            data = KLData(base.ctype, base.weights)
            data.hconst = base.hconst
            data.afn = list(base.afn)
            data.afn[z] += step
            with pytest.raises(PropertyFailure) as failure:
                data.gamma
            assert str(failure.value) == afn_failure_oracle(data, data.afn)
            moved += 1
        assert moved

    def test_small_groups_check_afn_at_once(self):
        base = shared_kl("B", 2, 1, 3)
        delta, nz = base.trace_leading
        data = KLData(base.ctype, base.weights)
        data.trace_leading = ([d - 1 for d in delta], nz)
        with pytest.raises(PropertyFailure):
            data.afn

    @pytest.mark.parametrize("rank,b,cells", [(2, 3, 6), (3, 3, 20), (4, 4, 76)],
                             ids=["2", "3", "4"])
    def test_asymptotic_left_cells_are_counted_by_involutions(self, rank, b, cells):
        # weights (1, b): L(t) = b > (rank - 1) L(s), the asymptotic case
        data = shared_kl("B", rank, 1, b)
        assert len(data.left_cells) == involution_count(data.group) == cells
        assert sorted(z for cell in data.left_cells for z in cell) == \
            list(range(len(data.group)))

    @pytest.mark.parametrize("emit", ["afn", "dinv"])
    def test_afn_and_dinv_emits_skip_structure_constants(self, emit, monkeypatch, capsys):
        made = []

        class Recorded(KLData):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(cli, "KLData", Recorded)
        assert cli.main(["kl", "--type", "B", "--rank", "3", "--weights", "1,3",
                         "--emit", emit]) == 0
        capsys.readouterr()
        (data,) = made
        assert "afn" in data.__dict__
        assert "hconst" not in data.__dict__

    def test_a_level_sizes_are_squared_dimensions(self):
        """Each a-level block has size sum of (dim E)^2 over alpha_E = a.

        The level sizes come from the Kazhdan-Lusztig machinery alone; the
        right-hand side comes from Schur invariants and hook-length counts,
        so this ties three independent computations together.  A4, D4, B4
        and F4 are past the reach of the structure-constant oracle.
        """
        from heckekit.schur import (G2_LABELS, f4_invariants, f4_labels, g2_invariants,
                                    invariants_A, standard_tableaux, typeD_invariants,
                                    typeD_invariants_split)

        for n in (3, 5):
            data = kl(algebra("A", n - 1, 1))
            expect = Counter()
            for nu in partitions(n):
                expect[invariants_A(nu, 1).alpha] += standard_tableaux(nu) ** 2
            assert Counter(data.afn) == expect

        for rank, a, b in [(2, 1, 3), (2, 2, 5), (2, 1, 1),
                           (3, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 3),
                           (4, 1, 4), (4, 1, 1)]:
            data = shared_kl("B", rank, a, b)
            expect = Counter()
            for lam in bipartitions(rank):
                expect[invariants_B(lam, a, b).alpha] += dim_bipartition(lam) ** 2
            assert Counter(data.afn) == expect

        # D4: an unordered pair {lam, mu} gives one character; lam = mu gives
        # two, each of half the dimension.
        data = shared_kl("D", 4, 1)
        expect = Counter()
        for lam, mu in bipartitions(4):
            if lam < mu:
                expect[typeD_invariants(lam, mu, 1).alpha] += dim_bipartition((lam, mu)) ** 2
            elif lam == mu:
                half = dim_bipartition((lam, lam)) // 2
                expect[typeD_invariants_split(lam, 1).alpha] += 2 * half ** 2
        assert sum(expect.values()) == 192
        assert Counter(data.afn) == expect

        dims = {"1": 1, "eps": 1, "eps1": 1, "eps2": 1, "E+": 2, "E-": 2}
        for a, b in [(1, 1), (1, 2)]:
            data = kl(algebra("G2", 2, a, b))
            expect = Counter()
            for lab in G2_LABELS:
                expect[g2_invariants(lab, a, b).alpha] += dims[lab] ** 2
            assert Counter(data.afn) == expect

        # F4 (1152 elements, over the c-basis cap): the label 9_1 names a
        # character of dimension 9, and alpha comes from the embedded table
        ct = CoxeterType("F4", 4)
        for a, b in [(1, 1), (1, 2), (2, 3), (1, 3)]:
            data = KLData(ct, weight_from_ab(ct, a, b), force=True)
            expect = Counter()
            for lab in f4_labels():
                expect[f4_invariants(lab, a, b).alpha] += int(lab.split("_")[0]) ** 2
            assert sum(expect.values()) == 1152
            assert Counter(data.afn) == expect


class TestPropertyChecks:
    @pytest.mark.parametrize("alg", [S3, B2_13, G2_EQ], ids=["S3", "B2", "G2"])
    def test_all_pass(self, alg):
        data = kl(alg)
        for res in data.check_all():
            assert res.passed, (res.name, res.witness)

    def test_p8_gamma_levels(self):
        data = kl(S3)
        for (x, y, z) in data.gamma:
            assert data.afn[x] == data.afn[y] == data.afn[z]

    @pytest.mark.parametrize("family,rank,a,b", [("B", 2, 1, 3), ("G2", 2, 1, 2)],
                             ids=["B2", "G2"])
    def test_p4_fails_on_a_moved_afn(self, family, rank, a, b):
        # a lowered a(z) fails where z is the product, a raised one where z
        # is a factor: on the a(x) side or on the a(y) side
        base = shared_kl(family, rank, a, b)
        failures = Counter()
        for step in (-1, 1):
            for z in range(len(base.group)):
                data = KLData(base.ctype, base.weights)
                data.hconst = base.hconst
                data.afn = list(base.afn)
                data.afn[z] += step
                res = data.check_property("P4")
                expected = p4_witness_by_scan(data)
                assert (res.passed, res.witness) == (expected is None, expected)
                failures[step] += not res.passed
        assert failures[-1] and failures[1]

    @pytest.mark.parametrize("alg", [B2_13, algebra("B", 2, 1, 1)], ids=["B2", "B2eq"])
    def test_p15prime_fails_on_a_raised_gamma(self, alg):
        base = kl(alg)
        failures = 0
        for key in sorted(base.gamma):
            data = kl(alg)
            data.hconst, data.afn = base.hconst, base.afn
            data.gamma = dict(base.gamma)
            data.gamma[key] += 1
            res = data.check_property("P15")
            assert res.witness == p15prime_dense_witness(data)
            if not res.passed:
                failures += 1
                lhs, rhs = p15prime_sides(data, *res.witness)
                assert lhs != rhs
        assert failures

    @pytest.mark.parametrize("alg", [S3, B2_13], ids=["A2", "B2"])
    def test_partner_witnesses_match_the_dense_scan(self, alg):
        # every gamma key, every (x, y, d) with d distinguished (the absent
        # (y^-1, y, d) among them) and every (y^-1, y, z), raised by one in turn
        base = kl(alg)
        n, dinv, inv = len(base.group), base.dinv, base.group.inverse_index
        keys = sorted(set(base.gamma)
                      | {(x, y, d) for x in range(n) for y in range(n) for d in dinv}
                      | {(inv(y), y, z) for y in range(n) for z in range(n)})
        failures = Counter()
        for key in keys:
            data = kl(alg)
            data.hconst, data.afn, data.trace_leading = base.hconst, base.afn, base.trace_leading
            data.gamma = dict(base.gamma)
            data.gamma[key] = data.gamma.get(key, 0) + 1
            expected = partner_witnesses(data)
            for name in ("P2", "P3", "P5"):
                res = data.check_property(name)
                assert (res.passed, res.witness) == (expected[name] is None, expected[name])
                failures[name] += not res.passed
        assert all(failures[name] for name in ("P2", "P3", "P5"))

    @pytest.mark.parametrize("family,rank,a,b,step", [("B", 2, 1, 3, 1), ("G2", 2, 1, 2, 15)],
                             ids=["B2", "G2"])
    def test_p15prime_fails_on_a_raised_structure_constant(self, family, rank, a, b, step):
        # h_{x,u,y} + v + v^-1 at every step-th (x, u, y) with a(y) = a(u):
        # those are the entries that meet a nonzero gamma on either side
        base = shared_kl(family, rank, a, b)
        afn = base.afn
        keys = sorted((x, u, y) for (x, u), row in base.hconst.items()
                      for y in row if afn[y] == afn[u])
        failures = 0
        for x, u, y in keys[::step]:
            data = KLData(base.ctype, base.weights)
            data.afn, data.gamma = base.afn, base.gamma
            data.hconst = dict(base.hconst)
            row = data.hconst[(x, u)] = dict(base.hconst[(x, u)])
            row[y] = row[y] + vpow(1) + vpow(-1)
            res = data.check_property("P15")
            assert res.witness == p15prime_dense_witness(data)
            if not res.passed:
                failures += 1
                lhs, rhs = p15prime_sides(data, *res.witness)
                assert lhs != rhs
        assert failures

    @pytest.mark.parametrize("family,rank,a,b", [("B", 3, 1, 2), ("G2", 2, 1, 2)])
    def test_p15prime_reads_values_not_interned_objects(self, family, rank, a, b):
        # a copy of the structure constants whose coefficients are equal but
        # distinct objects takes the term-map path on every key, and must
        # give the same result, as is and with one of the first gamma raised
        base = shared_kl(family, rank, a, b)
        copied = {key: {z: LaurentPoly(p._terms) for z, p in row.items()}
                  for key, row in base.hconst.items()}
        results = []
        for raised in [None] + sorted(base.gamma)[:3]:
            pair = []
            for hconst in (base.hconst, copied):
                data = KLData(base.ctype, base.weights)
                data.hconst, data.afn = hconst, base.afn
                data.gamma = dict(base.gamma)
                if raised:
                    data.gamma[raised] += 1
                pair.append(data.check_property("P15"))
            assert pair[0] == pair[1]
            results.append(pair[0].passed)
        assert results[0] and not all(results)

    def test_p15prime_cancels_only_opposite_products_of_one_object(self):
        h = vpow(1) + vpow(-1)
        diff = {}
        klcells._add_product(diff, "k", h, 2)
        klcells._add_product(diff, "k", h, -2)
        assert diff == {}
        klcells._add_product(diff, "k", h, 2)
        klcells._add_product(diff, "k", h, 2)  # same object, same sign: adds up
        assert diff == {"k": {1: 4, -1: 4}}
        klcells._add_product(diff, "k", vpow(1) + vpow(-1), -4)  # equal, not the same
        assert diff == {"k": {}}

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            kl(S3).check_property("P9")


#: Every regime of A2, A3, D3, B2, G2 and B3 that phi is tied to its oracle on.
PHI_GROUPS = [("A", 2, 1, None), ("A", 3, 1, None), ("D", 3, 1, None),
              ("B", 2, 1, 1), ("B", 2, 1, 2), ("B", 2, 1, 3), ("B", 2, 2, 1),
              ("G2", 2, 1, 1), ("G2", 2, 1, 2), ("G2", 2, 2, 1), ("G2", 2, 1, 3),
              ("B", 3, 1, 1), ("B", 3, 1, 2), ("B", 3, 2, 1), ("B", 3, 1, 3)]


class TestJRingAndPhi:
    def test_unit_and_associativity_exhaustive(self):
        data = kl(S3)
        ring = data.jring
        n = len(S3.group)
        for x in range(n):
            bx = ring.basis(x)
            assert ring.mul(ring.unit, bx) == bx == ring.mul(bx, ring.unit)
        for x in range(n):
            for y in range(n):
                left = ring.mul(ring.basis(x), ring.basis(y))
                for z in range(n):
                    assert ring.mul(left, ring.basis(z)) == \
                        ring.mul(ring.basis(x), ring.mul(ring.basis(y), ring.basis(z)))

    @pytest.mark.parametrize("family,rank,a,b", [("G2", 2, 1, 2), ("B", 3, 1, 2)])
    def test_mul_matches_the_scan_oracle(self, family, rank, a, b):
        data = shared_kl(family, rank, a, b)
        ring = data.jring
        n = len(data.group)
        for x in range(n):
            for y in range(n):
                jx, jy = ring.basis(x), ring.basis(y)
                # the same terms in the same order
                assert list(ring.mul(jx, jy).items()) == \
                    list(jring_mul_by_scan(data, jx, jy).items())
        unit = ring.unit
        assert ring.mul(unit, unit) == jring_mul_by_scan(data, unit, unit) == unit

    @pytest.mark.parametrize("family,rank,a,b", [("G2", 2, 1, 2), ("B", 3, 1, 2)])
    def test_mul_of_several_terms_matches_the_scan_oracle(self, family, rank, a, b):
        # phi(Tt_s) images and sums of basis vectors, dense and sparse, so that
        # many y of a product row are missing from the right factor
        data = shared_kl(family, rank, a, b)
        ring = data.jring
        n = len(data.group)
        rng = random.Random(f"{family}{rank}")
        sums = [{x: rng.choice([-2, -1, 1, 3]) for x in rng.sample(range(n), k)}
                for k in (2, 3, n // 4, n)]
        vectors = [data.phi(s) for s in range(data.group.rank)] + sums + [ring.unit]
        for jx in vectors:
            for jy in vectors:
                assert ring.mul(jx, jy) == jring_mul_by_scan(data, jx, jy)

    def test_idempotents(self):
        data = kl(B2_13)
        ring = data.jring
        tas = ring.level_idempotents
        total: dict[int, int] = {}
        for a, ta in tas.items():
            assert ring.mul(ta, ta) == ta
            for a2, ta2 in tas.items():
                if a2 != a:
                    assert ring.mul(ta, ta2) == {}
            for x in range(len(data.group)):
                assert ring.mul(ta, ring.basis(x)) == ring.mul(ring.basis(x), ta)
            for d, c in ta.items():
                total[d] = total.get(d, 0) + c
        assert total == ring.unit

    def test_phi_preserves_identity(self):
        for alg in (S3, B2_13):
            data = kl(alg)
            img = phi_by_cexpand(data, alg.one())
            assert img == {z: LaurentPoly.const(c) for z, c in data.jring.unit.items()}

    def test_phi_matrix_det_nonzero(self):
        data = kl(S3)
        det = data.phi_matrix_det()
        assert det
        assert det.at_one() != 0

    @pytest.mark.parametrize("family,rank,a,b", PHI_GROUPS)
    def test_phi_matrix_matches_the_cexpand_oracle(self, family, rank, a, b):
        data = shared_kl(family, rank, a, b)
        alg = TtAlgebra.of(data)
        assert data.phi_matrix == phi_matrix_by_cexpand(data)
        for s in range(data.group.rank):
            assert data.phi(s) == phi_by_cexpand(data, alg.t(generator(data.group, s)))

    @pytest.mark.parametrize("family,rank,a,b",
                             [g for g in PHI_GROUPS if CoxeterType(*g[:2]).order() <= 24])
    def test_phi_det_by_blocks_matches_the_elimination_oracle(self, family, rank, a, b):
        # A2 is the one group here with sum of l(y) odd, so it fixes the sign
        data = shared_kl(family, rank, a, b)
        det = data.phi_matrix_det()
        assert det
        assert det == phi_det_by_elimination(data)

    # A2: e, s1, s2, s1.s2, s2.s1, s1.s2.s1; the right cells of a = 1 are
    # {s1, s1.s2} and {s2, s2.s1}
    @pytest.mark.parametrize("z,w", [(0, 5), (2, 1)], ids=["a-below", "other-right-cell"])
    def test_entry_outside_the_block_pattern_fails(self, capsys, monkeypatch, z, w):
        real = KLData.phi_cdagger

        def skewed(self, u):
            out = real(self, u)
            return {**out, z: vpow(1)} if u == w else out

        monkeypatch.setattr(KLData, "phi_cdagger", skewed)
        with pytest.raises(PropertyFailure) as exc:
            kl(S3).phi_matrix_det()
        assert exc.value.witness == (z, w)
        code = cli.main(["kl", "--type", "A", "--rank", "2", "--weights", "1",
                         "--emit", "phimatrix"])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_det_helper(self):
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        v = vpow(1)
        assert det_laurent_matrix([[v, one], [one, v]]) == vpow(2) - 1
        assert det_laurent_matrix([[one, one], [one, one]]) == zero

    @pytest.mark.parametrize("alg", [S3, B2_13], ids=["S3", "B2"])
    def test_star_compatibility(self, alg):
        res = check_star_compatibility(kl(alg))
        assert res.passed, res

    @pytest.mark.parametrize("alg", [S3, B2_13], ids=["S3", "B2"])
    def test_phi_is_multiplicative(self, alg):
        data = kl(alg)
        inv = alg.group.inverse_index
        gamma = data.gamma

        def jmul_laurent(j1, j2):
            out = {}
            for x, cx in j1.items():
                for y, cy in j2.items():
                    for z in range(len(alg.group)):
                        g = gamma.get((x, y, z))
                        if g:
                            zi = inv(z)
                            cur = out.get(zi, LaurentPoly.zero()) + cx * cy * g
                            if cur:
                                out[zi] = cur
                            elif zi in out:
                                del out[zi]
            return out

        n = len(alg.group)
        for x in range(n):
            for y in range(n):
                lhs = phi_by_cexpand(data, alg.mul(alg.t(x), alg.t(y)))
                rhs = jmul_laurent(phi_by_cexpand(data, alg.t(x)), phi_by_cexpand(data, alg.t(y)))
                assert lhs == rhs, (x, y)

    @pytest.mark.parametrize("alg", [S3, B2_13], ids=["S3", "B2"])
    def test_trace_pairing_on_asymptotic_ring(self, alg):
        # the trace picking n_z on distinguished involutions pairs the basis
        # dually: mu(t_x t_y) is 1 exactly when y is the inverse of x
        data = kl(alg)
        ring = data.jring
        inv = alg.group.inverse_index

        def mu(j):
            return sum(c * data.nz[z] for z, c in j.items() if z in data.dinv)

        n = len(alg.group)
        for x in range(n):
            for y in range(n):
                assert mu(ring.mul(ring.basis(x), ring.basis(y))) == \
                    (1 if x == inv(y) else 0)


class TestWeightValidation:
    def test_rejects_zero_weight(self):
        ct = CoxeterType("B", 2)
        with pytest.raises(ValueError, match=r"needs L\(s\) > 0"):
            KLData(ct, weight_from_ab(ct, 1, 0))

    def test_rejects_nonconjugation_invariant(self):
        with pytest.raises(ValueError, match="constant on conjugate generators"):
            KLData(CoxeterType("A", 2), WeightFunction((1, 2)))

    @pytest.mark.parametrize("family,weights", [
        ("A", (-1,)), ("A", (0,)), ("B", (1, -2)), ("B", (0, 1)), ("G2", (-1, 1)),
        ("A", WeightFunction((1, -1))), ("A", WeightFunction((0,)))])
    def test_any_weight_below_one_is_named_as_such(self, family, weights):
        # positivity comes before the conjugacy and count checks
        with pytest.raises(ValueError, match=r"needs L\(s\) > 0"):
            KLData(CoxeterType(family, 2), weights)

    @pytest.mark.parametrize("values", [(1,), (1, 1, 1)])
    def test_wrong_count_names_the_expected_count(self, values):
        with pytest.raises(ValueError, match="A2 needs 2 weights"):
            KLData(CoxeterType("A", 2), WeightFunction(values))
