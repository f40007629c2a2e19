import json
import sys

import pytest

from heckekit import fock
from heckekit.fock import (ARIKI, FLOTW, LEVEL_CAP, FockParams, LevelCapExceeded,
                           ParamsOutOfRange, crystal, empty_mp, etilde,
                           flotw_member, ftilde, kleshchev_member, mp_text, uryu_set)
from heckekit.laurent import LaurentPoly, add_into, vpow
from heckekit.schur import e_regular, multipartitions, partitions
from oracles import (Node, above, add_node, addable, cartan_pairing, classical_d,
                     classical_e, classical_f, classical_h, cogood_node, good_node,
                     i_word, icount, ind, kleshchev_member_oracle, mp_size, ncount,
                     normal_nodes_literal, quantum_D, quantum_E, quantum_F, quantum_K,
                     reduced_word, removable, remove_node, res, residue, sort_key,
                     unit_vector)

P22 = FockParams(l=2, r=2, u=(0, 1), node_order=FLOTW)
A22 = FockParams(l=2, r=2, u=(0, 1), node_order=ARIKI)

TABLE2_LEVELS = [
    {((), ())},
    {((1,), ()), ((), (1,))},
    {((2,), ()), ((), (2,))},
    {((3,), ()), ((2,), (1,)), ((1,), (2,)), ((), (3,))},
]
TABLE2_EDGES = {
    (((), ()), ((1,), ()), 0), (((), ()), ((), (1,)), 1),
    (((1,), ()), ((2,), ()), 1), (((), (1,)), ((), (2,)), 0),
    (((2,), ()), ((3,), ()), 0), (((2,), ()), ((2,), (1,)), 1),
    (((), (2,)), ((1,), (2,)), 0), (((), (2,)), ((), (3,)), 1),
}


# ---------------------------------------------------------------------------
# oracles: the per-residue word construction that `fock._iword` replaced
# ---------------------------------------------------------------------------

def i_word_oracle(mp, i, params):
    """The i-word from the full addable and removable lists of residue i,
    merged by a stable sort on the node order (addable first at equal keys)."""
    entries = [(nd, "A") for nd in addable(mp, i, params)]
    entries += [(nd, "R") for nd in removable(mp, i, params)]
    entries.sort(key=lambda e: sort_key(params)(e[0]))
    return entries


def reduced_word_oracle(mp, i, params):
    stack = []
    for nd, kind in i_word_oracle(mp, i, params):
        if kind == "A" and stack and stack[-1][1] == "R":
            stack.pop()
        else:
            stack.append((nd, kind))
    return stack


def good_node_oracle(mp, i, params):
    rems = [nd for nd, kind in reduced_word_oracle(mp, i, params) if kind == "R"]
    return rems[0] if rems else None


def cogood_node_oracle(mp, i, params):
    adds = [nd for nd, kind in reduced_word_oracle(mp, i, params) if kind == "A"]
    return adds[-1] if adds else None


def ftilde_oracle(mp, i, params):
    g = cogood_node_oracle(mp, i, params)
    return None if g is None else add_node(mp, g)


def etilde_oracle(mp, i, params):
    g = good_node_oracle(mp, i, params)
    return None if g is None else remove_node(mp, g)


def crystal_oracle(params, n):
    """Levels and edges of the closure of the empty multipartition under
    `ftilde_oracle`."""
    levels, edges = [[empty_mp(params.r)]], set()
    for _ in range(n):
        nxt = set()
        for mp in levels[-1]:
            for i in range(params.l):
                target = ftilde_oracle(mp, i, params)
                if target is not None:
                    edges.add((mp, target, i))
                    nxt.add(target)
        levels.append(sorted(nxt))
    return levels, edges


def quantum_E_oracle(i, vec, params):
    """E_i with N_i^a counted pair by pair over the nodes of both diagrams."""
    out = {}
    for mp, coeff in vec.items():
        terms = {}
        rems = removable(mp, i, params)
        for g in rems:
            smaller = remove_node(mp, g)
            na = (sum(1 for g2 in addable(smaller, i, params) if above(g2, g, params))
                  - sum(1 for g2 in rems if above(g2, g, params)))
            terms[smaller] = vpow(-na)
        add_into(out, terms, coeff)
    return out


def quantum_F_oracle(i, vec, params):
    """F_i with N_i^b counted pair by pair over the nodes of both diagrams."""
    out = {}
    for mp, coeff in vec.items():
        terms = {}
        adds = addable(mp, i, params)
        for g in adds:
            larger = add_node(mp, g)
            nb = (sum(1 for g2 in adds if above(g, g2, params))
                  - sum(1 for g2 in removable(larger, i, params) if above(g, g2, params)))
            terms[larger] = vpow(nb)
        add_into(out, terms, coeff)
    return out


def json_oracle(graph):
    """The crystal JSON with every edge rendered and sorted by `str`."""
    return json.dumps({
        "levels": [[list(map(list, mp)) for mp in level] for level in graph.levels],
        "edges": sorted(
            [[list(map(list, a)), list(map(list, b)), i] for a, b, i in graph.edges],
            key=str),
    }, sort_keys=True)


def dot_oracle(levels, edges):
    """The crystal DOT text with vertices sorted per level and edges sorted
    by (size, source, colour)."""
    lines = ["digraph crystal {", "  rankdir=BT;"]
    lines += [f'  "{mp_text(mp)}";' for level in levels for mp in sorted(level)]
    for a, b, i in sorted(edges, key=lambda e: (sum(map(sum, e[0])), e[0], e[2])):
        lines.append(f'  "{mp_text(a)}" -> "{mp_text(b)}" [label="{i}"];')
    return "\n".join(lines + ["}"]) + "\n"


def normalised_charges(l, r):
    """Every u with 0 <= u_1 <= ... <= u_r <= l-1."""
    if r == 0:
        return [()]
    return [u + (x,) for u in normalised_charges(l, r - 1)
            for x in range(u[-1] if u else 0, l)]


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the level cap was checked")


def vec_scale(vec, poly):
    return {k: c * poly for k, c in vec.items()}


def vec_sub(v1, v2):
    return add_into(dict(v1), v2, -1)


class TestResidues:
    def test_first_column(self):
        for c in (1, 2):
            assert residue(Node(1, 1, c), P22) == P22.u[c - 1] % 2

    def test_row_of_three(self):
        assert [residue(Node(1, b, 1), P22) for b in (1, 2, 3)] == [0, 1, 0]

    def test_below_diagonal(self):
        assert residue(Node(2, 1, 1), P22) == 1


class TestNodesAndCounts:
    def test_addable_of_empty(self):
        assert addable(empty_mp(2), 0, P22) == [Node(1, 1, 1)]
        assert addable(empty_mp(2), 1, P22) == [Node(1, 1, 2)]

    def test_removable(self):
        assert removable(((1,), ()), 0, P22) == [Node(1, 1, 1)]
        assert removable(empty_mp(2), None, P22) == []

    def test_ncount_definition(self):
        for n in range(4):
            for mp in multipartitions(2, n):
                for i in range(2):
                    assert ncount(mp, i, P22) == \
                        len(addable(mp, i, P22)) - len(removable(mp, i, P22))

    def test_icount(self):
        assert icount(((3,), ()), 0, P22) == 2
        assert icount(((3,), ()), 1, P22) == 1


class TestAbove:
    def test_flotw_content_order(self):
        g, g2 = Node(1, 1, 2), Node(1, 1, 1)   # contents 1 and 0
        assert not above(g, g2, P22)
        assert above(g2, g, P22)

    def test_flotw_tie_towards_larger_component(self):
        g, g2 = Node(1, 2, 1), Node(1, 1, 2)   # both content 1
        assert above(g2, g, P22)
        assert not above(g, g2, P22)

    def test_ariki_component_order(self):
        assert above(Node(1, 1, 2), Node(1, 1, 1), A22)
        assert not above(Node(1, 1, 1), Node(1, 1, 2), A22)
        # same component: larger row is higher
        assert above(Node(2, 1, 1), Node(1, 3, 1), A22)


class TestCrystalGraphs:
    def test_table2_exact(self):
        g = crystal(P22, 3)
        assert [set(level) for level in g.levels] == TABLE2_LEVELS
        assert g.edges == TABLE2_EDGES
        assert len(g.vertices) == 9 and len(g.edges) == 8

    def test_flotw_level3(self):
        assert uryu_set(P22, 3) == \
            {((3,), ()), ((2,), (1,)), ((1,), (2,)), ((), (3,))}

    def test_ariki_level3(self):
        assert uryu_set(A22, 3) == \
            {((3,), ()), ((2, 1), ()), ((1,), (2,)), ((2,), (1,))}

    def test_level_zero(self):
        g = crystal(P22, 0)
        assert g.levels == [[((), ())]] and not g.edges

    def test_cap(self):
        with pytest.raises(LevelCapExceeded):
            crystal(P22, 40)

    def test_vertex_cap(self, monkeypatch):
        total = sum(map(len, crystal(P22, 6).levels))
        monkeypatch.setattr(fock, "VERTEX_CAP", total)
        assert sum(map(len, crystal(P22, 6).levels)) == total
        monkeypatch.setattr(fock, "VERTEX_CAP", total - 1)
        with pytest.raises(LevelCapExceeded, match="vertices"):
            crystal(P22, 6)

    def test_negative_level(self):
        with pytest.raises(ValueError, match="negative"):
            crystal(P22, -2)
        for p in (P22, A22):  # the FLOTW enumeration and the closure
            with pytest.raises(ValueError, match="negative"):
                uryu_set(p, -1)

    def test_flotw_cap_before_enumeration(self, monkeypatch):
        for name in ("_flotw_level", "_capped_partitions", "crystal"):
            monkeypatch.setattr(fock, name, _refuse)
        with pytest.raises(LevelCapExceeded):
            uryu_set(P22, LEVEL_CAP + 1)

    def test_closure_cap_before_closure(self, monkeypatch):
        for name in ("_flotw_level", "ftilde"):
            monkeypatch.setattr(fock, name, _refuse)
        for p in (A22, FockParams(l=2, r=2, u=(1, 0), node_order=FLOTW)):
            with pytest.raises(LevelCapExceeded):
                uryu_set(p, LEVEL_CAP + 1)

    def test_dot_and_json(self):
        g = crystal(P22, 1)
        dot = g.to_dot()
        assert dot.startswith("digraph") and '[label="0"]' in dot
        data = json.loads(g.to_json())
        assert len(data["levels"]) == 2 and len(data["edges"]) == 2


class TestOracleEquivalences:
    def test_flotw_member_vs_crystal(self):
        # 1,675 (params, n) pairs: every normalised u, checked against the closure
        for l in range(2, 7):
            for r in (1, 2, 3):
                for u in normalised_charges(l, r):
                    p = FockParams(l=l, r=r, u=u, node_order=FLOTW)
                    for n, vertices in enumerate(crystal(p, 7 if r == 3 else 8).levels):
                        level = set(vertices)
                        assert uryu_set(p, n) == level, (l, u, n)
                        for mp in multipartitions(r, n):
                            assert flotw_member(mp, p) == (mp in level), (l, u, mp)

    @pytest.mark.parametrize("u", [(1, 3), (0, 3)])
    def test_basicset_charges_vs_crystal(self, u):
        p = FockParams(l=6, r=2, u=u, node_order=FLOTW)
        assert uryu_set(p, 12) == set(crystal(p, 12).levels[12])

    def test_capped_partitions_with_floors(self):
        for n in range(10):
            for caps in ([n] * n, [3, 3, 2, 2, 1], [4, 1]):
                for floors in ((), (2,), (2, 2, 1), (5,)):
                    expected = {nu for nu in partitions(n) if len(nu) <= len(caps)
                                and all(x <= c for x, c in zip(nu, caps))
                                and len(nu) >= len(floors)
                                and all(x >= f for x, f in zip(nu, floors))}
                    got = list(fock._capped_partitions(n, caps, floors))
                    assert len(got) == len(set(got)) and set(got) == expected, \
                        (n, caps, floors)

    @pytest.mark.parametrize("l,u", [(6, (0, 3)), (6, (1, 3)), (4, (0, 1, 3)), (3, (0, 0, 2))])
    def test_last_component_drawn_above_the_cyclic_floor(self, l, u, monkeypatch):
        # the caps and floors leave only the residue condition to check: every
        # candidate that reaches it meets all of the FLOTW conditions
        p = FockParams(l=l, r=len(u), u=u, node_order=FLOTW)
        seen = []
        check = fock._flotw_residues

        def recorded(mp, params):
            seen.append(mp)
            return check(mp, params)

        monkeypatch.setattr(fock, "_flotw_residues", recorded)
        members = uryu_set(p, 10)
        monkeypatch.undo()
        assert members and seen
        for mp in seen:
            assert flotw_member(mp, p) == (mp in members), mp

    def test_flotw_member_examples(self):
        assert not flotw_member(((2, 1), ()), P22)
        assert flotw_member(((2,), (1,)), P22)
        assert flotw_member(empty_mp(2), P22)

    def test_flotw_params_validated(self):
        bad = FockParams(l=2, r=2, u=(1, 0), node_order=FLOTW)
        with pytest.raises(ParamsOutOfRange):
            flotw_member(((1,), ()), bad)

    def test_level1_fock_is_e_regular(self):
        for e in (2, 3):
            p = FockParams(l=e, r=1, u=(0,), node_order=FLOTW)
            for n in range(7):
                assert uryu_set(p, n) == \
                    {(nu,) for nu in partitions(n) if e_regular(nu, e)}

    def test_literal_normal_vs_signature(self):
        grids = [P22, A22,
                 FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW),
                 FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI),
                 FockParams(l=2, r=1, u=(0,), node_order=FLOTW)]
        for p in grids:
            for n in range(7):
                for mp in multipartitions(p.r, n):
                    for i in range(p.l):
                        literal = set(normal_nodes_literal(mp, i, p))
                        survivors = {nd for nd, kind in reduced_word(mp, i, p)
                                     if kind == "R"}
                        assert literal == survivors, (p, mp, i)

    def test_separated_parameters_match_component_order(self):
        for l in (2, 3):
            for n in range(6):
                usep = (l * (n + 2), 1)
                assert usep[0] - usep[1] > n - 1
                pf = FockParams(l=l, r=2, u=usep, node_order=FLOTW)
                pa = FockParams(l=l, r=2, u=(0, 1), node_order=ARIKI)
                assert uryu_set(pf, n) == uryu_set(pa, n)

    def test_orders_coincide_for_single_component(self):
        # with r = 1, contents strictly decrease down the rows, so both
        # strategies sort the node word identically
        for l in (2, 3):
            pf = FockParams(l=l, r=1, u=(0,), node_order=FLOTW)
            pa = FockParams(l=l, r=1, u=(0,), node_order=ARIKI)
            for n in range(6):
                assert uryu_set(pf, n) == uryu_set(pa, n)


WORD_PARAMS = [
    P22, A22,
    FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW),
    FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI),
    FockParams(l=4, r=3, u=(0, 1, 3), node_order=FLOTW),
    FockParams(l=3, r=3, u=(0, 0, 2), node_order=ARIKI),
    FockParams(l=6, r=2, u=(0, 3), node_order=FLOTW),
    FockParams(l=5, r=1, u=(2,), node_order=FLOTW),
]


def word_params_id(p):
    return f"l{p.l}-u{''.join(map(str, p.u))}-{p.node_order}"


class TestSignatureOracle:
    @pytest.mark.parametrize("p", WORD_PARAMS, ids=word_params_id)
    def test_words_match_per_residue_construction(self, p):
        for n in range(7):
            for mp in multipartitions(p.r, n):
                for i in range(p.l):
                    assert i_word(mp, i, p) == i_word_oracle(mp, i, p), (mp, i)
                    assert reduced_word(mp, i, p) == reduced_word_oracle(mp, i, p)
                    good = good_node_oracle(mp, i, p)
                    assert good_node(mp, i, p) == good
                    assert etilde(mp, i, p) == (None if good is None else remove_node(mp, good))
                    assert cogood_node(mp, i, p) == cogood_node_oracle(mp, i, p)
                    assert ftilde(mp, i, p) == ftilde_oracle(mp, i, p), (mp, i)

    @pytest.mark.parametrize("p, n", [
        (FockParams(l=4, r=3, u=(0, 1, 3), node_order=FLOTW), 9),
        (FockParams(l=6, r=2, u=(0, 3), node_order=FLOTW), 10),
        (FockParams(l=3, r=3, u=(0, 0, 2), node_order=ARIKI), 7),
        (FockParams(l=3, r=2, u=(-1, 4), node_order=FLOTW), 8),
        (FockParams(l=3, r=2, u=(-1, 4), node_order=ARIKI), 8),
        (FockParams(l=5, r=1, u=(2,), node_order=FLOTW), 10),
        (FockParams(l=3, r=4, u=(0, 0, 1, 2), node_order=ARIKI), 6),
        (FockParams(l=3, r=2, u=(1, 0), node_order=FLOTW), 8),
    ], ids=["l4-n9", "l6-n10", "l3-ariki-n7", "negative-flotw", "negative-ariki",
            "r1", "r4-ariki", "unsorted-flotw"])
    def test_crystal_matches_oracle_closure(self, p, n):
        levels, edges = crystal_oracle(p, n)
        g = crystal(p, n)
        assert g.levels == levels
        assert g.edges == edges

    @pytest.mark.parametrize("p, n", [
        (FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW), 7),
        (FockParams(l=3, r=3, u=(0, 0, 2), node_order=ARIKI), 6),
    ], ids=["l3-flotw", "l3-ariki"])
    def test_dot_matches_oracle_closure(self, p, n):
        assert crystal(p, n).to_dot() == dot_oracle(*crystal_oracle(p, n))

    def test_one_slot_cache_keys_on_params(self):
        pf = FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW)
        others = [FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI),
                  FockParams(l=3, r=2, u=(0, 2), node_order=FLOTW)]
        differ = 0
        for p2 in others:
            for n in range(5):
                for mp in multipartitions(2, n):
                    for i in range(3):
                        first, second = ftilde(mp, i, pf), ftilde(mp, i, p2)
                        assert first == ftilde_oracle(mp, i, pf)
                        assert second == ftilde_oracle(mp, i, p2)
                        differ += first != second
        assert differ > 0

    def test_tables_isolated_between_params(self):
        # one mp object under two parameter sets, and under equal but distinct
        # ones, right after a closure under a third: the rim table and the
        # target slot must both follow the parameters
        crystal(FockParams(l=4, r=2, u=(0, 2), node_order=FLOTW), 6)
        grid = [FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW),
                FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI),
                FockParams(l=3, r=2, u=(0, 2), node_order=FLOTW),
                FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW)]
        assert grid[0] == grid[3] and grid[0] is not grid[3]
        differ = 0
        for n in range(6):
            for mp in multipartitions(2, n):
                for i in range(3):
                    answers = set()
                    for p in grid:
                        up, down = ftilde(mp, i, p), etilde(mp, i, p)
                        good = good_node_oracle(mp, i, p)
                        assert up == ftilde_oracle(mp, i, p), (mp, i, p)
                        assert down == (None if good is None else remove_node(mp, good))
                        answers.add((up, down))
                    differ += len(answers) > 1
        assert differ > 0

    @pytest.mark.parametrize("order", [FLOTW, ARIKI])
    def test_etilde_and_ftilde_share_one_slot(self, order):
        # etilde and ftilde alternate on the very same mp and params objects,
        # so the shared slot must tell the two directions apart
        p = FockParams(l=3, r=2, u=(0, 1), node_order=order)
        moved = 0
        for n in range(7):
            for mp in multipartitions(2, n):
                for i in range(3):
                    down, up = etilde(mp, i, p), ftilde(mp, i, p)
                    good = good_node_oracle(mp, i, p)
                    assert down == (None if good is None else remove_node(mp, good))
                    assert up == ftilde_oracle(mp, i, p), (mp, i)
                    moved += down is not None and up is not None
        assert moved > 0

    def test_ariki_words_past_the_level_cap(self):
        # the ARIKI word is the concatenation of the component rims, with no
        # bound on contents: components far past LEVEL_CAP keep their order
        p = FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI)
        wide = 3 * LEVEL_CAP
        for mp in [((), (wide,)), ((wide,), ()), ((1,) * wide, (wide, 2)),
                   ((wide, wide), (1,) * wide)]:
            for i in range(3):
                assert reduced_word(mp, i, p) == reduced_word_oracle(mp, i, p), (mp, i)
                assert ftilde(mp, i, p) == ftilde_oracle(mp, i, p), (mp, i)

    @pytest.mark.parametrize("p, n", [
        (FockParams(l=4, r=3, u=(0, 1, 3), node_order=FLOTW), 8),
        (FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI), 8),
        (A22, 8),
        (FockParams(l=4, r=3, u=(0, 1, 3), node_order=FLOTW), 0),
        (FockParams(l=6, r=2, u=(0, 3), node_order=FLOTW), 10),
        (FockParams(l=3, r=3, u=(0, 0, 2), node_order=ARIKI), 8),
        (FockParams(l=2, r=1, u=(0,), node_order=FLOTW), 12),
        (FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI), 11),
    ], ids=["l4-flotw", "l3-ariki", "l2-ariki", "n0", "l6-flotw", "l3-r3-ariki",
            "l2-r1-parts-past-ten", "l3-ariki-parts-past-ten"])
    def test_json_rendering_matches_str_sort(self, p, n):
        g = crystal(p, n)
        assert g.to_json() == json_oracle(g)
        if n > 10:
            # a part of 10 or more sorts "[10]" before "[2]": the text order
            # of the vertices is not their tuple order
            texts = {mp_text(mp): mp for level in g.levels for mp in level}
            assert [texts[t] for t in sorted(texts)] != sorted(texts.values())

    def test_rims_hold_only_the_nodes_at_any_l(self):
        # one entry per addable or removable node, whatever l is, and the
        # targets name only the residues that have one
        for l in (2, 3, 10**6):
            for order in (FLOTW, ARIKI):
                p = FockParams(l=l, r=2, u=(0, 1), node_order=order)
                for n in range(5):
                    for mp in multipartitions(2, n):
                        rims = [fock._component_rim(part, c, p) for c, part in enumerate(mp, 1)]
                        assert sum(map(len, rims)) == \
                            len(addable(mp, None, p)) + len(removable(mp, None, p))
                        residues = {entry[0] for rim in rims for entry in rim}
                        for add, oracle in ((True, ftilde_oracle), (False, etilde_oracle)):
                            found = {i: oracle(mp, i, p) for i in residues}
                            assert fock._targets(mp, p, add) == \
                                {i: t for i, t in found.items() if t is not None}, (mp, add)


class TestCrystalOperators:
    def test_ftilde_from_empty(self):
        assert ftilde(empty_mp(2), 1, P22) == ((), (1,))
        assert ftilde(empty_mp(2), 0, P22) == ((1,), ())

    def test_good_node_none_on_empty(self):
        for i in (0, 1):
            assert good_node(empty_mp(2), i, P22) is None
            assert etilde(empty_mp(2), i, P22) is None

    def test_roundtrip_on_small_crystal(self):
        for p in (P22, A22):
            g = crystal(p, 4)
            for level in g.levels:
                for mp in level:
                    for i in range(p.l):
                        up = ftilde(mp, i, p)
                        if up is not None:
                            assert etilde(up, i, p) == mp
                        down = etilde(mp, i, p)
                        if down is not None:
                            assert ftilde(down, i, p) == mp

    def test_kleshchev_member(self):
        assert kleshchev_member(((2, 1), ()), A22)
        assert not kleshchev_member(((), (3,)), A22)
        assert kleshchev_member(((3,), ()), A22)

    @staticmethod
    def assert_kleshchev_is_the_ariki_crystal(l, u, n_max):
        r = len(u)
        p = FockParams(l=l, r=r, u=u, node_order=FLOTW)
        pa = FockParams(l=l, r=r, u=tuple(x % l for x in u), node_order=ARIKI)
        for n in range(n_max + 1):
            level = uryu_set(pa, n)
            for mp in multipartitions(r, n):
                got = kleshchev_member(mp, p)
                assert got == (mp in level), (u, mp)
                assert got == kleshchev_member_oracle(mp, p), (u, mp)

    def test_kleshchev_member_is_the_ariki_crystal(self):
        for u in ((0, 1), (1, 4)):
            self.assert_kleshchev_is_the_ariki_crystal(3, u, 5)

    @pytest.mark.parametrize("l, u", [(2, (0, 1, 1)), (2, (1, 0, 3)), (4, (0, 1, 3)),
                                      (4, (2, 5, 0))])
    def test_kleshchev_member_is_the_ariki_crystal_at_level_three(self, l, u):
        self.assert_kleshchev_is_the_ariki_crystal(l, u, 6)

    @pytest.mark.parametrize("mp", [((1100,), ()), ((), (1100,)), ((550,), (550,))])
    def test_kleshchev_member_past_the_recursion_limit(self, mp):
        # a chain of 1,100 removals: the recursive oracle needs a raised limit
        p = FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI)
        limit = sys.getrecursionlimit()
        assert limit < 2 * mp_size(mp)
        got = kleshchev_member(mp, p)
        sys.setrecursionlimit(4 * mp_size(mp) + 100)
        try:
            expected = kleshchev_member_oracle(mp, p)
        finally:
            sys.setrecursionlimit(limit)
        assert got == expected


class TestQuantumAction:
    def test_f0_on_empty(self):
        got = quantum_F(0, unit_vector(empty_mp(2)), P22)
        assert got == {((1,), ()): LaurentPoly.one()}

    def test_e_kills_empty(self):
        for i in (0, 1):
            assert quantum_E(i, unit_vector(empty_mp(2)), P22) == {}

    def test_k_eigenvalue_matches_ncount(self):
        for p in WORD_PARAMS:
            for n in range(7):
                for mp in multipartitions(p.r, n):
                    for i in range(p.l):
                        for power in (1, -1):
                            got = quantum_K(i, unit_vector(mp), p, power)
                            assert got == {mp: vpow(power * ncount(mp, i, p))}, (p, mp, i)

    def test_d_scales_by_zero_node_count(self):
        mp = ((3,), (1,))
        got = quantum_D(unit_vector(mp), P22)
        assert got == {mp: vpow(-icount(mp, 0, P22))}

    @pytest.mark.parametrize("lru", [(2, 1, (0,)), (3, 1, (0,)),
                                     (2, 2, (0, 1)), (3, 2, (0, 1))])
    @pytest.mark.parametrize("order", [FLOTW, ARIKI])
    def test_commutator_identity(self, lru, order):
        l, r, u = lru
        p = FockParams(l=l, r=r, u=u, node_order=order)
        coeff = vpow(1) - vpow(-1)
        for n in range(4):
            for mp in multipartitions(r, n):
                vec = unit_vector(mp)
                for i in range(l):
                    for j in range(l):
                        lhs = vec_sub(quantum_E(i, quantum_F(j, vec, p), p),
                                      quantum_F(j, quantum_E(i, vec, p), p))
                        lhs = vec_scale(lhs, coeff)
                        rhs = {}
                        if i == j:
                            rhs = vec_sub(quantum_K(i, vec, p),
                                          quantum_K(i, vec, p, -1))
                        assert lhs == {k: c for k, c in rhs.items() if c}

    @pytest.mark.parametrize("p", WORD_PARAMS, ids=word_params_id)
    def test_prefix_counts_match_pairwise_oracle(self, p):
        for n in range(6):
            for mp in multipartitions(p.r, n):
                vec = unit_vector(mp)
                for i in range(p.l):
                    assert quantum_E(i, vec, p) == quantum_E_oracle(i, vec, p), (mp, i)
                    assert quantum_F(i, vec, p) == quantum_F_oracle(i, vec, p), (mp, i)

    def test_cartan_pairing(self):
        assert cartan_pairing(0, 0, 2) == 2
        assert cartan_pairing(0, 1, 2) == -2
        assert cartan_pairing(0, 1, 3) == -1
        assert cartan_pairing(0, 2, 4) == 0


class TestClassicalAction:
    def test_matches_quantum_at_one(self):
        p = FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW)
        for n in range(4):
            for mp in multipartitions(2, n):
                vec = unit_vector(mp)
                for i in range(3):
                    qf = {k: c.at_one() for k, c in quantum_F(i, vec, p).items()}
                    cf = {k: c.at_one() for k, c in classical_f(i, vec, p).items()}
                    assert qf == cf
                    qe = {k: c.at_one() for k, c in quantum_E(i, vec, p).items()}
                    ce = {k: c.at_one() for k, c in classical_e(i, vec, p).items()}
                    assert qe == ce

    def test_h_and_d_eigenvalues(self):
        vec = unit_vector(empty_mp(2))
        got = classical_h(0, vec, P22)
        assert got == {empty_mp(2): LaurentPoly.one()}  # one addable 0-node
        assert classical_d(vec, P22) == {}              # no 0-nodes yet

    def test_branching_sums(self):
        p = FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW)
        for n in range(4):
            for mp in multipartitions(2, n):
                vec = unit_vector(mp)
                acc = {}
                for i in range(3):
                    add_into(acc, classical_f(i, vec, p))
                assert ind(vec, p) == acc
                acc = {}
                for i in range(3):
                    add_into(acc, classical_e(i, vec, p))
                assert res(vec, p) == acc

    def test_classical_serre_l3(self):
        p = FockParams(l=3, r=2, u=(0, 1), node_order=FLOTW)
        two = LaurentPoly.const(2)
        for n in range(4):
            for mp in multipartitions(2, n):
                vec = unit_vector(mp)
                for i in range(3):
                    for j in range(3):
                        if i == j or (i - j) % 3 not in (1, 2):
                            continue
                        def e(k, v):
                            return classical_e(k, v, p)
                        acc = e(i, e(i, e(j, vec)))
                        acc = vec_sub(acc, vec_scale(e(i, e(j, e(i, vec))), two))
                        acc = vec_sub(acc, vec_scale(e(j, e(i, e(i, vec))), LaurentPoly.const(-1)))
                        assert acc == {}, (mp, i, j)
