"""The level-r Fock space for affine sl_l and its crystal combinatorics.

Multipartitions carry l-residues on their diagram nodes; the quantum
operators E_i, F_i, K_i act on formal Laurent-coefficient combinations
with exponents counted against a configurable total order on nodes.  Two
orders are first class citizens:

* "flotw": by content b - a + u_c, ties broken towards the larger component;
* "ariki": by component (larger first), then by row (larger first),
  independent of the parameters u.

Good/cogood nodes come from the usual signature cancellation on the ordered
addable/removable word, and the crystal graph is the closure of the empty
multipartition under the cogood addition operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from .laurent import LaurentPoly, add_into, vpow
from .schur import Partition, _capped_partitions, check_partition, multipartitions

Multipartition = tuple[Partition, ...]
FockVector = dict[Multipartition, LaurentPoly]

FLOTW = "flotw"
ARIKI = "ariki"


class ParamsOutOfRange(ValueError):
    """FLOTW membership needs 0 <= u_1 <= ... <= u_r <= l-1."""


class LevelCapExceeded(ValueError):
    """Crystal expansion beyond LEVEL_CAP."""


#: Largest level bound n for `crystal` and `uryu_set`.
LEVEL_CAP = 30


@dataclass(frozen=True)
class FockParams:
    l: int
    r: int
    u: tuple[int, ...]
    node_order: str = FLOTW

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("l must be at least 2")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if len(self.u) != self.r:
            raise ValueError("u must have one entry per component")
        if self.node_order not in (FLOTW, ARIKI):
            raise ValueError(f"unknown node order {self.node_order!r}")

    def flotw_ok(self) -> bool:
        u = self.u
        return all(0 <= u[i] for i in range(self.r)) and \
            all(u[i] <= u[i + 1] for i in range(self.r - 1)) and u[-1] <= self.l - 1


def check_multipartition(mp, r: Optional[int] = None) -> Multipartition:
    mp = tuple(check_partition(c) for c in mp)
    if r is not None and len(mp) != r:
        raise ValueError(f"expected {r} components, got {len(mp)}")
    return mp


def empty_mp(r: int) -> Multipartition:
    return ((),) * r


def mp_size(mp: Multipartition) -> int:
    return sum(sum(c) for c in mp)


def mp_text(mp: Multipartition) -> str:
    return "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in mp) + "]"


# ---------------------------------------------------------------------------
# quantum operators
# ---------------------------------------------------------------------------

def unit_vector(mp: Multipartition) -> FockVector:
    return {mp: LaurentPoly.one()}


def quantum_E(i: int, vec: FockVector, params: FockParams) -> FockVector:
    """Sum over removals of an i-node gamma, weighted by v^-N_i^a.

    N_i^a counts addable i-nodes of the smaller diagram above gamma minus
    removable i-nodes of the larger diagram above gamma.  Removing gamma
    turns it addable and changes only the (i+-1)-nodes, so N_i^a is #A - #R
    strictly above gamma in the larger diagram's own i-word.
    """
    return _quantum(i, vec, params, False)


def quantum_F(i: int, vec: FockVector, params: FockParams) -> FockVector:
    """Sum over additions of an i-node gamma, weighted by v^N_i^b.

    N_i^b counts addable i-nodes of the smaller diagram below gamma minus
    removable i-nodes of the larger diagram below gamma.  Adding gamma turns
    it removable and changes only the (i+-1)-nodes, so N_i^b is #A - #R
    strictly below gamma in the smaller diagram's own i-word.
    """
    return _quantum(i, vec, params, True)


def _quantum(i: int, vec: FockVector, params: FockParams, add: bool) -> FockVector:
    """F_i vec (add) or E_i vec (not add): the i-word of each multipartition
    scanned upwards for F and downwards for E, with #A - #R counted over the
    nodes passed; each addable (F) or removable (E) node is weighted by v to
    the count, negated for E."""
    kind, sign = ("A", 1) if add else ("R", -1)
    out: FockVector = {}
    for mp, coeff in vec.items():
        terms = {}
        count = 0
        word = _iword(mp, i, params)
        for entry in (reversed(word) if add else word):
            if entry[1] == kind:
                terms[_moved(mp, entry)] = vpow(sign * count)
            count += 1 if entry[1] == "A" else -1
        add_into(out, terms, coeff)
    return out


def quantum_K(i: int, vec: FockVector, params: FockParams, power: int = 1) -> FockVector:
    """Scale mp by v^(power N_i), N_i = #A - #R in mp's i-word."""
    out: FockVector = {}
    for mp, coeff in vec.items():
        n = sum(1 if entry[1] == "A" else -1 for entry in _iword(mp, i, params))
        add_into(out, {mp: coeff * vpow(power * n)})
    return out


# ---------------------------------------------------------------------------
# rims, signature cancellation and crystal operators
# ---------------------------------------------------------------------------

def _component_rim(part: Partition, c: int, params: FockParams) -> tuple[list, ...]:
    """The addable and removable nodes of component c, one list per residue.

    Entry (key, 'A'|'R', row, col, c, moved) has key = content * r + (r - c),
    content = col - row + u_c, and moved is part with the node added for 'A'
    and removed for 'R'.  Contents along one rim are distinct and fall down
    the rows, so walking the rows bottom-up leaves every list sorted by key.
    """
    l, r, u = params.l, params.r, params.u[c - 1]
    rim: tuple[list, ...] = tuple([] for _ in range(l))
    depth = len(part)
    for a in range(depth + 1, 0, -1):
        cur = part[a - 1] if a <= depth else 0
        if a <= depth and (a == depth or part[a] < cur):
            cont = cur - a + u
            rim[cont % l].append((cont * r + r - c, "R", a, cur, c,
                                  part[:a - 1] + ((cur - 1,) if cur > 1 else ()) + part[a:]))
        if a == 1 or part[a - 2] > cur:
            cont = cur + 1 - a + u
            rim[cont % l].append((cont * r + r - c, "A", a, cur + 1, c,
                                  part[:a - 1] + (cur + 1,) + part[a:]))
    return rim


@lru_cache(maxsize=1)
def _rim_table(params: FockParams) -> dict[tuple[Partition, int], tuple[list, ...]]:
    """The rims met so far under params, keyed (partition, component); the
    single slot drops them when the parameters change."""
    return {}


def _rims(mp: Multipartition, params: FockParams) -> list[tuple[list, ...]]:
    """The cached rim of every component, the larger component first."""
    table = _rim_table(params)
    out = []
    for c in range(len(mp), 0, -1):
        rim = table.get((mp[c - 1], c))
        if rim is None:
            rim = table[mp[c - 1], c] = _component_rim(mp[c - 1], c, params)
        out.append(rim)
    return out


def _word(rims: list[tuple[list, ...]], i: int, flotw: bool) -> list:
    """The i-word, highest node first: the components' i-lists concatenated,
    and sorted by key in the FLOTW order.  The ARIKI order puts the larger
    component first and, inside a component, the larger row first, which is
    the concatenation as it stands."""
    word = [entry for rim in rims for entry in rim[i]]
    if flotw:
        word.sort()
    return word


def _iword(mp: Multipartition, i: int, params: FockParams) -> list:
    """The i-word of mp, highest node first (see `_component_rim` for the entries)."""
    return _word(_rims(mp, params), i, params.node_order == FLOTW)


def _moved(mp: Multipartition, entry: tuple) -> Multipartition:
    """mp with the node of a word entry added ('A') or removed ('R')."""
    c = entry[4]
    return mp[:c - 1] + (entry[5],) + mp[c:]


def _targets(mp: Multipartition, params: FockParams, add: bool) -> list:
    """f~_i mp (add) or e~_i mp (not add) for every residue i, None where mp
    has no cogood or good i-node.

    Signature cancellation pairs each removable node with the nearest free
    addable node below it.  Scanned downwards, an addable node survives when
    no removable node above it is still waiting for one, so a count of those
    stands in for a stack, and the cogood node is the last survivor.  Scanned
    upwards with the kinds swapped, the good node is the last surviving
    removable node.
    """
    rims, flotw = _rims(mp, params), params.node_order == FLOTW
    blocker = "R" if add else "A"
    out = []
    for i in range(params.l):
        word = _word(rims, i, flotw)
        waiting, node = 0, None
        for entry in (word if add else reversed(word)):
            if entry[1] == blocker:
                waiting += 1
            elif waiting:
                waiting -= 1
            else:
                node = entry
        out.append(None if node is None else _moved(mp, node))
    return out


#: mp, params, add and `_targets(mp, params, add)` of the last `etilde` or
#: `ftilde` call.
_slot: list = [None, None, None, None]


def _target(mp: Multipartition, i: int, params: FockParams, add: bool) -> Optional[Multipartition]:
    """Entry i of `_targets(mp, params, add)`, kept in a single slot for the l
    back-to-back calls on one vertex.  The slot is checked by identity, which
    is cheaper than hashing mp and params; an equal but distinct mp or params
    only computes the targets again."""
    slot = _slot
    if slot[0] is not mp or slot[1] is not params or slot[2] is not add:
        slot[:] = mp, params, add, _targets(mp, params, add)
    return slot[3][i]


def etilde(mp: Multipartition, i: int, params: FockParams) -> Optional[Multipartition]:
    """mp minus its good i-node."""
    return _target(mp, i, params, False)


def ftilde(mp: Multipartition, i: int, params: FockParams) -> Optional[Multipartition]:
    """mp plus its cogood i-node; the l calls on one vertex in `crystal` read
    one `_targets` list."""
    return _target(mp, i, params, True)


# ---------------------------------------------------------------------------
# the crystal graph and its vertex sets
# ---------------------------------------------------------------------------

@dataclass
class CrystalGraph:
    """Levels 0..n of a crystal, each sorted, and the arrows out of every vertex.

    arrows[k][p] lists the pairs (q, i) with f~_i levels[k][p] = levels[k+1][q],
    in increasing i; the last level has no arrow lists.
    """
    params: FockParams
    levels: list[list[Multipartition]] = field(default_factory=list)
    arrows: list[list[list[tuple[int, int]]]] = field(default_factory=list)

    @property
    def vertices(self) -> set[Multipartition]:
        return {mp for level in self.levels for mp in level}

    @property
    def edges(self) -> set[tuple[Multipartition, Multipartition, int]]:
        """The arrows as (source, target, i) triples."""
        return set(self._arrows_over(self.levels))

    def _arrows_over(self, rows: list[list]) -> Iterator[tuple]:
        """(rows[k][p], rows[k+1][q], i) for every arrow, in the order of `arrows`;
        rows holds one entry per vertex, laid out like `levels`."""
        for src, dst, outs in zip(rows, rows[1:], self.arrows):
            for p, out in enumerate(outs):
                for q, i in out:
                    yield src[p], dst[q], i

    def to_json(self) -> str:
        """The text of `json.dumps({"levels": ..., "edges": ...}, sort_keys=True)`
        with edges sorted by their text, built from one rendering per vertex,
        joined from one rendering per distinct partition: for int lists `str`
        and `json.dumps` agree."""
        parts = {part for level in self.levels for mp in level for part in mp}
        rendered = {part: str(list(part)) for part in parts}
        texts = [["[" + ", ".join([rendered[part] for part in mp]) + "]" for mp in level]
                 for level in self.levels]
        edges = sorted(f"[{a}, {b}, {i}]" for a, b, i in self._arrows_over(texts))
        levels = ("[" + ", ".join(level) + "]" for level in texts)
        return '{"edges": [' + ", ".join(edges) + '], "levels": [' + ", ".join(levels) + "]}"

    def to_dot(self) -> str:
        """Vertices and then arrows by level, source and colour; levels are sorted."""
        texts = [[f'"{mp_text(mp)}"' for mp in level] for level in self.levels]
        lines = ["digraph crystal {", "  rankdir=BT;"]
        lines += (f"  {text};" for level in texts for text in level)
        lines += (f'  {a} -> {b} [label="{i}"];' for a, b, i in self._arrows_over(texts))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _check_level(n: int) -> None:
    if n > LEVEL_CAP:
        raise LevelCapExceeded(f"level bound {n} exceeds cap {LEVEL_CAP}")
    if n < 0:
        raise ValueError(f"level bound {n} is negative")


def crystal(params: FockParams, n: int) -> CrystalGraph:
    """Breadth-first closure of the empty multipartition under cogood addition.

    `ftilde` is called for every (vertex, i) in turn; the l calls on one
    vertex read the targets of one `_targets` pass over its cached rims.
    """
    _check_level(n)
    graph = CrystalGraph(params)
    current = [empty_mp(params.r)]
    graph.levels.append(current)
    for _ in range(n):
        # targets are numbered as first met, then renumbered by sorted position
        met: dict[Multipartition, int] = {}
        outs = []
        for mp in current:
            out = []
            for i in range(params.l):
                target = ftilde(mp, i, params)
                if target is not None:
                    out.append((met.setdefault(target, len(met)), i))
            outs.append(out)
        current = sorted(met)
        pos = [0] * len(current)
        for q, mp in enumerate(current):
            pos[met[mp]] = q
        graph.arrows.append([[(pos[k], i) for k, i in out] for out in outs])
        graph.levels.append(current)
    return graph


def uryu_set(params: FockParams, n: int) -> set[Multipartition]:
    """Level-n vertex set of the connected component of the empty multipartition.

    For the FLOTW order at normalised charges 0 <= u_1 <= ... <= u_r <= l-1
    the set is enumerated directly as the FLOTW multipartitions of n (see
    `flotw_member`); for the ARIKI order and for FLOTW charges that are not
    normalised it is the last level of `crystal`.
    """
    _check_level(n)
    if params.node_order == FLOTW and params.flotw_ok():
        return _flotw_level(params, n)
    return set(crystal(params, n).levels[n])


def _flotw_level(params: FockParams, n: int) -> set[Multipartition]:
    """The FLOTW multipartitions of n, built one component at a time.

    Component j+1 is drawn from the partitions bounded by component j
    shifted down by u_{j+1} - u_j rows, and the last one also from below by
    the first shifted up by l + u_1 - u_r rows, so every complete candidate
    meets `_flotw_bounds` and only the residue condition is left to check.
    """
    r, l, u = params.r, params.l, params.u
    out: set[Multipartition] = set()

    def extend(prefix: Multipartition, left: int) -> None:
        j = len(prefix)
        if j == r:
            if _flotw_residues(prefix, params):
                out.add(prefix)
            return
        caps = [left] * left if j == 0 else [left] * (u[j] - u[j - 1]) + list(prefix[-1])
        floors = prefix[0][l + u[0] - u[j]:] if 0 < j == r - 1 else ()
        for size in ((left,) if j == r - 1 else range(left + 1)):
            for part in _capped_partitions(size, caps, floors):
                extend(prefix + (part,), left - size)

    extend((), n)
    return out


def _flotw_bounds(mp: Multipartition, params: FockParams) -> bool:
    """(a) Each component bounds the next one shifted by the charge gap,
    lambda^j_i >= lambda^{j+1}_{i + u_{j+1} - u_j}, and cyclically
    lambda^r_i >= lambda^1_{i + l + u_1 - u_r}."""
    r, l, u = params.r, params.l, params.u
    for j in range(r):
        upper, lower = mp[j], mp[(j + 1) % r]
        shift = u[j + 1] - u[j] if j + 1 < r else l + u[0] - u[j]
        for t in range(shift, len(lower)):
            if t - shift >= len(upper) or lower[t] > upper[t - shift]:
                return False
    return True


def _flotw_residues(mp: Multipartition, params: FockParams) -> bool:
    """(b) For every row length, the residues at the right ends of the rows
    of that length miss at least one value."""
    l = params.l
    by_length: dict[int, set[int]] = {}
    for comp, uc in zip(mp, params.u):
        for a, length in enumerate(comp, start=1):
            by_length.setdefault(length, set()).add((length - a + uc) % l)
    return all(len(resset) < l for resset in by_length.values())


def flotw_member(mp: Multipartition, params: FockParams) -> bool:
    """Non-recursive membership test for the crystal component vertex set.

    At normalised charges 0 <= u_1 <= ... <= u_r <= l-1 the vertices of the
    component of the empty multipartition are the FLOTW multipartitions:
    the theorem of Foda, Leclerc, Okado, Thibon and Welsh (Adv. Math. 141,
    1999), as stated for canonical basic sets in Geck-Jacon,
    "Representations of Hecke algebras at roots of unity" (2011).  The
    conditions are `_flotw_bounds` and `_flotw_residues`; their orientation,
    each component bounding the next, matches this node order's tie-breaking
    towards the larger component.
    """
    if not params.flotw_ok():
        raise ParamsOutOfRange(f"u = {params.u} not sorted inside [0, {params.l - 1}]")
    mp = check_multipartition(mp, params.r)
    return _flotw_bounds(mp, params) and _flotw_residues(mp, params)


def kleshchev_member(mp: Multipartition, params: FockParams) -> bool:
    """Membership in the component-order crystal at the residue classes of u.

    Good nodes are removed one at a time, the lowest residue first, until
    none is left; mp is a member when that ends at the empty multipartition.
    One descent decides it: e~_i keeps a vertex in its connected component,
    and the Fock space is an integrable module, so the component of the
    empty multipartition is the highest-weight crystal B(Lambda), whose only
    vertex without a good node is the empty multipartition.
    """
    mp = check_multipartition(mp, params.r)
    params = FockParams(l=params.l, r=params.r, u=tuple(x % params.l for x in params.u),
                        node_order=ARIKI)
    while any(mp):
        mp = next((smaller for smaller in _targets(mp, params, False) if smaller is not None),
                  None)
        if mp is None:
            return False
    return True
