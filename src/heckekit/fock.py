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
multipartition under the cogood addition operator.  Every word is read off
the component rims, which list only the nodes present, so no cost here
grows with l.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterator, Optional

from .laurent import LaurentPoly, add_into, vpow
from .schur import Partition, _capped_partitions, check_partition

Multipartition = tuple[Partition, ...]
FockVector = dict[Multipartition, LaurentPoly]

FLOTW = "flotw"
ARIKI = "ariki"


class ParamsOutOfRange(ValueError):
    """FLOTW membership needs 0 <= u_1 <= ... <= u_r <= l-1."""


class LevelCapExceeded(ValueError):
    """Crystal expansion beyond LEVEL_CAP levels or VERTEX_CAP vertices."""


#: Largest level bound n for `crystal` and `uryu_set`.
LEVEL_CAP = 30
#: Largest vertex count of a `crystal` over all its levels.  The crystal
#: grows with l until every multipartition is a vertex: at l = 1000, r = 2
#: the CLI job takes about 2 s and 80 MB at n = 22 (84,012 vertices) and
#: 3 s and 143 MB at n = 24 (162,385), as a fresh process.
VERTEX_CAP = 100_000


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
                terms[_moved(mp, entry[4], entry[5])] = vpow(sign * count)
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

def _component_rim(part: Partition, c: int, params: FockParams) -> tuple[tuple, ...]:
    """The addable and removable nodes of component c, sorted by (residue, key).

    Entry (residue, key, 'A'|'R', row, col, c, moved) has moved = part with
    the node added for 'A' and removed for 'R'.  The key orders the nodes of
    one residue highest first in the configured node order: content * r +
    (r - c) for FLOTW, content = col - row + u_c, and (-c, -row) for ARIKI,
    the larger component first and then the larger row.  Two nodes of one
    multipartition never share a residue and a key, so the sort never
    compares further fields, and nothing here grows with l.
    """
    l, r, u = params.l, params.r, params.u[c - 1]
    flotw = params.node_order == FLOTW
    rim = []
    depth = len(part)
    for a in range(depth + 1, 0, -1):
        cur = part[a - 1] if a <= depth else 0
        if a <= depth and (a == depth or part[a] < cur):
            cont = cur - a + u
            rim.append((cont % l, cont * r + r - c if flotw else (-c, -a), "R", a, cur, c,
                        part[:a - 1] + ((cur - 1,) if cur > 1 else ()) + part[a:]))
        if a == 1 or part[a - 2] > cur:
            cont = cur + 1 - a + u
            rim.append((cont % l, cont * r + r - c if flotw else (-c, -a), "A", a, cur + 1, c,
                        part[:a - 1] + (cur + 1,) + part[a:]))
    rim.sort()
    return tuple(rim)


@lru_cache(maxsize=1)
def _rim_table(params: FockParams) -> dict[tuple[Partition, int], tuple[tuple, ...]]:
    """The rims met so far under params, keyed (partition, component); the
    single slot drops them when the parameters change."""
    return {}


def _word(mp: Multipartition, params: FockParams) -> list[tuple]:
    """Every rim entry of mp, sorted by (residue, key): the i-words one after
    another, each highest node first.  The component rims are cached."""
    table = _rim_table(params)
    word: list[tuple] = []
    for c, part in enumerate(mp, start=1):
        rim = table.get((part, c))
        if rim is None:
            rim = table[part, c] = _component_rim(part, c, params)
        word += rim
    word.sort()
    return word


def _iword(mp: Multipartition, i: int, params: FockParams) -> list[tuple]:
    """The i-word of mp, highest node first, as entries (key, 'A'|'R', row,
    col, c, moved) (see `_component_rim`)."""
    return [entry[1:] for entry in _word(mp, params) if entry[0] == i]


def _moved(mp: Multipartition, c: int, part: Partition) -> Multipartition:
    """mp with component c replaced by part."""
    return mp[:c - 1] + (part,) + mp[c:]


def _targets(mp: Multipartition, params: FockParams, add: bool) -> dict[int, Multipartition]:
    """{i: f~_i mp} (add) or {i: e~_i mp} (not add) over the residues i at
    which mp has a cogood or good node.

    Signature cancellation pairs each removable node with the nearest free
    addable node below it.  Scanned downwards, an addable node survives when
    no removable node above it is still waiting for one, so a count of those
    stands in for a stack, and the cogood node is the last survivor.  Scanned
    upwards with the kinds swapped, the good node is the last surviving
    removable node.  One scan of the merged word covers every residue: the
    count starts again at each residue's run.  The keys come in increasing
    residue for add and in decreasing residue otherwise.
    """
    word = _word(mp, params)
    if not add:
        word.reverse()
    blocker = "R" if add else "A"
    found = {}
    res, waiting = None, 0
    for entry in word:
        if entry[0] != res:
            res, waiting = entry[0], 0
        if entry[2] == blocker:
            waiting += 1
        elif waiting:
            waiting -= 1
        else:
            found[res] = entry
    return {i: _moved(mp, node[5], node[6]) for i, node in found.items()}


#: mp, params, add and `_targets(mp, params, add)` of the last `etilde` or
#: `ftilde` call.
_slot: list = [None, None, None, None]


def _slot_targets(mp: Multipartition, params: FockParams, add: bool) -> dict[int, Multipartition]:
    """`_targets(mp, params, add)`, kept in a single slot for the back-to-back
    calls on one vertex.  The slot is checked by identity, which is cheaper
    than hashing mp and params; an equal but distinct mp or params only
    computes the targets again."""
    slot = _slot
    if slot[0] is not mp or slot[1] is not params or slot[2] is not add:
        slot[:] = mp, params, add, _targets(mp, params, add)
    return slot[3]


def etilde(mp: Multipartition, i: int, params: FockParams) -> Optional[Multipartition]:
    """mp minus its good i-node."""
    return _slot_targets(mp, params, False).get(i)


def ftilde(mp: Multipartition, i: int, params: FockParams) -> Optional[Multipartition]:
    """mp plus its cogood i-node; the calls on one vertex in `crystal` read
    one `_targets` table."""
    return _slot_targets(mp, params, True).get(i)


# ---------------------------------------------------------------------------
# the crystal graph and its vertex sets
# ---------------------------------------------------------------------------

#: Edge texts per `write` call in `CrystalGraph.write_json`.
_CHUNK = 4096


@dataclass
class CrystalGraph:
    """Levels 0..n of a crystal, each sorted, and the arrows out of every vertex.

    arrows[k][p] is the flat tuple (q0, i0, q1, i1, ...) with f~_i
    levels[k][p] = levels[k+1][q] for each pair, in increasing i; the last
    level has no arrow tuples.
    """
    params: FockParams
    levels: list[list[Multipartition]] = field(default_factory=list)
    arrows: list[list[tuple[int, ...]]] = field(default_factory=list)

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
                pairs = iter(out)
                for q, i in zip(pairs, pairs):
                    yield src[p], dst[q], i

    def write_json(self, write: Callable[[str], object]) -> None:
        """Write the text of `json.dumps({"levels": ..., "edges": ...},
        sort_keys=True)` with edges sorted by their text, in pieces.

        Each vertex is rendered once, joined from one rendering per distinct
        partition: for int lists `str` and `json.dumps` agree.  A vertex
        text is a complete bracketed list, so none is a proper prefix of
        another, and the text order of "[a, b, i]" is the order of (text a,
        text b), which fixes i.  So the arrows are sorted as the ints
        (rank a * V + rank b) * l + i, V vertices ranked by text, and
        rendered `_CHUNK` at a time: no more edge texts are held than that.
        """
        parts = {part for level in self.levels for mp in level for part in mp}
        rendered = {part: str(list(part)) for part in parts}
        texts = ["[" + ", ".join([rendered[part] for part in mp]) + "]"
                 for level in self.levels for mp in level]
        starts = list(accumulate(map(len, self.levels), initial=0))
        order = sorted(range(len(texts)), key=texts.__getitem__)
        rank = [0] * len(texts)
        for k, v in enumerate(order):
            rank[v] = k
        V, l = len(texts), self.params.l
        keys: list[int] = []
        for k, outs in enumerate(self.arrows):
            dst = rank[starts[k + 1]:starts[k + 2]]
            keys += [(top + dst[out[j]]) * l + out[j + 1]
                     for top, out in zip([x * V for x in rank[starts[k]:starts[k + 1]]], outs)
                     for j in range(0, len(out), 2)]
        keys.sort()
        by_rank = [texts[v] for v in order]
        write('{"edges": [')
        Vl = V * l
        for lo in range(0, len(keys), _CHUNK):
            write((", " if lo else "") + ", ".join(
                [f"[{by_rank[key // Vl]}, {by_rank[key // l % V]}, {key % l}]"
                 for key in keys[lo:lo + _CHUNK]]))
        write('], "levels": [')
        write(", ".join("[" + ", ".join(texts[lo:hi]) + "]"
                        for lo, hi in zip(starts, starts[1:])))
        write("]}")

    def to_json(self) -> str:
        """The text that `write_json` writes."""
        pieces: list[str] = []
        self.write_json(pieces.append)
        return "".join(pieces)

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

    Each vertex fills the `ftilde` slot once, with one `_targets` pass over
    its cached rims, and `ftilde` is called only at the residues found
    there, so nothing here loops over the l residues.  Once the finished
    levels hold more than VERTEX_CAP vertices, LevelCapExceeded is raised.
    """
    _check_level(n)
    graph = CrystalGraph(params)
    current = [empty_mp(params.r)]
    graph.levels.append(current)
    total = 1
    for _ in range(n):
        # targets are numbered as first met, then renumbered by sorted position
        met: dict[Multipartition, int] = {}
        outs = []
        for mp in current:
            out = []
            for i in _slot_targets(mp, params, True):
                out.append(met.setdefault(ftilde(mp, i, params), len(met)))
                out.append(i)
            outs.append(out)
        current = sorted(met)
        total += len(current)
        if total > VERTEX_CAP:
            raise LevelCapExceeded(f"crystal exceeds the cap of {VERTEX_CAP} vertices "
                                   f"by level {len(graph.levels)} of {n}")
        pos = [0] * len(current)
        for q, mp in enumerate(current):
            pos[met[mp]] = q
        for out in outs:
            out[::2] = [pos[k] for k in out[::2]]
        graph.arrows.append([tuple(out) for out in outs])
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
        # a partition of at most left boxes has at most left rows
        caps = [left] * left if j == 0 else \
            ([left] * min(left, u[j] - u[j - 1]) + list(prefix[-1]))[:left]
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
        down = _targets(mp, params, False)
        if not down:
            return False
        mp = down[min(down)]
    return True
