"""The level-r Fock space for affine sl_l and its crystal combinatorics.

Multipartitions carry l-residues on their diagram nodes, and the addable
and removable nodes of each residue are read in a configurable total order
on nodes.  Two orders are first class citizens:

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

from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import accumulate, islice

from .schur import Partition, _capped_partitions, check_partition

Multipartition = tuple[Partition, ...]

FLOTW = "flotw"
ARIKI = "ariki"


class ParamsOutOfRange(ValueError):
    """FLOTW membership needs 0 <= u_1 <= ... <= u_r <= l-1."""


class LevelCapExceeded(ValueError):
    """Crystal expansion beyond LEVEL_CAP levels or VERTEX_CAP vertices."""


#: Largest level bound n for `crystal` and `uryu_set`.
LEVEL_CAP = 30
#: Largest vertex count of a `crystal` over all its levels.  The crystal
#: grows with l: at l = 1000, r = 2 the CLI job takes about 1.0 s and 51 MB
#: at n = 22 (84,012 vertices) and, with the cap lifted, 2.4 s and 82 MB at
#: n = 24 (162,385), as a fresh process writing JSON.
VERTEX_CAP = 100_000


class FockParams(namedtuple("FockParams", "l r u node_order")):
    __slots__ = ()

    def __new__(cls, l: int, r: int, u: tuple[int, ...], node_order: str = FLOTW):
        if l < 2:
            raise ValueError("l must be at least 2")
        if r < 1:
            raise ValueError("r must be at least 1")
        if len(u) != r:
            raise ValueError("u must have one entry per component")
        if node_order not in (FLOTW, ARIKI):
            raise ValueError(f"unknown node order {node_order!r}")
        return tuple.__new__(cls, (l, r, u, node_order))

    def flotw_ok(self) -> bool:
        u = self.u
        return all(0 <= u[i] for i in range(self.r)) and \
            all(u[i] <= u[i + 1] for i in range(self.r - 1)) and u[-1] <= self.l - 1


def check_multipartition(mp, r: int) -> Multipartition:
    mp = tuple(check_partition(c) for c in mp)
    if len(mp) != r:
        raise ValueError(f"expected {r} components, got {len(mp)}")
    return mp


def empty_mp(r: int) -> Multipartition:
    return ((),) * r


def mp_text(mp: Multipartition) -> str:
    return "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in mp) + "]"


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


def etilde(mp: Multipartition, i: int, params: FockParams) -> Multipartition | None:
    """mp minus its good i-node."""
    return _slot_targets(mp, params, False).get(i)


def ftilde(mp: Multipartition, i: int, params: FockParams) -> Multipartition | None:
    """mp plus its cogood i-node; the calls on one vertex in `crystal` read
    one `_targets` table."""
    return _slot_targets(mp, params, True).get(i)


# ---------------------------------------------------------------------------
# the crystal graph and its vertex sets
# ---------------------------------------------------------------------------

#: Texts (edges, vertex lines or levels) per `write` call of the crystal writers.
_CHUNK = 4096


def _write_joined(write: Callable[[str], object], texts: Iterator[str], sep: str) -> None:
    """Write sep.join(texts), `_CHUNK` texts at a time."""
    lead = ""
    while chunk := list(islice(texts, _CHUNK)):
        write(lead + sep.join(chunk))
        lead = sep


class CrystalGraph:
    """Levels 0..n of a crystal, each sorted, and the arrows out of every vertex.

    The arrows out of level k sit in flat per-level containers, source by
    source in level order and each source's arrows in increasing colour:
    those of levels[k][p] are the entries ends[k][p] to ends[k][p+1] - 1 of
    targets[k], the target's position in levels[k+1], and of colours[k],
    the colour i with f~_i levels[k][p] = levels[k+1][q].  Positions are
    below VERTEX_CAP, so they and the bounds are machine ints; a colour can
    be as large as l - 1, so colours[k] is a list.  The last level has no
    arrows.  Two graphs are equal when their params, levels and arrows are.
    """

    def __init__(self, params: FockParams):
        self.params = params
        self.levels: list[list[Multipartition]] = []
        self.ends: list[array] = []
        self.targets: list[array] = []
        self.colours: list[list[int]] = []

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    __hash__ = None

    @property
    def edges(self) -> set[tuple[Multipartition, Multipartition, int]]:
        """The arrows as (source, target, i) triples."""
        return set(self._arrows_over(self.levels))

    def _arrows_over(self, rows: list[list]) -> Iterator[tuple]:
        """(rows[k][p], rows[k+1][q], i) for every arrow, level by level,
        source by source and by colour; rows holds one entry per vertex,
        laid out like `levels`."""
        for src, dst, ends, targets, colours in zip(rows, rows[1:], self.ends,
                                                     self.targets, self.colours):
            for p, a in enumerate(src):
                for j in range(ends[p], ends[p + 1]):
                    yield a, dst[targets[j]], colours[j]

    def write_json(self, write: Callable[[str], object]) -> None:
        """Write the text of `json.dumps({"levels": ..., "edges": ...},
        sort_keys=True)` with edges sorted by their text, in pieces.

        Each vertex is rendered once, joined from one rendering per distinct
        partition: for int lists `str` and `json.dumps` agree.  A vertex
        text is a complete bracketed list, so none is a proper prefix of
        another, and the text order of "[a, b, i]" is the order of (text a,
        text b); b fixes i.  So the sources are visited in text order, each
        source's few arrows are sorted by their target texts, and the edge
        texts are rendered `_CHUNK` at a time: no list grows with the edges.
        """
        parts = {part for level in self.levels for mp in level for part in mp}
        rendered = {part: str(list(part)) for part in parts}
        texts = ["[" + ", ".join([rendered[part] for part in mp]) + "]"
                 for level in self.levels for mp in level]
        starts = list(accumulate(map(len, self.levels), initial=0))
        order = array("i", sorted(range(len(texts)), key=texts.__getitem__))
        arrowed = starts[len(self.ends)]

        def edge_texts() -> Iterator[str]:
            for v in order:
                if v >= arrowed:
                    continue
                k = bisect_right(starts, v) - 1
                p, base = v - starts[k], starts[k + 1]
                ends, targets, colours = self.ends[k], self.targets[k], self.colours[k]
                a = texts[v]
                for b, i in sorted([(texts[base + targets[j]], colours[j])
                                    for j in range(ends[p], ends[p + 1])]):
                    yield f"[{a}, {b}, {i}]"

        write('{"edges": [')
        _write_joined(write, edge_texts(), ", ")
        write('], "levels": [')
        _write_joined(write, ("[" + ", ".join(texts[lo:hi]) + "]"
                              for lo, hi in zip(starts, starts[1:])), ", ")
        write("]}")

    def write_dot(self, write: Callable[[str], object]) -> None:
        """Write the DOT text of the graph in pieces: the vertices and then
        the arrows by level, source and colour; levels are sorted."""
        texts = [[f'"{mp_text(mp)}"' for mp in level] for level in self.levels]
        write("digraph crystal {\n  rankdir=BT;\n")
        _write_joined(write, (f"  {text};\n" for level in texts for text in level), "")
        _write_joined(write, (f'  {a} -> {b} [label="{i}"];\n'
                              for a, b, i in self._arrows_over(texts)), "")
        write("}\n")


def _check_level(n: int) -> None:
    if n > LEVEL_CAP:
        raise LevelCapExceeded(f"level bound {n} exceeds cap {LEVEL_CAP}")
    if n < 0:
        raise ValueError(f"level bound {n} is negative")


def crystal(params: FockParams, n: int) -> CrystalGraph:
    """Breadth-first closure of the empty multipartition under cogood addition.

    Each vertex fills the `ftilde` slot once, with one `_targets` pass over
    its cached rims, and `ftilde` is called only at the residues found
    there, so nothing here loops over the l residues.  As soon as the
    finished levels and the targets met so far hold more than VERTEX_CAP
    vertices, LevelCapExceeded is raised.
    """
    _check_level(n)
    graph = CrystalGraph(params)
    current = [empty_mp(params.r)]
    graph.levels.append(current)
    total = 1
    for _ in range(n):
        # targets are numbered as first met, then renumbered by sorted position
        met: dict[Multipartition, int] = {}
        ends, firsts, colours = array("q", [0]), array("i"), []
        room = VERTEX_CAP - total
        for mp in current:
            out = _slot_targets(mp, params, True)
            for i in out:
                firsts.append(met.setdefault(ftilde(mp, i, params), len(met)))
                if len(met) > room:
                    raise LevelCapExceeded(f"crystal exceeds the cap of {VERTEX_CAP} vertices "
                                           f"by level {len(graph.levels)} of {n}")
            colours += out
            ends.append(len(colours))
        current = sorted(met)
        total += len(current)
        pos = [0] * len(current)
        for q, mp in enumerate(current):
            pos[met[mp]] = q
        graph.ends.append(ends)
        graph.targets.append(array("i", map(pos.__getitem__, firsts)))
        graph.colours.append(colours)
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
