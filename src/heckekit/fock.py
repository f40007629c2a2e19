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
from .schur import Partition, check_partition, partitions

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


def multipartitions(r: int, n: int) -> Iterator[Multipartition]:
    if r == 1:
        for nu in partitions(n):
            yield (nu,)
        return
    for k in range(n, -1, -1):
        for nu in partitions(k):
            for rest in multipartitions(r - 1, n - k):
                yield (nu,) + rest


def mp_text(mp: Multipartition) -> str:
    return "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in mp) + "]"


# ---------------------------------------------------------------------------
# quantum operators
# ---------------------------------------------------------------------------

def _remove_box(mp: Multipartition, a: int, b: int, c: int) -> Multipartition:
    """mp without its removable node (row a, column b) of component c."""
    part = mp[c - 1]
    return mp[:c - 1] + (part[:a - 1] + ((b - 1,) if b > 1 else ()) + part[a:],) + mp[c:]


def unit_vector(mp: Multipartition) -> FockVector:
    return {mp: LaurentPoly.one()}


def quantum_E(i: int, vec: FockVector, params: FockParams) -> FockVector:
    """Sum over removals of an i-node gamma, weighted by v^-N_i^a.

    N_i^a counts addable i-nodes of the smaller diagram above gamma minus
    removable i-nodes of the larger diagram above gamma.  Removing gamma
    turns it addable and changes only the (i+-1)-nodes, so N_i^a is #A - #R
    strictly above gamma in the larger diagram's own i-word.
    """
    out: FockVector = {}
    for mp, coeff in vec.items():
        terms = {}
        na = 0
        for _, kind, a, b, c in _words(mp, params)[i][0]:
            if kind == "R":
                terms[_remove_box(mp, a, b, c)] = vpow(-na)
                na -= 1
            else:
                na += 1
        add_into(out, terms, coeff)
    return out


def quantum_F(i: int, vec: FockVector, params: FockParams) -> FockVector:
    """Sum over additions of an i-node gamma, weighted by v^N_i^b.

    N_i^b counts addable i-nodes of the smaller diagram below gamma minus
    removable i-nodes of the larger diagram below gamma.  Adding gamma turns
    it removable and changes only the (i+-1)-nodes, so N_i^b is #A - #R
    strictly below gamma in the smaller diagram's own i-word.
    """
    out: FockVector = {}
    for mp, coeff in vec.items():
        terms = {}
        nb = 0
        for _, kind, a, b, c in reversed(_words(mp, params)[i][0]):
            if kind == "A":
                part = mp[c - 1]
                terms[mp[:c - 1] + (part[:a - 1] + (b,) + part[a:],) + mp[c:]] = vpow(nb)
                nb += 1
            else:
                nb -= 1
        add_into(out, terms, coeff)
    return out


def quantum_K(i: int, vec: FockVector, params: FockParams, power: int = 1) -> FockVector:
    """Scale mp by v^(power N_i), N_i = #A - #R in mp's i-word."""
    out: FockVector = {}
    for mp, coeff in vec.items():
        n = sum(1 if kind == "A" else -1 for _, kind, *_ in _words(mp, params)[i][0])
        add_into(out, {mp: coeff * vpow(power * n)})
    return out


# ---------------------------------------------------------------------------
# signature cancellation and crystal operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _words(mp: Multipartition, params: FockParams) -> tuple[tuple[list, list], ...]:
    """The i-word and the reduced i-word of every residue i, from one walk over the rims.

    Row a of a component has an addable node at its end exactly when row a-1
    is longer, and then row a-1 ends in a removable node.  Each node goes
    into the bucket of its residue as an entry (key, 'A'|'R', row, col,
    comp), where key is (content, -comp) in the FLOTW order and (-comp, -row)
    in the ARIKI order, content = col - row + u_comp; at equal keys 'A' sorts
    before 'R'.  Each bucket is sorted, highest first, and a removable node
    directly above an addable one cancels with it.  Entry i of the result is the pair
    (i-word, reduced i-word); callers must not mutate them.  The single slot
    serves the l back-to-back calls for one multipartition in `crystal`.
    """
    l, flotw = params.l, params.node_order == FLOTW
    buckets: list[list] = [[] for _ in range(l)]
    for c, (part, u) in enumerate(zip(mp, params.u), start=1):
        prev = None
        for a, cur in enumerate(part + (0,), start=1):
            if cur == prev:
                continue
            cont = cur + 1 - a + u
            buckets[cont % l].append(
                ((cont, -c) if flotw else (-c, -a), "A", a, cur + 1, c))
            if prev is not None:
                cont = prev + 1 - a + u
                buckets[cont % l].append(
                    ((cont, -c) if flotw else (-c, 1 - a), "R", a - 1, prev, c))
            prev = cur
    out = []
    for bucket in buckets:
        bucket.sort()
        stack: list[tuple] = []
        for entry in bucket:
            if entry[1] == "A" and stack and stack[-1][1] == "R":
                stack.pop()  # a removable directly above an addable cancels
            else:
                stack.append(entry)
        out.append((bucket, stack))
    return tuple(out)


def etilde(mp: Multipartition, i: int, params: FockParams) -> Optional[Multipartition]:
    """mp minus its good i-node, read straight off the reduced i-word."""
    for _, kind, a, b, c in _words(mp, params)[i][1]:
        if kind == "R":
            return _remove_box(mp, a, b, c)
    return None


def ftilde(mp: Multipartition, i: int, params: FockParams) -> Optional[Multipartition]:
    """mp plus its cogood i-node, read straight off the reduced i-word."""
    for _, kind, a, b, c in reversed(_words(mp, params)[i][1]):
        if kind == "A":
            part = mp[c - 1]
            return mp[:c - 1] + (part[:a - 1] + (b,) + part[a:],) + mp[c:]
    return None


# ---------------------------------------------------------------------------
# the crystal graph and its vertex sets
# ---------------------------------------------------------------------------

@dataclass
class CrystalGraph:
    params: FockParams
    levels: list[list[Multipartition]] = field(default_factory=list)
    edges: set[tuple[Multipartition, Multipartition, int]] = field(default_factory=set)

    @property
    def vertices(self) -> set[Multipartition]:
        return {mp for level in self.levels for mp in level}

    def to_json(self) -> str:
        """The text of `json.dumps({"levels": ..., "edges": ...}, sort_keys=True)`
        with edges sorted by their text, built from one rendering per vertex:
        for int lists `str` and `json.dumps` agree."""
        text = {mp: str(list(map(list, mp))) for level in self.levels for mp in level}
        edges = sorted(f"[{text[a]}, {text[b]}, {i}]" for a, b, i in self.edges)
        levels = ("[" + ", ".join(map(text.__getitem__, level)) + "]"
                  for level in self.levels)
        return '{"edges": [' + ", ".join(edges) + '], "levels": [' + ", ".join(levels) + "]}"

    def to_dot(self) -> str:
        lines = ["digraph crystal {", "  rankdir=BT;"]
        for level in self.levels:
            for mp in sorted(level):
                lines.append(f'  "{mp_text(mp)}";')
        for a, b, i in sorted(self.edges, key=lambda e: (mp_size(e[0]), e[0], e[2])):
            lines.append(f'  "{mp_text(a)}" -> "{mp_text(b)}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def crystal(params: FockParams, n: int) -> CrystalGraph:
    """Breadth-first closure of the empty multipartition under cogood addition."""
    if n > LEVEL_CAP:
        raise LevelCapExceeded(f"level bound {n} exceeds cap {LEVEL_CAP}")
    graph = CrystalGraph(params)
    current = [empty_mp(params.r)]
    graph.levels.append(current)
    for _ in range(n):
        nxt: set[Multipartition] = set()
        for mp in current:
            for i in range(params.l):
                target = ftilde(mp, i, params)
                if target is not None:
                    graph.edges.add((mp, target, i))
                    nxt.add(target)
        current = sorted(nxt)
        graph.levels.append(current)
    return graph


def uryu_set(params: FockParams, n: int) -> set[Multipartition]:
    """Level-n vertex set of the connected component of the empty multipartition."""
    return set(crystal(params, n).levels[n])


def flotw_member(mp: Multipartition, params: FockParams) -> bool:
    """Non-recursive membership test for the crystal component vertex set.

    Condition (a): cyclic domination between consecutive components shifted
    by the parameter gaps, oriented so that each component bounds the next
    one (the orientation is forced by the node order's tie-breaking, which
    sends growth into earlier components; the recursive construction agrees
    exhaustively).  Condition (b): for every row length, the residues at the
    right ends of rows of that length miss at least one value.
    """
    if not params.flotw_ok():
        raise ParamsOutOfRange(f"u = {params.u} not sorted inside [0, {params.l - 1}]")
    mp = check_multipartition(mp, params.r)
    r, l, u = params.r, params.l, params.u

    def part(c: int, idx: int) -> int:
        comp = mp[c]
        return comp[idx - 1] if 1 <= idx <= len(comp) else 0

    for j in range(r - 1):
        shift = u[j + 1] - u[j]
        for i in range(1, len(mp[j]) + len(mp[j + 1]) + 1):
            if part(j, i) < part(j + 1, i + shift):
                return False
    shift = l + u[0] - u[r - 1]
    for i in range(1, len(mp[0]) + len(mp[r - 1]) + 1):
        if part(r - 1, i) < part(0, i + shift):
            return False

    by_length: dict[int, set[int]] = {}
    for comp, uc in zip(mp, u):
        for a, length in enumerate(comp, start=1):
            by_length.setdefault(length, set()).add((length - a + uc) % l)
    return all(len(resset) < l for resset in by_length.values())


def kleshchev_member(mp: Multipartition, params: FockParams) -> bool:
    """Membership in the component-order crystal at the residue classes of u.

    mp is a member when some chain of good-node removals reaches the empty
    multipartition; the memo of visited multipartitions lives for one call.
    """
    mp = check_multipartition(mp, params.r)
    params = FockParams(l=params.l, r=params.r, u=tuple(x % params.l for x in params.u),
                        node_order=ARIKI)
    memo: dict[Multipartition, bool] = {}

    def member(mp: Multipartition) -> bool:
        if mp not in memo:
            # all l good nodes before any recursion: one scan of mp's rim
            below = [etilde(mp, i, params) for i in range(params.l)]
            memo[mp] = mp_size(mp) == 0 or any(
                smaller is not None and member(smaller) for smaller in below)
        return memo[mp]

    return member(mp)
