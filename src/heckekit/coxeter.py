"""Finite Weyl groups of types A, B, D, G2 and F4.

Each family is one description, `CoxeterType.diagram`: its generator
names, its Cartan bonds and the generators whose standard weight is b.
The Cartan matrix, the weight check and the standard weights are all read
from it.

A group is its elements' canonical reduced words, the table of left
products by generators and the table of inverses.  The elements are
enumerated in one breadth-first pass by left products s*u, identified by
their action on the root lattice: gen_s * M changes one row of the integer
matrix M of u, and a product that lands on an element of the layer below is
a left descent.  The matrices live only inside that pass.  Every element
carries its lexicographically smallest reduced word, read off the pass: the
smallest s reaching w is its first letter.  The enumeration order (by
length, then word) is the canonical index order used everywhere else.
Products and inverses are folds of words through the left table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


class GroupTooLarge(ValueError):
    """The requested group exceeds the enumeration cap."""


#: Largest group order `build` enumerates.
GROUP_CAP = 2000


_FAMILIES = ("A", "B", "D", "G2", "F4")


@dataclass(frozen=True)
class CoxeterType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "A" and self.rank < 1:
            raise ValueError("type A needs rank >= 1")
        if self.family in ("B", "D") and self.rank < 2:
            raise ValueError(f"type {self.family} needs rank >= 2")
        if self.family == "G2" and self.rank != 2:
            raise ValueError("G2 has rank 2")
        if self.family == "F4" and self.rank != 4:
            raise ValueError("F4 has rank 4")

    def order(self) -> int:
        n = self.rank
        if self.family == "A":
            return math.factorial(n + 1)
        if self.family == "B":
            return (2 ** n) * math.factorial(n)
        if self.family == "D":
            return (2 ** (n - 1)) * math.factorial(n)
        if self.family == "G2":
            return 12
        return 1152

    def exceeds(self, cap: int) -> bool:
        """|W| > cap, without forming |W| for a huge rank: |W| >= 2^(rank-1)."""
        return self.rank > cap.bit_length() or self.order() > cap

    def diagram(self) -> tuple[list[str], list[tuple[int, int, int, int]], tuple[int, ...]]:
        """The family's one description: the generator names, the Cartan
        bonds (i, j, A_ij, A_ji) with i < j, and the generators whose
        standard weight is b (none for A and D, which take one weight)."""
        n = self.rank
        chain = [(i, i + 1, -1, -1) for i in range(n - 1)]
        if self.family == "A":
            return [f"s{i}" for i in range(1, n + 1)], chain, ()
        if self.family == "B":
            # generators [t, s1, ..., s_{n-1}], double bond between t and s1
            return ["t"] + [f"s{i}" for i in range(1, n)], [(0, 1, -2, -1)] + chain[1:], (0,)
        if self.family == "D":
            # generators [s0, s1, ..., s_{n-1}]; s0 and s1 both attach to s2.
            # Rank 2 degenerates to A1 x A1 (s0 and s1 commute).
            fork = [(0, 2, -1, -1)] if n >= 3 else []
            return [f"s{i}" for i in range(n)], fork + chain[1:], ()
        if self.family == "G2":
            return ["s", "t"], [(0, 1, -1, -3)], (1,)
        # F4: s1 - s2 = s3 - s4 with the double bond in the middle
        return ["s1", "s2", "s3", "s4"], [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)], (2, 3)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j, aij, aji in self.diagram()[1]:
            A[i][j], A[j][i] = aij, aji
        return tuple(tuple(row) for row in A)

    def validate_weight(self, weights) -> bool:
        """Non-negative, one per generator, and equal on conjugate generators:
        s and t are conjugate iff a path of odd bonds (m = 3, Cartan product
        1) joins them, so equality along each odd bond is enough."""
        vals = weights.values if isinstance(weights, WeightFunction) else tuple(weights)
        if len(vals) != self.rank or any(v < 0 for v in vals):
            return False
        return all(vals[i] == vals[j] for i, j, aij, aji in self.diagram()[1]
                   if aij * aji == 1)

    def __str__(self):
        if self.family in ("G2", "F4"):
            return self.family
        return f"{self.family}{self.rank}"


def _reflect_row(M, s, bond):
    """gen_s * M: only row s changes, to -M[s] plus the bonded rows."""
    row = [-x for x in M[s]]
    for j, c in bond:
        row = [x + c * y for x, y in zip(row, M[j])]
    return M[:s] + (tuple(row),) + M[s + 1:]


class GroupElement:
    """An element of a WeylGroup: its index and canonical reduced word."""

    __slots__ = ("group", "index", "word")

    def __init__(self, group, index, word):
        self.group = group
        self.index = index
        self.word = word

    @property
    def length(self) -> int:
        return len(self.word)

    def name(self) -> str:
        if not self.word:
            return "e"
        return ".".join(self.group.names[s] for s in self.word)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.group.mult(self, other)

    def inverse(self) -> "GroupElement":
        return self.group.elements[self.group.inverse_index(self.index)]

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.group is other.group and self.index == other.index)

    def __hash__(self):
        return hash((id(self.group), self.index))

    def __repr__(self):
        return f"<{self.name()}>"


class WeylGroup:
    """A fully enumerated finite Weyl group."""

    def __init__(self, ctype: CoxeterType):
        order = ctype.order()
        self.ctype = ctype
        self.rank = ctype.rank
        self.names = ctype.diagram()[0]

        n, cartan = self.rank, ctype.cartan_matrix()
        ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
        # Breadth-first by left products s*u.  Within a depth, s runs outside
        # and u in index order inside, so the first s to reach w = s*u is its
        # smallest left descent: (s,) + word(u) is the lexicographically
        # smallest reduced word, and new elements come out in index order.
        # Each pair (s, u) is an ascent here or a descent of the shorter s*u,
        # so both entries of left_table are filled when s*u is reached.
        bonds = [[(j, -cartan[s][j]) for j in range(n) if j != s and cartan[s][j]]
                 for s in range(n)]
        words: list[tuple[int, ...]] = [()]
        mats = [ident]
        by_matrix = {ident: 0}
        #: left_table[s][i] = index of generator s times element i
        self.left_table: list[list[int]] = [[0] * order for _ in range(n)]
        start, stop = 0, 1
        while start < stop:
            for s in range(n):
                table, bond = self.left_table[s], bonds[s]
                for u in range(start, stop):
                    M = _reflect_row(mats[u], s, bond)
                    w = by_matrix.setdefault(M, len(words))
                    if w < start:
                        continue  # left descent: s*u is one layer down and recorded
                    if w == len(words):
                        words.append((s,) + words[u])
                        mats.append(M)
                    table[u] = w
                    table[w] = u
            start, stop = stop, len(words)
        if len(words) != order:
            raise AssertionError(f"enumerated {len(words)} elements, expected {order}")

        self.elements: list[GroupElement] = [
            GroupElement(self, idx, word) for idx, word in enumerate(words)]
        self.identity = self.elements[0]
        self.longest = self.elements[-1]
        self.generators = [self.elements[table[0]] for table in self.left_table]
        # w = s1...sk has inverse sk...s1: s1 first, each next letter on the left
        self._inverses = [self._fold(word, 0) for word in words]

    # -- core operations -------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def _fold(self, letters, i: int) -> int:
        """Index of the product of the letters, last one leftmost, times element i."""
        for s in letters:
            i = self.left_table[s][i]
        return i

    def mult(self, u: GroupElement, v: GroupElement) -> GroupElement:
        return self.elements[self._fold(reversed(u.word), v.index)]

    def inverse_index(self, i: int) -> int:
        return self._inverses[i]


@dataclass(frozen=True)
class WeightFunction:
    """Weights L(s) per generator, additive along reduced words."""

    values: tuple[int, ...]

    def __call__(self, s: int) -> int:
        return self.values[s]

    def positive(self) -> bool:
        return all(v > 0 for v in self.values)


def weight_from_ab(ctype: CoxeterType, *weights: int) -> WeightFunction:
    """Standard weights: L = b on the generators that ctype.diagram() lists
    (t of B, t of G2, s3 and s4 of F4) and L = a on the rest.  The families
    that list none, A and D, take a alone; the others take (a, b).
    """
    b_gens = ctype.diagram()[2]
    arity = 2 if b_gens else 1
    if len(weights) != arity:
        raise ValueError(f"type {ctype.family} takes {arity} weight(s), got {len(weights)}")
    a, b = weights[0], weights[-1]
    return WeightFunction(tuple(b if s in b_gens else a for s in range(ctype.rank)))


@lru_cache(maxsize=None)
def _cached_group(family: str, rank: int) -> WeylGroup:
    return WeylGroup(CoxeterType(family, rank))


def check_group_cap(ctype: CoxeterType) -> None:
    """Refuse a type that build would not enumerate, before anything rank-sized."""
    if ctype.exceeds(GROUP_CAP):
        raise GroupTooLarge(f"{ctype} exceeds the group cap |W| <= {GROUP_CAP}")


def build(ctype: CoxeterType) -> WeylGroup:
    """Enumerate the group, once per type; GROUP_CAP is checked before the cache."""
    check_group_cap(ctype)
    return _cached_group(ctype.family, ctype.rank)
