"""Finite Weyl groups of types A, B, D, G2 and F4.

Elements are realized through the faithful integer representation on the root
lattice: each group element acts on simple roots via its Cartan-matrix
reflection matrix, so all products, lengths and descent tests are exact
integer computations.  The group is enumerated in one breadth-first pass by
left products s*u, each costing one row operation on the matrix of u and
one column operation on its inverse.  Every element carries its
lexicographically smallest reduced word, read off that pass: the smallest s
reaching w is its first letter.  The enumeration order (by length, then
word) is the canonical index order used everywhere else, and the same pass
fills the table of left products by generators.
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

    def generator_names(self) -> list[str]:
        n = self.rank
        if self.family == "A":
            return [f"s{i}" for i in range(1, n + 1)]
        if self.family == "B":
            return ["t"] + [f"s{i}" for i in range(1, n)]
        if self.family == "D":
            return [f"s{i}" for i in range(0, n)]
        if self.family == "G2":
            return ["s", "t"]
        return ["s1", "s2", "s3", "s4"]

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

        def bond(i, j, aij=-1, aji=-1):
            A[i][j] = aij
            A[j][i] = aji

        if self.family == "A":
            for i in range(n - 1):
                bond(i, i + 1)
        elif self.family == "B":
            # generators [t, s1, ..., s_{n-1}], double bond between t and s1
            bond(0, 1, -2, -1)
            for i in range(1, n - 1):
                bond(i, i + 1)
        elif self.family == "D":
            # generators [s0, s1, ..., s_{n-1}]; s0 and s1 both attach to s2.
            # Rank 2 degenerates to A1 x A1 (s0 and s1 commute).
            if n >= 3:
                bond(0, 2)
            for i in range(1, n - 1):
                bond(i, i + 1)
        elif self.family == "G2":
            bond(0, 1, -1, -3)
        else:  # F4: s1 - s2 = s3 - s4 with the double bond in the middle
            bond(0, 1)
            bond(1, 2, -1, -2)
            bond(2, 3)
        return tuple(tuple(row) for row in A)

    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Bond orders m(s, t); m = 2, 3, 4, 6 for Cartan products 0, 1, 2, 3."""
        cartan = self.cartan_matrix()
        n = self.rank
        table = {0: 2, 1: 3, 2: 4, 3: 6}
        M = [[1 if i == j else table[cartan[i][j] * cartan[j][i]]
              for j in range(n)] for i in range(n)]
        return tuple(tuple(row) for row in M)

    def generator_conjugacy_classes(self) -> list[set[int]]:
        """Generators linked by odd bond orders must share weights."""
        parent = list(range(self.rank))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        m = self.coxeter_matrix()
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if m[i][j] % 2 == 1:
                    parent[find(i)] = find(j)
        classes: dict[int, set[int]] = {}
        for i in range(self.rank):
            classes.setdefault(find(i), set()).add(i)
        return list(classes.values())

    def validate_weight(self, weights) -> bool:
        vals = weights.values if isinstance(weights, WeightFunction) else tuple(weights)
        if len(vals) != self.rank or any(v < 0 for v in vals):
            return False
        return all(len({vals[s] for s in cls}) == 1
                   for cls in self.generator_conjugacy_classes())

    def __str__(self):
        if self.family in ("G2", "F4"):
            return self.family
        return f"{self.family}{self.rank}"


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _reflect_row(M, s, bond):
    """gen_s * M: only row s changes, to -M[s] plus the bonded rows."""
    row = [-x for x in M[s]]
    for j, c in bond:
        row = [x + c * y for x, y in zip(row, M[j])]
    return M[:s] + (tuple(row),) + M[s + 1:]


def _reflect_column(row, s, bond):
    """One row of M * gen_s: only the entries s and bonded to s change."""
    out = list(row)
    out[s] = -row[s]
    for j, c in bond:
        out[j] += c * row[s]
    return tuple(out)


def _column_negative(M, j) -> bool:
    # Images of simple roots are roots: all entries of one sign.
    return any(M[i][j] < 0 for i in range(len(M)))


class GroupElement:
    """An element of a WeylGroup: canonical reduced word plus matrix data."""

    __slots__ = ("group", "index", "word", "matrix", "inv_matrix")

    def __init__(self, group, index, word, matrix, inv_matrix):
        self.group = group
        self.index = index
        self.word = word
        self.matrix = matrix
        self.inv_matrix = inv_matrix

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
        return self.group.element_by_matrix(self.inv_matrix)

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
        self.names = ctype.generator_names()
        self.cartan = ctype.cartan_matrix()

        n = self.rank
        ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
        # Breadth-first by left products s*u.  Within a depth, s runs outside
        # and u in index order inside, so the first s to reach w = s*u is its
        # smallest left descent: (s,) + word(u) is the lexicographically
        # smallest reduced word, and new elements come out in index order.
        # Each pair (s, u) is an ascent here or a descent of the shorter s*u,
        # so both entries of left_table are filled when s*u is reached.
        bonds = [[(j, -self.cartan[s][j]) for j in range(n) if j != s and self.cartan[s][j]]
                 for s in range(n)]
        words: list[tuple[int, ...]] = [()]
        mats, invs = [ident], [ident]
        by_matrix = self._by_matrix = {ident: 0}
        #: left_table[s][i] = index of generator s times element i
        self.left_table: list[list[int]] = [[0] * order for _ in range(n)]
        start, stop = 0, 1
        while start < stop:
            for s in range(n):
                table, bond = self.left_table[s], bonds[s]
                for u in range(start, stop):
                    if _column_negative(invs[u], s):
                        continue  # left descent: s*u is shorter and already recorded
                    M = _reflect_row(mats[u], s, bond)
                    w = by_matrix.setdefault(M, len(words))
                    if w == len(words):
                        words.append((s,) + words[u])
                        mats.append(M)
                        invs.append(tuple(_reflect_column(r, s, bond) for r in invs[u]))
                    table[u] = w
                    table[w] = u
            start, stop = stop, len(words)
        if len(words) != order:
            raise AssertionError(f"enumerated {len(words)} elements, expected {order}")

        self.elements: list[GroupElement] = [
            GroupElement(self, idx, word, mats[idx], invs[idx])
            for idx, word in enumerate(words)]
        self.identity = self.elements[0]
        self.longest = self.elements[-1]
        self.generators = [self.elements[table[0]] for table in self.left_table]
        self._inv_table: list[int] | None = None

    # -- core operations -------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def element_by_matrix(self, M) -> GroupElement:
        return self.elements[self._by_matrix[M]]

    def mult(self, u: GroupElement, v: GroupElement) -> GroupElement:
        return self.elements[self._by_matrix[_mat_mul(u.matrix, v.matrix)]]

    def inverse_index(self, i: int) -> int:
        if self._inv_table is None:
            self._inv_table = [self._by_matrix[w.inv_matrix] for w in self.elements]
        return self._inv_table[i]


@dataclass(frozen=True)
class WeightFunction:
    """Weights L(s) per generator, additive along reduced words."""

    values: tuple[int, ...]

    def __call__(self, s: int) -> int:
        return self.values[s]

    def positive(self) -> bool:
        return all(v > 0 for v in self.values)


def weight_from_ab(ctype: CoxeterType, a: int, b: int | None = None) -> WeightFunction:
    """Standard two-parameter weights: type B gets L(t)=b, L(s_i)=a; G2 gets
    L(s)=a, L(t)=b; F4 gets L(s1)=L(s2)=a, L(s3)=L(s4)=b; A and D take a only.
    """
    if ctype.family == "B":
        if b is None:
            raise ValueError("type B needs two weights (a, b)")
        return WeightFunction((b,) + (a,) * (ctype.rank - 1))
    if ctype.family == "G2":
        if b is None:
            raise ValueError("G2 needs two weights (a, b)")
        return WeightFunction((a, b))
    if ctype.family == "F4":
        if b is None:
            raise ValueError("F4 needs two weights (a, b)")
        return WeightFunction((a, a, b, b))
    return WeightFunction((a,) * ctype.rank)


@lru_cache(maxsize=None)
def _cached_group(family: str, rank: int) -> WeylGroup:
    return WeylGroup(CoxeterType(family, rank))


def build(ctype: CoxeterType) -> WeylGroup:
    """Enumerate the group, once per type; GROUP_CAP is checked before the cache."""
    if ctype.order() > GROUP_CAP:
        raise GroupTooLarge(f"{ctype} has order {ctype.order()} > cap {GROUP_CAP}")
    return _cached_group(ctype.family, ctype.rank)
