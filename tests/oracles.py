"""Test oracles and helpers: slow or literal definitions that only tests call.

Each one was part of the library API but had no caller there, so it lives
beside the tests that tie the library's fast paths to it.  They read the
library's objects (WeylGroup, HeckeAlgebra, KLData, FockParams,
DecompMatrix) and change none of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from heckekit.basicsets import BasicSetResult, DecompMatrix
from heckekit.cli import _witness
from heckekit.coxeter import CoxeterType, GroupElement, WeightFunction, WeylGroup
from heckekit.fock import (ARIKI, FLOTW, FockParams, Multipartition, _iword, _moved,
                           check_multipartition, etilde)
from heckekit.klcells import (CheckResult, Coeffs, HeckeAlgebra, KLData, det_laurent_matrix,
                              tt_text)
from heckekit.laurent import LaurentPoly, add_into, add_product_into, vpow
from heckekit.schur import (Bipartition, DomainError, Partition, check_partition,
                            standard_tableaux)


# ---------------------------------------------------------------------------
# Weyl groups
# ---------------------------------------------------------------------------

def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _column_negative(M, j) -> bool:
    # Images of simple roots are roots: all entries of one sign.
    return any(M[i][j] < 0 for i in range(len(M)))


@dataclass
class PeeledGroup:
    """What WeylGroup enumerates, in its index order: per element its word
    and its matrix on the root lattice, the left products by generators and
    the index of the inverse."""

    words: list[tuple[int, ...]]
    matrices: list[tuple]
    left_table: list[list[int]]
    inverse_index: list[int]


def weyl_group_by_peeling(ctype: CoxeterType) -> PeeledGroup:
    """Enumeration oracle: breadth-first by right products with full matrix
    products, canonical words by left-descent peeling (smallest generator
    first), then a sort by (length, word) and the left products by lookup."""
    n = ctype.rank
    cartan = ctype.cartan_matrix()
    gens = []
    for i in range(n):
        M = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            M[i][j] -= cartan[i][j]
        gens.append(tuple(tuple(row) for row in M))
    ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    info: dict[tuple, tuple[tuple, int]] = {ident: (ident, 0)}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for M in frontier:
            inv = info[M][0]
            for s in range(n):
                if _column_negative(M, s):
                    continue  # right descent: product gets shorter
                M2 = _mat_mul(M, gens[s])
                if M2 not in info:
                    info[M2] = (_mat_mul(gens[s], inv), depth)
                    nxt.append(M2)
        frontier = nxt
    entries = []
    for M, (inv, length) in info.items():
        word = []
        Iw = inv
        for _ in range(length):
            s = next(j for j in range(n) if _column_negative(Iw, j))
            word.append(s)
            Iw = _mat_mul(Iw, gens[s])
        entries.append((length, tuple(word), M, inv))
    entries.sort(key=lambda e: (e[0], e[1]))
    by_matrix = {M: i for i, (_, _, M, _) in enumerate(entries)}
    return PeeledGroup(
        words=[e[1] for e in entries],
        matrices=[e[2] for e in entries],
        left_table=[[by_matrix[_mat_mul(gens[s], e[2])] for e in entries] for s in range(n)],
        inverse_index=[by_matrix[e[3]] for e in entries])


def element_from_word(W: WeylGroup, word) -> GroupElement:
    w = W.identity
    for s in word:
        w = W.mult(w, W.generators[s])
    return w


def lweight(W: WeylGroup, w: GroupElement, weights) -> int:
    vals = weights.values if isinstance(weights, WeightFunction) else weights
    return sum(vals[s] for s in w.word)


def descents_left(W: WeylGroup, w: GroupElement) -> frozenset[int]:
    return frozenset(s for s in range(W.rank)
                     if W.elements[W.left_table[s][w.index]].length < w.length)


def descents_right(W: WeylGroup, w: GroupElement) -> frozenset[int]:
    return frozenset(s for s in range(W.rank) if W.mult(w, W.generators[s]).length < w.length)


def bruhat_leq(W: WeylGroup, y: GroupElement, w: GroupElement) -> bool:
    """Bruhat order via the standard descent recursion."""
    while True:
        if y.index == w.index:
            return True
        if y.length >= w.length:
            return False
        s = min(descents_left(W, w))
        w = W.elements[W.left_table[s][w.index]]
        if s in descents_left(W, y):
            y = W.elements[W.left_table[s][y.index]]


# ---------------------------------------------------------------------------
# Hecke algebras and Kazhdan-Lusztig data
# ---------------------------------------------------------------------------

class HeckeElement:
    """A formal A-linear combination of the rescaled basis elements."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "TtAlgebra", coeffs: Coeffs):
        self.algebra = algebra
        self.coeffs = {w: c for w, c in coeffs.items() if c}

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        return HeckeElement(self.algebra, add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return HeckeElement(self.algebra, add_into(dict(self.coeffs), other.coeffs, -1))

    def scale(self, f: LaurentPoly) -> "HeckeElement":
        if not f:
            return HeckeElement(self.algebra, {})
        return HeckeElement(self.algebra, {w: c * f for w, c in self.coeffs.items()})

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return self.algebra.mul(self, other)

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((w, c) for w, c in self.coeffs.items()))

    def __repr__(self):
        names = ["Tt_" + w.name() for w in self.algebra.group.elements]
        return f"HeckeElement({tt_text(names, self.coeffs)})"


class TtAlgebra(HeckeAlgebra):
    """Oracle: the Tt-basis arithmetic of the Hecke algebra, by whole words.

    Products fold the reduced word of the left factor into Tt_s steps, and
    bar and dagger sum the library's bar rows.  The library reads phi and
    the structure constants off the W-graph instead.
    """

    @classmethod
    def of(cls, data: KLData) -> "TtAlgebra":
        return cls(data.group, data.weights)

    def t(self, w) -> HeckeElement:
        idx = w.index if isinstance(w, GroupElement) else int(w)
        return HeckeElement(self, {idx: LaurentPoly.one()})

    def one(self) -> HeckeElement:
        return self.t(self.group.identity)

    def element(self, coeffs: Coeffs) -> HeckeElement:
        return HeckeElement(self, coeffs)

    def lmul_basis(self, w_idx: int, coeffs: Coeffs) -> Coeffs:
        """Tt_w times an element, by folding the reduced word of w."""
        for s in reversed(self.group.elements[w_idx].word):
            coeffs = self._lgen(s, coeffs)
        return coeffs

    def mul(self, h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
        out: Coeffs = {}
        for w, c in h1.coeffs.items():
            add_into(out, self.lmul_basis(w, h2.coeffs), c)
        return HeckeElement(self, out)

    def bar(self, h: HeckeElement) -> HeckeElement:
        out: Coeffs = {}
        for w, c in h.coeffs.items():
            add_into(out, self.bar_row(w), c.bar())
        return HeckeElement(self, out)

    def dagger(self, h: HeckeElement) -> HeckeElement:
        """The A-linear algebra automorphism sending Tt_w to (-1)^l(w) bar(Tt_w)."""
        elements = self.group.elements
        out: Coeffs = {}
        for w, c in h.coeffs.items():
            add_into(out, self.bar_row(w), c if elements[w].length % 2 == 0 else -c)
        return HeckeElement(self, out)


def cexpand_dagger(data: KLData, h: HeckeElement) -> Coeffs:
    """Coordinates of h in the dagger image of the c-basis."""
    return data.cexpand(h.algebra.dagger(h).coeffs)


def phi_by_cexpand(data: KLData, h: HeckeElement) -> dict[int, LaurentPoly]:
    """Oracle for phi on any element: expand h in the dagger image of the
    c-basis by back-substitution and add up the images of the c_w^dagger."""
    data.require_checks()
    out: dict[int, LaurentPoly] = {}
    for w, f in cexpand_dagger(data, h).items():
        add_into(out, data.phi_cdagger(w), f)
    return out


def phi_matrix_by_cexpand(data: KLData) -> list[list[LaurentPoly]]:
    """Oracle for KLData.phi_matrix: column y is phi_by_cexpand of Tt_y."""
    alg = TtAlgebra.of(data)
    n = len(data.group)
    B = [[LaurentPoly.zero()] * n for _ in range(n)]
    for y in range(n):
        for x, c in phi_by_cexpand(data, alg.t(y)).items():
            B[x][y] = c
    return B


def phi_det_by_elimination(data: KLData) -> LaurentPoly:
    """Oracle for KLData.phi_matrix_det: fraction-free elimination of the
    whole |W| x |W| matrix (B3, 48 elements, takes 14-45 s)."""
    return det_laurent_matrix(data.phi_matrix)


def jmap(alg: TtAlgebra, h: HeckeElement) -> HeckeElement:
    elements = alg.group.elements
    return alg.element({w: c.bar() if elements[w].length % 2 == 0 else -c.bar()
                        for w, c in h.coeffs.items()})


def tau(alg: TtAlgebra, h: HeckeElement) -> LaurentPoly:
    """The symmetrizing trace: coefficient of the identity basis element."""
    return h.coeffs.get(alg.group.identity.index, LaurentPoly.zero())


def cs_times_cw(group: WeylGroup, weights: WeightFunction, basis: list[Coeffs], s: int,
                w: int) -> tuple[Coeffs, Coeffs]:
    """Oracle: (c_sw, M) with c_s c_w = c_sw + sum of M[z] c_z, for sw > w,
    formed in LaurentPoly arithmetic.

    c_s = Tt_s + v^-L(s), so c_s Tt_y = Tt_sy + v^L(s) Tt_y when sy < y and
    Tt_sy + v^-L(s) Tt_y when sy > y.  Walking down from sw, the coefficient
    of Tt_z left at each z is p_{z,sw} + M[z]: p_{z,sw} has only negative
    degrees and M[z] is bar-invariant, so its terms of degree >= 0 fix M[z].
    basis must hold c_z for every index below sw.  klcells.csw_terms forms
    the same c_sw on integer term maps, and KLData.wgraph reads the same M
    off the c-basis without forming the product.
    """
    L = weights(s)
    table = group.left_table[s]
    cw = basis[w]
    # sy < y as indices iff as lengths: the canonical order sorts by length
    prod = {y: p.shift(L if table[y] < y else -L) for y, p in cw.items()}
    add_into(prod, {table[y]: p for y, p in cw.items()})
    edges: Coeffs = {}
    for z in range(table[w] - 1, -1, -1):
        f = prod.get(z)
        if f is not None and f.maxdeg >= 0:
            m = edges[z] = f.bar_symmetric_part()
            add_into(prod, basis[z], -m)
    return prod, edges


def kl_cbasis_all_products(group: WeylGroup, weights: WeightFunction) -> list[Coeffs]:
    """Oracle: the c-basis by Lusztig's recursion for every w.

    With s the first letter of w, c_w is c_s c_sw less its lower c-terms;
    nothing is read off c_{w^-1}.
    """
    basis: list[Coeffs] = [{0: LaurentPoly.one()}]
    for w in range(1, len(group)):
        s = group.elements[w].word[0]
        basis.append(cs_times_cw(group, weights, basis, s, group.left_table[s][w])[0])
    return basis


def wgraph_by_products(data: KLData) -> list[list[Coeffs]]:
    """Oracle for KLData.wgraph: each row with sw > w holds the M of the
    whole product c_s c_w, formed in Tt-coordinates by cs_times_cw."""
    group, basis = data.group, data.cbasis
    rows = []
    for s in range(group.rank):
        L = data.weights(s)
        table = group.left_table[s]
        rows.append([{w: vpow(L) + vpow(-L)} if table[w] < w
                     else {table[w]: LaurentPoly.one(),
                           **cs_times_cw(group, data.weights, basis, s, w)[1]}
                     for w in range(len(group))])
    return rows


def hconst_by_columns(data: KLData) -> dict[tuple[int, int], Coeffs]:
    """Oracle for KLData.hconst: the W-graph recursion on x over whole columns.

    With s the first letter of x and r = sx, h(x, y) = c_s h(r, y) less the
    M^s_{z,r} h(z, y), for every x and y; nothing is read off the row of
    (y^-1, x^-1).  Rows are summed on term maps and keyed y outer, x inner.
    """
    n = len(data.group)
    elements, left_table = data.group.elements, data.group.left_table
    times = [[[(z, m._terms) for z, m in row.items()] for row in rows] for rows in data.wgraph]
    lower = [[[(z, {e: -c for e, c in m._terms.items()}) for z, m in row.items()
               if z != left_table[s][r]] for r, row in enumerate(rows)]
             for s, rows in enumerate(data.wgraph)]
    table: dict[tuple[int, int], Coeffs] = {}
    for y in range(n):
        col = [{y: LaurentPoly.one()}]  # col[x] = h(x, y)
        for x in range(1, n):
            s = elements[x].word[0]
            r = left_table[s][x]
            acc: dict[int, dict[int, int]] = {}
            for w, f in col[r].items():
                for z, m in times[s][w]:
                    add_product_into(acc.setdefault(z, {}), f._terms, m)
            for z, m in lower[s][r]:
                for u, g in col[z].items():
                    add_product_into(acc.setdefault(u, {}), g._terms, m)
            col.append({z: LaurentPoly(t) for z, t in acc.items() if t})
        for x, row in enumerate(col):
            table[(x, y)] = row
    return table


def gamma_by_rescan(data: KLData) -> dict[tuple[int, int, int], int]:
    """Oracle for KLData.gamma: a scan of every structure-constant row of its
    own, apart from the a-function check, reading the coefficient of
    v^(-a(z)) in h_{x,y,z^-1} in the order of hconst."""
    inv = data.group.inverse_index
    a = data.afn
    out: dict[tuple[int, int, int], int] = {}
    for (x, y), row in data.hconst.items():
        for zinv, p in row.items():
            z = inv(zinv)
            if c := p.coeff(-a[z]):
                out[(x, y, z)] = c
    return out


def p4_witness_by_scan(data: KLData) -> Optional[tuple[int, int, int]]:
    """Oracle for the P4 check: every (x, y, z) with h_{x,y,z} present and
    a(z) < max(a(x), a(y)), collected over all of hconst in its order; the
    first of them, or None."""
    a = data.afn
    bad = [(x, y, z) for (x, y), row in data.hconst.items() for z in row
           if a[z] < max(a[x], a[y])]
    return bad[0] if bad else None


def kl_cbasis_report(data: KLData, checks=()) -> tuple[int, str]:
    """Rendering oracle for `kl --emit cbasis [--check ...]`: exit code and
    stdout, the report built as dicts of json_pairs and tt_text
    and dumped by json.dumps(sort_keys=True)."""
    results = [data.check_property(c) for c in checks]
    elements = data.group.elements
    name = [w.name() for w in elements]
    tt = ["Tt_" + n for n in name]
    report: dict = {
        "type": str(data.ctype), "weights": list(data.weights.values),
        "elements": {name[w.index]: list(w.word) for w in elements},
        "cbasis": {name[w]: {name[y]: c.json_pairs() for y, c in sorted(row.items())}
                   for w, row in enumerate(data.cbasis)},
        "cbasis_text": {name[w]: tt_text(tt, row) for w, row in enumerate(data.cbasis)}}
    if checks:
        report["checks"] = [
            {"property": res.name, "passed": res.passed}
            | ({} if res.witness is None else {"witness": _witness(res, name)})
            for res in results]
    code = 1 if any(not res.passed for res in results) else 0
    return code, json.dumps(report, sort_keys=True) + "\n"


def check_star_compatibility(data: KLData) -> CheckResult:
    """Verify h.[c_w^dagger] = phi(h) * [c_w^dagger] on every filtration level.

    Left multiplication by any basis element, projected to the a-level of
    w in dagger-c coordinates, must agree with the star action of the phi
    image; components below the level must vanish.  This is the checkable
    form of the statement that the phi kernel pushes the filtration down.
    """
    data.require_checks()
    alg = TtAlgebra.of(data)
    n = len(data.group)
    a = data.afn
    inv = data.group.inverse_index
    B = data.phi_matrix
    for w in range(n):
        cdag_w = alg.dagger(alg.element(data.cbasis[w]))
        aw = a[w]
        for y in range(n):
            prod = alg.mul(alg.t(y), cdag_w)
            coords = cexpand_dagger(data, prod)
            for z, c in coords.items():
                if a[z] < aw and c:
                    return CheckResult("star", False, (y, w, z, "below level"))
            for z in range(n):
                if a[z] != aw:
                    continue
                rhs = LaurentPoly.zero()
                for x in range(n):
                    bxy = B[x][y]
                    if not bxy:
                        continue
                    g = data.gamma.get((x, w, inv(z)))
                    if g:
                        rhs = rhs + bxy * (g * data.nhat[w] * data.nhat[z])
                if coords.get(z, LaurentPoly.zero()) != rhs:
                    return CheckResult("star", False, (y, w, z, "level mismatch"))
    return CheckResult("star", True)


def partner_witnesses(data: KLData) -> dict[str, Optional[tuple]]:
    """Oracle: the P2, P3 and P5 witnesses (None where the property holds).

    A dense scan of gamma by increasing x, y and distinguished z for P2, and
    by increasing y and distinguished d for the pairs (y^-1, y, d) of P3
    and P5.  As in the checks, a key of gamma counts as present whatever
    its value.
    """
    n, inv, gamma, nz = len(data.group), data.group.inverse_index, data.gamma, data.nz
    dinv = sorted(data.dinv)
    p2 = next(((x, y, z, gamma[x, y, z]) for x in range(n) for y in range(n) for z in dinv
               if x != inv(y) and (x, y, z) in gamma), None)
    p3 = p5 = None
    for y in range(n):
        ds = [d for d in dinv if (inv(y), y, d) in gamma]
        if p3 is None and len(ds) != 1:
            p3 = (y, tuple(ds))
        for d in ds:
            g = gamma[inv(y), y, d]
            if p5 is None and not (g == nz[d] and g in (1, -1)):
                p5 = (y, d, g, nz[d])
    return {"P2": p2, "P3": p3, "P5": p5}


def jring_mul_by_scan(data: KLData, jx: dict[int, int], jy: dict[int, int]) -> dict[int, int]:
    """Oracle: t_x t_y = sum of gamma_{x,y,z} t_{z^-1}, probing every z for each (x, y)."""
    inv = data.group.inverse_index
    gamma = data.gamma
    out: dict[int, int] = {}
    for x, cx in jx.items():
        for y, cy in jy.items():
            add_into(out, {inv(z): gamma[x, y, z] for z in range(len(data.group))
                           if (x, y, z) in gamma}, cx * cy)
    return out


# ---------------------------------------------------------------------------
# partitions and decomposition matrices
# ---------------------------------------------------------------------------

def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """lam dominated by mu: all partial sums of lam bounded by those of mu."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of the same size")
    total_l = total_m = 0
    for j in range(max(len(lam), len(mu))):
        total_l += lam[j] if j < len(lam) else 0
        total_m += mu[j] if j < len(mu) else 0
        if total_l > total_m:
            return False
    return True


def dominance_leq_multi(lam: tuple[Partition, ...], mu: tuple[Partition, ...]) -> bool:
    """Dominance on r-tuples: partial sums of the concatenated part lists."""
    if len(lam) != len(mu):
        raise ValueError("tuples of different lengths")
    if sum(map(sum, lam)) != sum(map(sum, mu)):
        raise ValueError("dominance compares tuples of the same total size")
    shift_l = shift_m = 0
    for c in range(len(lam)):
        total_l, total_m = shift_l, shift_m
        for j in range(max(len(lam[c]), len(mu[c]))):
            total_l += lam[c][j] if j < len(lam[c]) else 0
            total_m += mu[c][j] if j < len(mu[c]) else 0
            if total_l > total_m:
                return False
        shift_l += sum(lam[c])
        shift_m += sum(mu[c])
    return True


def dim_bipartition(lam: Multipartition) -> int:
    """Dimension of the labelled module: binomial times tableaux counts."""
    l1, l2 = lam
    n = sum(l1) + sum(l2)
    return math.comb(n, sum(l2)) * standard_tableaux(l1) * standard_tableaux(l2)


def check_dominance_triangularity(matrix: DecompMatrix,
                                  result: BasicSetResult) -> tuple[bool, Optional[tuple]]:
    """Nonzero entries must be dominated by their column's selected label.

    Runs after a successful verification; labels must be partition tuples.
    Returns (True, None) or (False, (row_label, column_label)).
    """
    if not result.exists or result.assignment is None:
        raise ValueError("needs a successful verification result")
    for j, sel in enumerate(result.assignment):
        mu = matrix.labels[sel]
        if matrix.entries[sel][j] != 1:
            return False, (mu, mu)
        for i in range(len(matrix.labels)):
            if matrix.entries[i][j] == 0:
                continue
            lam = matrix.labels[i]
            lam_t = lam if isinstance(lam[0], tuple) else (lam,)
            mu_t = mu if isinstance(mu[0], tuple) else (mu,)
            if not dominance_leq_multi(lam_t, mu_t):
                return False, (lam, mu)
    return True, None


# ---------------------------------------------------------------------------
# the type-B Schur element by Lusztig symbols
# ---------------------------------------------------------------------------

class MTooSmall(ValueError):
    """Symbol padding size below the number of parts."""


@dataclass(frozen=True)
class Symbol:
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    m: int


def min_symbol_size(lam: Bipartition) -> int:
    return max(len(lam[0]) - 1, len(lam[1]), 0)


def symbol_of(lam: Bipartition, m: int) -> Symbol:
    """The two-row symbol of a bipartition with padding size m."""
    lam1, lam2 = check_partition(lam[0]), check_partition(lam[1])
    if m + 1 < len(lam1) or m < len(lam2):
        raise MTooSmall(f"m={m} too small for {lam}")
    p1 = list(lam1) + [0] * (m + 1 - len(lam1))
    p2 = list(lam2) + [0] * (m - len(lam2))
    top = tuple(i - 1 + p1[m + 1 - i] for i in range(1, m + 2))
    bottom = tuple(i - 1 + p2[m - i] for i in range(1, m + 1))
    for row in (top, bottom):
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            raise AssertionError(f"symbol rows must strictly increase: {row}")
    return Symbol(top, bottom, m)


def _vsum(e1: int, e2: int) -> LaurentPoly:
    """v^e1 + v^e2."""
    return LaurentPoly({e1: 1}) + LaurentPoly({e2: 1})


def _geometric(k: int, step: int, shift: int = 0) -> LaurentPoly:
    """v^shift * (1 + v^step + ... + v^((k-1)*step)); k * v^shift when step = 0."""
    return LaurentPoly({shift: k} if step == 0 else {shift + j * step: 1 for j in range(k)})


def schur_element_B_by_symbols(lam: Bipartition, a: int, b: int,
                               m: Optional[int] = None) -> LaurentPoly:
    """The type-B Schur element by the symbol product formula, padded to size
    m (the least size by default), as numerator / denominator by exact division.

    The (v^2a - 1)-type factors of numerator and denominator are cancelled in
    matched pairs before specialization, which keeps a = 0 well defined: each
    v^(2ak) - 1 appears as 1 + v^2a + ... + v^(2a(k-1)), the constant k at a = 0.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise DomainError("weights must be nonnegative and not both zero")
    lam = check_partition(lam[0]), check_partition(lam[1])
    n = sum(map(sum, lam))
    if m is None:
        m = min_symbol_size(lam)
    sym = symbol_of(lam, m)
    alpha, beta = sym.top, sym.bottom
    x, y = 2 * a, 2 * b
    # The b-part of the leading exponent makes the value independent of the
    # padding size m; without it the result drifts by v^(-2b) per increment of
    # m(m-1)/2 (anchored at m = 0 by the Poincare polynomial of the group).
    num = [LaurentPoly({a * 2 * m * (2 * m + 1) * (m - 2) // 3 + b * m * (m - 1): 1})]
    num += [_vsum(x, y)] * m
    for row, sign in ((alpha, -1), (beta, 1)):
        for ai in row:
            for k in range(1, ai + 1):
                num += [_geometric(k, x), _vsum(x * (k + sign) - sign * y, 0)]
    den = [_vsum(x * (ai - 1) + y, x * bj) for ai in alpha for bj in beta]
    for row in (alpha, beta):
        den += [_geometric(row[i2] - row[i1], x, x * row[i1])
                for i2 in range(len(row)) for i1 in range(i2)]
    # one (v^(2a) - 1) per numerator k, and per box and per pair of a row
    pairs = sum(len(row) * (len(row) - 1) // 2 for row in (alpha, beta))
    if sum(alpha) + sum(beta) != n + pairs:
        raise AssertionError("unbalanced cancellation in the symbol product formula")
    return math.prod(num, start=LaurentPoly.one()).exact_div(
        math.prod(den, start=LaurentPoly.one()))


# ---------------------------------------------------------------------------
# the Fock space: nodes, node order and words
# ---------------------------------------------------------------------------
# The Node-based construction below (residue, sort_key, addable, removable,
# ncount, add_node, remove_node) builds each residue's node lists on its own;
# it is the oracle for the per-component rims that `fock._iword` and
# `fock._targets` merge.

class Node(NamedTuple):
    row: int
    col: int
    comp: int  # 1-based component index


def residue(node: Node, params: FockParams) -> int:
    return (node.col - node.row + params.u[node.comp - 1]) % params.l


def content(node: Node, params: FockParams) -> int:
    return node.col - node.row + params.u[node.comp - 1]


def sort_key(params: FockParams):
    """Sort key of the configured node order, highest node first."""
    if params.node_order == FLOTW:
        return lambda nd: (content(nd, params), -nd.comp)
    # parameter-free component order
    return lambda nd: (-nd.comp, -nd.row)


def addable(mp: Multipartition, i: Optional[int], params: FockParams) -> list[Node]:
    """Addable nodes (of residue i unless i is None), highest first."""
    out = []
    for c, part in enumerate(mp, start=1):
        for a in range(1, len(part) + 2):
            cur = part[a - 1] if a <= len(part) else 0
            prev = part[a - 2] if a >= 2 else None
            if prev is not None and prev == cur:
                continue  # row cannot grow past the one above
            nd = Node(a, cur + 1, c)
            if i is None or residue(nd, params) == i:
                out.append(nd)
    out.sort(key=sort_key(params))
    return out


def removable(mp: Multipartition, i: Optional[int], params: FockParams) -> list[Node]:
    """Removable nodes (of residue i unless i is None), highest first."""
    out = []
    for c, part in enumerate(mp, start=1):
        for a in range(1, len(part) + 1):
            below = part[a] if a < len(part) else 0
            if part[a - 1] > below:
                nd = Node(a, part[a - 1], c)
                if i is None or residue(nd, params) == i:
                    out.append(nd)
    out.sort(key=sort_key(params))
    return out


def ncount(mp: Multipartition, i: int, params: FockParams) -> int:
    """N_i = number of addable i-nodes minus number of removable i-nodes."""
    return len(addable(mp, i, params)) - len(removable(mp, i, params))


def add_node(mp: Multipartition, nd: Node) -> Multipartition:
    part = list(mp[nd.comp - 1])
    if nd.row == len(part) + 1:
        part.append(1)
    else:
        part[nd.row - 1] += 1
    return mp[:nd.comp - 1] + (tuple(part),) + mp[nd.comp:]


def remove_node(mp: Multipartition, nd: Node) -> Multipartition:
    part = list(mp[nd.comp - 1])
    part[nd.row - 1] -= 1
    if part[nd.row - 1] == 0:
        part.pop()
    return mp[:nd.comp - 1] + (tuple(part),) + mp[nd.comp:]


def above(g: Node, g2: Node, params: FockParams) -> bool:
    """Strict order: is g above g2 under the configured node order?"""
    key = sort_key(params)
    return key(g) < key(g2)


def icount(mp: Multipartition, i: int, params: FockParams) -> int:
    """W_i: number of i-nodes in the diagram."""
    total = 0
    for c, part in enumerate(mp, start=1):
        for a, length in enumerate(part, start=1):
            for b in range(1, length + 1):
                if (b - a + params.u[c - 1]) % params.l == i:
                    total += 1
    return total


def i_word(mp: Multipartition, i: int, params: FockParams) -> list[tuple[Node, str]]:
    """Addable/removable i-nodes as an (node, 'A'|'R') word, highest first,
    read from the production word `fock._iword`."""
    return [(Node(a, b, c), kind) for _, kind, a, b, c, _ in _iword(mp, i, params)]


def reduced_word(mp: Multipartition, i: int, params: FockParams) -> list[tuple[Node, str]]:
    """The i-word after signature cancellation, highest first: a removable
    node directly above an addable one cancels with it, on a stack of its own
    rather than the counter scan of `fock._targets`."""
    stack: list[tuple[Node, str]] = []
    for nd, kind in i_word(mp, i, params):
        if kind == "A" and stack and stack[-1][1] == "R":
            stack.pop()
        else:
            stack.append((nd, kind))
    return stack


def good_node(mp: Multipartition, i: int, params: FockParams) -> Optional[Node]:
    """Highest removable i-node surviving cancellation, if any."""
    for nd, kind in reduced_word(mp, i, params):
        if kind == "R":
            return nd
    return None


def cogood_node(mp: Multipartition, i: int, params: FockParams) -> Optional[Node]:
    """Lowest addable i-node surviving cancellation, if any."""
    for nd, kind in reversed(reduced_word(mp, i, params)):
        if kind == "A":
            return nd
    return None


def kleshchev_member_oracle(mp: Multipartition, params: FockParams) -> bool:
    """`fock.kleshchev_member` as one recursive call per multipartition on the
    chain; a chain of k removals needs a recursion limit above about 2k."""
    mp = check_multipartition(mp, params.r)
    params = FockParams(l=params.l, r=params.r, u=tuple(x % params.l for x in params.u),
                        node_order=ARIKI)
    memo: dict[Multipartition, bool] = {}

    def member(mp: Multipartition) -> bool:
        if mp not in memo:
            below = [etilde(mp, i, params) for i in range(params.l)]
            memo[mp] = mp_size(mp) == 0 or any(
                smaller is not None and member(smaller) for smaller in below)
        return memo[mp]

    return member(mp)


def normal_nodes_literal(mp: Multipartition, i: int, params: FockParams) -> list[Node]:
    """Normal removable i-nodes by the literal counting definition.

    A removable i-node g is normal when every addable i-node strictly below
    it sees strictly more removable than addable i-nodes strictly between.
    Serves as the independent oracle for the signature implementation.
    """
    adds = addable(mp, i, params)
    rems = removable(mp, i, params)
    out = []
    for g in rems:
        ok = True
        for g2 in adds:
            if not above(g, g2, params):
                continue
            between_r = sum(1 for d in rems
                            if above(g, d, params) and above(d, g2, params))
            between_a = sum(1 for d in adds
                            if above(g, d, params) and above(d, g2, params))
            if not between_r > between_a:
                ok = False
                break
        if ok:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# the Fock space: quantum and classical operators
# ---------------------------------------------------------------------------
# The operators act on formal Laurent-coefficient combinations of
# multipartitions; E_i, F_i and K_i count their exponents against the node
# order of the production word `fock._iword`.  No command reaches them.

FockVector = dict[Multipartition, LaurentPoly]


def mp_size(mp: Multipartition) -> int:
    return sum(sum(c) for c in mp)


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


def _diagonal(vec: FockVector, eigenvalue) -> FockVector:
    """The operator scaling each multipartition mp by eigenvalue(mp)."""
    return add_into({}, {mp: coeff * eigenvalue(mp) for mp, coeff in vec.items()})


def quantum_D(vec: FockVector, params: FockParams, power: int = 1) -> FockVector:
    return _diagonal(vec, lambda mp: vpow(-power * icount(mp, 0, params)))


def classical_e(i: Optional[int], vec: FockVector, params: FockParams) -> FockVector:
    """Remove one i-node in every way (one node of any residue when i is None)."""
    out: FockVector = {}
    for mp, coeff in vec.items():
        add_into(out, {remove_node(mp, g): coeff for g in removable(mp, i, params)})
    return out


def classical_f(i: Optional[int], vec: FockVector, params: FockParams) -> FockVector:
    """Add one i-node in every way (one node of any residue when i is None)."""
    out: FockVector = {}
    for mp, coeff in vec.items():
        add_into(out, {add_node(mp, g): coeff for g in addable(mp, i, params)})
    return out


def classical_h(i: int, vec: FockVector, params: FockParams) -> FockVector:
    return _diagonal(vec, lambda mp: LaurentPoly.const(ncount(mp, i, params)))


def classical_d(vec: FockVector, params: FockParams) -> FockVector:
    return _diagonal(vec, lambda mp: LaurentPoly.const(-icount(mp, 0, params)))


def ind(vec: FockVector, params: FockParams) -> FockVector:
    """Branching sum: increase exactly one part (any residue)."""
    return classical_f(None, vec, params)


def res(vec: FockVector, params: FockParams) -> FockVector:
    """Branching sum: decrease exactly one part (any residue)."""
    return classical_e(None, vec, params)


def cartan_pairing(i: int, j: int, l: int) -> int:
    """alpha_i(h_j) for the affine type A_{l-1} Cartan matrix."""
    a = 2 if i == j else 0
    if (i - j) % l == 1:
        a -= 1
    if (j - i) % l == 1:
        a -= 1
    return a
