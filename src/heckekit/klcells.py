"""The generic Iwahori-Hecke algebra and its Kazhdan-Lusztig machinery.

Everything is computed in the rescaled basis Tt_w := v^(-L(w)) T_w, where the
quadratic relation reads Tt_s^2 = 1 + (v^L(s) - v^-L(s)) Tt_s.  The
bar-invariant basis {c_w} comes from Lusztig's recursion: for sw > w,
c_s c_w = c_sw + sum of M^s_{z,w} c_z with bar-invariant M^s_{z,w}, the
edges of the W-graph.  The W-graph stage reads the M off the c-basis
coefficients alone, without forming c_s c_w.  Its edges give the left
cells, and the cells give the a-function and the distinguished
involutions.  The same W-graph gives left multiplication by each c_s in
c-coordinates, so the structure constants h_{x,y,z} come from a recursion
on x with no Tt-coordinates; they are built only for the gamma constants,
the asymptotic ring J, and a battery of machine checks (P2-P8, P15') that
gate the J-ring constructions.  The homomorphism phi into J is read off
the W-graph on the generators and multiplied out in J, and its
determinant is a product over the right cells.  Products and bar of whole
Tt-expansions are not needed by any stage; they are the test oracles.

Element coefficients are dicts {element index: LaurentPoly}; the group's
canonical index order (by length, then lexicographic word) makes every
computation deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .coxeter import (CoxeterType, GroupTooLarge, WeylGroup, WeightFunction, build,
                      check_group_cap, weight_from_ab)
from .laurent import LaurentPoly, add_into, add_product_into, interned, vpow

Coeffs = dict[int, LaurentPoly]

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()


class PropertyFailure(RuntimeError):
    """A structural property required for the asymptotic ring fails.

    witness, when given, is a tuple of element indices where it fails.
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class CheckResult(namedtuple("CheckResult", "name passed witness", defaults=(None,))):
    __slots__ = ()

    def __bool__(self):
        return self.passed


class HeckeAlgebra:
    """The Tt-basis base of the test oracles: left multiplication by Tt_s and
    the bar rows, for positive weights.

    No stage builds one.  It stays in the library, with KLData.cexpand,
    only because perfbench/tracer.py wraps bar_row by name; its place is
    tests/oracles.py, whose TtAlgebra subclasses it.
    """

    def __init__(self, group: WeylGroup, weights: WeightFunction):
        self.group = group
        self.weights = weights
        self.zeta = [vpow(weights(s)) - vpow(-weights(s)) for s in range(group.rank)]
        self._bar_rows: dict[int, Coeffs] = {}

    def _lgen(self, s: int, coeffs: Coeffs, inverse: bool = False) -> Coeffs:
        """Left multiplication of a coefficient dict by Tt_s, or by Tt_s^-1.

        Tt_s Tt_y = Tt_sy, plus zeta_s Tt_y when sy < y.  Since
        Tt_s^-1 = Tt_s - zeta_s, the inverse puts -zeta_s Tt_y on the y with
        sy > y instead.
        """
        table = self.group.left_table[s]
        out = {table[y]: c for y, c in coeffs.items()}  # y -> sy is a bijection
        # sy < y as indices iff as lengths: the canonical order sorts by length
        zeta_terms = {y: c for y, c in coeffs.items() if (table[y] < y) != inverse}
        return add_into(out, zeta_terms, -self.zeta[s] if inverse else self.zeta[s])

    def bar_row(self, w_idx: int) -> Coeffs:
        """Expansion of the bar image of Tt_w, i.e. the inverse of Tt_{w^-1}."""
        cached = self._bar_rows.get(w_idx)
        if cached is not None:
            return cached
        word = self.group.words[w_idx]
        if not word:
            row: Coeffs = {w_idx: _ONE}
        else:
            s = word[0]
            rest = self.group.left_table[s][w_idx]
            row = self._lgen(s, self.bar_row(rest), inverse=True)
        self._bar_rows[w_idx] = row
        return row


# ---------------------------------------------------------------------------
# the Kazhdan-Lusztig basis
# ---------------------------------------------------------------------------

def kl_cbasis(group: WeylGroup, weights: WeightFunction) -> list[Coeffs]:
    """The bar-invariant basis congruent to {Tt_w} modulo negative degrees.

    Lusztig's recursion (Hecke algebras with unequal parameters, ch. 6), as
    in Geck's PyCox: with s the first letter of w, c_w is c_s c_sw less its
    lower c-terms (csw_terms).  Every c_z it needs has a smaller index,
    because the canonical index order sorts by length.  Since sw < w,
    c_s c_w = (v^L(s) + v^-L(s)) c_w (Lusztig, ch. 6), that is
    Tt_s c_w = v^L(s) c_w, so p_{y,w} = v^-L(s) p_{sy,w} whenever sy > y:
    csw_terms computes only the y with sy < y, and each other coefficient is
    the shift of its partner's, made once per distinct coefficient and
    weight.  The anti-involution Tt_w -> Tt_{w^-1} commutes with bar and
    keeps L, so p_{y,w} = p_{y^-1,w^-1} (Lusztig, ch. 5-6): the recursion
    runs only for w with w^-1 >= w, and every other c_w is c_{w^-1}
    relabelled by y -> y^-1, sharing its coefficients.  Each finished row is
    wrapped with every coefficient interned, so equal coefficients are one
    object across the basis.  B4 (384 elements) takes about 35-40 ms and F4
    (1152) 0.3-0.6 s, by weight.
    """
    inv = group.inverse_index
    polys: dict = {}  # one LaurentPoly per distinct coefficient
    shifted: dict[int, dict[int, LaurentPoly]] = {}  # L -> {id(p): v^-L p, interned}
    basis: list[Coeffs] = [{0: interned(polys, {0: 1})}]
    for w in range(1, len(group)):
        w_inv = inv(w)
        if w_inv < w:  # same length, so c_{w^-1} is already built
            basis.append({inv(y): p for y, p in basis[w_inv].items()})
            continue
        s = group.words[w][0]
        L = weights(s)
        table = group.left_table[s]
        memo = shifted.setdefault(L, {})
        row = {y: interned(polys, t)
               for y, t in csw_terms(group, weights, basis, s, table[w]).items() if t}
        fill = []
        for y, p in row.items():
            q = memo.get(id(p))
            if q is None:
                q = memo[id(p)] = interned(polys, {e - L: c for e, c in p._terms.items()})
            fill.append((table[y], q))
        row.update(fill)
        basis.append(row)
    return basis


def csw_terms(group: WeylGroup, weights: WeightFunction, basis: list[Coeffs], s: int,
              w: int) -> dict[int, dict[int, int]]:
    """The Tt-coefficients of c_sw at the y with sy < y as term maps
    {exponent: coefficient}, for sw > w.

    The other half is v^-L(s) times this one (see kl_cbasis), so it is never
    accumulated.  c_s = Tt_s + v^-L(s), so c_s Tt_y = Tt_sy + v^L(s) Tt_y
    when sy < y and Tt_sy + v^-L(s) Tt_y when sy > y; of these only Tt_sy
    (sy > y) and v^L(s) Tt_y (sy < y) land in the half.  Walking down from
    sw, the coefficient of Tt_z left at each z is p_{z,sw} + M^s_{z,w}:
    p_{z,sw} has only negative degrees and M is bar-invariant, so its terms
    of degree >= 0 fix M, and M c_z is taken off.  M^s_{z,w} is zero unless
    sz < z, so the z with sz > z, whose coefficient has only negative
    degrees, are skipped as in `KLData.wgraph`; every z read is in the half.
    basis must hold c_z for every index below sw.  Only the new maps are
    updated in place; the coefficients of basis are read, never changed.  A
    map may end up empty.
    """
    L = weights(s)
    table = group.left_table[s]
    cw = basis[w]
    # sy < y as indices iff as lengths: the canonical order sorts by length
    prod = {table[y]: dict(p._terms) for y, p in cw.items() if table[y] > y}
    up = {L: 1}
    for y, p in cw.items():
        if table[y] < y:
            add_product_into(prod.setdefault(y, {}), p._terms, up)
    for z in range(table[w] - 1, -1, -1):
        if table[z] > z:
            continue
        f = prod.get(z)
        if f and max(f) >= 0:
            m = {e: -c for e, c in f.items() if e >= 0}  # -M
            m.update([(-e, c) for e, c in m.items() if e])
            for y, p in basis[z].items():
                if table[y] < y:
                    add_product_into(prod.setdefault(y, {}), p._terms, m)
    return prod


def det_laurent_matrix(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by fraction-free elimination (divisions are exact)."""
    n = len(rows)
    M = [row[:] for row in rows]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if M[i][k]), None)
        if pivot_row is None:
            return LaurentPoly.zero()
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]).exact_div(prev)
            M[i][k] = LaurentPoly.zero()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


def strongly_connected_components(edges: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm on vertices 0..n-1, iterative so depth is no limit.

    Each component comes out sorted, and the list is sorted by first vertex.
    """
    n = len(edges)
    order: list[int | None] = [None] * n  # discovery number
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    count = 0
    for root in range(n):
        if order[root] is not None:
            continue
        work = [(root, 0)]  # (vertex, next edge to follow)
        while work:
            v, i = work.pop()
            if i == 0:
                order[v] = low[v] = count
                count += 1
                stack.append(v)
                on_stack[v] = True
            for j in range(i, len(edges[v])):
                u = edges[v][j]
                if order[u] is None:
                    work.append((v, j + 1))
                    work.append((u, 0))
                    break
                if on_stack[u]:
                    low[v] = min(low[v], order[u])
            else:
                if low[v] == order[v]:  # v is the root of a component
                    component = []
                    u = None
                    while u != v:
                        u = stack.pop()
                        on_stack[u] = False
                        component.append(u)
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return sorted(components)


PROPERTY_NAMES = ("P2", "P3", "P4", "P5", "P6", "P7", "P8", "P15'")

#: The fields of each property's failure witness: "w" is an element index,
#: "ws" a tuple of element indices and "n" an integer.
WITNESS_FIELDS = {
    "P2": ("w", "w", "w", "n"),  # x, y, distinguished z with x != y^-1, gamma_{x,y,z}
    "P3": ("w", "ws"),  # y, every distinguished d with gamma_{y^-1,y,d} != 0
    "P4": ("w", "w", "w"),  # x, y, z with c_z in c_x c_y and a(z) < a(x) or a(y)
    "P5": ("w", "w", "n", "n"),  # y, d, gamma_{y^-1,y,d}, n_d
    "P6": ("w",),  # distinguished d with d != d^-1
    "P7": ("w", "w", "w"),  # x, y, z with gamma_{x,y,z} != gamma_{y,z,x}
    "P8": ("w", "w", "w"),  # x, y, z with gamma_{x,y,z} != 0 and a-values apart
    "P15'": ("w", "w", "w", "w"),  # x, x', y, w where the two sides differ
}


def property_name(name: str) -> str:
    """The name in PROPERTY_NAMES that name stands for (P15 and P15prime mean P15')."""
    name = {"P15": "P15'", "P15prime": "P15'"}.get(name, name)
    if name not in PROPERTY_NAMES:
        raise ValueError(f"unknown property {name!r}")
    return name


#: Largest |W| for the c-basis and the cells: B4 (384) takes about 0.04 s for
#: each.  F4 (1152) takes about 0.3-0.6 s and 0.3 s and needs force.
CBASIS_CAP = 400
#: Largest |W| for the |W|^2 structure constants.  They take about 0.07 s
#: on A4 (120) and 0.3 s on D4 (192), but the jobs that need them cost more,
#: as fresh processes: D4 --check about 1 s (0.4 s of it P15'), and --emit
#: phimatrix 1.6-2.6 s: every P-check, then phi (0.15 s) and its
#: determinant by right-cell blocks (0.7-1.0 s).
HCONST_CAP = 120
#: Largest |W| where afn checks itself against the structure constants even
#: when nothing else needs them: up to A3 (24) they take under 0.01 s.
AFN_CHECK_CAP = 24


def check_cap(ctype: CoxeterType, cap: int, what: str, force: bool) -> None:
    """Refuse what for ctype over cap unless force, and over the group cap always."""
    if not force and ctype.exceeds(cap):
        raise GroupTooLarge(f"{what} for {ctype} exceed the cap |W| <= {cap}; "
                            "pass --force (force=True) to override")
    check_group_cap(ctype)


def check_weights(ctype: CoxeterType, weights: WeightFunction) -> None:
    """Raise ValueError unless weights suit the Kazhdan-Lusztig stages of ctype."""
    if not weights.positive():  # first, so that any weight <= 0 is named as such
        raise ValueError("Kazhdan-Lusztig machinery needs L(s) > 0")
    if len(weights.values) != ctype.rank:
        raise ValueError(f"{ctype} needs {ctype.rank} weights, not {len(weights.values)}")
    if not ctype.validate_weight(weights):
        raise ValueError("weights must be constant on conjugate generators")


def _add_product(diff: dict, key, h: LaurentPoly, c: int) -> None:
    """Add c * h at key of diff, whose values are one product (h, c) or a term map.

    A key's first product is stored as (h, c), and a second that is the
    same object h with the opposite scale removes the key.  Any other
    second product turns the key into a term map {exponent: int}, which
    later products are added into.  Neither h nor c is checked for zero.
    """
    cur = diff.get(key)
    if cur is None:
        diff[key] = (h, c)
    elif type(cur) is not tuple:
        add_into(cur, h._terms, c)
    elif cur[0] is h and cur[1] + c == 0:
        del diff[key]
    else:
        diff[key] = add_into(add_into({}, cur[0]._terms, cur[1]), h._terms, c)


class KLData:
    """All Kazhdan-Lusztig data of W(ctype) with weights L, built in lazy stages.

    group -> c-basis -> W-graph -> left cells -> a-function, and structure
    constants -> gamma, read in the a-function check's scan -> the gamma index
    gamma_rows -> P-checks -> J-ring and phi.  Each stage is one cached
    property, computed on first use from the stages before it.  Both size
    caps are decided from ctype, so a refused job has enumerated nothing: the
    constructor checks CBASIS_CAP, and hconst checks HCONST_CAP before it
    touches any other stage; every consumer of the structure constants asks
    for hconst first.  force lifts both caps but not GROUP_CAP.  weights is a
    WeightFunction, or the arguments of weight_from_ab, applied only once
    ctype passes the caps.
    """

    def __init__(self, ctype: CoxeterType, weights, force: bool = False):
        check_cap(ctype, CBASIS_CAP, "Kazhdan-Lusztig data", force)
        if not isinstance(weights, WeightFunction):
            weights = weight_from_ab(ctype, *weights)
        check_weights(ctype, weights)
        self.ctype = ctype
        self.weights = weights
        self.force = force
        self._checks: dict[str, CheckResult] = {}
        # (a, gamma) of the a-function check that afn ran, if it ran one
        self._checked_gamma: tuple[list[int], dict] | None = None

    # -- stage 0: the group ------------------------------------------------------

    @cached_property
    def group(self) -> WeylGroup:
        return build(self.ctype)

    # -- stage 1: the c-basis -------------------------------------------------

    @cached_property
    def cbasis(self) -> list[Coeffs]:
        """cbasis[w] = Tt-coefficients of c_w."""
        return kl_cbasis(self.group, self.weights)

    def cexpand(self, coeffs: Coeffs) -> Coeffs:
        """c-basis coordinates of the element with Tt-coefficients coeffs.

        Triangular back-substitution: c_z is Tt_z plus shorter terms, so the
        largest index left is always the next pivot.  No stage calls it: it
        serves the test oracles, which build in Tt-coordinates what the
        stages read off the W-graph.  It stays here, not in tests/oracles.py,
        only because perfbench/tracer.py wraps it by name.
        """
        rest = dict(coeffs)
        out: Coeffs = {}
        while rest:
            z = max(rest)
            f = out[z] = rest[z]
            add_into(rest, self.cbasis[z], -f)  # c_z has 1 at z: clears z
        return out

    # -- stage 2: trace data, left cells, a-function, distinguished involutions --

    @cached_property
    def trace_leading(self) -> tuple[list[int], list[int]]:
        """(delta, n_z) read off the highest term of the trace of each c_z."""
        delta = []
        nz = []
        for z in range(len(self.group)):
            t = self.cbasis[z].get(0)  # the coefficient of Tt_e
            if not t:
                raise PropertyFailure(
                    f"trace of c_{self.group.name(z)} vanishes; "
                    "delta undefined under positive weights")
            _, _, hi, hic = t.extremal()
            delta.append(-hi)
            nz.append(hic)
        return delta, nz

    @property
    def delta(self) -> list[int]:
        return self.trace_leading[0]

    @property
    def nz(self) -> list[int]:
        return self.trace_leading[1]

    @cached_property
    def wgraph(self) -> list[list[Coeffs]]:
        """wgraph[s][w] = c-coordinates of c_s c_w, the W-graph of Lusztig ch. 6.

        (v^L(s) + v^-L(s)) c_w when sw < w, and c_sw + sum of M^s_{y,w} c_y
        over sy < y < w when sw > w.  The M are read off the c-basis alone
        (Lusztig, Prop. 6.3), walking y down from w: M^s_{y,w} is the
        bar-invariant polynomial that agrees in degrees >= 0 with
        v^L(s) p_{y,w} less p_{y,z} M^s_{z,w} summed over the z > y already
        found.  With equal parameters that sum has only negative degrees, so
        M^s_{y,w} is mu(y, w).  rank * |W| small dicts.
        """
        group = self.group
        basis = self.cbasis
        # the top degree of each coefficient object, read once; kl_cbasis
        # interns the coefficients, so that is once per distinct value
        distinct = {id(p): p for row in basis for p in row.values()}
        top = {k: p.maxdeg for k, p in distinct.items()}
        rows = []
        for s in range(group.rank):
            L = self.weights(s)
            both = vpow(L) + vpow(-L)
            table = group.left_table[s]
            row = []
            for w, cw in enumerate(basis):
                if table[w] < w:  # the canonical index order sorts by length
                    row.append({w: both})
                    continue
                edges = {table[w]: _ONE}
                found = []  # (y, M^s_{y,w}, its top degree) by decreasing y
                for y in range(w - 1, -1, -1):
                    if table[y] > y:
                        continue
                    # only degrees >= 0 count, so terms wholly below 0 are skipped
                    p = cw.get(y)
                    f = p.shift(L) if p is not None and top[id(p)] + L >= 0 else _ZERO
                    for z, mz, mtop in found:
                        p = basis[z].get(y)
                        if p is not None and top[id(p)] + mtop >= 0:
                            f = f - p * mz
                    if f is not _ZERO and f and f.maxdeg >= 0:  # most y leave f at _ZERO
                        m = edges[y] = f.bar_symmetric_part()
                        found.append((y, m, m.maxdeg))
                row.append(edges)
            rows.append(row)
        return rows

    @cached_property
    def left_cells(self) -> list[list[int]]:
        """Strongly connected components of the graph w -> z, c_z in c_s c_w.

        The edges are read off the W-graph stage: rank * |W| products, where
        the preorder from all of the structure constants would take |W|^2.
        When sw < w, c_s c_w is a multiple of c_w and adds only a loop.
        """
        rank = self.group.rank
        wgraph = self.wgraph
        edges = [list({z for s in range(rank) for z in wgraph[s][w]})
                 for w in range(len(self.group))]
        return strongly_connected_components(edges)

    @cached_property
    def afn(self) -> list[int]:
        """a(z) = the least delta over the left cell of z (Lusztig P1, P4, P13).

        For unequal weights P1-P15 are conjectures, so the values are checked
        against the structure constants wherever those are built: in gamma,
        and here when |W| <= AFN_CHECK_CAP, keeping the gamma of that scan
        for gamma to return.
        """
        a = [0] * len(self.group)
        delta = self.delta
        for cell in self.left_cells:
            low = min(delta[z] for z in cell)
            for z in cell:
                a[z] = low
        if len(self.group) <= AFN_CHECK_CAP:
            self._checked_gamma = (list(a), self.check_afn(a))
        return a

    @cached_property
    def dinv(self) -> frozenset[int]:
        """Distinguished involutions: a(z) equals the trace drop delta(z)."""
        return frozenset(z for z in range(len(self.group))
                         if self.afn[z] == self.delta[z])

    # -- stage 3: structure constants, gamma ----------------------------------------

    @cached_property
    def hconst(self) -> dict[tuple[int, int], Coeffs]:
        """h[(x, y)][z] = coefficient of c_z in c_x c_y, computed in c-coordinates.

        Recursion on x in index order: with s the first letter of x and
        r = sx, c_s c_r = c_x + sum of M^s_{z,r} c_z (z < r), so
        h(x, y) = c_s h(r, y) less the M^s_{z,r} h(z, y).  Left
        multiplication by c_s reads each c_s c_w off the W-graph stage, so
        no Tt-coordinates and no back-substitution are involved.  Column y
        reads only column y.  The anti-involution Tt_w -> Tt_{w^-1} gives
        h_{x,y,z} = h_{y^-1,x^-1,z^-1}, so the recursion runs only for
        x <= y^-1 (as indices): every r and z < r it reads is smaller, so
        that half column is closed.  A row with x > y^-1 is the row of
        (y^-1, x^-1) relabelled by z -> z^-1, sharing its coefficients.  Each
        row is summed on {exponent: int} term maps updated in place and
        wrapped once it is finished, with every coefficient interned over the
        whole stage, so equal h_{x,y,z} are one object; finished rows are
        only read.  A4 (120 elements) takes about 0.07 s, D4 (192) 0.3 s and
        B4 (384) 2.2-2.4 s.
        """
        check_cap(self.ctype, HCONST_CAP, "structure constants", self.force)
        n = len(self.group)
        words = self.group.words
        left_table = self.group.left_table
        # c_s c_w as [(z, term map)], and the -M^s_{z,r} with z != sr, the
        # terms that c_s c_r less c_sr has (read only where sr > r)
        times = [[[(z, m._terms) for z, m in row.items()] for row in rows]
                 for rows in self.wgraph]
        lower = [[[(z, {e: -c for e, c in m._terms.items()}) for z, m in row.items()
                   if z != left_table[s][r]] for r, row in enumerate(rows)]
                 for s, rows in enumerate(self.wgraph)]
        inverses = [self.group.inverse_index(w) for w in range(n)]
        polys: dict = {}  # one LaurentPoly per distinct coefficient
        cols = []  # cols[y][x] = h(x, y) for x <= y^-1
        for y in range(n):
            col = [{y: interned(polys, {0: 1})}]
            cols.append(col)
            for x in range(1, inverses[y] + 1):
                s = words[x][0]
                r = left_table[s][x]
                cs = times[s]
                acc: dict[int, dict[int, int]] = {}
                for w, f in col[r].items():
                    for z, m in cs[w]:
                        t = acc.get(z)
                        if t is None:  # a product of nonzero terms is nonzero
                            acc[z] = add_product_into({}, f._terms, m)
                        elif not add_product_into(t, f._terms, m):
                            del acc[z]  # cancelled: a later term adds z anew
                for z, m in lower[s][r]:
                    for u, g in col[z].items():
                        t = acc.get(u)
                        if t is None:
                            acc[u] = add_product_into({}, g._terms, m)
                        elif not add_product_into(t, g._terms, m):
                            del acc[u]
                col.append({z: interned(polys, t) for z, t in acc.items()})
        table: dict[tuple[int, int], Coeffs] = {}
        for y, col in enumerate(cols):
            y_inv = inverses[y]
            for x in range(n):
                if x <= y_inv:
                    table[(x, y)] = col[x]
                else:  # h(x, y) = h(y^-1, x^-1) relabelled by z -> z^-1
                    table[(x, y)] = {inverses[z]: p for z, p in cols[inverses[x]][y_inv].items()}
        return table

    def check_afn(self, a: list[int]) -> dict[tuple[int, int, int], int]:
        """gamma under a, in one scan that checks a against the structure constants.

        Every h_{x,y,z} must lie in v^(-a(z)) Z[v], and each z must have some
        h_{x,y,z} with a v^(-a(z)) term; otherwise PropertyFailure.  The
        same scan reads gamma_{x,y,z^-1}, the coefficient of v^(-a(z^-1)) in
        h_{x,y,z}, keyed in the order of hconst.
        """
        inv = [self.group.inverse_index(z) for z in range(len(self.group))]
        attained = [False] * len(inv)
        out: dict[tuple[int, int, int], int] = {}
        for (x, y), row in self.hconst.items():
            for z, p in row.items():
                lo = p.mindeg
                if lo < -a[z]:
                    name = self.group.name
                    raise PropertyFailure(
                        f"h_{{{name(x)},{name(y)},{name(z)}}} has a term v^{lo} "
                        f"below v^-a = v^{-a[z]}")
                if lo == -a[z]:
                    attained[z] = True
                if c := p.coeff(-a[inv[z]]):
                    out[(x, y, inv[z])] = c
        if not all(attained):
            z = attained.index(False)
            raise PropertyFailure(
                f"no h_{{x,y,{self.group.name(z)}}} reaches v^-a = v^{-a[z]}")
        return out

    @cached_property
    def gamma(self) -> dict[tuple[int, int, int], int]:
        """gamma[x, y, z] = coefficient of v^(-a(z)) in h_{x,y,z^-1}, nonzero only.

        Read by check_afn, which checks the a-function from the cells
        against the structure constants in the same scan; when afn has
        already run that scan on the same values, its gamma is returned.
        hconst is asked for first, so an over-cap job is refused before the
        cells are built.
        """
        self.hconst
        a = self.afn
        if self._checked_gamma is not None and self._checked_gamma[0] == a:
            return self._checked_gamma[1]
        return self.check_afn(a)

    @cached_property
    def gamma_rows(self) -> list[dict[int, dict[int, int]]]:
        """The gamma index: rows[x][y] = t_x t_y in J = {z^-1: gamma_{x,y,z}}.

        Built once from gamma in sorted order (y, then z, increasing); P3,
        P5, P15', nhat and the J-ring read gamma only through it.
        """
        inv = self.group.inverse_index
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(len(self.group))]
        for (x, y, z), g in sorted(self.gamma.items()):
            rows[x].setdefault(y, {})[inv(z)] = g
        return rows

    @cached_property
    def partners(self) -> list[list[tuple[int, int]]]:
        """partners[y] = [(d, gamma_{y^-1,y,d})] over distinguished d, by increasing d."""
        inv = self.group.inverse_index
        rows = self.gamma_rows
        return [[(d, g) for z, g in rows[inv(y)].get(y, {}).items() if (d := inv(z)) in self.dinv]
                for y in range(len(self.group))]

    @cached_property
    def nhat(self) -> list[int]:
        """nhat_z = n_d for the distinguished d with gamma_{z,z^-1,d} != 0, unique by P3."""
        res = self.check_property("P3")
        if not res:
            raise PropertyFailure("nhat needs one distinguished partner per element", res.witness)
        inv = self.group.inverse_index
        return [self.nz[self.partners[inv(z)][0][0]] for z in range(len(self.group))]

    # -- property checks ---------------------------------------------------------

    def check_property(self, name: str) -> CheckResult:
        """Exhaustive check of one of P2-P8 or P15'; Fail carries a witness.

        Every check asks for the structure constants first, so an over-cap
        check is refused before any other stage runs.
        """
        name = property_name(name)
        self.hconst
        if name in self._checks:
            return self._checks[name]
        result = getattr(self, "_check_" + name.replace("'", "prime"))()
        self._checks[name] = result
        return result

    def check_all(self, names=PROPERTY_NAMES) -> list[CheckResult]:
        return [self.check_property(n) for n in names]

    def _check_P2(self) -> CheckResult:
        inv = self.group.inverse_index
        for (x, y, z), g in self.gamma.items():
            if z in self.dinv and x != inv(y):
                return CheckResult("P2", False, (x, y, z, g))
        return CheckResult("P2", True)

    def _check_P3(self) -> CheckResult:
        for y, pairs in enumerate(self.partners):
            if len(pairs) != 1:
                return CheckResult("P3", False, (y, tuple(d for d, _ in pairs)))
        return CheckResult("P3", True)

    def _check_P4(self) -> CheckResult:
        hconst = self.hconst
        a = self.afn
        for (x, y), row in hconst.items():
            for z in row:
                if a[z] < a[x] or a[z] < a[y]:
                    return CheckResult("P4", False, (x, y, z))
        return CheckResult("P4", True)

    def _check_P5(self) -> CheckResult:
        for y, pairs in enumerate(self.partners):
            for d, g in pairs:
                if not (g == self.nz[d] and g in (1, -1)):
                    return CheckResult("P5", False, (y, d, g, self.nz[d]))
        return CheckResult("P5", True)

    def _check_P6(self) -> CheckResult:
        inv = self.group.inverse_index
        for d in self.dinv:
            if inv(d) != d:
                return CheckResult("P6", False, (d,))
        return CheckResult("P6", True)

    def _check_P7(self) -> CheckResult:
        for (x, y, z), g in self.gamma.items():
            if self.gamma.get((y, z, x), 0) != g:
                return CheckResult("P7", False, (x, y, z))
        return CheckResult("P7", True)

    def _check_P8(self) -> CheckResult:
        a = self.afn
        for (x, y, z), _ in self.gamma.items():
            if not (a[x] == a[y] == a[z]):
                return CheckResult("P8", False, (x, y, z))
        return CheckResult("P8", True)

    def _check_P15prime(self) -> CheckResult:
        """Sum_u gamma_{w,x',u^-1} h_{x,u,y} = sum_u h_{x,w,u} gamma_{u,x',y^-1} if a(w) = a(y).

        Both sides read gamma from gamma_rows.  The gamma rows, and the
        h-rows of each x, are grouped by the a-value of y, so a(w) = a(y)
        picks a group instead of testing every term.  Per (x, w), each key
        (y, x') holds the left side less the right: its first product as
        (h, c), dropped when the second is the same interned h with the
        opposite scale, and a term map {exponent: int} only once two
        products do not cancel; nearly every key holds one product per
        side.  The least (w, y, x') left nonzero gives the witness
        (x, x', y, w).  D4 takes about 0.4 s.
        """
        n = len(self.group)
        a = self.afn
        hconst = self.hconst
        rows = self.gamma_rows
        # by_a[u][a(y)] = [(x', y, gamma_{u,x',y^-1})]
        by_a: list[dict[int, list]] = [{} for _ in range(n)]
        for u, row in enumerate(rows):
            for xp, prod in row.items():
                for y, g in prod.items():
                    by_a[u].setdefault(a[y], []).append((xp, y, g))
        for x in range(n):
            # h_by_a[u][a(y)] = [(y, h_{x,u,y})]
            h_by_a: list[dict[int, list]] = [{} for _ in range(n)]
            for u in range(n):
                for y, h in hconst[(x, u)].items():
                    h_by_a[u].setdefault(a[y], []).append((y, h))
            for w in range(n):
                aw = a[w]
                diff: dict[tuple[int, int], object] = {}
                for xp, prod in rows[w].items():  # prod[u] = gamma_{w,x',u^-1}
                    for u, g in prod.items():
                        for y, h in h_by_a[u].get(aw, ()):
                            _add_product(diff, (y, xp), h, g)
                for u, h in hconst[(x, w)].items():
                    for xp, y, g in by_a[u].get(aw, ()):
                        _add_product(diff, (y, xp), h, -g)
                # a pair (h, c) is zero only where an injected gamma or h is
                left = [key for key, t in diff.items()
                        if ((t[1] and t[0]) if type(t) is tuple else t)]
                if left:
                    y, xp = min(left)
                    return CheckResult("P15'", False, (x, xp, y, w))
        return CheckResult("P15'", True)

    def require_checks(self):
        failed = [r for r in self.check_all() if not r.passed]
        if failed:
            raise PropertyFailure(
                "properties failed: " +
                ", ".join(f"{r.name} at {r.witness}" for r in failed))

    # -- the asymptotic ring and phi ------------------------------------------------

    @cached_property
    def jring(self) -> "JRing":
        self.require_checks()
        return JRing(self)

    def phi_cdagger(self, w: int) -> dict[int, LaurentPoly]:
        """Image of the dagger of c_w: sum of h_{w,d,z} nhat_z t_z over a(z) = a(d)."""
        hconst = self.hconst
        out: dict[int, LaurentPoly] = {}
        a = self.afn
        for d in self.dinv:
            add_into(out, {z: h * self.nhat[z] for z, h in hconst[(w, d)].items()
                           if a[z] == a[d]})
        return out

    def phi(self, s: int) -> dict[int, LaurentPoly]:
        """phi(Tt_s) for the generator s: v^L(s) 1_J less the image of c_s^dagger.

        c_s^dagger = v^L(s) - Tt_s, and phi_cdagger takes the element index
        of s, not the generator number.
        """
        unit = self.jring.unit
        out = {d: vpow(self.weights(s)) * n for d, n in unit.items()}
        return add_into(out, self.phi_cdagger(self.group.left_table[s][0]), -1)

    @cached_property
    def phi_matrix(self) -> list[list[LaurentPoly]]:
        """B[x][y] = coefficient of t_x in phi(Tt_y).

        phi is a homomorphism into J with A-coefficients, so with s the
        first letter of y, phi(Tt_y) = phi(Tt_s) phi(Tt_sy) in J.  sy comes
        before y in the index order, so the columns are built in it from
        phi(Tt_e) = 1_J.
        """
        ring = self.jring
        group = self.group
        gens = [self.phi(s) for s in range(group.rank)]
        cols = [{d: LaurentPoly.const(n) for d, n in ring.unit.items()}]
        for y in range(1, len(group)):
            s = group.words[y][0]
            cols.append(ring.mul(gens[s], cols[group.left_table[s][y]]))
        return [[col.get(x, _ZERO) for col in cols] for x in range(len(group))]

    def phi_matrix_det(self) -> LaurentPoly:
        """det phi, as a product over the right cells.

        phi_matrix is C F, where C[z][w] is the coefficient of t_z in
        phi(c_w^dagger) and Tt_y = sum of F[w][y] c_w^dagger.  c_w^dagger is
        (-1)^l(w) Tt_w plus shorter terms, so det F = (-1)^(sum of l(y)).
        C is nonzero only where a(z) > a(w), or a(z) = a(w) with z and w in
        one right cell (the inverse of a left cell): ordered by a, C is block
        triangular with the right cells as diagonal blocks.  That pattern is
        checked entry by entry first; an entry outside it raises
        PropertyFailure with (z, w) as the witness.
        """
        self.require_checks()
        group = self.group
        inv = group.inverse_index
        a = self.afn
        right_cells = [sorted(inv(x) for x in cell) for cell in self.left_cells]
        cell_of = {z: i for i, cell in enumerate(right_cells) for z in cell}
        C = [self.phi_cdagger(w) for w in range(len(group))]
        for w, col in enumerate(C):
            for z in col:
                if a[z] < a[w] or (a[z] == a[w] and cell_of[z] != cell_of[w]):
                    raise PropertyFailure(
                        f"phi(c_{group.name(w)}^dagger) has a "
                        f"t_{group.name(z)} term outside the right-cell "
                        "block pattern", (z, w))
        det = LaurentPoly.const(-1 if sum(map(len, group.words)) % 2 else 1)
        for cell in right_cells:
            det = det * det_laurent_matrix([[C[w].get(z, _ZERO) for w in cell] for z in cell])
        return det


class JRing:
    """The asymptotic ring: integer structure constants on a group basis.

    Products read the gamma index of kl: kl.gamma_rows[x][y] is t_x t_y.
    """

    def __init__(self, kl: KLData):
        self.kl = kl

    def mul(self, jx: dict, jy: dict) -> dict:
        """jx jy, adding t_x t_y only for the (x, y) whose product is not zero."""
        rows = self.kl.gamma_rows
        out: dict = {}
        for x, cx in jx.items():
            for y, prod in rows[x].items():
                if y in jy:
                    add_into(out, prod, cx * jy[y])
        return out

    def basis(self, w: int) -> dict[int, int]:
        return {w: 1}

    @cached_property
    def unit(self) -> dict[int, int]:
        return {d: self.kl.nz[d] for d in self.kl.dinv}

    @cached_property
    def level_idempotents(self) -> dict[int, dict[int, int]]:
        """t_a = sum of n_d t_d over distinguished d with a(d) = a."""
        out: dict[int, dict[int, int]] = {}
        for d in self.kl.dinv:
            out.setdefault(self.kl.afn[d], {})[d] = self.kl.nz[d]
        return out
