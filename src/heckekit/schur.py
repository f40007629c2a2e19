"""Partition combinatorics and Schur-element invariants.

Covers partitions and multipartitions with e-regularity and hook lengths,
the exact type-B Schur elements with weights (a, b) as one product over the
boxes of the bipartition (the hook formula of Chlouveraki-Jacon, J.
Algebraic Combin. 35 (2012), at r = 2), the derived invariants (alpha, f)
for types A/B/D, embedded invariant tables for G2 and F4, L-good prime
tests, and the size caps of the type-A, B and D tables.

Conventions: an invariant pair is read off the lowest term of the Schur
element, which always has the shape f * v^(-2*alpha) + higher terms with
f a positive integer.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .laurent import LaurentPoly, vpow

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


class RegimeNotCovered(ValueError):
    """No table column or closed form covers the requested (a, b)."""


class DomainError(ValueError):
    """Closed-form precondition violated."""


class SizeCapExceeded(ValueError):
    """A type-A, B or D job beyond its SIZE_CAPS entry, or a type-B Schur
    element beyond ELEMENT_CAP."""


InvariantPair = namedtuple("InvariantPair", "alpha f")


# ---------------------------------------------------------------------------
# partition basics
# ---------------------------------------------------------------------------

#: Largest n for the type-A, B and D invariant tables and basic sets.  At
#: the cap the slowest of these takes about 2-3 s as a fresh process: the A
#: table at a = 0, the B table and the D table.  The type-D basic set takes
#: at most about 0.8 s there (n = 22, xi of order 40 or more), and 3.3 s at
#: n = 26.
SIZE_CAPS = {"A": 40, "B": 20, "D": 22}

#: Largest n = |lam| for one type-B Schur element (`schur --bipartition`).
#: The element has up to about n^3 terms at generic weights: [[32], []] at
#: (a, b) = (7, 1000) takes about 1.2 s for 1.9 MB of output, and [[40], []]
#: 3.3 s for 4.8 MB.
ELEMENT_CAP = 32


def check_size(family: str, n: int) -> None:
    """Refuse a type-A, B or D job over its cap, before any partition is listed."""
    cap = SIZE_CAPS[family]
    if n > cap:
        raise SizeCapExceeded(f"type {family} at n = {n} exceeds the cap n <= {cap}")


def check_partition(nu) -> Partition:
    nu = tuple(nu)
    if any(p <= 0 for p in nu) or any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
        raise ValueError(f"not a partition: {nu}")
    return nu


def _capped_partitions(n: int, caps: list[int], floors: Partition = ()) -> Iterator[Partition]:
    """Partitions of n whose row a is at most caps[a-1] and at least floors[a-1],
    in reverse lexicographic order.

    Rows past caps are empty, and rows past floors have no floor.
    """
    depth = len(floors)
    lows = list(floors) + [1] * (len(caps) - depth)

    def extend(left: int, a: int, top: int) -> Iterator[Partition]:
        if left == 0:
            if a >= depth:
                yield ()
        elif a < len(caps):
            for part in range(min(left, top, caps[a]), lows[a] - 1, -1):
                for rest in extend(left - part, a + 1, part):
                    yield (part,) + rest
    return extend(n, 0, n)


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order."""
    return _capped_partitions(n, [n] * n)


def multipartitions(r: int, n: int) -> Iterator[tuple[Partition, ...]]:
    """All r-multipartitions of n, by decreasing size of the first component."""
    if r == 1:
        for nu in partitions(n):
            yield (nu,)
        return
    for k in range(n, -1, -1):
        for nu in partitions(k):
            for rest in multipartitions(r - 1, n - k):
                yield (nu,) + rest


def bipartitions(n: int) -> Iterator[Bipartition]:
    return multipartitions(2, n)


def nfun(nu: Partition) -> int:
    """sum (i - 1) * nu_i over the parts of nu."""
    return sum(i * p for i, p in enumerate(nu))


def conjugate(nu: Partition) -> Partition:
    if not nu:
        return ()
    return tuple(sum(1 for p in nu if p > j) for j in range(nu[0]))


def e_regular(nu: Partition, e: int | None) -> bool:
    """No part repeated e or more times; e = None means no constraint."""
    if e is None:
        return True
    if e < 1:
        raise ValueError("e must be >= 1 or None")
    run = 1
    for i in range(1, len(nu)):
        run = run + 1 if nu[i] == nu[i - 1] else 1
        if run >= e:
            return False
    # a single part is already a run of length 1, which e = 1 forbids
    return not nu or e > 1


def hooks_product(nu: Partition) -> int:
    conj = conjugate(nu)
    prod = 1
    for i, p in enumerate(nu):
        for j in range(p):
            prod *= p - j + conj[j] - i - 1
    return prod


def standard_tableaux(nu: Partition) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    n = sum(nu)
    return math.factorial(n) // hooks_product(nu) if n else 1


# ---------------------------------------------------------------------------
# the type-B Schur element
# ---------------------------------------------------------------------------

#: Largest n at which invariants_B checks the pair it reads off the factors'
#: lowest terms against the lowest term of the multiplied-out element of
#: schur_element_B.  A whole (1, 2) table costs 1.0 ms that way at n = 3
#: (0.3 ms without the check), 6 ms at n = 5 (1.1 ms) and 31 ms at n = 7
#: (4.7 ms), in process on Python 3.11.
SCHUR_CHECK_CAP = 3


def _factors_B(lam: Bipartition, a: int, b: int) -> Iterator[dict[int, int]]:
    """The factors of the weight-(a, b) type-B Schur element at a bipartition.

    Yields {exponent: coefficient} maps, all with positive coefficients.  By
    the hook formula (Chlouveraki-Jacon, J. Algebraic Combin. 35 (2012),
    the Ariki-Koike case r = 2), with q = v^(2a) and [h]_q = 1 + q + ... +
    q^(h-1), which is the constant h when a = 0:

        c = v^(-2a n(lam-bar)) * prod over s in {0, 1} and the boxes (i, j)
            of lam^s of [h_ij]_q * (v^(2(eps_s b + a g_ij)) + 1)

    h_ij = lam^s_i - j + (lam^s)'_j - i + 1 is the hook length, and g_ij is
    the same with the column length (lam^t)'_j of the other component
    t = 1 - s, so it can be 0 or negative.  eps_0 = 1, eps_1 = -1, and
    lam-bar is the partition made of all the parts of lam^0 and lam^1.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise DomainError("weights must be nonnegative and not both zero")
    comps = check_partition(lam[0]), check_partition(lam[1])
    cols = conjugate(comps[0]), conjugate(comps[1])
    yield {-2 * a * nfun(tuple(sorted(comps[0] + comps[1], reverse=True))): 1}
    for s, eps in ((0, 1), (1, -1)):
        own, other = cols[s], cols[1 - s] + (0,) * len(cols[s])
        for i, row in enumerate(comps[s]):
            for j in range(row):
                h = row - j + own[j] - i - 1
                g = row - j + other[j] - i - 1
                yield {2 * a * k: 1 for k in range(h)} if a else {0: h}
                e = 2 * (eps * b + a * g)
                yield {0: 2} if e == 0 else {0: 1, e: 1}


def schur_element_B(lam: Bipartition, a: int, b: int) -> LaurentPoly:
    """Schur element of the weight-(a, b) type-B algebra at a bipartition:
    the product of the hook-formula factors of ``_factors_B``, refused
    before any factor is formed when lam has more than ELEMENT_CAP boxes."""
    n = sum(map(sum, map(check_partition, lam)))
    if n > ELEMENT_CAP:
        raise SizeCapExceeded(
            f"a type-B Schur element at n = {n} exceeds the cap n <= {ELEMENT_CAP}")
    return math.prod(map(LaurentPoly, _factors_B(lam, a, b)), start=LaurentPoly.one())


def _extract_invariants(c: LaurentPoly) -> InvariantPair:
    lo, coeff, _, _ = c.extremal()
    if lo % 2 != 0:
        raise ArithmeticError(f"odd minimal degree {lo} in Schur element")
    if coeff <= 0:
        raise ArithmeticError(f"nonpositive trailing coefficient {coeff}")
    return InvariantPair(alpha=-lo // 2, f=coeff)


def invariants_B(lam: Bipartition, a: int, b: int) -> InvariantPair:
    """(alpha, f) read off the lowest term of the type-B Schur element.

    Every factor of ``_factors_B`` has positive coefficients, so the lowest
    term of the product is the product of the factors' lowest terms:
    alpha = a n(lam-bar) - sum min(0, eps_s b + a g_ij), and f is 2 to the
    number of boxes with eps_s b + a g_ij = 0, times prod h_ij when a = 0.
    Up to SCHUR_CHECK_CAP the pair is checked against the multiplied-out
    element.
    """
    lo, f = 0, 1
    for terms in _factors_B(lam, a, b):
        e = min(terms)
        lo += e
        f *= terms[e]
    pair = InvariantPair(alpha=-lo // 2, f=f)
    if sum(map(sum, lam)) <= SCHUR_CHECK_CAP \
            and pair != _extract_invariants(schur_element_B(lam, a, b)):
        raise AssertionError(f"lowest terms disagree with the Schur element at {lam}")
    return pair


def invariants_asymptotic(lam: Bipartition, a: int, b: int) -> InvariantPair:
    """Closed form valid for b > (n-1)a > 0; f is always 1 there."""
    lam1, lam2 = check_partition(lam[0]), check_partition(lam[1])
    n = sum(lam1) + sum(lam2)
    if not (a > 0 and b > (n - 1) * a):
        raise DomainError(f"need b > (n-1)a > 0, got a={a}, b={b}, n={n}")
    alpha = b * sum(lam2) + a * (nfun(lam1) + 2 * nfun(lam2) - nfun(conjugate(lam2)))
    return InvariantPair(alpha=alpha, f=1)


def invariants_A(nu: Partition, a: int) -> InvariantPair:
    """Symmetric-group closed form: alpha = n(nu) * a and f = 1 for a > 0.

    At a = 0 the algebra is Q[S_n], whose Schur elements are n! / dim E.
    """
    nu = check_partition(nu)
    if a < 0:
        raise DomainError(f"type A requires a >= 0, got a={a}")
    if a == 0:
        return InvariantPair(alpha=0, f=math.factorial(sum(nu)) // standard_tableaux(nu))
    return InvariantPair(alpha=nfun(nu) * a, f=1)


def invariants_azero(lam: Bipartition, b: int) -> InvariantPair:
    """The a = 0 case: alpha = |second component| * b, f from the element."""
    if b <= 0:
        raise DomainError("a = 0 requires b > 0")
    alpha = sum(lam[1]) * b
    pair = invariants_B(lam, 0, b)
    if pair.alpha != alpha:
        raise AssertionError("closed form disagrees with the product formula")
    return InvariantPair(alpha=alpha, f=pair.f)


def check_rank_D(n: int) -> None:
    """There is no D_0 or D_1: type D starts at n = 2."""
    if n < 2:
        raise DomainError(f"type D needs n >= 2, got n={n}")


def typeD_invariants(lam: Partition, mu: Partition, a: int) -> InvariantPair:
    """Invariants for an unordered type-D label [lam, mu], lam != mu.

    H(D_n) has index 2 in H(B_n) at b = 0, and the type-B characters of
    (lam, mu) and (mu, lam), whose Schur elements agree there, restrict to
    the same irreducible.  Restricting the trace gives 1/c^D = 2/c^B
    (Clifford theory), so alpha is kept and f halves.
    """
    if tuple(lam) == tuple(mu):
        raise DomainError("equal components split; use typeD_invariants_split")
    if a <= 0:
        raise DomainError("type D requires a > 0")
    base = invariants_B((tuple(lam), tuple(mu)), a, 0)
    if base.f % 2:
        raise ArithmeticError(f"odd type-B f = {base.f} at the pair label [{lam}, {mu}]")
    return InvariantPair(alpha=base.alpha, f=base.f // 2)


def typeD_invariants_split(lam: Partition, a: int) -> InvariantPair:
    """Invariants for a split type-D label [lam, +/-]: those of (lam, lam) at b = 0.

    The type-B character of (lam, lam) restricts to the two split
    characters, so each has the Schur element c^B itself (Clifford theory).
    """
    if a <= 0:
        raise DomainError("type D requires a > 0")
    return invariants_B((tuple(lam), tuple(lam)), a, 0)


# ---------------------------------------------------------------------------
# G2: closed forms and the invariant table
# ---------------------------------------------------------------------------

G2_LABELS = ("1", "eps", "eps1", "eps2", "E+", "E-")


def _g2_regime(a: int, b: int) -> str:
    if b > a > 0:
        return "b>a>0"
    if b == a > 0:
        return "b=a>0"
    if a == 0 and b > 0:
        return "b>a=0"
    raise RegimeNotCovered(f"G2 table has no column for a={a}, b={b}")


def g2_schur(label: str, a: int, b: int) -> LaurentPoly:
    """Closed-form G2 Schur elements for the six irreducible characters.

    The sign pairing for the two 2-dimensional characters follows the
    invariant table: E+ carries (v^(2a+2b) - v^(a+b) + 1)(v^(2a) + v^(a+b) + v^(2b)).
    """
    _g2_regime(a, b)  # regime gate only
    x, y = 2 * a, 2 * b
    c_ind = (vpow(x) + 1) * (vpow(y) + 1) * (vpow(2 * x + 2 * y) + vpow(x + y) + 1)
    if label == "1":
        return c_ind
    if label == "eps":
        return vpow(-3 * x - 3 * y) * c_ind
    c_eps1 = (vpow(-3 * y) * (vpow(x) + 1) * (vpow(y) + 1)
              * (vpow(2 * x) + vpow(x + y) + vpow(2 * y)))
    if label == "eps1":
        return c_eps1
    if label == "eps2":
        return vpow(3 * y - 3 * x) * c_eps1
    if label in ("E+", "E-"):
        s = -1 if label == "E+" else 1
        first = vpow(x + y) + vpow((x + y) // 2, s) + 1
        second = vpow(x) + vpow((x + y) // 2, -s) + vpow(y)
        return LaurentPoly.const(2) * vpow(-x - y) * first * second
    raise ValueError(f"unknown G2 character label {label!r}")


@lru_cache(maxsize=None)
def _load_table(family: str) -> dict:
    """{label: {regime: [f, [cb, ca]]}} of the family's table, in its row order."""
    name = f"{family.lower()}_invariants.json"
    with open(os.path.join(os.path.dirname(__file__), "fixtures", name)) as fh:
        data = json.load(fh)
    return {row["label"]: dict(zip(data["regimes"], row["cells"])) for row in data["rows"]}


def _table_invariants(family: str, regime: str, label: str, a: int, b: int) -> InvariantPair:
    """(f, alpha) of label in the family's table: alpha = cb * b + ca * a."""
    table = _load_table(family)
    if label not in table:
        raise ValueError(f"unknown {family} character label {label!r}")
    f, (cb, ca) = table[label][regime]
    return InvariantPair(alpha=cb * b + ca * a, f=f)


def g2_invariants(label: str, a: int, b: int) -> InvariantPair:
    """Table lookup of (f, alpha) for G2; redundant with g2_schur by design."""
    return _table_invariants("G2", _g2_regime(a, b), label, a, b)


# ---------------------------------------------------------------------------
# F4 invariant table
# ---------------------------------------------------------------------------

def _f4_regime(a: int, b: int) -> str:
    if a > 0:
        if b > 2 * a:
            return "b>2a>0"
        if b == 2 * a:
            return "b=2a>0"
        if a < b < 2 * a:
            return "2a>b>a>0"
        if b == a:
            return "b=a>0"
    elif a == 0 and b > 0:
        return "b>a=0"
    raise RegimeNotCovered(f"F4 table has no column for a={a}, b={b}")


def f4_labels() -> list[str]:
    return list(_load_table("F4"))


def f4_invariants(label: str, a: int, b: int) -> InvariantPair:
    return _table_invariants("F4", _f4_regime(a, b), label, a, b)


# ---------------------------------------------------------------------------
# L-good primes
# ---------------------------------------------------------------------------

def all_invariants(family: str, a: int, b: int = 0, n: int = 0):
    """(label, InvariantPair) pairs for every irreducible of the given type."""
    if family in SIZE_CAPS:
        check_size(family, n)
    if family == "A":
        return [(nu, invariants_A(nu, a)) for nu in partitions(n)]
    if family == "B":
        return [(lam, invariants_B(lam, a, b)) for lam in bipartitions(n)]
    if family == "G2":
        return [(lab, g2_invariants(lab, a, b)) for lab in G2_LABELS]
    if family == "F4":
        return [(lab, f4_invariants(lab, a, b)) for lab in f4_labels()]
    if family == "D":
        check_rank_D(n)
        # an unordered pair is met twice, and kept as ("pair", larger, smaller)
        out = []
        for lam, mu in bipartitions(n):
            if lam == mu:
                pair = typeD_invariants_split(lam, a)
                out.append((("split", lam, "+"), pair))
                out.append((("split", lam, "-"), pair))
            elif lam > mu:
                out.append((("pair", lam, mu), typeD_invariants(lam, mu, a)))
        return out
    raise ValueError(f"unknown family {family!r}")


def l_good(p: int, family: str, a: int, b: int = 0, n: int = 0) -> bool:
    """True when the prime p divides none of the f-invariants."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    return all(pair.f % p != 0 for _, pair in all_invariants(family, a, b, n))
