"""Partition combinatorics and Schur-element invariants.

Covers partitions and bipartitions with e-regularity and hook lengths,
two-row symbols, the exact product formula for type-B Schur elements with
weights (a, b), the derived invariants (alpha, f) for types A/B/D, embedded
invariant tables for G2 and F4, and L-good prime tests.

Conventions: an invariant pair is read off the lowest term of the Schur
element, which always has the shape f * v^(-2*alpha) + higher terms with
f a positive integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator, NamedTuple, Optional

from .laurent import LaurentPoly, vpow

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


class MTooSmall(ValueError):
    """Symbol padding size below the number of parts."""


class RegimeNotCovered(ValueError):
    """No table column or closed form covers the requested (a, b)."""


class DomainError(ValueError):
    """Closed-form precondition violated."""


class InvariantPair(NamedTuple):
    alpha: int
    f: int


# ---------------------------------------------------------------------------
# partition basics
# ---------------------------------------------------------------------------

def check_partition(nu) -> Partition:
    nu = tuple(nu)
    if any(p <= 0 for p in nu) or any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
        raise ValueError(f"not a partition: {nu}")
    return nu


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order."""
    if n == 0:
        yield ()
        return

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(remaining, maxpart), 0, -1):
            yield from rec(remaining - p, p, prefix + [p])

    yield from rec(n, n, [])


def bipartitions(n: int) -> Iterator[Bipartition]:
    for k in range(n, -1, -1):
        for lam in partitions(k):
            for mu in partitions(n - k):
                yield (lam, mu)


def nfun(nu: Partition) -> int:
    """sum (i - 1) * nu_i over the parts of nu."""
    return sum(i * p for i, p in enumerate(nu))


def conjugate(nu: Partition) -> Partition:
    if not nu:
        return ()
    return tuple(sum(1 for p in nu if p > j) for j in range(nu[0]))


def e_regular(nu: Partition, e: Optional[int]) -> bool:
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
# symbols and the type-B Schur element
# ---------------------------------------------------------------------------

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


#: Largest n at which invariants_B checks its lowest-term pair against the
#: full product formula (the exact division is the runtime proof that the
#: formula yields a Laurent polynomial): a whole n = 3 table costs about
#: 2 ms that way, n = 5 about 20 ms and n = 7 about 150 ms.
SCHUR_CHECK_CAP = 3


def _vsum(e1: int, e2: int) -> dict[int, int]:
    """v^e1 + v^e2 as an {exponent: coefficient} map."""
    return {e1: 2} if e1 == e2 else {e1: 1, e2: 1}


def _geometric(k: int, step: int, shift: int = 0) -> dict[int, int]:
    """v^shift * (1 + v^step + ... + v^((k-1)*step)); k * v^shift when step = 0."""
    if step == 0:
        return {shift: k}
    return {shift + j * step: 1 for j in range(k)}


def _factors_B(lam: Bipartition, a: int, b: int,
               m: Optional[int] = None) -> Iterator[tuple[bool, dict[int, int]]]:
    """The factors of the type-B symbol product formula at a bipartition.

    Yields (is_denominator, {exponent: coefficient}); every factor has
    positive coefficients.  The (v^2a - 1)-type factors occurring in numerator
    and denominator are cancelled in matched pairs before specialization,
    which keeps the a = 0 case well defined: each v^(2ak) - 1 appears as
    1 + v^2a + ... + v^(2a(k-1)), which is the constant k when a = 0.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise DomainError("weights must be nonnegative and not both zero")
    lam1, lam2 = check_partition(lam[0]), check_partition(lam[1])
    n = sum(lam1) + sum(lam2)
    if m is None:
        m = min_symbol_size((lam1, lam2))
    sym = symbol_of((lam1, lam2), m)
    alpha, beta = sym.top, sym.bottom
    x = 2 * a  # exponent of v carried by one power of the a-parameter
    y = 2 * b
    num_c1 = den_c1 = 0  # matched (v^(2a) - 1) factor counts

    # Leading monomial and the (v^2a + v^2b)^m factor.  The b-part of the
    # exponent makes the value independent of the padding size m; without it
    # the result drifts by v^(-2b) per increment of the triangular number
    # m(m-1)/2 (anchored at m = 0 by the Poincare polynomial of the group).
    yield False, {a * 2 * m * (2 * m + 1) * (m - 2) // 3 + b * m * (m - 1): 1}
    for _ in range(m):
        yield False, _vsum(x, y)

    for ai in alpha:
        for k in range(1, ai + 1):
            num_c1 += 1
            yield False, _geometric(k, x)                  # (v^(2ak) - 1) factor
            yield False, _vsum(x * (k - 1) + y, 0)
    for bj in beta:
        for k in range(1, bj + 1):
            num_c1 += 1
            yield False, _geometric(k, x)
            yield False, _vsum(x * (k + 1) - y, 0)

    den_c1 += n                                            # (v^(2a) - 1)^n
    for ai in alpha:
        for bj in beta:
            yield True, _vsum(x * (ai - 1) + y, x * bj)
    for i2 in range(len(alpha)):
        for i1 in range(i2):
            den_c1 += 1                                    # v^(2a*ai2) - v^(2a*ai1)
            yield True, _geometric(alpha[i2] - alpha[i1], x, x * alpha[i1])
    for j2 in range(len(beta)):
        for j1 in range(j2):
            den_c1 += 1
            yield True, _geometric(beta[j2] - beta[j1], x, x * beta[j1])

    if num_c1 != den_c1:
        raise AssertionError("unbalanced cancellation in Schur product formula")


def schur_element_B(lam: Bipartition, a: int, b: int, m: Optional[int] = None) -> LaurentPoly:
    """Schur element of the weight-(a, b) type-B algebra at a bipartition.

    Evaluates the symbol product formula (``_factors_B``) exactly.
    """
    p = q = LaurentPoly.one()
    for is_den, terms in _factors_B(lam, a, b, m):
        if is_den:
            q = q * LaurentPoly(terms)
        else:
            p = p * LaurentPoly(terms)
    return p.exact_div(q)


def _extract_invariants(c: LaurentPoly) -> InvariantPair:
    lo, coeff, _, _ = c.extremal()
    if lo % 2 != 0:
        raise ArithmeticError(f"odd minimal degree {lo} in Schur element")
    if coeff <= 0:
        raise ArithmeticError(f"nonpositive trailing coefficient {coeff}")
    return InvariantPair(alpha=-lo // 2, f=coeff)


def invariants_B(lam: Bipartition, a: int, b: int) -> InvariantPair:
    """(alpha, f) read off the lowest term of the type-B Schur element.

    Over Z the lowest term of a product is the product of the lowest terms,
    and the Schur element is an exact quotient, so only each factor's lowest
    exponent and coefficient are needed.  Up to SCHUR_CHECK_CAP the pair is
    checked against the fully divided element.
    """
    lo, num, den = 0, 1, 1
    for is_den, terms in _factors_B(lam, a, b):
        e = min(terms)
        if is_den:
            lo -= e
            den *= terms[e]
        else:
            lo += e
            num *= terms[e]
    f, rem = divmod(num, den)
    if rem or lo % 2 != 0 or f <= 0:
        raise ArithmeticError(f"lowest term {num}/{den} * v^{lo} of the Schur "
                              "element is not f * v^(-2 alpha) with f a positive integer")
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
    data = json.loads(resources.files("heckekit.fixtures").joinpath(name).read_text())
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
