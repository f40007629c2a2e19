"""Specialization parameters, basic-set case dispatch, and verification of
canonical-basic-set conditions against ingested decomposition matrices.

A specialization is described purely arithmetically: the characteristic of
the coefficient field, the multiplicative order m of xi, and the two weight
integers (a, b).  All conditions (xi^a = 1, xi^b = -1, vanishing of the
weight product f_n) are decided by exponent arithmetic modulo m; -1 is a
power of xi exactly when m is even (characteristic 2 is refused).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from . import fock
from .fock import ARIKI, FLOTW, FockParams, Multipartition
from .schur import (Partition, bipartitions, check_partition, check_rank_D, check_size,
                    e_regular, partitions)


class CharTwoUnsupported(ValueError):
    """Type-B/D dispatch is stated away from characteristic 2."""


class CaseNotCovered(ValueError):
    """No dispatch case covers the requested parameters."""


class OddOrderUnsupported(ValueError):
    """Type D needs xi of even order."""


class MissingAlpha(ValueError):
    """Every decomposition-matrix row needs its alpha invariant."""


#: Miller-Rabin on these bases (the first 13 primes) decides primality
#: exactly for every n below PRIME_LIMIT, the least strong pseudoprime to all
#: of them (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for 0 <= n < PRIME_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SpecParams(namedtuple("SpecParams", "char xi_order a b")):
    """Field characteristic, order of xi, and the weight integers (a, b)."""

    __slots__ = ()

    def __new__(cls, char: int, xi_order: int, a: int, b: int):
        if char >= PRIME_LIMIT:
            raise ValueError(f"char must be below {PRIME_LIMIT}")
        if char != 0 and not is_prime(char):
            raise ValueError("char must be 0 or a prime")
        if xi_order < 1:
            raise ValueError("xi_order must be >= 1")
        if a < 0 or b < 0:
            raise ValueError("weights must be nonnegative")
        return tuple.__new__(cls, (char, xi_order, a, b))

    def xi_power_is_one(self, k: int) -> bool:
        return k % self.xi_order == 0

    def xi_power_is_minus_one(self, k: int) -> bool:
        """Away from characteristic 2, where -1 = 1 (`fn_zero` refuses char 2)."""
        m = self.xi_order
        return m % 2 == 0 and k % m == m // 2


def e_value(params: SpecParams) -> int | None:
    """Smallest i >= 2 with 1 + xi^a + ... + xi^((i-1)a) = 0, or None.

    When xi^a != 1 this is the multiplicative order of xi^a; when xi^a = 1
    the sum is i itself, so it vanishes first at i = char (never, in
    characteristic zero).
    """
    m, a = params.xi_order, params.a
    if not params.xi_power_is_one(a):
        return m // math.gcd(m, a)
    return params.char if params.char > 0 else None


def fn_zero(params: SpecParams, n: int) -> tuple[bool, int | None]:
    """Does the product of (xi^b + xi^(a i)) over |i| <= n-1 vanish?

    Returns (flag, d) where d satisfies xi^(b + a d) = -1 with |d| <= n-1,
    smallest in absolute value (positive on ties), when the flag is set.
    """
    if params.char == 2:
        raise CharTwoUnsupported("the product criterion is stated away from char 2")
    for d in sorted(range(-(n - 1), n), key=lambda x: (abs(x), -x)):
        if params.xi_power_is_minus_one(params.b + params.a * d):
            return True, d
    return False, None


def basic_set_sym(params: SpecParams, n: int) -> list[Partition]:
    """e-regular partitions of n (the symmetric-group basic set)."""
    check_size("A", n)
    if params.a <= 0:
        raise ValueError("requires a > 0")
    e = e_value(params)
    return [nu for nu in partitions(n) if e_regular(nu, e)]


def basic_set_B(params: SpecParams, n: int) -> tuple[list[Multipartition], str]:
    """Canonical basic set for type B_n with weights (a, b), with provenance.

    Dispatch: (1) asymptotic b > (n-1)a > 0; (2) nonvanishing product
    criterion; (3) xi^a = 1 and xi^b = -1; (4) equal weights a = b with the
    product vanishing; (5) b = 0 with the product vanishing.  Anything else
    is not covered and raises.

    Case 1 takes its tag over cases 2 and 3, and its labels from the
    Specht-module indexing set of the simple modules, as they do.  Without a
    vanishing factor it is the pairs of e-regular partitions.  With one and
    xi^a = 1, xi^b = -1 is forced and the simples extend the symmetric-group
    ones.  Otherwise the labels come from the component-order crystal at
    l = e, the order of xi^a, and charges (0, d mod l), since
    xi^(b + a d) = -1.
    """
    check_size("B", n)
    if params.char == 2:
        raise CharTwoUnsupported("type-B dispatch is stated away from char 2")
    a, b, m = params.a, params.b, params.xi_order
    zero, d = fn_zero(params, n)
    e = e_value(params)
    asymptotic = a > 0 and b > (n - 1) * a
    crystal = None
    if not zero:
        labels = [lam for lam in bipartitions(n)
                  if e_regular(lam[0], e) and e_regular(lam[1], e)]
        tag = "DJ-Morita"
    elif params.xi_power_is_one(a):
        labels = [(lam1, ()) for lam1 in partitions(n) if e_regular(lam1, e)]
        tag = "DJ-extension"
    elif asymptotic:
        crystal, tag = FockParams(l=e, r=2, u=(0, d % e), node_order=ARIKI), "asymptotic/DJM"
    elif a == b and a > 0:
        # vanishing product forces -1 into <xi^a>, so e is even
        crystal, tag = FockParams(l=e, r=2, u=(1, e // 2), node_order=FLOTW), "Jacon-equal"
    elif b == 0 and a > 0:
        crystal, tag = FockParams(l=e, r=2, u=(0, e // 2), node_order=FLOTW), "Jacon-b0"
    else:
        raise CaseNotCovered(
            f"no dispatch case for char={params.char}, m={m}, a={a}, b={b}, n={n}")
    if crystal is not None:
        labels = sorted(fock.uryu_set(crystal, n))
    return labels, "asymptotic/DJM" if asymptotic else tag


TypeDLabel = tuple  # ("pair", lam, mu) with lam != mu, or ("split", lam, "+"/"-")


def basic_set_D(params: SpecParams, n: int) -> list[TypeDLabel]:
    """Canonical basic set for type D_n from the b = 0 crystal set.

    The crystal is that of `basic_set_B` at b = 0: FLOTW charges (0, l/2),
    l the order of xi^a, which must be even.  Unordered pairs with distinct
    components, named ("pair", larger, smaller) and in the order they are
    first met in the sorted set, plus two split labels for each
    (l/2)-regular partition of n/2 when n is even.
    """
    check_rank_D(n)
    check_size("D", n)
    if params.char == 2:
        raise CharTwoUnsupported("type-D dispatch is stated away from char 2")
    l = e_value(params)
    if params.xi_power_is_one(params.a) or l % 2:
        raise OddOrderUnsupported("type D needs xi^a of even order")
    p = FockParams(l=l, r=2, u=(0, l // 2), node_order=FLOTW)
    labels: list[TypeDLabel] = list(dict.fromkeys(
        ("pair", max(lam), min(lam)) for lam in sorted(fock.uryu_set(p, n)) if lam[0] != lam[1]))
    if n % 2 == 0:
        for lam in partitions(n // 2):
            if e_regular(lam, l // 2):
                labels.append(("split", lam, "+"))
                labels.append(("split", lam, "-"))
    return labels


# ---------------------------------------------------------------------------
# decomposition matrices and verification
# ---------------------------------------------------------------------------

Label = Multipartition | Partition | str


class DecompMatrix:
    """An ingested decomposition matrix with row alpha-invariants.  Two
    matrices are equal when their rows and meta are."""

    def __init__(self, labels: list[Label], alpha: list[int], entries: list[list[int]],
                 dims: list[int | None] | None = None, meta: dict | None = None):
        self.labels, self.alpha, self.entries, self.dims, self.meta = \
            labels, alpha, entries, dims, meta
        if len(labels) != len(entries) or len(alpha) != len(labels):
            raise ValueError("row data lengths disagree")
        if dims is not None and len(dims) != len(labels):
            raise ValueError("row data lengths disagree")
        if not entries:
            raise ValueError("the matrix has no rows")
        widths = {len(row) for row in entries}
        if len(widths) != 1:
            raise ValueError("ragged entry rows")
        (self.ncols,) = widths
        for j in range(self.ncols):
            if all(row[j] == 0 for row in entries):
                raise ValueError(f"column {j} has no nonzero entry")

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    __hash__ = None

    @classmethod
    def from_json_dict(cls, data: dict) -> "DecompMatrix":
        """Ingest the documented JSON schema; any mismatch raises ValueError."""
        rows = data.get("rows") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError("expected an object whose 'rows' is a list of objects")
        labels: list[Label] = []
        alpha: list[int] = []
        dims: list[int | None] = []
        entries: list[list[int]] = []
        for row in rows:
            lab = row.get("label")
            if isinstance(lab, str):
                labels.append(lab)
            elif is_int_list(lab):
                labels.append(check_partition(lab))
            elif isinstance(lab, list) and all(is_int_list(c) for c in lab):
                labels.append(tuple(check_partition(c) for c in lab))
            else:
                raise ValueError(f"row label {lab!r} is neither a string nor part lists")
            if "alpha" not in row:
                raise MissingAlpha(f"row {lab} lacks alpha")
            dim = row.get("dim")
            if (not is_int(row["alpha"]) or not is_int_list(row.get("entries"))
                    or not (dim is None or is_int(dim))):
                raise ValueError(f"row {lab}: alpha must be an integer, entries "
                                 "a list of integers and dim absent, null or an integer")
            alpha.append(row["alpha"])
            dims.append(dim)
            entries.append(list(row["entries"]))
        meta = {k: data[k] for k in ("type", "n", "a", "b", "xi_order", "char")
                if k in data}
        has_dims = any(d is not None for d in dims)
        return cls(labels, alpha, entries, dims if has_dims else None, meta)

    @classmethod
    def load(cls, path) -> "DecompMatrix":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("the JSON is nested deeper than the decoder recurses") from None
        return cls.from_json_dict(data)


def is_int(x) -> bool:
    """An integer, but not a bool (JSON true/false parse to bool, a subclass)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_int_list(x) -> bool:
    return isinstance(x, list) and all(map(is_int, x))


class BasicSetResult:
    """The verdict of `verify_decomp`; two results are equal when their
    fields are."""

    def __init__(self, exists: bool,
                 assignment: list[int] | None = None,     # column -> row index
                 breve_alpha: list[int] | None = None,    # per column
                 witness_column: int | None = None,
                 witness_rows: list[int] | None = None):
        self.exists, self.assignment, self.breve_alpha = exists, assignment, breve_alpha
        self.witness_column, self.witness_rows = witness_column, witness_rows

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    __hash__ = None

    def selected_labels(self, matrix: DecompMatrix) -> list[Label]:
        assert self.exists and self.assignment is not None
        order = sorted(range(len(self.assignment)),
                       key=lambda j: (self.breve_alpha[j], str(matrix.labels[self.assignment[j]])))
        return [matrix.labels[self.assignment[j]] for j in order]

    def to_json_dict(self, matrix: DecompMatrix) -> dict:
        if self.exists:
            return {
                "verdict": "exists",
                "labels": self.selected_labels(matrix),
                "breve_alpha": list(self.breve_alpha or []),
            }
        return {
            "verdict": "fails",
            "witness_column": self.witness_column,
            "witness_rows": [matrix.labels[i] for i in self.witness_rows or []],
        }


def verify_decomp(matrix: DecompMatrix) -> BasicSetResult:
    """Check the unitriangular alpha-selection conditions columnwise.

    Each column must meet exactly one row of minimal alpha among its nonzero
    entries, with multiplicity one there, and the induced column-to-row map
    must be injective.  The first violation is reported with its candidates.
    """
    assignment: list[int] = []
    breve: list[int] = []
    for j in range(matrix.ncols):
        support = [i for i in range(len(matrix.labels)) if matrix.entries[i][j] != 0]
        amin = min(matrix.alpha[i] for i in support)
        cands = [i for i in support if matrix.alpha[i] == amin]
        if len(cands) != 1 or matrix.entries[cands[0]][j] != 1:
            return BasicSetResult(False, witness_column=j, witness_rows=cands)
        assignment.append(cands[0])
        breve.append(amin)
    if len(set(assignment)) != len(assignment):
        dup = next(i for i in assignment if assignment.count(i) > 1)
        cols = [j for j, i in enumerate(assignment) if i == dup]
        return BasicSetResult(False, witness_column=cols[1], witness_rows=[dup])
    return BasicSetResult(True, assignment=assignment, breve_alpha=breve)
