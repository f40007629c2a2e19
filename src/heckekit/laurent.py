"""Sparse Laurent polynomials in one variable v over arbitrary-precision integers.

This is the coefficient ring of the whole package: Hecke structure constants,
Schur elements and crystal edge weights all live in Z[v, v^-1].  Polynomials
are stored sparsely as a map exponent -> nonzero coefficient (the zero
polynomial is the empty map) and are immutable; every operation returns a new
object.  Hecke elements, c-basis rows and Fock vectors are sparse maps
key -> nonzero coefficient in turn, and ``add_into`` is their one accumulate.

An integer kernel builds a polynomial's map in place as a plain dict
(``add_product_into``) and wraps it once with ``interned``; it only reads the
``_terms`` of finished polynomials.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, MutableMapping


class DivisionByZero(ArithmeticError):
    """Division of a Laurent polynomial by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """The requested quotient does not exist in Z[v, v^-1]."""


class ZeroPolynomial(ValueError):
    """Extremal data requested for the zero polynomial."""


class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    >>> p = LaurentPoly({1: 1, -1: 1})   # v + v^-1
    >>> q = LaurentPoly({1: 1, -1: -1})  # v - v^-1
    >>> (p * q).text()
    '-v^-2 + v^2'
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        data: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            if coeff:
                c = data.get(exp, 0) + coeff
                if c:
                    data[exp] = c
                elif exp in data:
                    del data[exp]
        self._terms = data
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- basic queries -------------------------------------------------

    def items(self):
        """Term list sorted by ascending exponent."""
        return sorted(self._terms.items())

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def mindeg(self) -> int:
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no minimal degree")
        return min(self._terms)

    @property
    def maxdeg(self) -> int:
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no maximal degree")
        return max(self._terms)

    def extremal(self) -> tuple[int, int, int, int]:
        """Return (mindeg, mincoeff, maxdeg, maxcoeff) of a nonzero polynomial."""
        if not self._terms:
            raise ZeroPolynomial("extremal terms of the zero polynomial")
        lo = min(self._terms)
        hi = max(self._terms)
        return lo, self._terms[lo], hi, self._terms[hi]

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        data = dict(self._terms)
        for exp, coeff in other._terms.items():
            c = data.get(exp, 0) + coeff
            if c:
                data[exp] = c
            elif exp in data:
                del data[exp]
        return _wrap(data)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        return _wrap(add_product_into({}, a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        if k == 0:
            return self
        return _wrap({e + k: c for e, c in self._terms.items()})

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1 (exponents negated)."""
        return _wrap({-e: c for e, c in self._terms.items()})

    def neg_part(self) -> "LaurentPoly":
        """Truncation to strictly negative exponents."""
        return _wrap({e: c for e, c in self._terms.items() if e < 0})

    def bar_symmetric_part(self) -> "LaurentPoly":
        """The bar-invariant polynomial that agrees with self in degrees >= 0."""
        data = {e: c for e, c in self._terms.items() if e >= 0}
        data.update([(-e, c) for e, c in data.items() if e])
        return _wrap(data)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other in Z[v, v^-1].

        Raises DivisionByZero when other is zero and NotDivisible when the
        quotient is not a Laurent polynomial with integer coefficients.
        """
        other = _coerce(other)
        if not other._terms:
            raise DivisionByZero("division by the zero polynomial")
        if not self._terms:
            return _ZERO
        # Sparse long division from the top term: every quotient term clears
        # the remainder's leading term, and none may fall below the lowest
        # exponent the quotient can have.
        qhi = max(other._terms)
        lead = other._terms[qhi]
        floor = min(self._terms) - min(other._terms)
        rest = dict(self._terms)
        quot: dict[int, int] = {}
        while rest:
            top = max(rest)
            e = top - qhi
            c, r = divmod(rest[top], lead)
            if r or e < floor:
                raise NotDivisible("remainder nonzero or quotient not integral")
            quot[e] = c
            add_into(rest, {e2 + e: c2 for e2, c2 in other._terms.items()}, -c)
        return _wrap(quot)

    # -- specialization ------------------------------------------------

    def at_one(self) -> int:
        """Value at v = 1."""
        return sum(self._terms.values())

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- rendering -------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering with ascending exponents and explicit signs."""
        if not self._terms:
            return "0"
        pieces = []
        for i, (exp, coeff) in enumerate(self.items()):
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                vpow = "v" if exp == 1 else f"v^{exp}"
                body = vpow if mag == 1 else f"{mag}*{vpow}"
            if i == 0:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append((" - " if coeff < 0 else " + ") + body)
        return "".join(pieces)

    def json_pairs(self) -> list[list]:
        """[[exponent, coefficient-as-decimal-string], ...] sorted by exponent."""
        return [[e, str(c)] for e, c in self.items()]

    def __repr__(self):
        return f"LaurentPoly('{self.text()}')"


def _wrap(data: dict[int, int]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = data
    p._hash = None
    return p


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return _wrap({0: x}) if x else _ZERO
    return NotImplemented


_ZERO = _wrap({})
_ONE = _wrap({0: 1})


def add_into(acc: MutableMapping, terms: Mapping, scale=None) -> MutableMapping:
    """Add scale * terms into acc entry by entry and return acc.

    Values may be ints or LaurentPolys.  No zero is ever stored: a key whose
    sum cancels is deleted, and a zero term on a new key creates no entry.
    """
    for key, c in terms.items():
        if scale is not None:
            c = c * scale
        cur = acc.get(key)
        if cur is not None:
            c = cur + c
        if c:
            acc[key] = c
        elif cur is not None:
            del acc[key]
    return acc


def add_product_into(acc: dict[int, int], p: Mapping[int, int],
                     q: Mapping[int, int]) -> dict[int, int]:
    """Add the product of the term maps p and q into the term map acc and return acc.

    Term maps are {exponent: nonzero coefficient}, the storage of a
    LaurentPoly.  This is acc += p * q in place, for kernels that build a
    polynomial as a plain dict and wrap it once it is finished.  As in
    add_into, a key whose sum cancels is deleted and no zero is stored; p and
    q are only read.
    """
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            elif e in acc:
                del acc[e]
    return acc


def interned(table: dict, terms: dict[int, int]) -> LaurentPoly:
    """The LaurentPoly with the term map terms, one object per distinct map in table.

    table maps frozenset(terms.items()) to the object made when that map was
    first seen.  The new object takes terms over without a copy, so the
    caller must not change terms afterwards.
    """
    key = frozenset(terms.items())
    p = table.get(key)
    if p is None:
        p = table[key] = _wrap(terms)
    return p


def vpow(k: int, coeff: int = 1) -> LaurentPoly:
    """Shorthand for coeff * v^k."""
    return LaurentPoly.monomial(k, coeff)
