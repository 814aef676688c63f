"""Sparse multivariate polynomials over Q.

Just enough arithmetic for exact identity checking: coordinates of group
elements and Lie-algebra vectors become degree-1 polynomials, products and
brackets stay polynomial, and equality of the two sides of an identity is a
dictionary comparison.  Monomials are exponent tuples of a fixed arity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction


class Poly:
    """Polynomial in `arity` variables; terms: {exponent tuple: coefficient}."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.arity = arity
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def const(arity: int, c) -> "Poly":
        c = Q(c)
        return Poly(arity, {(0,) * arity: c} if c != 0 else {})

    @staticmethod
    def var(arity: int, i: int) -> "Poly":
        e = [0] * arity
        e[i] = 1
        return Poly(arity, {tuple(e): Q(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.arity == other.arity and self.terms == other.terms
        return self.terms == Poly.const(self.arity, other).terms

    def __hash__(self):
        return hash((self.arity, tuple(sorted(self.terms.items()))))

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Q(0)) + c
        return Poly(self.arity, out)

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        return Poly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Q(0)) + c1 * c2
        return Poly(self.arity, out)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.arity != self.arity:
                raise ValueError("polynomial arities differ")
            return other
        return Poly.const(self.arity, other)

    def substitute(self, values: Sequence) -> Fraction:
        out = Q(0)
        vals = [Q(v) for v in values]
        for e, c in self.terms.items():
            t = c
            for v, p in zip(vals, e):
                if p:
                    t *= v ** p
            out += t
        return out

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"t{i}^{p}" if p > 1 else f"t{i}" for i, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def poly_vector(arity: int, offset: int, length: int) -> list[Poly]:
    """[var_offset, ..., var_{offset+length-1}] as degree-1 polynomials."""
    return [Poly.var(arity, offset + i) for i in range(length)]


def vec_is_zero(a: Iterable[Poly]) -> bool:
    return all(x.is_zero() for x in a)
