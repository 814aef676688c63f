"""Finite-dimensional commutative associative unital algebras over Q.

Products are stored sparsely for i <= j; commutativity is structural and
associativity plus the unit axioms are checked exactly on construction.
The radical is computed as the kernel of the trace form (which coincides
with the set of nilpotents in characteristic zero) and the socle as the
annihilator of the radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, StructuralError
from .matrix import Matrix, Q, rref_basis, _frac, _unit


class CommAlgebra:
    __slots__ = ("dim", "products", "unit")

    def __init__(
        self,
        dim: int,
        products: Mapping[tuple[int, int], Mapping[int, object]],
        unit: Sequence,
    ):
        if dim <= 0:
            raise InputError("dimension must be positive")
        self.dim = dim
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comp in products.items():
            if not (0 <= i <= j < dim):
                raise InputError("products must be stored with 0 <= i <= j < dim")
            entry = {k: _frac(c) for k, c in comp.items() if _frac(c) != 0}
            for k in entry:
                if not 0 <= k < dim:
                    raise InputError("product target index out of range")
            if entry:
                table[(i, j)] = entry
        self.products = table
        self.unit = [_frac(x) for x in unit]
        if len(self.unit) != dim:
            raise InputError("unit coordinate length mismatch")
        self._validate()

    def basis_product(self, i: int, j: int) -> list[Fraction]:
        if i > j:
            i, j = j, i
        out = [Q(0)] * self.dim
        for k, c in self.products.get((i, j), {}).items():
            out[k] = c
        return out

    def multiply(self, x: Sequence, y: Sequence) -> list[Fraction]:
        xv = [_frac(a) for a in x]
        yv = [_frac(a) for a in y]
        out = [Q(0)] * self.dim
        for i, xi in enumerate(xv):
            if xi == 0:
                continue
            for j, yj in enumerate(yv):
                if yj == 0:
                    continue
                for k, c in enumerate(self.basis_product(i, j)):
                    if c != 0:
                        out[k] += xi * yj * c
        return out

    def mult_operator(self, x: Sequence) -> Matrix:
        cols = [self.multiply(x, _unit(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols)

    def _validate(self) -> None:
        n = self.dim
        for j in range(n):
            ej = _unit(n, j)
            if self.multiply(self.unit, ej) != ej or self.multiply(ej, self.unit) != ej:
                raise StructuralError("unit element fails the unit axiom")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.multiply(self.basis_product(i, j), _unit(n, k))
                    rhs = self.multiply(_unit(n, i), self.basis_product(j, k))
                    if lhs != rhs:
                        raise StructuralError(f"associativity fails at ({i},{j},{k})")

    def is_nilpotent_element(self, x: Sequence) -> bool:
        v = [_frac(a) for a in x]
        for _ in range(self.dim + 1):
            if all(c == 0 for c in v):
                return True
            v = self.multiply(v, x)
        return False


@dataclass
class SocleReport:
    radical: list[list[Fraction]]
    socle: list[list[Fraction]]
    is_local: bool


def radical_and_socle(algebra: CommAlgebra) -> SocleReport:
    """Radical as the trace-form kernel, socle as its annihilator.

    Every radical basis vector is re-verified nilpotent by explicit powering.
    """
    n = algebra.dim
    trace_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            op = algebra.mult_operator(algebra.basis_product(i, j))
            row.append(sum(op.data[t][t] for t in range(n)))
        trace_rows.append(row)
    radical = rref_basis(Matrix(trace_rows).kernel_basis())
    for v in radical:
        if not algebra.is_nilpotent_element(v):
            raise StructuralError("trace-form kernel contains a non-nilpotent")  # pragma: no cover
    if not radical:
        socle = rref_basis([_unit(n, j) for j in range(n)])
    else:
        rows = []
        for r in radical:
            rows.extend(algebra.mult_operator(r).data)
        socle = rref_basis(Matrix(rows).kernel_basis())
    is_local = n - len(radical) == 1
    return SocleReport(radical, socle, is_local)


# -- stock algebras -----------------------------------------------------------------


def rationals() -> CommAlgebra:
    return CommAlgebra(1, {(0, 0): {0: 1}}, [1])


def monomial_quotient(exponent_basis: Sequence[tuple[int, ...]]) -> CommAlgebra:
    """Quotient of a polynomial ring by a monomial ideal.

    `exponent_basis` lists the monomials surviving in the quotient (the
    first entry must be the constant monomial); products falling outside
    the list are zero.
    """
    basis = [tuple(e) for e in exponent_basis]
    if not basis or any(x != 0 for x in basis[0]):
        raise InputError("first basis monomial must be 1")
    index = {e: t for t, e in enumerate(basis)}
    if len(index) != len(basis):
        raise InputError("duplicate monomials")
    n = len(basis)
    products = {}
    for i in range(n):
        for j in range(i, n):
            e = tuple(a + b for a, b in zip(basis[i], basis[j]))
            if e in index:
                products[(i, j)] = {index[e]: 1}
    unit = [1] + [0] * (n - 1)
    return CommAlgebra(n, products, unit)


def dual_numbers() -> CommAlgebra:
    """Q[eps] / (eps^2)."""
    return monomial_quotient([(0,), (1,)])


def truncated_polynomials(k: int) -> CommAlgebra:
    """Q[x] / (x^k), dimension k."""
    if k < 1:
        raise InputError("need k >= 1")
    return monomial_quotient([(i,) for i in range(k)])


def example6_algebra() -> CommAlgebra:
    """Q[x, y] / (x^3, y^2, xy): basis 1, x, x^2, y; socle spanned by x^2, y."""
    return monomial_quotient([(0, 0), (1, 0), (2, 0), (0, 1)])


def socle3_algebra() -> CommAlgebra:
    """Q[x, y, z] / (all degree-2 monomials): local, dim 4, socle dim 3."""
    return monomial_quotient([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def frobenius_quadratic_algebra(diag: Sequence[int]) -> CommAlgebra:
    """Q + V + Q with V*V' = Phi(v, v') in the top slot, Phi = diag(...).

    Local Frobenius algebra of dimension len(diag) + 2 with 1-dim socle.
    """
    m = len(diag)
    if m == 0:
        raise InputError("need a nonempty diagonal")
    if any(c == 0 for c in diag):
        raise InputError("quadratic form must be nondegenerate")
    n = m + 2
    top = n - 1
    products: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
    for i in range(1, n):
        products[(0, i)] = {i: 1}
    for i in range(m):
        products[(1 + i, 1 + i)] = {top: int(diag[i])}
    unit = [1] + [0] * (n - 1)
    return CommAlgebra(n, products, unit)
