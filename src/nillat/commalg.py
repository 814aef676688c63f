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

from .errors import InputError, InternalError, StructuralError
from .matrix import Matrix, Q, sparse_kernel_basis, _dense, _frac, _rref, _sparse


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

    def _product(self, i: int, j: int) -> Mapping[int, Fraction]:
        """e_i e_j as the stored {k: coefficient}."""
        return self.products.get((i, j) if i <= j else (j, i), {})

    def _times(self, v: Mapping[int, Fraction], j: int) -> dict[int, Fraction]:
        """v e_j as {k: coefficient}, v given as {i: coefficient}."""
        out: dict[int, Fraction] = {}
        for i, a in v.items():
            for k, c in self._product(i, j).items():
                out[k] = out.get(k, 0) + a * c
        return {k: c for k, c in out.items() if c}

    def _mul(self, x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """x y on {index: coefficient} vectors, zeros left out."""
        out: dict[int, Fraction] = {}
        for j, b in y.items():
            for k, c in self._times(x, j).items():
                out[k] = out.get(k, 0) + b * c
        return {k: c for k, c in out.items() if c}

    def multiply(self, x: Sequence, y: Sequence) -> list[Fraction]:
        return _dense(self._mul(_sparse(x, self.dim), _sparse(y, self.dim)), self.dim)

    def mult_operator(self, x: Sequence) -> Matrix:
        xv = _sparse(x, self.dim)
        cols = [self._times(xv, j) for j in range(self.dim)]
        return Matrix([[col.get(k, Q(0)) for col in cols] for k in range(self.dim)])

    def _validate(self) -> None:
        n = self.dim
        unit = _sparse(self.unit, self.dim)
        for j in range(n):
            if self._times(unit, j) != {j: 1}:
                raise StructuralError("unit element fails the unit axiom")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # (e_i e_j) e_k against e_i (e_j e_k) = (e_j e_k) e_i
                    if self._times(self._product(i, j), k) != self._times(self._product(j, k), i):
                        raise StructuralError(f"associativity fails at ({i},{j},{k})")

    def is_nilpotent_element(self, x: Sequence) -> bool:
        xv = v = _sparse(x, self.dim)
        for _ in range(self.dim + 1):
            if not v:
                return True
            v = self._mul(v, xv)
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
    # tau_m = tr L_{e_m}; the trace form is tr L_{e_i e_j} = sum_m c_ij^m tau_m
    tau = [sum(algebra._product(m, j).get(j, 0) for j in range(n)) for m in range(n)]
    trace_rows = [{j: sum(c * tau[m] for m, c in algebra._product(i, j).items()) for j in range(n)}
                  for i in range(n)]
    radical = _rref(sparse_kernel_basis(trace_rows, n), n)
    for v in radical:
        if not algebra.is_nilpotent_element(v):
            raise InternalError("trace-form kernel contains a non-nilpotent")  # pragma: no cover
    # one row per (r, k): the coefficient of e_k in r e_j, over j
    rows = []
    for r in (_sparse(v, n) for v in radical):
        cols = [algebra._times(r, j) for j in range(n)]
        rows.extend({j: col[k] for j, col in enumerate(cols) if k in col} for k in range(n))
    socle = _rref(sparse_kernel_basis(rows, n), n)
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
