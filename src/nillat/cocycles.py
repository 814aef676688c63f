"""Scalar 2-cocycles on Lie algebras and the products symplectic ones induce.

Convention used throughout the library:

    (delta w)(x, y, z) = w([x,y], z) + w([y,z], x) + w([z,x], y)

A form is a cocycle when this vanishes on all basis triples, symplectic when
it is additionally nondegenerate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError, PreconditionError
from .liealg import LieAlgebra
from .matrix import Matrix, Q, sparse_kernel_basis, _frac, _reduced_rows, _sparse, _subtract


class AlternatingForm:
    """Alternating bilinear form on a LieAlgebra, stored as its nonzero upper entries.

    `entries` maps (i, j), i < j, to w(e_i, e_j) != 0; `matrix` builds the dense skew matrix on each read.
    """

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: LieAlgebra, matrix: Matrix):
        if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
            raise InputError("form matrix size does not match algebra dimension")
        m = matrix.data
        for i, row in enumerate(m):
            for j in range(i, len(m)):
                a, b = row[j], m[j][i]
                if (a or b) and a != -b:
                    raise InputError("form matrix is not skew-symmetric")
        self.algebra = algebra
        self.entries = {(i, j): a for i, row in enumerate(m) for j, a in enumerate(row) if j > i and a}

    @staticmethod
    def from_upper_entries(algebra: LieAlgebra, entries: dict[tuple[int, int], object]) -> "AlternatingForm":
        """The form with w(e_i, e_j) = c for each (i, j): c; a key with i > j sets w(e_j, e_i) = -c."""
        n = algebra.dim
        upper: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in entries.items():
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise InputError(f"bad form index pair ({i},{j})")
            c = _frac(c)
            if i > j:
                i, j, c = j, i, -c
            upper[(i, j)] = upper.get((i, j), 0) + c
        form = object.__new__(AlternatingForm)
        form.algebra, form.entries = algebra, {p: c for p, c in upper.items() if c}
        return form

    @property
    def matrix(self) -> Matrix:
        n = self.algebra.dim
        return Matrix([[row.get(j, Q(0)) for j in range(n)] for row in self.rows()])

    def rows(self) -> list[dict[int, Fraction]]:
        """The rows w(e_i, .) as {j: w(e_i, e_j)}, zeros left out."""
        out: list[dict[int, Fraction]] = [{} for _ in range(self.algebra.dim)]
        for (i, j), c in self.entries.items():
            out[i][j] = c
            out[j][i] = -c
        return out

    def __call__(self, x: Sequence, y: Sequence) -> Fraction:
        fx = self.flat(x)
        yv = [_frac(b) for b in y]
        if len(yv) != len(fx):
            raise InputError("vector length does not match column count")
        return sum((a * b for a, b in zip(fx, yv) if a and b), Q(0))

    def flat(self, x: Sequence) -> list[Fraction]:
        """The covector w(x, .) as a coordinate list."""
        xv = [_frac(a) for a in x]
        n = self.algebra.dim
        if len(xv) != n:
            raise InputError("vector length does not match column count")
        out = [Q(0)] * n
        for (i, j), c in self.entries.items():
            if xv[i]:
                out[j] += xv[i] * c
            if xv[j]:
                out[i] -= xv[j] * c
        return out

    def is_cocycle(self) -> bool:
        w = self.entries
        return all(
            sum(c * w[ab] for ab, c in terms.items() if ab in w) == 0
            for terms in self.algebra.cyclic_terms().values()
        )

    def is_nondegenerate(self) -> bool:
        return len(_reduced_rows(self.rows())) == self.algebra.dim

    def add(self, other: "AlternatingForm") -> "AlternatingForm":
        if other.algebra.dim != self.algebra.dim:
            raise InputError("matrix shapes differ")
        entries = dict(self.entries)
        for p, c in other.entries.items():
            entries[p] = entries.get(p, 0) + c
        return AlternatingForm.from_upper_entries(self.algebra, entries)

    def scale(self, c) -> "AlternatingForm":
        c = _frac(c)
        return AlternatingForm.from_upper_entries(self.algebra, {p: c * w for p, w in self.entries.items()})


def _pair_index(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cocycle_space(algebra: LieAlgebra) -> tuple[list[AlternatingForm], list[AlternatingForm]]:
    """(basis of Z^2, basis of B^2) as AlternatingForms.

    Z^2 is the kernel of the linear system (delta w) = 0 over the upper
    entries w_{ij}, i < j; B^2 is spanned by the forms lam([. , .]).
    """
    algebra.validate()
    n = algebra.dim
    pairs = _pair_index(n)
    index = {p: t for t, p in enumerate(pairs)}

    # one sparse row per basis triple: (delta w)(e_i, e_j, e_k) in the w_{ab} unknowns
    rows = [
        {index[ab]: c for ab, c in terms.items()}
        for _, terms in sorted(algebra.cyclic_terms().items())
    ]
    kernel = sparse_kernel_basis(rows, len(pairs))

    # lam([e_a, e_b]) for each coordinate functional lam
    cob_rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for ab, comp in algebra.brackets.items():
        for lam, c in comp.items():
            cob_rows[lam][index[ab]] = c
    cob = _reduced_rows(cob_rows)
    z2, b2 = (
        [AlternatingForm.from_upper_entries(algebra, {pairs[t]: c for t, c in v.items()}) for v in vecs]
        for vecs in (kernel, [cob[p] for p in sorted(cob)])
    )
    return z2, b2


def left_symmetric_product(algebra: LieAlgebra, form: AlternatingForm) -> list[list[list[Fraction]]]:
    """Product table from w(ab, c) = -w(b, [a, c]) for a symplectic cocycle w.

    Returns table[i][j] = coordinates of e_i * e_j.  The compatibility
    (ab - ba = [a,b]) and left-symmetry of the associator are verified
    exactly before returning.
    """
    if form.algebra is not algebra and form.algebra.dim != algebra.dim:
        raise InputError("form does not live on the given algebra")
    if not form.is_cocycle():
        raise PreconditionError("form is not a 2-cocycle")
    if not form.is_nondegenerate():
        raise PreconditionError("form is degenerate")
    n = algebra.dim
    w = form.rows()
    # W is nondegenerate, so each x below is (W^T)^-1 rhs, with the inverse's rows read sparsely
    wt_inv = [_sparse(row, n) for row in form.matrix.transpose().inverse().data]
    br = algebra._sparse_bracket()
    table: list[list[list[Fraction]]] = []
    for i in range(n):
        ad_i = [br({i: Q(1)}, {k: Q(1)}) for k in range(n)]
        row = []
        for j in range(n):
            # w(x, e_k) = -w(e_j, [e_i, e_k]), i.e. W^T x = rhs
            rhs = [-sum((w[j].get(m, 0) * c for m, c in b.items()), Q(0)) for b in ad_i]
            row.append([sum((a * rhs[m] for m, a in r.items()), Q(0)) for r in wt_inv])
        table.append(row)

    defect = left_symmetry_defect(algebra, table)
    if defect == "torsion":
        raise PreconditionError("product does not reproduce the bracket")
    if defect == "associator":
        raise PreconditionError("associator is not left-symmetric")
    return table


def left_symmetry_defect(algebra: LieAlgebra, table: list[list[list[Fraction]]]) -> str | None:
    """None when the basis product table is torsion-free and left-symmetric.

    Torsion-free: e_i e_j - e_j e_i = [e_i, e_j].  Left-symmetric: the
    associator (e_i e_j) e_k - e_i (e_j e_k) is symmetric in i, j.  Returns
    "torsion" or "associator" for the first identity that fails.  Both are
    antisymmetric in (i, j), so only i < j is checked; brackets come from
    `algebra.brackets` and products from the nonzero entries of the table.
    """
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            comp = algebra.brackets.get((i, j), {})
            if any(a - b != comp.get(k, 0) for k, (a, b) in enumerate(zip(table[i][j], table[j][i]))):
                return "torsion"
    sparse = [[_sparse(v, n) for v in row] for row in table]
    for i in range(n):
        for j in range(i + 1, n):
            comp = algebra.brackets.get((i, j), {})
            for k in range(n):
                # (e_i e_j - e_j e_i) e_k - e_i (e_j e_k) + e_j (e_i e_k) = 0
                defect: dict[int, Fraction] = {}
                for a, c in comp.items():
                    _subtract(defect, -c, sparse[a][k])
                for b, c in sparse[j][k].items():
                    _subtract(defect, c, sparse[i][b])
                for b, c in sparse[i][k].items():
                    _subtract(defect, -c, sparse[j][b])
                if defect:
                    return "associator"
    return None


def product_from_table(table: list[list[list[Fraction]]], x: Sequence, y: Sequence) -> list[Fraction]:
    """Bilinear extension of a basis product table."""
    n = len(table)
    xv = [_frac(a) for a in x]
    yv = [_frac(b) for b in y]
    out = [Q(0)] * n
    for i, xi in enumerate(xv):
        if xi == 0:
            continue
        for j, yj in enumerate(yv):
            if yj == 0:
                continue
            for k, c in enumerate(table[i][j]):
                if c != 0:
                    out[k] += xi * yj * c
    return out
