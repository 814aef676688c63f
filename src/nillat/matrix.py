"""Exact rational matrices and the linear algebra the library runs on.

Entries are `fractions.Fraction`; nothing here ever rounds.  `Matrix` holds
desk-scale dense matrices (<= ~25 x 25).  Its RREF and kernels, the subspace
helpers and the large sparse systems such as the O(n^3) x O(n^2) cocycle
equations (`sparse_kernel_basis`) go through one sparse elimination,
`_reduced_rows`.  Inside the library a vector is a row {col: value} without
zeros (`_sparse` and `_dense` convert); public functions return dense lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .errors import InputError, PreconditionError

Q = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot interpret {x!r} as an exact rational")


def parse_int(x, what: str) -> int:
    """x as an int; booleans, strings, non-integral numbers, infinities and NaN are rejected."""
    try:
        integral = not isinstance(x, (bool, str)) and int(x) == x
    except (OverflowError, TypeError, ValueError):  # infinity, NaN, non-numbers
        integral = False
    if not integral:
        raise InputError(f"{what} {x!r} is not an integer")
    return int(x)


def _sparse(v: Sequence, dim: int) -> dict[int, Fraction]:
    """The nonzero coordinates of v, a vector of Q^dim; `_frac` runs only when some entry is not a `Fraction`."""
    if len(v) != dim:
        raise InputError("vector length does not match algebra dimension")
    if not set(map(type, v)) <= {Fraction}:
        v = [_frac(c) for c in v]
    return {k: c for k, c in enumerate(v) if c}


def _dense(v: Mapping[int, Fraction], dim: int) -> list[Fraction]:
    """The sparse vector v of Q^dim as a coordinate list."""
    return [v.get(c, Q(0)) for c in range(dim)]


def _unit(dim: int, j: int) -> list[Fraction]:
    """The j-th standard basis vector of Q^dim."""
    v = [Q(0)] * dim
    v[j] = Q(1)
    return v


class Matrix:
    """Immutable-by-convention dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = [[_frac(x) for x in row] for row in data]
        if not rows or not rows[0]:
            raise InputError("matrix needs at least one row and one column")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise InputError("ragged matrix rows")
        self.data = rows
        self.rows = len(rows)
        self.cols = w

    @staticmethod
    def _of(rows: list[list[Fraction]]) -> "Matrix":
        """The matrix on `rows`, nonempty `Fraction` lists of one length that it now owns; nothing is checked."""
        m = object.__new__(Matrix)
        m.data = rows
        m.rows = len(rows)
        m.cols = len(rows[0])
        return m

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        if n < 1:
            raise InputError("matrix needs at least one row and one column")
        return Matrix._of([[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise InputError("matrix needs at least one row and one column")
        return Matrix._of([[Q(0)] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix(cols).transpose()

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    def copy_data(self) -> list[list[Fraction]]:
        return [row[:] for row in self.data]

    def column(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix._of([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.data for x in row)

    def to_int_rows(self) -> list[list[int]]:
        if not self.is_integral:
            raise PreconditionError("matrix has non-integer entries")
        return [[int(x) for x in row] for row in self.data]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shapes differ")
        return Matrix._of([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shapes differ")
        return Matrix._of([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix._of([[-a for a in row] for row in self.data])

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix._of([[c * a for a in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError("matrix shapes incompatible for product")
        bt = other.transpose().data
        return Matrix._of([[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data])

    def apply(self, vec: Sequence) -> list[Fraction]:
        v = [_frac(x) for x in vec]
        if len(v) != self.cols:
            raise InputError("vector length does not match column count")
        return [sum(a * x for a, x in zip(row, v)) for row in self.data]

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row-echelon form and the pivot column list."""
        pivots = _reduced_rows([_sparse(row, self.cols) for row in self.data])
        order = sorted(pivots)
        data = [_dense(pivots[pc], self.cols) for pc in order]
        data += [[Q(0)] * self.cols for _ in range(self.rows - len(order))]
        return Matrix._of(data), order

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right kernel {x : M x = 0}, one vector per free column."""
        kernel = sparse_kernel_basis([_sparse(row, self.cols) for row in self.data], self.cols)
        return [_dense(v, self.cols) for v in kernel]

    def det(self) -> Fraction:
        if not self.is_square:
            raise PreconditionError("determinant of a non-square matrix")
        m = self.copy_data()
        n = self.rows
        det = Q(1)
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pr is None:
                return Q(0)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def inverse(self) -> "Matrix":
        """Row i of the inverse is columns n.. of pivot row i of the reduced [M | I]."""
        if not self.is_square:
            raise PreconditionError("inverse of a non-square matrix")
        n = self.rows
        rows = [_sparse(row, self.cols) for row in self.data]
        for i, row in enumerate(rows):
            row[n + i] = Q(1)
        pivots = _reduced_rows(rows)
        if any(c not in pivots for c in range(n)):
            raise PreconditionError("matrix is singular")
        return Matrix._of([[pivots[i].get(n + j, Q(0)) for j in range(n)] for i in range(n)])

    def solve(self, rhs: Sequence) -> list[Fraction]:
        """One exact solution of M x = rhs, free variables 0; raises if the system is inconsistent.

        The right-hand side is column n of the reduced [M | rhs]: a pivot
        there means inconsistency, otherwise each pivot row gives x_pivot.
        """
        b = [_frac(x) for x in rhs]
        if len(b) != self.rows:
            raise InputError("right-hand side has wrong length")
        n = self.cols
        rows = [_sparse(row, self.cols) for row in self.data]
        for row, x in zip(rows, b):
            if x:
                row[n] = x
        pivots = _reduced_rows(rows)
        if n in pivots:
            raise PreconditionError("linear system is inconsistent")
        x = [Q(0)] * n
        for pc, p in pivots.items():
            x[pc] = p.get(n, Q(0))
        return x

    def charpoly(self) -> list[Fraction]:
        """Characteristic polynomial det(XI - M), dense, low-to-high."""
        if not self.is_square:
            raise PreconditionError("characteristic polynomial of a non-square matrix")
        n = self.rows
        # Faddeev-LeVerrier: exact over Q.
        coeffs = [Q(0)] * (n + 1)
        coeffs[n] = Q(1)
        Mk = Matrix.identity(n)
        for k in range(1, n + 1):
            Mk = self * Mk
            ck = -sum(Mk.data[i][i] for i in range(n)) / k
            coeffs[n - k] = ck
            Mk = Mk + Matrix.identity(n).scale(ck)
        return coeffs


def _reduced_rows(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """The reduced echelon form of the rows, as {pivot column: row}, rows as {col: value}.

    Each row is reduced by its lowest column: if a pivot row owns that column
    it is subtracted, otherwise the row becomes a new pivot row scaled to a
    leading 1.  Pivot rows have no entries left of their pivot, so every
    subtraction raises the lowest column and the reduction ends.  Back
    substitution, pivots in decreasing order, then clears every pivot column
    from the other pivot rows.  The input rows are not modified.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x != 0}
        while r:
            c = min(r)
            if c not in pivots:
                inv = Q(1) / r[c]
                pivots[c] = {j: x * inv for j, x in r.items()}
                break
            _subtract(r, r[c], pivots[c])
    for c in sorted(pivots, reverse=True):
        p = pivots[c]
        for j in [j for j in p if j != c and j in pivots]:
            _subtract(p, p[j], pivots[j])
    return pivots


def sparse_kernel_basis(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of {x in Q^ncols : sum_c row[c] x_c = 0 for every row}, rows and vectors as {col: value}.

    One vector per free column fc of the reduced echelon form, in ascending
    order: 1 at fc and -p[fc] at the pivot of each pivot row p with an entry
    there; with no rows it is the standard basis.
    """
    pivots = _reduced_rows(rows)
    basis = {fc: {fc: Q(1)} for fc in range(ncols) if fc not in pivots}
    for pc, p in pivots.items():
        for fc, x in p.items():
            if fc in basis:
                basis[fc][pc] = -x
    return list(basis.values())


def _subtract(r: dict[int, Fraction], f: Fraction, p: Mapping[int, Fraction]) -> None:
    """r -= f * p on sparse rows, dropping the entries that cancel."""
    for j, x in p.items():
        y = r.get(j, 0) - f * x
        if y:
            r[j] = y
        else:
            del r[j]


# -- subspaces ----------------------------------------------------------------


def _rref(rows: Iterable[Mapping[int, Fraction]], dim: int) -> list[list[Fraction]]:
    """The RREF basis of the span of sparse rows of Q^dim, as dense lists (what `rref_basis` returns)."""
    pivots = _reduced_rows(rows)
    return [_dense(pivots[p], dim) for p in sorted(pivots)]


def _span_rows(vectors: Iterable[Sequence], dim: int | None = None) -> tuple[list[dict[int, Fraction]], int | None]:
    """The nonzero vectors as sparse rows and their one length (`dim` if given), every entry checked rational first."""
    vecs = [[_frac(x) for x in v] for v in vectors]
    rows = []
    for v in vecs:
        row = _sparse(v, len(v))
        if row:
            if dim is None:
                dim = len(v)
            if len(v) != dim:
                raise InputError("ragged matrix rows")
            rows.append(row)
    return rows, dim


def rref_basis(vectors: Iterable[Sequence]) -> list[list[Fraction]]:
    """Canonical (RREF) basis of the span of the given vectors."""
    rows, dim = _span_rows(vectors)
    return _rref(rows, dim) if rows else []


def span_dim(vectors: Iterable[Sequence]) -> int:
    return len(_reduced_rows(_span_rows(vectors)[0]))


def in_span(vector: Sequence, basis: Sequence[Sequence]) -> bool:
    v = [_frac(x) for x in vector]
    if not any(v):
        return True
    if not basis:
        return False
    rows, _ = _span_rows(list(basis) + [v])  # v, nonzero, is the last row
    return len(_reduced_rows(rows)) == len(_reduced_rows(rows[:-1]))


def span_equal(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    return rref_basis(basis_a) == rref_basis(basis_b)


def complement_basis(basis: Sequence[Sequence], dim: int) -> list[list[Fraction]]:
    """Standard basis vectors completing `basis` to a basis of Q^dim: the first e_j not in the span so far, greedily.

    e_j is not in span(basis, e_0, ..., e_j-1) exactly when some x in the
    annihilator K of `basis` has x_0 = ... = x_j-1 = 0 and x_j != 0, that
    is, when j is a pivot column of the RREF of K.  So one kernel and one
    reduction give all of them.
    """
    vecs = [[_frac(x) for x in v] for v in basis]
    if dim < 1:
        return []
    annihilator = sparse_kernel_basis(_span_rows(vecs, dim)[0], dim)
    return [_unit(dim, j) for j in sorted(_reduced_rows(annihilator))]


# -- nilpotent exponentials -----------------------------------------------------


def nilpotency_index(m: Matrix) -> int:
    """Least k with m^k = 0; raises if m is not nilpotent."""
    if not m.is_square:
        raise PreconditionError("nilpotency index of a non-square matrix")
    n = m.rows
    p = Matrix.identity(n)
    for k in range(n + 1):
        if all(x == 0 for row in p.data for x in row):
            return k
        p = p * m
    raise PreconditionError("matrix is not nilpotent")


def nilpotent_exp(d: Matrix, t=1) -> Matrix:
    """exp(t d) = sum t^k d^k / k! for nilpotent d; exact and finite."""
    k_max = nilpotency_index(d)
    t = _frac(t)
    out = Matrix.identity(d.rows)
    term = Matrix.identity(d.rows)
    for k in range(1, k_max):
        term = term * d
        out = out + term.scale(t ** k / factorial(k))
    return out


def nilpotent_log(u: Matrix) -> Matrix:
    """log(u) = sum (-1)^(k+1) (u - I)^k / k for unipotent u; exact and finite."""
    n = u.rows
    nmat = u - Matrix.identity(n)
    k_max = nilpotency_index(nmat)
    out = Matrix.zero(n, n)
    term = Matrix.identity(n)
    for k in range(1, k_max):
        term = term * nmat
        out = out + term.scale(Q((-1) ** (k + 1), k))
    return out
