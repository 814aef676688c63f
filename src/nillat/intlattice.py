"""Integer-matrix normal forms and sublattice arithmetic.

Everything works on plain ``list[list[int]]`` rows.  Smith normal form keeps
both unimodular transforms so callers can certify ``left @ M @ right == D``;
Hermite form gives canonical bases for row lattices, which makes sublattice
equality and quotient invariants exact set computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import InputError, PreconditionError
from .matrix import parse_int

IntRows = list[list[int]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _ints(v: Sequence[int]) -> list[int]:
    if type(v) is not list and not isinstance(v, Sequence):  # a list skips the slower ABC check
        raise InputError(f"integer matrix row {v!r} is not a sequence")
    # exact ints skip parse_int, which rejects what int() would truncate
    return [x if type(x) is int else parse_int(x, "integer matrix entry") for x in v]


def _check_int_rows(m: Sequence[Sequence[int]]) -> IntRows:
    rows = [_ints(row) for row in m]
    if not rows or not rows[0]:
        raise InputError("matrix needs at least one row and one column")
    w = len(rows[0])
    if any(len(r) != w for r in rows):
        raise InputError("ragged matrix rows")
    return rows


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntRows:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_identity(n: int) -> IntRows:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = _check_int_rows(m)
    n = len(a)
    if n != len(a[0]):
        raise PreconditionError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass
class SnfResult:
    """Smith decomposition left @ input @ right = diag(divisors)."""

    divisors: list[int]
    left: IntRows
    right: IntRows


def smith_normal_form(m: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Pivot choice is the minimal nonzero absolute value of the working block;
    divisors come out nonnegative with d1 | d2 | ... .
    """
    a = _check_int_rows(m)
    rows, cols = len(a), len(a[0])
    left = mat_identity(rows)
    right = mat_identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            right[r][i], right[r][j] = right[r][j], right[r][i]

    t = 0
    while t < min(rows, cols):
        # minimal |pivot| in the trailing block, the first one in row-major order
        piv, low = None, 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                if row[j] and (piv is None or abs(row[j]) < low):
                    piv, low = (i, j), abs(row[j])
        if piv is None:
            break
        swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        p = a[t][t]
        dirty = False
        # Row t stays fixed while its multiples leave the rows below it, and
        # column t while its multiples leave the columns to its right, so only
        # the nonzero entries of row t and the rows where column t is nonzero
        # take part.
        nz_a = [(c, x) for c, x in enumerate(a[t]) if x]
        nz_left = [(c, x) for c, x in enumerate(left[t]) if x]
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // p
                ai, li = a[i], left[i]
                for c, x in nz_a:
                    ai[c] -= q * x
                for c, x in nz_left:
                    li[c] -= q * x
                if ai[t]:
                    dirty = True
        hot_a = [r for r in a if r[t]]
        hot_right = [r for r in right if r[t]]
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // p
                for r in hot_a:
                    r[j] -= q * r[t]
                for r in hot_right:
                    r[j] -= q * r[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # smaller pivot appeared; redo this step
        # divisibility of the rest of the block by the pivot (a unit divides everything)
        bad = None if p in (1, -1) else next(
            (i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1:])), None)
        if bad is not None:  # fold the offending row in and loop
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            left[t] = [x + y for x, y in zip(left[t], left[bad])]
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            left[i] = [-x for x in left[i]]
    divisors = [a[i][i] for i in range(min(rows, cols))]
    return SnfResult(divisors, left, right)


def hermite_row_basis(vectors: Sequence[Sequence[int]]) -> IntRows:
    """Canonical (row-style Hermite) basis of the lattice spanned by the rows.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Zero input spans the zero lattice and yields [].
    """
    if not vectors:
        return []
    work = [v for v in map(_ints, vectors) if any(v)]
    if not work:
        return []
    cols = len(work[0])
    if any(len(v) != cols for v in work):
        raise InputError("ragged vectors")
    basis: IntRows = []  # kept sorted by pivot column, fully reduced
    for vec in work:
        v = vec[:]
        while True:
            j = next((c for c in range(cols) if v[c] != 0), None)
            if j is None:
                break
            hit = next((b for b in basis if next(c for c in range(cols) if b[c] != 0) == j), None)
            if hit is None:
                if v[j] < 0:
                    v = [-x for x in v]
                basis.append(v)
                basis.sort(key=lambda b: next(c for c in range(cols) if b[c] != 0))
                break
            a, b = hit[j], v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, hit)]
            else:
                g, x, y = xgcd(a, b)
                new_hit = [x * p + y * q_ for p, q_ in zip(hit, v)]
                new_v = [(-b // g) * p + (a // g) * q_ for p, q_ in zip(hit, v)]
                hit[:] = new_hit
                v = new_v
    # reduction pass above the pivots gives the canonical form
    basis.sort(key=lambda b: next(c for c in range(cols) if b[c] != 0))
    for i in range(len(basis) - 1, -1, -1):
        pj = next(c for c in range(cols) if basis[i][c] != 0)
        for k in range(i):
            q = basis[k][pj] // basis[i][pj]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return basis


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership of an integer vector in the row lattice given by `basis`."""
    return _coordinates(basis, _ints(vec)) is not None


def _coordinates(basis: Sequence[Sequence[int]], v: list[int]) -> list[int] | None:
    """Integer coordinates of v in an echelon row basis, or None when v is not in its lattice."""
    coords = []
    for b in basis:
        j = next(c for c, x in enumerate(b) if x != 0)
        if v[j] % b[j] != 0:
            return None
        q = v[j] // b[j]
        coords.append(q)
        v = [x - q * y for x, y in zip(v, b)]
    return None if any(v) else coords


def integer_kernel_basis(m: Sequence[Sequence[int]]) -> IntRows:
    """Saturated basis of {x in Z^cols : M x = 0} (unimodular columns of V)."""
    a = _check_int_rows(m)
    return _snf_kernel(smith_normal_form(a), len(a[0]))


def _snf_kernel(res: SnfResult, cols: int) -> IntRows:
    """Hermite basis of the columns of `res.right` whose divisor is zero."""
    out = [[row[j] for row in res.right] for j in range(cols) if j >= len(res.divisors) or res.divisors[j] == 0]
    return hermite_row_basis(out) if out else []


def column_lattice_basis(m: Sequence[Sequence[int]]) -> IntRows:
    """Hermite basis of the lattice spanned by the columns of M."""
    a = _check_int_rows(m)
    return hermite_row_basis(list(map(list, zip(*a))))


def solve_diophantine(m: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], IntRows] | None:
    """All integer solutions of M x = rhs as (particular, kernel basis); None if unsolvable."""
    a = _check_int_rows(m)
    b = _ints(rhs)
    if len(b) != len(a):
        raise InputError("right-hand side has wrong length")
    res = smith_normal_form(a)
    ub = [sum(map(mul, row, b)) for row in res.left]
    cols = len(a[0])
    y = [0] * cols
    for i in range(len(b)):
        d = res.divisors[i] if i < len(res.divisors) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            if i < cols:
                y[i] = ub[i] // d
    x = [sum(map(mul, row, y)) for row in res.right]
    return x, _snf_kernel(res, cols)


def quotient_invariants(ambient: Sequence[Sequence[int]], sub: Sequence[Sequence[int]]) -> list[int]:
    """Divisor chain of (lattice spanned by `ambient` rows) / (lattice by `sub` rows).

    A zero divisor encodes an infinite cyclic factor.  Requires sub <= ambient.
    """
    amb = hermite_row_basis(ambient)
    coords = []
    for v in hermite_row_basis(sub):
        c = _coordinates(amb, v)
        if c is None:
            raise InputError("sub-lattice is not contained in the ambient lattice")
        coords.append(c)
    r = len(amb)
    if not coords:
        return [0] * r
    divisors = smith_normal_form(coords).divisors
    out = [d for d in divisors if d != 0]
    out += [0] * (r - len(out))
    # keep the full chain here; presentation layers may drop the 1s
    return out
