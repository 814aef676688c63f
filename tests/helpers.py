"""Standalone oracles for the test suite.

These deliberately avoid the library's own linear algebra: plain-list
Gaussian elimination and direct definitional evaluation, so a bug in the
production path cannot hide inside its own verification.
"""

from fractions import Fraction
from itertools import combinations

Q = Fraction


def rref_inplace(rows):
    """Reduced row echelon form of a list-of-lists of Fractions; returns pivot cols."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def kernel_dim(rows):
    if not rows:
        return 0
    ncols = len(rows[0])
    work = [row[:] for row in rows]
    return ncols - len(rref_inplace(work))


def brute_force_cocycle_dim(algebra):
    """dim Z^2 by direct evaluation of the coboundary on every basis triple."""
    n = algebra.dim
    pairs = list(combinations(range(n), 2))
    idx = {p: t for t, p in enumerate(pairs)}

    def unit(j):
        v = [Q(0)] * n
        v[j] = Q(1)
        return v

    def omega_eval(coeffs, x, y):
        total = Q(0)
        for (a, b), t in idx.items():
            total += coeffs[t] * (x[a] * y[b] - x[b] * y[a])
        return total

    rows = []
    for i, j, k in combinations(range(n), 3):
        row = []
        ei, ej, ek = unit(i), unit(j), unit(k)
        bij = algebra.bracket(ei, ej)
        bjk = algebra.bracket(ej, ek)
        bki = algebra.bracket(ek, ei)
        for t in range(len(pairs)):
            coeffs = [Q(0)] * len(pairs)
            coeffs[t] = Q(1)
            row.append(
                omega_eval(coeffs, bij, ek)
                + omega_eval(coeffs, bjk, ei)
                + omega_eval(coeffs, bki, ej)
            )
        rows.append(row)
    rows = [r for r in rows if any(c != 0 for c in r)]
    if not rows:
        return len(pairs)
    return kernel_dim(rows)


def dense_left_symmetric_solve(algebra, form_matrix):
    """Product table from w(ab, c) = -w(b, [a, c]) by dense elimination.

    Independent of the library solver: builds the full n x n augmented
    system per (a, b) pair and eliminates in place.
    """
    n = algebra.dim

    def unit(j):
        v = [Q(0)] * n
        v[j] = Q(1)
        return v

    def omega(x, y):
        return sum(
            x[i] * form_matrix[i][j] * y[j] for i in range(n) for j in range(n)
        )

    table = []
    for i in range(n):
        row_tab = []
        for j in range(n):
            aug = []
            for k in range(n):
                # sum_t x_t w(e_t, e_k) = -w(e_j, [e_i, e_k])
                coeff = [form_matrix[t][k] for t in range(n)]
                rhs = -omega(unit(j), algebra.bracket(unit(i), unit(k)))
                aug.append(coeff + [rhs])
            pivots = rref_inplace(aug)
            assert pivots == list(range(n)), "degenerate form in oracle"
            row_tab.append([aug[t][n] for t in range(n)])
        table.append(row_tab)
    return table


def rand_fraction(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Q(num, den)


# -- dense definitional versions of the library's sparse cyclic-sum checks --------
#
# Each evaluates its identity on unit vectors for every basis triple, exactly
# as the library did before it read the sparse cyclic-sum table.


def _unit(n, j):
    v = [Q(0)] * n
    v[j] = Q(1)
    return v


def _vadd(*vecs):
    out = [Q(0)] * len(vecs[0])
    for v in vecs:
        for i, c in enumerate(v):
            out[i] += c
    return out


def dense_jacobi_violations(algebra):
    """[((i, j, k), defect), ...] in lexicographic order, defect a dense list."""
    bad = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            for k in range(j + 1, algebra.dim):
                ei, ej, ek = (_unit(algebra.dim, t) for t in (i, j, k))
                s = _vadd(
                    algebra.bracket(algebra.bracket(ei, ej), ek),
                    algebra.bracket(algebra.bracket(ej, ek), ei),
                    algebra.bracket(algebra.bracket(ek, ei), ej),
                )
                if any(c != 0 for c in s):
                    bad.append(((i, j, k), s))
    return bad


def dense_is_cocycle(form):
    """(dw)(e_i, e_j, e_k) = 0 on every basis triple, by the coboundary formula."""
    n = form.algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if form.coboundary_value(_unit(n, i), _unit(n, j), _unit(n, k)) != 0:
                    return False
    return True


def dense_cybe_check(algebra, r):
    """[[r, r]](eps_i, eps_j, eps_k) = 0 on every basis triple, r acting by columns."""
    n = algebra.dim

    def bracket_value(i, j, k):
        out = Q(0)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            out += algebra.bracket(r.column(b), r.column(c))[a]
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if bracket_value(i, j, k) != 0:
                    return False
    return True
