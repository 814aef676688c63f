"""Standalone oracles for the test suite.

These deliberately avoid the library's own linear algebra: plain-list
Gaussian elimination and direct definitional evaluation, so a bug in the
production path cannot hide inside its own verification; every bracket in
them is `dense_bracket`, one pass over the whole stored table.  The
exceptions are the last seven sections, which keep the dense cocycle-space
solve and form read, the dense commutative-algebra products, trace form and
socle, the filiform decision path as it was before it became integer-only,
the Smith normal form and Sylvester rows as they were before they skipped
zero entries, the dense central-series step and change of basis of the
structure constants, the dense unit-vector bracket paths of `liealg`
and `symplectic`, the augmented-matrix inverse and solve with the dense
left-symmetry check, and the dense subspace helpers and moment map, to
compare the new paths' outputs against.
"""

from fractions import Fraction
from itertools import combinations, product as iproduct
from math import factorial, isqrt

from nillat.classify import FiliformLatticeSpec, _sylvester_solve_unitriangular, theta_invariant
from nillat.cocycles import AlternatingForm, _pair_index, product_from_table
from nillat.errors import InputError, PreconditionError, StructuralError
from nillat.intlattice import IntRows, SnfResult, mat_identity, mat_mul, xgcd
from nillat.liealg import LieAlgebra
from nillat.matrix import Matrix, _frac, rref_basis, span_dim
from nillat.multipoly import Poly, poly_vector, vec_is_zero
from nillat.quadratic import RingElement, ring_of_integers
from nillat.symplectic import bch

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


def dense_kernel_basis(rows, ncols):
    """Kernel of a list of dense Fraction rows, one vector per free column, via `rref_inplace`."""
    work = [row[:] for row in rows]
    pivots = rref_inplace(work)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def int_det(m):
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


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
        bij = dense_bracket(algebra, ei, ej)
        bjk = dense_bracket(algebra, ej, ek)
        bki = dense_bracket(algebra, ek, ei)
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
                rhs = -omega(unit(j), dense_bracket(algebra, unit(i), unit(k)))
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


def dense_bracket(algebra, x, y):
    """[x, y] by one pass over every stored bracket, dense vectors in and out."""
    xv = [Q(a) for a in x]
    yv = [Q(a) for a in y]
    if len(xv) != algebra.dim or len(yv) != algebra.dim:
        raise InputError("vector length does not match algebra dimension")
    out = [Q(0)] * algebra.dim
    for (i, j), comp in algebra.brackets.items():
        coef = xv[i] * yv[j] - xv[j] * yv[i]
        if coef:
            for k, c in comp.items():
                out[k] += coef * c
    return out


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
                    dense_bracket(algebra, dense_bracket(algebra, ei, ej), ek),
                    dense_bracket(algebra, dense_bracket(algebra, ej, ek), ei),
                    dense_bracket(algebra, dense_bracket(algebra, ek, ei), ej),
                )
                if any(c != 0 for c in s):
                    bad.append(((i, j, k), s))
    return bad


def coboundary_value(form, x, y, z):
    """(dw)(x, y, z) = w([x,y], z) + w([y,z], x) + w([z,x], y), with the dense bracket."""
    L = form.algebra
    return form(dense_bracket(L, x, y), z) + form(dense_bracket(L, y, z), x) + form(dense_bracket(L, z, x), y)


def dense_is_cocycle(form):
    """(dw)(e_i, e_j, e_k) = 0 on every basis triple, by the coboundary formula."""
    n = form.algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if coboundary_value(form, _unit(n, i), _unit(n, j), _unit(n, k)) != 0:
                    return False
    return True


def dense_ad(algebra, x):
    """Rows of ad(x), column j being the dense bracket [x, e_j]."""
    cols = [dense_bracket(algebra, x, _unit(algebra.dim, j)) for j in range(algebra.dim)]
    return [list(row) for row in zip(*cols)]


def dense_center_basis(algebra):
    """Kernel of the stacked [x, e_j] = -ad(e_j) x conditions, through `rref_inplace`."""
    rows = [[-c for c in row] for j in range(algebra.dim) for row in dense_ad(algebra, _unit(algebra.dim, j))]
    return dense_kernel_basis(rows, algebra.dim)


def dense_cybe_check(algebra, r):
    """[[r, r]](eps_i, eps_j, eps_k) = 0 on every basis triple, r acting by columns."""
    n = algebra.dim

    def bracket_value(i, j, k):
        out = Q(0)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            out += dense_bracket(algebra, r.column(b), r.column(c))[a]
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if bracket_value(i, j, k) != 0:
                    return False
    return True


# -- oracles moved out of the library ---------------------------------------------


def filiform_isomorphic_bounded_oracle(
    s1: FiliformLatticeSpec, s2: FiliformLatticeSpec, bound: int = 30
) -> bool:
    """Brute-force conjugator search for n = 3 (test oracle, not the decision path).

    Enumerates phi = diag(1, e2, e3) (I + u E21 + v E32) with |u|, |v| <= bound
    and tests the conjugation with plain integer arithmetic.
    """
    if s1.n != 3 or s2.n != 3:
        raise InputError("oracle is for n = 3")
    g2 = s2.g_rows()

    def mul3(x, y):
        return [
            [sum(x[i][t] * y[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)
        ]

    for e2 in (1, -1):
        for e3 in (1, -1):
            d = [[1, 0, 0], [0, e2, 0], [0, 0, e3]]
            dgd = mul3(d, mul3(s1.g_rows(), d))
            for u in range(-bound, bound + 1):
                for v in range(-bound, bound + 1):
                    t = [[1, 0, 0], [u, 1, 0], [0, v, 1]]
                    t_inv = [[1, 0, 0], [-u, 1, 0], [u * v, -v, 1]]
                    if mul3(t_inv, mul3(dgd, t)) == g2:
                        return True
    return False


def fundamental_unit_box_search(m: int, coord_bound: int = 10 ** 7) -> RingElement:
    """Minimal unit > 1 by increasing second coordinate (test oracle)."""
    ring = ring_of_integers(m)
    # minimal unit > 1 has minimal y, then minimal x: try the smaller target first
    if ring.half:
        # x^2 - m y^2 = +-4 with x = y (mod 2)
        for y in range(1, coord_bound):
            for target in (-4, 4):
                x2 = m * y * y + target
                if x2 > 0:
                    x = isqrt(x2)
                    if x * x == x2 and (x - y) % 2 == 0:
                        return RingElement(ring, (x - y) // 2, y)
    else:
        for y in range(1, coord_bound):
            for target in (-1, 1):
                x2 = m * y * y + target
                if x2 > 0:
                    x = isqrt(x2)
                    if x * x == x2:
                        return RingElement(ring, x, y)
    raise PreconditionError("no unit found within the box")


def _cf_start(m: int) -> tuple[int, int]:
    """(p0, q0): isqrt(m) over 1, or for m = 1 (mod 4) the odd one of isqrt(m), isqrt(m) - 1 over 2."""
    a0 = isqrt(m)
    return (a0 - (a0 % 2 == 0), 2) if m % 4 == 1 else (a0, 1)


def cf_period(m: int) -> list[int]:
    """a_0, ..., a_{l-1}: one period of the purely periodic (p0 + sqrt m)/q0 that `fundamental_unit` starts from."""
    a0 = isqrt(m)
    p0, q0 = _cf_start(m)
    p, q, out = p0, q0, []
    while True:
        a = (p + a0) // q
        out.append(a)
        p = a * q - p
        q = (m - p * p) // q
        if (p, q) == (p0, q0):
            return out


def fundamental_unit_full_period(m: int) -> RingElement:
    """The fundamental unit from the continuant recurrence over one whole period, one quotient at a time (test oracle)."""
    ring = ring_of_integers(m)
    p0, _ = _cf_start(m)
    q_prev, q_cur = 1, 0  # q_{-2}, q_{-1}
    for a in cf_period(m):
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    # eps = q_{l-1} alpha + q_{l-2} with alpha = p0 + sqrt m, or (p0 - 1)/2 + omega in the half basis
    return RingElement(ring, q_cur * ((p0 - 1) // 2 if ring.half else p0) + q_prev, q_cur)


# -- the dense cocycle-space solve and form read ------------------------------------
#
# Copies (renamed) of `cocycle_space` as it was when it built the Z^2 system
# as dense rows, and of `AlternatingForm.flat` as a transpose and a
# `Matrix.apply`.  The eliminations go through the plain-list `rref_inplace`,
# so the oracle shares no elimination code with the library.


def dense_cocycle_space(algebra):
    """(basis of Z^2, basis of B^2) as AlternatingForms.

    Z^2 is the kernel of the linear system (delta w) = 0 over the upper
    entries w_{ij}, i < j; B^2 is spanned by the forms lam([. , .]).
    """
    algebra.validate()
    n = algebra.dim
    pairs = _pair_index(n)
    index = {p: t for t, p in enumerate(pairs)}

    # one row per basis triple: (delta w)(e_i, e_j, e_k) in the w_{ab} unknowns
    rows = []
    for _, terms in sorted(algebra.cyclic_terms().items()):
        row = [Q(0)] * len(pairs)
        for ab, c in terms.items():
            row[index[ab]] = c
        rows.append(row)

    kernel = dense_kernel_basis(rows, len(pairs))

    def to_form(coords):
        return AlternatingForm.from_upper_entries(
            algebra, {pairs[t]: c for t, c in enumerate(coords) if c != 0}
        )

    z2 = [to_form(v) for v in kernel]

    # lam([e_a, e_b]) for each coordinate functional lam
    cob_vecs = [[Q(0)] * len(pairs) for _ in range(n)]
    for ab, comp in algebra.brackets.items():
        for lam, c in comp.items():
            cob_vecs[lam][index[ab]] = c
    pivots = rref_inplace(cob_vecs)  # cob_vecs now holds the RREF
    b2 = [to_form(v) for v in cob_vecs[:len(pivots)]]
    return z2, b2


def dense_flat(form, x):
    """The covector w(x, .) as a coordinate list."""
    return form.matrix.transpose().apply(x)


# -- the dense commutative-algebra path ----------------------------------------------
#
# Copies (renamed) of `CommAlgebra.basis_product`, `multiply`, `mult_operator`,
# `_validate` and `radical_and_socle` as they were when every product went
# through dense unit vectors and the trace form was the trace of one n x n
# operator per basis pair.  They take anything with `dim`, `products` and
# `unit`; the kernels go through the plain-list `rref_inplace`.


def dense_basis_product(algebra, i, j):
    if i > j:
        i, j = j, i
    out = [Q(0)] * algebra.dim
    for k, c in algebra.products.get((i, j), {}).items():
        out[k] = c
    return out


def dense_multiply(algebra, x, y):
    xv = [Q(a) for a in x]
    yv = [Q(a) for a in y]
    out = [Q(0)] * algebra.dim
    for i, xi in enumerate(xv):
        if xi == 0:
            continue
        for j, yj in enumerate(yv):
            if yj == 0:
                continue
            for k, c in enumerate(dense_basis_product(algebra, i, j)):
                if c != 0:
                    out[k] += xi * yj * c
    return out


def dense_mult_operator(algebra, x):
    """Rows of the matrix of y -> x y."""
    cols = [dense_multiply(algebra, x, _unit(algebra.dim, j)) for j in range(algebra.dim)]
    return [list(row) for row in zip(*cols)]


def dense_validate(algebra):
    n = algebra.dim
    for j in range(n):
        ej = _unit(n, j)
        if dense_multiply(algebra, algebra.unit, ej) != ej or dense_multiply(algebra, ej, algebra.unit) != ej:
            raise StructuralError("unit element fails the unit axiom")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = dense_multiply(algebra, dense_basis_product(algebra, i, j), _unit(n, k))
                rhs = dense_multiply(algebra, _unit(n, i), dense_basis_product(algebra, j, k))
                if lhs != rhs:
                    raise StructuralError(f"associativity fails at ({i},{j},{k})")


def dense_radical_and_socle(algebra):
    """(radical, socle, is_local): the trace-form kernel and its annihilator."""
    n = algebra.dim
    trace_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            op = dense_mult_operator(algebra, dense_basis_product(algebra, i, j))
            row.append(sum(op[t][t] for t in range(n)))
        trace_rows.append(row)
    radical = dense_rref_basis(dense_kernel_basis(trace_rows, n))
    if not radical:
        socle = dense_rref_basis([_unit(n, j) for j in range(n)])
    else:
        rows = []
        for r in radical:
            rows.extend(dense_mult_operator(algebra, r))
        socle = dense_rref_basis(dense_kernel_basis(rows, n))
    is_local = n - len(radical) == 1
    return radical, socle, is_local


# -- the filiform decision path before it became integer-only ----------------------
#
# Verbatim copies (renamed) of the Fraction-conjugation normalization and the
# sign-pattern loop, kept as references for the integer-only library path.
# They use the library's Matrix inverse and Sylvester solver, as they did.


def fraction_conjugate(g: IntRows, w: IntRows) -> IntRows:
    wi = Matrix(w).inverse()
    res = wi * Matrix(g) * Matrix(w)
    return res.to_int_rows()


def fraction_filiform_normalize(spec: FiliformLatticeSpec) -> tuple[FiliformLatticeSpec, IntRows]:
    """Euclidean normal form: positive subdiagonal, deeper entries reduced.

    Returns (normalized, witness) with witness^-1 g witness == normalized.g;
    entries a[i][j], i > j+1 end in [0, a[j+1][j]).
    """
    n = spec.n
    g = spec.g_rows()
    eps = [1] * n
    for j in range(n - 1):
        eps[j + 1] = eps[j] * (1 if g[j + 1][j] > 0 else -1)
    witness = [[eps[i] if i == j else 0 for j in range(n)] for i in range(n)]
    g = [[eps[i] * eps[j] * g[i][j] for j in range(n)] for i in range(n)]

    # entries ordered by depth m = i - j, then by column
    for m in range(2, n):
        for j in range(0, n - m):
            i = j + m
            b = g[j + 1][j]
            qq = g[i][j] // b
            if qq == 0:
                continue
            u = mat_identity(n)
            u[i][j + 1] = qq
            g = fraction_conjugate(g, u)
            witness = mat_mul(witness, u)

    for j in range(n - 1):
        if g[j + 1][j] <= 0:
            raise StructuralError("sign normalization failed")  # pragma: no cover
        for i in range(j + 2, n):
            if not 0 <= g[i][j] < g[j + 1][j]:
                raise StructuralError("Euclidean reduction failed")  # pragma: no cover
    if fraction_conjugate(spec.g_rows(), witness) != g:
        raise StructuralError("witness verification failed")  # pragma: no cover
    return FiliformLatticeSpec(n, g), witness


def sign_loop_filiform_isomorphic(
    s1: FiliformLatticeSpec, s2: FiliformLatticeSpec
) -> tuple[bool, IntRows | None]:
    """Decide conjugacy under lower-unitriangular integer matrices and +-1 diagonals.

    Returns (answer, witness); the witness phi satisfies
    phi^-1 @ s2.g @ phi == s1.g exactly.
    """
    if s1.n != s2.n:
        raise InputError("dimension mismatch")
    n = s1.n
    if theta_invariant(s1) != theta_invariant(s2):
        return False, None
    n1, w1 = fraction_filiform_normalize(s1)
    n2, w2 = fraction_filiform_normalize(s2)

    if n == 3:
        a, b = n1.g[1][0], n1.g[2][1]
        c1, c2 = n1.g[2][0], n2.g[2][0]
        gcd_ab, xb, ya = xgcd(b, a)
        delta = c2 - c1
        if delta % gcd_ab != 0:
            return False, None
        # b*u - a*v = delta
        u = xb * (delta // gcd_ab)
        v = -ya * (delta // gcd_ab)
        phi_mid = [[1, 0, 0], [u, 1, 0], [0, v, 1]]
        if fraction_conjugate(n1.g_rows(), phi_mid) != n2.g_rows():
            raise StructuralError("closed-form witness failed")  # pragma: no cover
        full = mat_mul(mat_mul(w1, phi_mid), Matrix(w2).inverse().to_int_rows())
        return True, fraction_checked_witness(s1, s2, full)

    # n != 3: exact integer Sylvester solve per sign pattern (eps_1 = 1).
    # T g1 = (D g2 D) T gives conj(g1, T^-1 D) = g2 for the normalized pair.
    for pattern in iproduct((1, -1), repeat=n - 1):
        eps = (1,) + pattern
        dmat = [[eps[i] if i == j else 0 for j in range(n)] for i in range(n)]
        target = [[eps[i] * eps[j] * n2.g[i][j] for j in range(n)] for i in range(n)]
        t_mat = _sylvester_solve_unitriangular(n1.g_rows(), target)
        if t_mat is not None:
            t_inv = Matrix(t_mat).inverse().to_int_rows()
            full = mat_mul(mat_mul(mat_mul(w1, t_inv), dmat), Matrix(w2).inverse().to_int_rows())
            return True, fraction_checked_witness(s1, s2, full)
    return False, None


def fraction_checked_witness(s1: FiliformLatticeSpec, s2: FiliformLatticeSpec, phi_fwd: IntRows) -> IntRows:
    """phi_fwd conjugates s1.g to s2.g; return (and verify) the reverse witness."""
    if fraction_conjugate(s1.g_rows(), phi_fwd) != s2.g_rows():
        raise StructuralError("witness verification failed")  # pragma: no cover
    psi = Matrix(phi_fwd).inverse().to_int_rows()
    if fraction_conjugate(s2.g_rows(), psi) != s1.g_rows():
        raise StructuralError("witness inversion failed")  # pragma: no cover
    return psi



#
# Verbatim copies (renamed) of the dense Smith normal form and of the
# Sylvester row build that scanned every unknown for every entry, kept as
# references for the sparse updates.


def dense_smith_normal_form(m) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Pivot choice is the minimal nonzero absolute value of the working block;
    divisors come out nonnegative with d1 | d2 | ... .
    """
    a = [[int(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    left = mat_identity(rows)
    right = mat_identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            right[r][i] -= q * right[r][j]

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
        # locate minimal |pivot| in the trailing block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # smaller pivot appeared; redo this step
        # divisibility of the rest of the block by the pivot
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # fold the offending row in and loop
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            left[i] = [-x for x in left[i]]
    divisors = [a[i][i] for i in range(min(rows, cols))]
    return SnfResult(divisors, left, right)


def dense_sylvester_system(g1, g2) -> tuple[IntRows, list[int]]:
    """The rows and right-hand side of X g1 - g2 X = g2 - g1 in the lower unknowns X[i][j], i > j."""
    n = len(g1)
    unknowns = [(i, j) for i in range(n) for j in range(i)]
    index = {u: t for t, u in enumerate(unknowns)}
    rows = []
    rhs = []
    for r in range(n):
        for cc in range(n):
            # (X g1 - g2 X)[r][cc] = (g2 - g1)[r][cc]
            row = [0] * len(unknowns)
            for (i, j), t in index.items():
                coeff = 0
                if i == r:
                    coeff += g1[j][cc]
                if j == cc:
                    coeff -= g2[r][i]
                if coeff:
                    row[t] = coeff
            target = g2[r][cc] - g1[r][cc]
            if any(row) or target:
                rows.append(row)
                rhs.append(target)
    return rows, rhs


# -- the dense central-series step and change of basis --------------------------------
#
# Copies of the library code before both read the sparse structure constants:
# a dense reduction matrix times ad(e_j) for every j, and one dense bracket and
# one dense inverse application per basis pair.


def _dense_next_center(algebra, cur):
    # {x : [x, e_j] in span(cur) for all j}: linear conditions modulo cur
    if not cur:
        return rref_basis(dense_center_basis(algebra))
    R, pivots = Matrix(list(cur)).rref()
    # T v = v reduced modulo span(cur); v in span iff T v = 0
    T = Matrix.identity(algebra.dim).copy_data()
    for r, pc in enumerate(pivots):
        for i in range(algebra.dim):
            T[i][pc] = Q(0)
        for i in range(algebra.dim):
            if i != pc:
                # subtracting v[pc] * R_r moves mass off the pivot coordinate
                T[i][pc] = -R.data[r][i]
    Tm = Matrix(T)
    # x -> [x, e_j] = -ad(e_j) x, reduced mod cur; the sign does not change the kernel
    rows = [row for j in range(algebra.dim) for row in (Tm * Matrix(dense_ad(algebra, _unit(algebra.dim, j)))).data]
    return rref_basis(dense_kernel_basis(rows, algebra.dim))


def dense_ascending_central_series(algebra):
    """C_1 = Z(L), C_{r+1}/C_r = Z(L/C_r); stops when stable."""
    series = [_dense_next_center(algebra, [])]
    while True:
        cur = series[-1]
        nxt = _dense_next_center(algebra, cur)
        if span_dim(nxt) == span_dim(cur):
            break
        series.append(nxt)
    return series


def dense_in_basis(algebra, basis_cols):
    """{(i, j): {k: c}}, i < j: the brackets of the columns of basis_cols in that basis."""
    inv = dense_inverse(basis_cols)
    n = algebra.dim
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = dense_bracket(algebra, basis_cols.column(i), basis_cols.column(j))
            coords = inv.apply(br)
            comp = {k: c for k, c in enumerate(coords) if c != 0}
            if comp:
                table[(i, j)] = comp
    return table


# -- the dense bracket paths of liealg and symplectic ---------------------------------
#
# Copies (renamed) of the library code before it read the structure constants
# through one sparse bracket: dense brackets of unit vectors for the bracket
# spans, the central series, the ideal tests and t*G; the flat table with a
# dense `apply` per lam(e_i) and a bracket [e, e_j] per table entry, and its
# n^3 parallelism check over the dense form matrix; the curvature from dense
# product matrices; and the double D(G, r) with two dense `ad` matrices per
# dual bracket.  They use `dense_bracket`, `dense_left_symmetry_defect` and,
# as the library did, the library's `Matrix` inverse and solve, `ad`,
# `basis_bracket` and `product_from_table`.


def dense_bracket_span(algebra, basis_a, basis_b):
    return dense_rref_basis([dense_bracket(algebra, a, b) for a in basis_a for b in basis_b])


def dense_is_ideal(algebra, subspace):
    units = [_unit(algebra.dim, j) for j in range(algebra.dim)]
    return all(dense_in_span(v, subspace) for v in dense_bracket_span(algebra, units, subspace))


def dense_is_abelian_subspace(algebra, subspace):
    return not dense_bracket_span(algebra, subspace, subspace)


def dense_centralizer_basis(algebra, subspace):
    """Kernel of the stacked rows of ad(s), through `rref_inplace`."""
    rows = [row for s in subspace for row in dense_ad(algebra, s)]
    return dense_rref_basis(dense_kernel_basis(rows, algebra.dim))


def dense_descending_central_series(algebra):
    """C^1 = [L, L], C^{r+1} = [L, C^r]; stops when stable (ends with [] iff nilpotent)."""
    full = [_unit(algebra.dim, j) for j in range(algebra.dim)]
    series = [dense_bracket_span(algebra, full, full)]
    while True:
        nxt = dense_bracket_span(algebra, full, series[-1])
        if len(nxt) == len(series[-1]):
            return series
        series.append(nxt)


def dense_semidirect_coadjoint(algebra):
    """t*G on the basis (dual basis, basis), one `basis_bracket` per (i, j, k)."""
    n = algebra.dim
    table = {}
    for (i, j), comp in algebra.brackets.items():
        table[(n + i, n + j)] = {n + k: c for k, c in comp.items()}
    # [e_{n+i}, eps_j]: ad*_{e_i} eps_j = -sum_k eps_j([e_i, e_k]) eps_k
    for i in range(n):
        for j in range(n):
            comp = {}
            for k in range(n):
                br = algebra.basis_bracket(i, k)
                if br[j] != 0:
                    comp[k] = comp.get(k, Q(0)) - br[j]
            comp = {k: c for k, c in comp.items() if c != 0}
            if comp:
                # stored with smaller index first: (j, n+i) with sign flip
                table[(j, n + i)] = {k: -c for k, c in comp.items()}
    return LieAlgebra(2 * n, table)


def dense_flat_table(algebra, ideal_basis, complement_vector, form):
    """The flat symplectic product table of `flat_symplectic_structure`, for inputs it accepts."""
    n = algebra.dim
    ideal = dense_rref_basis(ideal_basis)
    e = [Q(c) for c in complement_vector]
    binv = Matrix.from_columns(list(ideal) + [e]).inverse()

    def lam(x):
        return binv.apply(x)[n - 1]

    rows = []
    rhs = []
    for c in ideal:
        rows.append(form.flat(c))
        rhs.append(form(dense_bracket(algebra, e, c), e))
    rows.append(form.flat(e))
    rhs.append(Q(0))
    v = Matrix(rows).solve([-r for r in rhs])

    table = []
    for i in range(n):
        ei = _unit(n, i)
        li = lam(ei)
        row = []
        for j in range(n):
            ej = _unit(n, j)
            ad_e = dense_bracket(algebra, e, ej)
            lj = lam(ej)
            row.append([li * (a + lj * b) for a, b in zip(ad_e, v)])
        table.append(row)

    dense_verify_flat_symplectic(algebra, form, table)
    return table


def dense_verify_flat_symplectic(algebra, form, table):
    defect = dense_left_symmetry_defect(algebra, table)
    if defect == "torsion":
        raise StructuralError("product has torsion")
    if defect == "associator":
        raise StructuralError("associator is not left-symmetric")
    n = algebra.dim
    w = form.matrix.data
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # w(e_i e_j, e_k) + w(e_j, e_i e_k) = 0
                val = sum(c * w[a][k] for a, c in enumerate(table[i][j]) if c != 0)
                val += sum(w[j][b] * c for b, c in enumerate(table[i][k]) if c != 0)
                if val != 0:
                    raise StructuralError("symplectic form is not parallel")


def dense_curvature_vanishes(algebra, table):
    """L_{[a,b]} = [L_a, L_b] on all basis pairs."""
    n = algebra.dim

    def lmat(vec):
        cols = [product_from_table(table, vec, _unit(n, j)) for j in range(n)]
        return Matrix.from_columns(cols)

    for i in range(n):
        for j in range(n):
            lhs = lmat(algebra.basis_bracket(i, j))
            la, lb = lmat(_unit(n, i)), lmat(_unit(n, j))
            if lhs != la * lb - lb * la:
                return False
    return True


def dense_double(algebra, r):
    """(bracket table of D(G, r), theta matrix) as `double_theta_check` built them, without its checks."""
    n = algebra.dim

    def adstar(x, mu):
        ad = algebra.ad(x)
        return [-sum(mu[i] * ad.data[i][j] for i in range(n)) for j in range(n)]

    def dual_bracket(alpha, beta):
        return [
            a - b
            for a, b in zip(adstar(r.apply(alpha), beta), adstar(r.apply(beta), alpha))
        ]

    def coad_dual(alpha, y):
        # <ad*_alpha y, gamma> = -<y, [alpha, gamma]*>
        out = []
        for g_idx in range(n):
            gamma = _unit(n, g_idx)
            out.append(-sum(a * b for a, b in zip(y, dual_bracket(alpha, gamma))))
        return out

    table = {}

    def put(i, j, vec):
        comp = {k: c for k, c in enumerate(vec) if c != 0}
        if comp:
            table[(i, j)] = comp

    for i in range(n):
        for j in range(i + 1, n):
            put(i, j, dual_bracket(_unit(n, i), _unit(n, j)) + [Q(0)] * n)
    for i in range(n):
        for j in range(i + 1, n):
            put(n + i, n + j, [Q(0)] * n + algebra.basis_bracket(i, j))
    for a_idx in range(n):
        for x_idx in range(n):
            alpha = _unit(n, a_idx)
            x = _unit(n, x_idx)
            # [alpha, x]_D = -[x, alpha]_D = (-ad*_x alpha, +ad*_alpha x)
            vec = [-c for c in adstar(x, alpha)] + coad_dual(alpha, x)
            put(a_idx, n + x_idx, vec)

    theta_cols = []
    for a_idx in range(n):
        col = _unit(2 * n, a_idx)
        ra = r.column(a_idx)
        for t in range(n):
            col[n + t] += ra[t]
        theta_cols.append(col)
    for x_idx in range(n):
        theta_cols.append(_unit(2 * n, n + x_idx))
    return table, Matrix.from_columns(theta_cols)


# -- the augmented-matrix inverse and solve, the dense left-symmetry check -----------
#
# Copies (renamed) of `Matrix.inverse` and `Matrix.solve` as they were before
# they reduced the sparse rows directly: one augmented `Matrix`, its dense
# `rref`, the answer read off the reduced columns; and of
# `cocycles.left_symmetry_defect` before it read the stored brackets: the
# torsion of every pair (i, j) and dense combinations of whole table rows.


def dense_inverse(m):
    if not m.is_square:
        raise PreconditionError("inverse of a non-square matrix")
    n = m.rows
    aug = [row[:] + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(m.data)]
    R, pivots = Matrix(aug).rref()
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    return Matrix([row[n:] for row in R.data])


def dense_solve(m, rhs):
    b = [Q(x) for x in rhs]
    if len(b) != m.rows:
        raise InputError("right-hand side has wrong length")
    R, pivots = Matrix([row[:] + [b[i]] for i, row in enumerate(m.data)]).rref()
    if m.cols in pivots:
        raise PreconditionError("linear system is inconsistent")
    x = [Q(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = R.data[r][m.cols]
    return x


def _combine(coeffs, vecs):
    """sum_a coeffs[a] vecs[a], skipping zero coefficients."""
    out = [Q(0)] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c != 0:
            for m, x in enumerate(v):
                out[m] += c * x
    return out


def dense_left_symmetry_defect(algebra, table):
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            if [a - b for a, b in zip(table[i][j], table[j][i])] != algebra.basis_bracket(i, j):
                return "torsion"
    right = [[row[k] for row in table] for k in range(n)]  # right[k][a] = e_a e_k
    for i in range(n):
        for j in range(i + 1, n):
            br = algebra.basis_bracket(i, j)
            for k in range(n):
                # (e_i e_j - e_j e_i) e_k = e_i (e_j e_k) - e_j (e_i e_k)
                lhs = _combine(br, right[k])
                rhs = [a - b for a, b in zip(_combine(table[j][k], table[i]), _combine(table[i][k], table[j]))]
                if lhs != rhs:
                    return "associator"
    return None


# -- the dense subspace layer and moment map ---------------------------------------------
#
# Copies (renamed) of `rref_basis`, `in_span` and `complement_basis` as they
# were before they ran on sparse rows: the same validation (`_frac` on every
# entry, zero vectors dropped, then one dense `Matrix` that rejects ragged
# rows), here eliminated by `rref_inplace`, and the greedy complement with one
# span test per unit vector.  And of the moment map before it walked the
# stored brackets and form entries: the dense n x n matrix of polynomials
# ad_x, (ad*_x mu)_j = -(ad^T mu)_j over all of it, and w(x, .) from the dense
# `form.matrix`; the series and the identity around them are as in the
# library, with its `bch`.


def dense_rref_basis(vectors):
    vecs = [[_frac(x) for x in v] for v in vectors]
    vecs = [v for v in vecs if any(x != 0 for x in v)]
    if not vecs:
        return []
    work = Matrix(vecs).copy_data()
    return work[:len(rref_inplace(work))]


def dense_in_span(vector, basis):
    v = [_frac(x) for x in vector]
    if all(x == 0 for x in v):
        return True
    if not basis:
        return False
    return len(dense_rref_basis(list(basis) + [v])) == len(dense_rref_basis(basis))


def dense_complement_basis(basis, dim):
    cur = [list(map(_frac, v)) for v in basis]
    out = []
    for j in range(dim):
        e = _unit(dim, j)
        if not dense_in_span(e, cur):
            cur.append(e)
            out.append(e)
    return out


def dense_ad_matrix_poly(algebra, x):
    n = algebra.dim
    zero = Poly(x[0].arity, {})
    m = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), comp in algebra.brackets.items():
        for k, c in comp.items():
            m[k][j] = m[k][j] + c * x[i]
            m[k][i] = m[k][i] - c * x[j]
    return m


def dense_adstar_apply(ad, mu):
    """(ad*_x mu)(e_j) = -mu([x, e_j]) = -(ad^T mu)_j."""
    n = len(ad)
    return [-sum((ad[i][j] * mu[i] for i in range(n)), Poly(mu[0].arity, {})) for j in range(n)]


def _dense_ad_series(algebra, x, first, start):
    """sum_{k >= start} (1/k!) (ad*_x)^(k - start) first, the way both library series sum it."""
    ad = dense_ad_matrix_poly(algebra, x)
    out, term, k = list(first), list(first), start
    while True:
        term = dense_adstar_apply(ad, term)
        if vec_is_zero(term):
            return out
        k += 1
        out = [o + Q(1, factorial(k)) * t for o, t in zip(out, term)]
        if k > algebra.dim + 2:
            raise AssertionError("ad* series did not terminate")


def dense_moment_components(algebra, form, x):
    n = algebra.dim
    w = form.matrix
    term = [sum((w.data[i][j] * x[i] for i in range(n)), Poly(x[0].arity, {})) for j in range(n)]
    return _dense_ad_series(algebra, x, term, 1)


def dense_moment_map(algebra, form):
    return dense_moment_components(algebra, form, poly_vector(algebra.dim, 0, algebra.dim))


def dense_moment_cocycle_identity_holds(algebra, form):
    n = algebra.dim
    x, y = poly_vector(2 * n, 0, n), poly_vector(2 * n, n, n)
    lhs = dense_moment_components(algebra, form, bch(algebra, x, y))
    qx = dense_moment_components(algebra, form, x)
    rhs = [a + b for a, b in zip(qx, _dense_ad_series(algebra, x, dense_moment_components(algebra, form, y), 0))]
    return all((l - r).is_zero() for l, r in zip(lhs, rhs))
