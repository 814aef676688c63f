"""Symplectic structures: the canonical filiform cocycle, moment maps, the
flat symplectic connection on algebras with an abelian codimension-one
ideal, orthogonals, the Yang-Baxter layer and the double construction.

Moment maps are exact polynomials in exponential coordinates; their group
cocycle identity is verified as a polynomial identity with the group product
expanded through the degree-4 Baker-Campbell-Hausdorff truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from typing import Sequence

from .cocycles import AlternatingForm, left_symmetry_defect
from .errors import InputError, InternalError, PreconditionError, StructuralError
from .liealg import LieAlgebra, filiform_algebra, semidirect_coadjoint
from .matrix import Matrix, Q, in_span, rref_basis, span_dim, sparse_kernel_basis, _frac, _rref, _sparse
from .multipoly import Poly, poly_vector, vec_is_zero

# -- the canonical filiform cocycle ---------------------------------------------------


def filiform_cocycle(n: int) -> AlternatingForm:
    """Omega = sum_{i<n} (-1)^i e_i* ^ e_{2n-i-1}* on the 2n-dim filiform algebra."""
    if n < 2:
        raise InputError("need n >= 2")
    L = filiform_algebra(2 * n - 1)
    entries = {}
    for i in range(n):
        entries[(i, 2 * n - i - 1)] = Q((-1) ** i)
    form = AlternatingForm.from_upper_entries(L, entries)
    if not form.is_cocycle() or not form.is_nondegenerate():
        raise InternalError("canonical filiform form failed verification")  # pragma: no cover
    return form


# -- moment maps ------------------------------------------------------------------------


@dataclass
class MomentMapPoly:
    """Components of Q(exp x) in the dual basis; polynomials in the coordinates of x."""

    algebra: LieAlgebra
    components: list[Poly]

    def evaluate(self, x: Sequence) -> list[Fraction]:
        vals = [_frac(c) for c in x]
        return [p.substitute(vals) for p in self.components]


def _adstar_apply(algebra: LieAlgebra, x: list[Poly], mu: list[Poly]) -> list[Poly]:
    """(ad*_x mu)_j = -mu([x, e_j]) = -sum_k mu_k [x, e_j]_k, over the stored brackets.

    A stored [e_i, e_j] = sum_k c_k e_k puts x_i [e_i, e_j] into [x, e_j] and
    -x_j [e_i, e_j] into [x, e_i].
    """
    zero = Poly(mu[0].arity, {})
    out = [zero] * len(mu)
    for (i, j), comp in algebra.brackets.items():
        m = sum((c * mu[k] for k, c in comp.items() if not mu[k].is_zero()), zero)
        if not m.is_zero():
            out[j] = out[j] - x[i] * m
            out[i] = out[i] + x[j] * m
    return out


def _bracket_poly(algebra: LieAlgebra, x: list[Poly], y: list[Poly]) -> list[Poly]:
    n = algebra.dim
    zero = Poly(x[0].arity, {})
    out = [zero for _ in range(n)]
    for (i, j), comp in algebra.brackets.items():
        coef = x[i] * y[j] - x[j] * y[i]
        for k, c in comp.items():
            out[k] = out[k] + c * coef
    return out


def moment_map(algebra: LieAlgebra, form: AlternatingForm) -> MomentMapPoly:
    """Q(exp x) = sum_{k>=1} (1/k!) (ad*_x)^{k-1} w(x, .), a finite exact sum."""
    if not algebra.is_nilpotent():
        raise PreconditionError("moment map needs a nilpotent algebra")
    if not form.is_cocycle() or not form.is_nondegenerate():
        raise PreconditionError("form must be a symplectic cocycle")
    n = algebra.dim
    x = poly_vector(n, 0, n)
    return MomentMapPoly(algebra, _moment_components(algebra, form, x))


def _moment_components(algebra: LieAlgebra, form: AlternatingForm, x: list[Poly]) -> list[Poly]:
    n = algebra.dim
    # w(x, e_j) = sum_i x_i w(e_i, e_j)
    term = [Poly(x[0].arity, {})] * n
    for (i, j), c in form.entries.items():
        term[j] = term[j] + c * x[i]
        term[i] = term[i] - c * x[j]
    out = list(term)
    for k in range(2, n + 1):  # callers check nilpotency first, so (ad*_x)^(n-1) = 0
        term = _adstar_apply(algebra, x, term)
        if vec_is_zero(term):
            break
        out = [o + Q(1, factorial(k)) * t for o, t in zip(out, term)]
    return out


def _coadjoint_exp(algebra: LieAlgebra, x: list[Poly], mu: list[Poly]) -> list[Poly]:
    """Ad*_{exp x} mu = e^{ad*_x} mu."""
    out = list(mu)
    term = list(mu)
    for k in range(1, algebra.dim):  # the caller checks nilpotency first, so (ad*_x)^(dim-1) = 0
        term = _adstar_apply(algebra, x, term)
        if vec_is_zero(term):
            break
        out = [o + Q(1, factorial(k)) * t for o, t in zip(out, term)]
    return out


def bch(algebra: LieAlgebra, x: list[Poly], y: list[Poly]) -> list[Poly]:
    """Baker-Campbell-Hausdorff through degree 4 (exact for class <= 4)."""
    series = algebra.descending_central_series()
    if series[-1] or len(series) > 4:  # not nilpotent, or of class > 4
        raise PreconditionError("BCH truncation covers nilpotency class <= 4 only")
    br = lambda a, b: _bracket_poly(algebra, a, b)
    xy = br(x, y)
    xxy = br(x, xy)
    yxy = br(y, xy)
    yxxy = br(y, xxy)
    return [
        xi + yi + Q(1, 2) * ci + Q(1, 12) * di - Q(1, 12) * ei - Q(1, 24) * fi
        for xi, yi, ci, di, ei, fi in zip(x, y, xy, xxy, yxy, yxxy)
    ]


def moment_cocycle_identity_holds(algebra: LieAlgebra, form: AlternatingForm) -> bool:
    """Q(st) == Q(s) + Ad*_s Q(t) as an exact polynomial identity.

    Coordinates of log s occupy variables 0..n-1, of log t variables n..2n-1.
    """
    n = algebra.dim
    arity = 2 * n
    x = poly_vector(arity, 0, n)
    y = poly_vector(arity, n, n)
    z = bch(algebra, x, y)
    lhs = _moment_components(algebra, form, z)
    qx = _moment_components(algebra, form, x)
    qy = _moment_components(algebra, form, y)
    rhs_shift = _coadjoint_exp(algebra, x, qy)
    rhs = [a + b for a, b in zip(qx, rhs_shift)]
    return all((l - r).is_zero() for l, r in zip(lhs, rhs))


# -- flat symplectic structure from an abelian codimension-one ideal -------------------


def flat_symplectic_structure(
    algebra: LieAlgebra,
    ideal_basis: Sequence[Sequence],
    complement_vector: Sequence,
    form: AlternatingForm,
) -> list[list[list[Fraction]]]:
    """Left-symmetric product with parallel symplectic form, for an algebra
    with an abelian codim-1 ideal I and complement vector e.

    The product is L_x = 0 on I and L_e = ad_e corrected on e itself:
    L_e e = v where w(v, c) = w([e, c], e) on I and w(v, e) = 0.  All three
    identities (torsion, left-symmetry, w-parallelism) are verified exactly.
    """
    n = algebra.dim
    ideal = rref_basis(ideal_basis)
    if span_dim(ideal) != n - 1:
        raise PreconditionError("ideal must have codimension one")
    if not algebra.is_ideal(ideal):
        raise PreconditionError("subspace is not an ideal")
    if not algebra.is_abelian_subspace(ideal):
        raise PreconditionError("ideal is not abelian")
    e = [_frac(c) for c in complement_vector]
    if in_span(e, ideal):
        raise PreconditionError("complement vector lies in the ideal")
    if not form.is_cocycle() or not form.is_nondegenerate():
        raise PreconditionError("form must be a symplectic cocycle")

    # decomposition x = iota(x) + lam(x) e against the basis (ideal, e): lam(e_i) = lam[i]
    lam = Matrix.from_columns(list(ideal) + [e]).inverse().data[n - 1]
    ad_e = algebra.ad(e)  # column j is [e, e_j]

    # v: w(v, c) = w([e, c], e) for c in ideal; w(v, e) = 0
    rows = []
    rhs = []
    for c in ideal:
        rows.append(form.flat(c))          # w(v, c) = sum_i v_i w[i][c-dir]
        rhs.append(form(ad_e.apply(c), e))
    rows.append(form.flat(e))
    rhs.append(Q(0))
    # w(v, c) = -w(c, v): rows above give w(c, v); flip sign of rhs
    v = Matrix(rows).solve([-r for r in rhs])

    # e_i e_j = lam(e_i) ([e, e_j] + lam(e_j) v)
    cols = [[a + lam[j] * b for a, b in zip(col, v)] for j, col in enumerate(ad_e.transpose().data)]
    table = [[[li * x for x in col] for col in cols] for li in lam]

    _verify_flat_symplectic(algebra, form, table)
    return table


def _verify_flat_symplectic(algebra: LieAlgebra, form: AlternatingForm, table) -> None:
    defect = left_symmetry_defect(algebra, table)
    if defect == "torsion":
        raise StructuralError("product has torsion")
    if defect == "associator":
        raise StructuralError("associator is not left-symmetric")
    w = form.rows()
    for row in table:
        for j, prod in enumerate(row):
            for k, prod_k in enumerate(row):
                # w(e_i e_j, e_k) + w(e_j, e_i e_k) = 0
                val = sum(c * w[a].get(k, 0) for a, c in enumerate(prod) if c)
                val += sum(c * prod_k[b] for b, c in w[j].items())
                if val != 0:
                    raise StructuralError("symplectic form is not parallel")


def curvature_vanishes(algebra: LieAlgebra, table) -> bool:
    """L_{[a,b]} = [L_a, L_b] on all basis pairs, with L_{e_i} the matrix of columns table[i]."""
    n = algebra.dim
    lmat = [Matrix.from_columns(row) for row in table]
    for i, j in combinations(range(n), 2):
        lhs = Matrix.zero(n, n)
        for k, c in algebra.brackets.get((i, j), {}).items():
            lhs = lhs + lmat[k].scale(c)
        if lhs != lmat[i] * lmat[j] - lmat[j] * lmat[i]:
            return False
    return True


# -- orthogonals -------------------------------------------------------------------------


def orthogonal_subalgebra(
    algebra: LieAlgebra, form: AlternatingForm, subspace: Sequence[Sequence]
) -> list[list[Fraction]]:
    """H-perp = {x : w(x, h) = 0 for all h in H} as an RREF basis."""
    if not form.is_nondegenerate():
        raise PreconditionError("form must be symplectic")
    n = algebra.dim
    # w(x, h) = -w(h, x): kernel of the rows w(h, .); with none it is the standard basis
    return _rref(sparse_kernel_basis([_sparse(form.flat(h), n) for h in subspace], n), n)


# -- the Example-5 intersection analysis ---------------------------------------------------


@dataclass
class GammaPrimeReport:
    w_dim: int
    gamma_prime_rank: int
    is_lattice: bool
    integer_form: list[int] | None  # primitive form cutting Gamma' when w_dim = 1


def example5_gamma_prime(rows: Sequence[Sequence]) -> GammaPrimeReport:
    """Intersection pattern of the integer lattice with exp(I-perp).

    `rows` are the three bottom-row coefficients of the cocycle block, each
    given by rational coordinates over a shared finite Q-basis of the reals.
    The Q-span dimension decides: 3 -> center only (rank 3), 2 -> rank 4,
    1 -> rank 5 cut out by a primitive integer linear form (a lattice).
    """
    vecs = [[_frac(x) for x in r] for r in rows]
    if len(vecs) != 3:
        raise InputError("need exactly three coefficient vectors")
    if all(all(x == 0 for x in v) for v in vecs):
        raise InputError("coefficient rows must not all vanish")
    w_dim = span_dim(vecs)
    rank = 6 - w_dim
    if w_dim > 1:
        return GammaPrimeReport(w_dim, rank, False, None)
    # all rows are rational multiples of one vector: extract the ratios
    base = next(v for v in vecs if any(x != 0 for x in v))
    piv = next(i for i, c in enumerate(base) if c != 0)
    coeffs = [v[piv] / base[piv] for v in vecs]
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    return GammaPrimeReport(1, 5, True, ints)


# -- classical Yang-Baxter ------------------------------------------------------------------


def cybe_check(algebra: LieAlgebra, r: Matrix) -> bool:
    """True iff the alternating bivector r solves the classical Yang-Baxter equation.

    [[r, r]](eps_i, eps_j, eps_k) is the cyclic sum of [r eps_b, r eps_c]_a
    over (a, b, c) in {(i, j, k), (j, k, i), (k, i, j)}, with r acting by
    columns; each bracket [r eps_b, r eps_c] is computed once.
    """
    if r.rows != algebra.dim or r.cols != algebra.dim:
        raise InputError("bivector size mismatch")
    if r.transpose() != r.scale(-1):
        raise InputError("bivector matrix must be skew-symmetric")
    n = algebra.dim
    cols = [_sparse(r.column(b), n) for b in range(n)]
    bracket = algebra._sparse_bracket()
    br = {(b, c): bracket(cols[b], cols[c]) for b, c in combinations(range(n), 2)}
    return all(
        br[j, k].get(i, 0) - br[i, k].get(j, 0) + br[i, j].get(k, 0) == 0
        for i, j, k in combinations(range(n), 3)
    )


def inverse_bivector(form: AlternatingForm) -> Matrix:
    """r with <beta, r alpha> matching the inverse of the form's flat map."""
    return form.matrix.transpose().inverse()


@dataclass
class DoubleStructures:
    double: LieAlgebra       # D(G, r) on basis (dual copy, algebra copy)
    semidirect: LieAlgebra   # t*G = G* x| G on the same index convention
    theta_matrix: Matrix     # the isomorphism (alpha, x) -> (alpha, r alpha + x)


def double_theta_check(algebra: LieAlgebra, r: Matrix) -> DoubleStructures:
    """Build D(G, r) and t*G and verify theta(alpha, x) = (alpha, r alpha + x).

    The dual-copy bracket is [a, b]* = ad*_{ra} b - ad*_{rb} a; mixed brackets
    follow the Manin double; theta is checked as a Lie isomorphism on every
    basis pair, and both tables are re-validated for Jacobi.
    """
    if not cybe_check(algebra, r):
        raise PreconditionError("bivector does not solve the Yang-Baxter equation")
    n = algebra.dim
    # ad_r[a][k][j] = [r eps_a, e_j]_k, r eps_a being column a of r
    ad_r = [algebra.ad(r.column(a)).data for a in range(n)]
    # dual[a][b][j] = [eps_a, eps_b]*(e_j) = (ad*_{r eps_a} eps_b - ad*_{r eps_b} eps_a)(e_j)
    dual = [[[ad_r[b][a][j] - ad_r[a][b][j] for j in range(n)] for b in range(n)] for a in range(n)]

    # The mixed bracket [eps_a, e_x] of D(G, r) is that of t*G, -ad*_{e_x} eps_a, on
    # the dual copy, plus ad*_{eps_a} e_x on the algebra copy, whose e_b
    # coordinate is -[eps_a, eps_b]*(e_x).
    semi = semidirect_coadjoint(algebra)
    table = {p: dict(comp) for p, comp in semi.brackets.items()}
    for a in range(n):
        for b in range(n):
            for x, c in enumerate(dual[a][b]):
                if c:
                    if a < b:
                        table.setdefault((a, b), {})[x] = c
                    table.setdefault((a, n + x), {})[n + b] = -c
    double = LieAlgebra(2 * n, table)
    double.validate()
    semi.validate()

    # theta is the identity plus r from the dual copy into the algebra copy
    rows = Matrix.identity(2 * n).copy_data()
    for t in range(n):
        rows[n + t][:n] = r.data[t]
    theta = Matrix(rows)
    if semi.in_basis(theta) != double.brackets:
        raise StructuralError("theta is not a Lie algebra isomorphism")
    return DoubleStructures(double, semi, theta)


def rational_structure_for_double(
    algebra: LieAlgebra, r: Matrix, lattice_log: Sequence[Sequence]
) -> tuple[Matrix, LieAlgebra]:
    """Structure constants of t*G in the basis (dual of B, B) for a Q-spanning B.

    Returns (basis change on t*G, the algebra in that basis); all constants
    are rational and Jacobi is re-validated.
    """
    n = algebra.dim
    cols = [[_frac(x) for x in v] for v in lattice_log]
    if any(len(v) != n for v in cols):
        raise InputError(f"lattice basis vectors must have length {n}, the algebra dimension")
    if len(cols) != n or span_dim(cols) != n:
        raise InputError("lattice basis must span the algebra over Q")
    if not cybe_check(algebra, r):
        raise PreconditionError("bivector does not solve the Yang-Baxter equation")
    B = Matrix.from_columns(cols)
    Bstar = B.inverse().transpose()  # dual basis columns
    semi = semidirect_coadjoint(algebra)
    big_cols = []
    for j in range(n):
        big_cols.append(Bstar.column(j) + [Q(0)] * n)
    for j in range(n):
        big_cols.append([Q(0)] * n + B.column(j))
    P = Matrix.from_columns(big_cols)
    out = LieAlgebra(2 * n, semi.in_basis(P))
    out.validate()
    return P, out
