"""Classification of the 6-dimensional 2-step algebras and of filiform lattices.

The 6-dimensional classifier turns the bracket into a plane of 2-forms,
reads off the Pfaffian binary quadratic form, and reduces it to X^2 + d Y^2
up to Q*-scaling; the squarefree d (absent in the rank-one case) is a
complete commensurability invariant.  A witness basis bringing the brackets
to the normal-form table is constructed and re-verified exactly.

Filiform lattices L x| Z are encoded by their unitriangular action matrix;
conjugation under lower-unitriangular integer matrices and +-1 diagonals is
decided exactly in integer arithmetic: a Euclidean normal form by elementary
row and column operations, then one integer Sylvester solve T g1 = g2 T.
One solve suffices: entry (i+1, i) of T g1 is g1[i+1][i] + T[i+1][i] and
that of (D g2 D) T is eps_i eps_{i+1} g2[i+1][i] + T[i+1][i] for a +-1
diagonal D, and both normal forms are positive there, so only D = I matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import InputError, InternalError, PreconditionError, StructuralError
from .intlattice import (
    IntRows,
    column_lattice_basis,
    integer_kernel_basis,
    mat_identity,
    mat_mul,
    quotient_invariants,
    solve_diophantine,
    xgcd,
)
from .liealg import LieAlgebra
from .matrix import Matrix, Q, complement_basis, parse_int, rref_basis, span_dim, span_equal, _frac, _sparse
from .quadratic import squarefree_part

# -- squarefree arithmetic ---------------------------------------------------------


def _rational_square_class(r: Fraction) -> int:
    """Squarefree integer representing r modulo nonzero rational squares."""
    if r == 0:
        raise InputError("square class of 0 is undefined")
    return squarefree_part(r.numerator * r.denominator)


def _rational_sqrt(r: Fraction) -> Fraction:
    if r < 0:
        raise InputError("square root of a negative rational")
    num, den = r.numerator, r.denominator
    a, b = isqrt(num), isqrt(den)
    if a * a != num or b * b != den:
        raise InputError(f"{r} is not a rational square")
    return Fraction(a, b)


# -- quadratic extension Q(sqrt(-d)) used by the witness construction ---------------


class _QuadExt:
    """a + b*tau with tau^2 = t2 (a fixed non-square rational)."""

    __slots__ = ("a", "b", "t2")

    def __init__(self, a, b, t2: Fraction):
        self.a, self.b, self.t2 = Q(a), Q(b), t2

    def __add__(self, o):
        return _QuadExt(self.a + o.a, self.b + o.b, self.t2)

    def __sub__(self, o):
        return _QuadExt(self.a - o.a, self.b - o.b, self.t2)

    def __neg__(self):
        return _QuadExt(-self.a, -self.b, self.t2)

    def __mul__(self, o):
        return _QuadExt(
            self.a * o.a + self.t2 * self.b * o.b, self.a * o.b + self.b * o.a, self.t2
        )

    def __truediv__(self, o):
        n = o.a * o.a - self.t2 * o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        return self * _QuadExt(o.a / n, -o.b / n, self.t2)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


# -- 2-forms on a 4-dimensional space (coefficient dicts over index pairs) ----------

_PAIRS4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _pf(eta: dict[tuple[int, int], Fraction]) -> Fraction:
    """Pfaffian coefficient: eta_12 eta_34 - eta_13 eta_24 + eta_14 eta_23 (1-based)."""
    g = lambda p: eta.get(p, Q(0))
    return g((0, 1)) * g((2, 3)) - g((0, 2)) * g((1, 3)) + g((0, 3)) * g((1, 2))


def _form_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, Q(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def _form_scale(c, x):
    return {k: c * v for k, v in x.items() if c * v != 0}


def _form_to_skew(eta, ring_zero, lift):
    m = [[ring_zero for _ in range(4)] for _ in range(4)]
    for (i, j), c in eta.items():
        m[i][j] = lift(c)
        m[j][i] = lift(-c)
    return m


def _factor_skew_rank2(m, is_zero):
    """Covectors f, g with the skew matrix m equal to f (x) g - g (x) f.

    Entries live in any field supporting +, -, *, /.  Raises if rank != 2.
    """
    n = len(m)
    pos = next(((i, j) for i in range(n) for j in range(i + 1, n) if not is_zero(m[i][j])), None)
    if pos is None:
        raise PreconditionError("form is zero")
    p, q = pos
    f = list(m[p])
    g = list(m[q])
    alpha = m[p][q]
    f = [x / alpha for x in f]
    for i in range(n):  # m is skew, so its upper triangle decides
        for j in range(i + 1, n):
            recon = f[i] * g[j] - f[j] * g[i]
            if not is_zero(m[i][j] - recon):
                raise PreconditionError("form does not have rank 2")
    return f, g


# -- the six-dimensional classifier --------------------------------------------------

H1_DUAL = "H1_DUAL"
H1_COMPLEX = "H1_COMPLEX"
H1_RxR = "H1_RxR"


@dataclass
class SixDimClassification:
    family: str
    d: int | None
    witness_basis: Matrix  # columns express the normal-form basis in input coordinates

    def key(self) -> tuple:
        return (self.family, self.d)


def normal_form_table(family: str, d: int | None) -> dict[tuple[int, int], dict[int, int]]:
    """Bracket table (0-based) the witness basis transforms the input into."""
    if family == H1_DUAL:
        return {(0, 2): {4: 1}, (1, 3): {4: 1}, (0, 1): {5: 1}}
    return {(0, 3): {4: 1}, (1, 2): {4: 1}, (0, 2): {5: 1}, (1, 3): {5: -d}}


def _validate_six_dim(L: LieAlgebra) -> tuple[list, list]:
    if L.dim != 6:
        raise StructuralError("classifier needs a 6-dimensional algebra")
    L.validate()
    center = rref_basis(L.center_basis())
    derived = L.derived_basis()
    if span_dim(center) != 2 or not span_equal(center, derived):
        raise StructuralError("center and derived ideal must coincide with dimension 2")
    return center, derived


def classify_six_dim(L: LieAlgebra, complement: Sequence[Sequence] | None = None) -> SixDimClassification:
    """Classify a 6-dim 2-step algebra with 2-dim center = derived ideal.

    The result does not depend on the complement choice; passing one makes
    that verifiable from the outside.
    """
    center, _ = _validate_six_dim(L)
    z1, z2 = center
    if complement is None:
        comp = complement_basis(center, 6)
    else:
        comp = [[_frac(x) for x in v] for v in complement]
        if len(comp) != 4 or span_dim(list(center) + comp) != 6:
            raise InputError("complement must be 4 vectors independent of the center")
    # [c_p, c_q] lies in the derived ideal, which is the centre, so its
    # coordinates in the RREF basis (z1, z2) are its entries at their pivots
    piv1, piv2 = (next(t for t, x in enumerate(z) if x) for z in center)
    br = L._sparse_bracket()
    sparse_comp = [_sparse(v, 6) for v in comp]
    eta1, eta2 = {}, {}
    for p, q in _PAIRS4:
        bracket = br(sparse_comp[p], sparse_comp[q])
        if piv1 in bracket:
            eta1[p, q] = bracket[piv1]
        if piv2 in bracket:
            eta2[p, q] = bracket[piv2]

    a = _pf(eta1)
    c = _pf(eta2)
    b = _pf(_form_add(eta1, eta2)) - a - c
    gram = Matrix([[a, b / 2], [b / 2, c]])
    rank = gram.rank()
    if rank == 0:
        raise StructuralError("Pfaffian form vanishes: bracket plane has no maximal support")

    def q_of(vec: tuple[Fraction, Fraction]) -> Fraction:
        x, y = vec
        return a * x * x + b * x * y + c * y * y

    def polar(u, v) -> Fraction:
        return (q_of((u[0] + v[0], u[1] + v[1])) - q_of(u) - q_of(v)) / 2

    # diagonalize q: w1 anisotropic, w2 polar-orthogonal to it
    for cand in ((Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))):
        if q_of(cand) != 0:
            w1 = cand
            break
    other = (Q(0), Q(1)) if w1 != (Q(0), Q(1)) else (Q(1), Q(0))
    lam = polar(w1, other) / q_of(w1)
    w2 = (other[0] - lam * w1[0], other[1] - lam * w1[1])
    s = q_of(w1)
    s2 = q_of(w2)

    def form_of(vec) -> dict:
        return _form_add(_form_scale(vec[0], eta1), _form_scale(vec[1], eta2))

    if rank == 1:
        # basis (eta_a anisotropic, eta_b isotropic)
        family, d = H1_DUAL, None
        new_covectors = _rank1_basis(form_of(w1), form_of(w2))
    else:
        d = _rational_square_class(s * s2)
        family = H1_COMPLEX if d > 0 else H1_RxR
        rho = _rational_sqrt(s2 / (s * d))
        w2 = (w2[0] / rho, w2[1] / rho)
        eta_hat1, eta_hat2 = form_of(w1), form_of(w2)  # q = s, s*d, polar 0
        if d != -1:
            new_covectors = _rank2_basis_field(eta_hat1, eta_hat2, d)
        else:
            new_covectors = _rank2_basis_split(eta_hat1, eta_hat2)

    # dual basis in V of the new covectors (covectors are w.r.t. the comp coordinates)
    F = Matrix(new_covectors)
    E = F.inverse()  # columns: new V-basis in comp coordinates
    new_v = [
        [sum(E.data[p][j] * comp[p][t] for p in range(4)) for t in range(6)]
        for j in range(4)
    ]
    # Center part: the normal-form table prescribes the coefficient forms
    # mu5, mu6 of e5, e6; solve (mu5, mu6) = (eta1, eta2) S and transform the
    # center basis contragradiently.
    mu5, mu6 = _table_coefficient_forms(normal_form_table(family, d), new_covectors)
    s_cols = []
    eta_mat = Matrix([[eta1.get(p, Q(0)), eta2.get(p, Q(0))] for p in _PAIRS4])
    for mu in (mu5, mu6):
        s_cols.append(eta_mat.solve([mu.get(p, Q(0)) for p in _PAIRS4]))
    s_matrix = Matrix.from_columns(s_cols)
    s_inv_t = s_matrix.inverse().transpose()
    new_z = [
        [s_inv_t.data[0][j] * z1[t] + s_inv_t.data[1][j] * z2[t] for t in range(6)]
        for j in range(2)
    ]
    witness = Matrix.from_columns(new_v + new_z)
    _verify_witness(L, witness, normal_form_table(family, d))
    return SixDimClassification(family, d, witness)


def _verify_witness(L: LieAlgebra, witness: Matrix, table: dict[tuple[int, int], dict[int, int]]) -> None:
    """Check that the columns w_0..w_5 of `witness` form a basis with [w_i, w_j] = sum_k table_ij^k w_k.

    With rank 6 this is the same as `L.in_basis(witness) == table`, without
    inverting the witness.
    """
    if witness.rank() != 6:
        raise InternalError("witness verification failed")
    br = L._sparse_bracket()
    cols = [_sparse(col, 6) for col in witness.transpose().data]
    for i in range(6):
        for j in range(i + 1, 6):
            want: dict[int, Fraction] = {}
            for k, c in table.get((i, j), {}).items():
                for t, x in cols[k].items():
                    want[t] = want.get(t, 0) + c * x
            if br(cols[i], cols[j]) != {t: x for t, x in want.items() if x}:
                raise InternalError("witness verification failed")


def _table_coefficient_forms(table: dict, covectors: list[list[Fraction]]) -> tuple[dict, dict]:
    """Coefficient 2-forms of e5 and e6 per the table, in complement coordinates."""
    out = []
    for slot in (4, 5):
        form = dict.fromkeys(_PAIRS4, Q(0))
        for (i, j), comp_ in table.items():
            c = Q(comp_.get(slot, 0))
            if c == 0:
                continue
            fi, fj = covectors[i], covectors[j]
            for p, q in _PAIRS4:
                form[p, q] += c * (fi[p] * fj[q] - fi[q] * fj[p])
        out.append({pq: v for pq, v in form.items() if v != 0})
    return out[0], out[1]


def _rank1_basis(eta_a: dict, eta_b: dict) -> list[list[Fraction]]:
    """Covector basis (f, g, h, k) with eta_a = f^h + g^k, eta_b = f^g."""
    m = _form_to_skew(eta_b, Q(0), lambda x: x)
    f, g = _factor_skew_rank2(m, lambda x: x == 0)
    # complete {f, g} to a covector basis with standard covectors
    rows = [f, g] + complement_basis([f, g], 4)
    p_hat, q_hat = rows[2], rows[3]
    # coordinates of eta_a in the wedge basis of (f, g, p, q)
    B = Matrix(rows)  # covector change: new = B * old-dual... solve via wedge matching
    binv = B.inverse()
    # express eta_a as a matrix, transform to the new covector coordinates:
    # eta_a(x, y) with x = binv-coordinates; matrix in new basis: (B^-1)^T M (B^-1)
    M = Matrix(_form_to_skew(eta_a, Q(0), lambda x: x))
    Mn = binv.transpose() * M * binv  # no p^q term, as eta_a ^ eta_b = 0
    c1, c2, c3 = Mn.data[0][1], Mn.data[0][2], Mn.data[0][3]
    c4, c5 = Mn.data[1][2], Mn.data[1][3]
    h = [c1 * gg + c2 * pp + c3 * qq for gg, pp, qq in zip(g, p_hat, q_hat)]
    k = [c4 * pp + c5 * qq for pp, qq in zip(p_hat, q_hat)]
    return [f, g, h, k]


def _rank2_basis_field(eta1: dict, eta2: dict, d: int) -> list[list[Fraction]]:
    """Covector basis (f1, f2, g1, g2) from factoring eta2 + tau eta1 over Q(tau), tau^2 = -d."""
    t2 = Q(-d)
    zero = _QuadExt(0, 0, t2)
    m = [[zero for _ in range(4)] for _ in range(4)]
    for (i, j), cc in eta2.items():
        m[i][j] = m[i][j] + _QuadExt(cc, 0, t2)
        m[j][i] = m[j][i] + _QuadExt(-cc, 0, t2)
    for (i, j), cc in eta1.items():
        m[i][j] = m[i][j] + _QuadExt(0, cc, t2)
        m[j][i] = m[j][i] + _QuadExt(0, -cc, t2)
    f, g = _factor_skew_rank2(m, lambda x: x.is_zero())
    f1 = [x.a for x in f]
    f2 = [x.b for x in f]
    g1 = [x.a for x in g]
    g2 = [x.b for x in g]
    return [f1, f2, g1, g2]


def _rank2_basis_split(eta1: dict, eta2: dict) -> list[list[Fraction]]:
    """d = -1: factor the two rational isotropic forms and apply a fixed mixing."""
    wa = _form_add(eta1, eta2)   # q = 0
    wb = _form_add(eta1, _form_scale(Q(-1), eta2))  # q = 0
    pa, qa = _factor_skew_rank2(_form_to_skew(wa, Q(0), lambda x: x), lambda x: x == 0)
    pb, qb = _factor_skew_rank2(_form_to_skew(wb, Q(0), lambda x: x), lambda x: x == 0)
    # dual-side construction: work with the dual vectors later; here produce
    # covectors (e1*..e4*) so that eta1 = e1*^e4* + e2*^e3*, eta2 = e1*^e3* + e2*^e4*.
    # With A := pa^qa = (eta1+eta2)/1 and Bf := pb^qb = eta1-eta2:
    #   eta1 = (A + Bf)/2, eta2 = (A - Bf)/2.
    # Take e1* = pa, e4* = qa/2 + ..., built from the identity below.
    # Use the vector-side mixing e1 = a1+b1 ... transported to covectors:
    # covector dual relations give e1* = (pa + pb)/2 ... verified by assertion.
    f1 = [(x + y) / 2 for x, y in zip(pa, pb)]
    f2 = [(x - y) / 2 for x, y in zip(pa, pb)]
    g1 = [x + y for x, y in zip(qa, qb)]
    g2 = [x - y for x, y in zip(qa, qb)]
    return [f1, f2, g1, g2]


def commensurable(c1: SixDimClassification, c2: SixDimClassification) -> bool:
    """Lattice commensurability: same family and same squarefree invariant."""
    return c1.key() == c2.key()


# -- lattice invariants of the TriD family ------------------------------------------


def trid_invariants(center: Sequence[Sequence[int]], derived: Sequence[Sequence[int]]) -> list[int]:
    """Divisor chain of (center lattice)/(derived sublattice), both rank 3."""
    inv = quotient_invariants(center, derived)
    if len(inv) != 3 or any(x == 0 for x in inv):
        raise InputError("need rank-3 lattices with finite quotient")
    return inv


def trid_invariants_from_model(model) -> list[int]:
    """Recover (d1, d2, d3) from commutators of the standard generators."""
    from .groups import TriD, commutator, element

    if not isinstance(model, TriD):
        raise InputError("expected a TriD model")
    ys = []
    for i in range(3):
        cvec = [0] * 6
        cvec[3 + i] = 1
        ys.append(element(model, cvec))
    derived = []
    for i in range(3):
        for j in range(i + 1, 3):
            comm = commutator(model, ys[i], ys[j])  # central: the y-coordinates add
            derived.append([int(c) for c in comm.coords[:3]])
    return trid_invariants(mat_identity(3), derived)


# -- filiform lattice specs ----------------------------------------------------------


@dataclass(frozen=True)
class FiliformLatticeSpec:
    """Lattice L x| Z inside the filiform group, encoded by its action matrix g(1)."""

    n: int
    g: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, g: Sequence[Sequence[int]]):
        rows = tuple(tuple(x if type(x) is int else parse_int(x, "action matrix entry") for x in row) for row in g)
        if n < 2 or len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("action matrix must be n x n with n >= 2")
        for i in range(n):
            if rows[i][i] != 1 or any(rows[i][j] != 0 for j in range(i + 1, n)):
                raise InputError("action matrix must be lower-unitriangular")
        for j in range(n - 1):
            if rows[j + 1][j] == 0:
                raise PreconditionError("(g - I)^(n-1) vanishes: subdiagonal entry is zero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", rows)

    def g_rows(self) -> IntRows:
        return [list(r) for r in self.g]


def theta_invariant(spec: FiliformLatticeSpec) -> tuple[int, ...]:
    """Absolute values of the first subdiagonal of the action matrix."""
    return tuple(abs(spec.g[j + 1][j]) for j in range(spec.n - 1))


def _triangular_inverse(m: IntRows) -> IntRows:
    """Inverse of an integer lower-triangular matrix with a +-1 diagonal (forward substitution)."""
    n = len(m)
    if any(len(row) != n for row in m) or any(
        m[i][j] != 0 for i in range(n) for j in range(i + 1, n)
    ) or any(m[i][i] not in (1, -1) for i in range(n)):
        raise StructuralError("expected a lower-triangular integer matrix with +-1 diagonal")
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = m[j][j]
        for i in range(j + 1, n):
            inv[i][j] = -m[i][i] * sum(m[i][k] * inv[k][j] for k in range(j, i))
    return inv


def filiform_normalize(spec: FiliformLatticeSpec) -> tuple[FiliformLatticeSpec, IntRows]:
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

    # entries ordered by depth m = i - j, then by column; conjugating by
    # u = I + q E[i][j+1] is: column j+1 += q column i, then row i -= q row j+1
    for m in range(2, n):
        for j in range(0, n - m):
            i = j + m
            b = g[j + 1][j]
            qq = g[i][j] // b
            if qq == 0:
                continue
            for row in g:
                row[j + 1] += qq * row[i]
            g[i] = [x - qq * y for x, y in zip(g[i], g[j + 1])]
            for row in witness:
                row[j + 1] += qq * row[i]

    for j in range(n - 1):
        if g[j + 1][j] <= 0:
            raise InternalError("sign normalization failed")  # pragma: no cover
        for i in range(j + 2, n):
            if not 0 <= g[i][j] < g[j + 1][j]:
                raise InternalError("Euclidean reduction failed")  # pragma: no cover
    # witness is lower-triangular with a +-1 diagonal, hence unimodular
    if mat_mul(spec.g, witness) != mat_mul(witness, g):
        raise InternalError("witness verification failed")  # pragma: no cover
    return FiliformLatticeSpec(n, g), witness


def _sylvester_solve_unitriangular(g1: IntRows, g2: IntRows) -> IntRows | None:
    """Integer lower-unitriangular T with T g1 = g2 T, or None."""
    n = len(g1)
    unknowns = [(i, j) for i in range(n) for j in range(i)]
    index = {u: t for t, u in enumerate(unknowns)}
    rows = []
    rhs = []
    for r in range(n):
        for cc in range(n):
            # (X g1 - g2 X)[r][cc] = (g2 - g1)[r][cc]: only the unknowns of
            # row r and of column cc occur
            row = [0] * len(unknowns)
            for j in range(r):
                row[index[r, j]] += g1[j][cc]
            for i in range(cc + 1, n):
                row[index[i, cc]] -= g2[r][i]
            target = g2[r][cc] - g1[r][cc]
            if any(row) or target:
                rows.append(row)
                rhs.append(target)
    if not rows:
        return mat_identity(n)
    sol = solve_diophantine(rows, rhs)
    if sol is None:
        return None
    x, _ = sol
    t_mat = mat_identity(n)
    for (i, j), t in index.items():
        t_mat[i][j] = x[t]
    return t_mat


def filiform_isomorphic(
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
    n1, w1 = filiform_normalize(s1)
    n2, w2 = filiform_normalize(s2)

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
        full = mat_mul(mat_mul(w1, phi_mid), _triangular_inverse(w2))
        return True, _checked_witness(s1, s2, full)

    # n != 3: one integer Sylvester solve T g1 = g2 T, giving conj(g1, T^-1) = g2.
    # No sign pattern D (eps_1 = 1, since D and -D act alike) other than the
    # identity can help: entry (i+1, i) of T g1 is g1[i+1][i] + T[i+1][i], that
    # of (D g2 D) T is eps_i eps_{i+1} g2[i+1][i] + T[i+1][i], and both normal
    # forms are positive there, so every eps_i eps_{i+1} = 1.
    t_mat = _sylvester_solve_unitriangular(n1.g, n2.g)
    if t_mat is None:
        return False, None
    full = mat_mul(mat_mul(w1, _triangular_inverse(t_mat)), _triangular_inverse(w2))
    return True, _checked_witness(s1, s2, full)


def _checked_witness(s1: FiliformLatticeSpec, s2: FiliformLatticeSpec, phi_fwd: IntRows) -> IntRows:
    """phi_fwd conjugates s1.g to s2.g; return the reverse witness, verified.

    s2.g psi == psi s1.g holds exactly when s1.g phi_fwd == phi_fwd s2.g, as psi = phi_fwd^-1.
    """
    psi = _triangular_inverse(phi_fwd)
    if mat_mul(s2.g, psi) != mat_mul(psi, s1.g):
        raise InternalError("witness verification failed")  # pragma: no cover
    return psi


def central_quotients(spec: FiliformLatticeSpec) -> list[list[int]]:
    """Divisor chains of C_i(Gamma) / C^{n-i}(Gamma) for i = 1 .. n-1.

    C_i is the saturated kernel of (g - I)^i inside Z^n, C^{n-i} the span of
    the columns of (g - I)^{n-i}.
    """
    n = spec.n
    nil = [[spec.g[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    powers = [mat_identity(n)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], nil))
    out = []
    for i in range(1, n):
        upper = integer_kernel_basis(powers[i])
        lower = column_lattice_basis(powers[n - i])
        inv = quotient_invariants(upper, lower)
        if any(x == 0 for x in inv):
            raise InternalError("central quotient is infinite")  # pragma: no cover
        out.append(inv)
    return out


def nontrivial_invariants(divisors: Sequence[int]) -> list[int]:
    return [d for d in divisors if d != 1]


# -- the unique abelian codimension-one ideal ----------------------------------------


def unique_abelian_codim1(L: LieAlgebra) -> list[list[Fraction]]:
    """The unique abelian codim-1 ideal of a maximal-class algebra of the L_n kind.

    Raises StructuralError when the algebra is not of that kind (wrong class,
    or the ideal fails to be unique, as happens for the 3-dim Heisenberg).
    """
    L.validate()
    series = L.descending_central_series()
    if series[-1]:
        raise StructuralError("algebra is not nilpotent")
    if len(series) != L.dim - 1:  # the nilpotency class
        raise StructuralError("algebra is not of maximal nilpotency class")
    derived = series[0]
    if not L.is_abelian_subspace(derived):
        raise StructuralError("derived ideal is not abelian")
    cent = L.centralizer_basis(derived)
    if span_dim(cent) == L.dim:
        raise StructuralError("abelian codim-1 ideal is not unique")
    if span_dim(cent) != L.dim - 1:
        raise StructuralError("no abelian codimension-one ideal")
    if not (L.is_ideal(cent) and L.is_abelian_subspace(cent)):
        raise StructuralError("centralizer of the derived ideal is not an abelian ideal")
    return rref_basis(cent)
