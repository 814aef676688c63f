"""Automorphisms of the model groups and the exact Anosov decision.

The unit-circle test never touches floating point: roots at +-1 are checked
directly, the reciprocal gcd isolates candidate root pairs, and a Sturm
count of the half-degree polynomial on [-2, 2] settles the circle cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import unipoly
from .errors import InputError, InternalError, PreconditionError
from .intlattice import _ints, det_int
from .matrix import Matrix

# -- characteristic polynomial machinery ----------------------------------------------


def _check_3x3(b: Sequence[Sequence[int]]) -> list[list[int]]:
    rows = [_ints(row) for row in b]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise InputError("need a 3x3 integer matrix")
    return rows


def second_exterior_power(b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Action on wedge^2 Z^3 in the basis (e2^e3, e1^e3, e1^e2): entry (i, j) is the minor off row i, column j."""
    rows = _check_3x3(b)

    def minor(i, j):
        (r0, r1), (c0, c1) = ([t for t in range(3) if t != k] for k in (i, j))
        return rows[r0][c0] * rows[r1][c1] - rows[r0][c1] * rows[r1][c0]

    return [[minor(i, j) for j in range(3)] for i in range(3)]


def char_poly_pair(b: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(p_B, q_A) for det B = +-1, with A = det(B) B^-1; dense low-to-high.

    p_B = X^3 - tr(B) X^2 + tr(wedge^2 B) X - det B
    q_A = X^3 - tr(wedge^2 B) X^2 + det(B) tr(B) X - 1
    """
    rows = _check_3x3(b)
    det = det_int(rows)
    if det not in (1, -1):
        raise PreconditionError("matrix must be unimodular")
    tr = sum(rows[i][i] for i in range(3))
    w2 = second_exterior_power(rows)
    tr2 = sum(w2[i][i] for i in range(3))
    return [-det, tr2, -tr, 1], [-1, det * tr, -tr2, 1]


# -- unit circle decision ----------------------------------------------------------------


def has_unit_circle_root(p: Sequence[int]) -> bool:
    """Exact: does the integer polynomial have a root of modulus one?"""
    poly = unipoly.trim(p)
    if not poly:
        raise InputError("zero polynomial")
    if unipoly.degree(poly) == 0:
        return False
    if unipoly.evaluate(poly, 1) == 0 or unipoly.evaluate(poly, -1) == 0:
        return True
    g = unipoly.poly_gcd(poly, unipoly.reverse(poly))
    if unipoly.degree(g) <= 0:
        return False
    # the roots of g are those z of p with 1/z also a root, none of them +-1, so
    # g is palindromic of even degree and z + 1/z = +-2 is no root of half
    half = unipoly.palindromic_to_half(unipoly.primitive_int(unipoly.squarefree_part(g)))
    return unipoly.count_real_roots(half, -2, 2) > 0


def is_anosov(b: Sequence[Sequence[int]]) -> bool:
    """Unimodular with no induced eigenvalue on the unit circle."""
    rows = _check_3x3(b)
    if det_int(rows) not in (1, -1):
        return False
    p_b, _ = char_poly_pair(rows)
    return not has_unit_circle_root(p_b)


# -- Heisenberg automorphisms from quadratic units -----------------------------------------


@dataclass
class PhiAutomorphism:
    ring: QuadraticRing
    alpha: RingElement
    beta: RingElement
    gamma: RingElement
    matrix: Matrix                      # 6x6 integer block diag(M_alpha, M_beta, M_gamma)
    eigen: list[tuple[RingElement, int]]  # (element, embedding sign +1/-1), six entries
    exponents: tuple[int, int] | None   # (n, m) with alpha = +-eps^n, beta = +-eps^m
    anosov: bool


def _mult_matrix(ring: QuadraticRing, x: RingElement) -> list[list[int]]:
    """Multiplication by x on the ring in the basis (1, omega)."""
    a, b = x.a, x.b
    if ring.half:
        c = (ring.m - 1) // 4
        return [[a, b * c], [b, a + b]]
    return [[a, ring.m * b], [b, a]]


def phi_automorphism(ring: QuadraticRing, alpha: RingElement, beta: RingElement) -> PhiAutomorphism:
    """The automorphism (x, y, z) -> (alpha x, beta y, gamma z), gamma = alpha beta.

    Verified as a group automorphism through the bilinearity of the matrix
    product; Anosov iff the ring is real and alpha = eps^n, beta = eps^m with
    n m (n + m) != 0.
    """
    from .quadratic import unit_exponent

    if not (alpha.is_unit() and beta.is_unit()):
        raise PreconditionError("alpha and beta must be units")
    gamma = alpha * beta
    blocks = [_mult_matrix(ring, u) for u in (alpha, beta, gamma)]
    big = [[0] * 6 for _ in range(6)]
    for t, blk in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                big[2 * t + i][2 * t + j] = blk[i][j]
    matrix = Matrix(big)
    _verify_ring_automorphism(ring, alpha, beta, gamma)

    eigen = [(alpha, 1), (alpha, -1), (beta, 1), (beta, -1), (gamma, 1), (gamma, -1)]
    exponents = None
    anosov = False
    if ring.m > 1:
        n = unit_exponent(ring, alpha)
        m = unit_exponent(ring, beta)
        exponents = (n, m)
        anosov = n * m * (n + m) != 0
    return PhiAutomorphism(ring, alpha, beta, gamma, matrix, eigen, exponents, anosov)


def _verify_ring_automorphism(ring, alpha, beta, gamma) -> None:
    # The Heisenberg product over the ring is (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y');
    # phi respects it iff gamma (x y') = (alpha x)(beta y') for all x, y', which is
    # bilinear, so checking on the ring basis is exact and complete.
    from .quadratic import RingElement as RE

    basis = [RE(ring, 1, 0), RE(ring, 0, 1)]
    for x in basis:
        for y in basis:
            if gamma * (x * y) != (alpha * x) * (beta * y):
                raise InternalError("automorphism fails bilinearity")  # pragma: no cover


def eigenvalue_moduli_report(phi: PhiAutomorphism) -> list[int]:
    """For each of the six eigenvalues: -1, 0, 1 as |lambda| <, =, > 1 (exact)."""
    from .quadratic import abs_embedding_vs_one

    out = []
    for elem, sign in phi.eigen:
        if phi.ring.m < 0:
            out.append(0 if abs(elem.norm()) == 1 else (1 if abs(elem.norm()) > 1 else -1))
        else:
            out.append(abs_embedding_vs_one(elem, positive_root=(sign > 0)))
    return out


# -- automorphisms of the (1,1,1) lattice in the cotangent group -----------------------------


@dataclass
class Gamma111Automorphism:
    b_matrix: list[list[int]]   # induced on Gamma/Z
    a_matrix: list[list[int]]   # induced on the center; equals det(B) B^-1
    images: dict[str, GroupElement]


def gamma111_automorphism(
    m: Sequence[Sequence[int]], central: Sequence[Sequence[int]] | None = None
) -> Gamma111Automorphism:
    """The unique automorphism of the (1,1,1) lattice with y_j -> prod y_i^{m[i][j]} z'_j.

    Requires det m = +-1; all presentation relations are re-verified in the
    coordinate model and the center action A = det(B) B^-1 is returned.
    """
    from .groups import TriD, check_relations, commutator, element, trid_presentation

    rows = _check_3x3(m)
    det = det_int(rows)
    if det not in (1, -1):
        raise PreconditionError("generator matrix must be unimodular")
    model = TriD(1, 1, 1)
    zc = [_ints(r) for r in central] if central is not None else [[0, 0, 0]] * 3
    if len(zc) != 3 or any(len(r) != 3 for r in zc):
        raise InputError("need three central coordinate triples")

    ys = []
    for j in range(3):
        coords = [0] * 6
        coords[0:3] = zc[j]
        coords[3:6] = [rows[i][j] for i in range(3)]
        ys.append(element(model, coords))

    # center images from commutators of the new generators; storing the image
    # of z_i as row i makes the matrix equal det(B) B^-1 exactly
    comm_pairs = [(1, 2), (2, 0), (0, 1)]
    a_matrix = []
    for (i, j) in comm_pairs:
        c = commutator(model, ys[i], ys[j])  # central: the y-coordinates add
        a_matrix.append([int(x) for x in c.coords[:3]])

    expected = [[det * x for x in row] for row in Matrix(rows).inverse().to_int_rows()]
    if a_matrix != expected:
        raise InternalError("center action disagrees with det(B) B^-1")  # pragma: no cover

    assignment = {f"y{j + 1}": ys[j] for j in range(3)}
    for i in range(3):
        zi = [0] * 6
        zi[0:3] = a_matrix[i]
        assignment[f"z{i + 1}"] = element(model, zi)
    ok, failing = check_relations(model, assignment, trid_presentation(1, 1, 1))
    if not ok:
        raise InternalError(f"presentation relation failed: {failing}")  # pragma: no cover
    return Gamma111Automorphism(rows, a_matrix, assignment)


# -- automorphism constraints for the standard filiform lattice ------------------------------


@dataclass
class FiliformAutCheck:
    ok: bool
    diagnosis: str | None


def filiform_aut_constraints(
    n: int,
    y_images: Sequence[Sequence[tuple[str, int]]],
    z_image: Sequence[tuple[str, int]],
) -> FiliformAutCheck:
    """Check whether generator images define an automorphism of the standard lattice.

    Checks, in order: the abelian subgroup spanned by y_1..y_n is preserved
    with a lower-triangular +-1-diagonal restriction; the image of z lies in
    z^{+-1} M; the diagonal signs propagate (all equal); every defining
    relation is preserved.
    """
    from .groups import (
        Filiform,
        check_relations,
        evaluate_word,
        filiform_presentation,
        filiform_standard_assignment,
        standard_filiform_action,
    )

    if len(y_images) != n:
        raise InputError("need images for y_1..y_n")
    model = Filiform(n, standard_filiform_action(n))
    base = filiform_standard_assignment(model)
    gens = set(base)
    for word in list(y_images) + [z_image]:
        for g, _ in word:
            if g not in gens:
                raise InputError(f"unknown generator {g!r} in image word")

    img = {f"y{i + 1}": evaluate_word(model, base, list(y_images[i])) for i in range(n)}
    img["z"] = evaluate_word(model, base, list(z_image))

    # (a) M invariant, restriction lower triangular with +-1 diagonal
    restr = []
    for i in range(n):
        coords = img[f"y{i + 1}"].coords
        if coords[n] != 0:
            return FiliformAutCheck(False, f"y{i + 1} image leaves the abelian subgroup")
        restr.append([int(c) for c in coords[:n]])
    mat = [[restr[j][i] for j in range(n)] for i in range(n)]  # column j = image of y_j
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != 0:
                return FiliformAutCheck(False, "restriction is not lower triangular")
    eps = [mat[i][i] for i in range(n)]
    if any(e not in (1, -1) for e in eps):
        return FiliformAutCheck(False, "diagonal of the restriction is not +-1")
    # (b) f(z) in z^{+-1} M
    if img["z"].coords[n] not in (1, -1):
        return FiliformAutCheck(False, "image of z is not z^{+-1} times the abelian part")
    # (c) epsilon propagation
    for i in range(n - 1):
        if eps[i] == 1 and eps[i + 1] != 1:
            return FiliformAutCheck(False, f"epsilon propagation fails at {i + 1}")
        if eps[i] == -1 and eps[i + 1] != -1:
            return FiliformAutCheck(False, f"epsilon propagation fails at {i + 1}")
    # (d) relations
    ok, failing = check_relations(model, img, filiform_presentation(n, model.g))
    if not ok:
        return FiliformAutCheck(False, f"relation failed: {failing}")
    return FiliformAutCheck(True, None)
