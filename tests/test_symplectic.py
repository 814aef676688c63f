import random
from fractions import Fraction as F

import pytest

from helpers import coboundary_value, dense_moment_components, dense_moment_cocycle_identity_holds, dense_moment_map
from nillat import jsonio
from nillat.cocycles import AlternatingForm, cocycle_space
from nillat.errors import InputError, NillatError, PreconditionError
from nillat.liealg import (
    LieAlgebra,
    abelian_algebra,
    filiform_algebra,
    free_two_step_algebra,
    heisenberg_algebra,
    semidirect_coadjoint,
)
from nillat.matrix import Matrix, _unit, rref_basis
from nillat.multipoly import poly_vector
from nillat.symplectic import (
    _moment_components,
    bch,
    curvature_vanishes,
    cybe_check,
    double_theta_check,
    example5_gamma_prime,
    filiform_cocycle,
    flat_symplectic_structure,
    inverse_bivector,
    moment_cocycle_identity_holds,
    moment_map,
    orthogonal_subalgebra,
    rational_structure_for_double,
)


def tstar_h1_with_derivation_form():
    """t*H1 and the symplectic cocycle induced by the grading derivation."""
    ts = semidirect_coadjoint(heisenberg_algebra(1))
    lam = [1, 1, 2]
    entries = {(i, 3 + i): -lam[i] for i in range(3)}
    form = AlternatingForm.from_upper_entries(ts, entries)
    assert form.is_cocycle() and form.is_nondegenerate()
    return ts, form


def test_filiform_cocycle_n2():
    w = filiform_cocycle(2)
    assert w.algebra.dim == 4
    assert w.matrix.data[0][3] == 1 and w.matrix.data[1][2] == -1
    # forced by the cocycle property on the first triple
    n = 4
    assert coboundary_value(w, _unit(n, 0), _unit(n, 1), _unit(n, 2)) == 0


def test_filiform_cocycle_n3():
    w = filiform_cocycle(3)
    assert w.algebra.dim == 6
    assert w.matrix.det() != 0
    assert w.matrix.data[0][5] == 1 and w.matrix.data[1][4] == -1 and w.matrix.data[2][3] == 1


def test_moment_map_abelian_reduces_to_flat():
    L = abelian_algebra(4)
    w = AlternatingForm.from_upper_entries(L, {(0, 1): 1, (2, 3): 1})
    q = moment_map(L, w)
    rng = random.Random(1)
    for _ in range(20):
        x = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        assert q.evaluate(x) == w.flat(x)
    assert moment_cocycle_identity_holds(L, w)


def test_moment_map_zero_at_identity():
    L = filiform_algebra(3)
    q = moment_map(L, filiform_cocycle(2))
    assert q.evaluate([0, 0, 0, 0]) == [0, 0, 0, 0]


def test_moment_identity_filiform():
    L = filiform_algebra(3)
    assert moment_cocycle_identity_holds(L, filiform_cocycle(2))


def test_moment_identity_tstar_h1():
    ts, form = tstar_h1_with_derivation_form()
    assert moment_cocycle_identity_holds(ts, form)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except NillatError as exc:
        return type(exc), str(exc)


def test_moment_map_matches_dense_oracle():
    """Components and identity verdicts against the dense ad-matrix path: the canonical filiform forms
    (dim 4, 6, 8; the identity needs class <= 4, so dim 6 and 8 raise on both sides), the CLI's
    moment-map input, t*H1, and the raw series of seeded alternating forms, cocycles or not."""
    cli = {"algebra": {"dim": 4, "brackets": [[1, 2, [[3, 1]]], [1, 3, [[4, 1]]]]},
           "form": [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]}
    L = jsonio.parse_lie_algebra(cli["algebra"])
    cases = [(L, jsonio.parse_alternating_form(L, cli["form"])), tstar_h1_with_derivation_form()]
    cases += [(filiform_algebra(2 * n - 1), filiform_cocycle(n).scale(c)) for n in (2, 3, 4) for c in (1, -2)]
    verdicts = set()
    for L, form in cases:
        assert moment_map(L, form).components == dense_moment_map(L, form)
        got = _outcome(moment_cocycle_identity_holds, L, form)
        assert got == _outcome(dense_moment_cocycle_identity_holds, L, form)
        verdicts.add(got[0] if got[0] != "ok" else got[1])
    assert verdicts == {True, PreconditionError}
    rng = random.Random(31)
    for L in (filiform_algebra(3), filiform_algebra(5), tstar_h1_with_derivation_form()[0]):
        x = poly_vector(L.dim, 0, L.dim)
        for _ in range(4):
            form = AlternatingForm.from_upper_entries(
                L, {(i, j): rng.choice((0, 0, 1, -2, F(1, 3))) for i in range(L.dim) for j in range(i + 1, L.dim)})
            assert _moment_components(L, form, x) == dense_moment_components(L, form, x)


def test_moment_identity_class_four():
    # dim-5 filiform plus a central line: class 4, exercising the full
    # degree-4 group-product truncation
    L = LieAlgebra(6, {(0, i): {i + 1: 1} for i in range(1, 4)})
    assert L.nilpotency_class() == 4
    form = AlternatingForm.from_upper_entries(
        L,
        {(0, 1): -1, (0, 2): -1, (0, 3): -1, (0, 4): -1, (0, 5): -1,
         (1, 2): -1, (1, 4): 1, (1, 5): -1, (2, 3): -1},
    )
    assert form.is_cocycle() and form.is_nondegenerate()
    assert moment_cocycle_identity_holds(L, form)


def test_moment_identity_detects_wrong_form():
    # a nondegenerate non-cocycle is rejected by the precondition
    L = filiform_algebra(3)
    bad = AlternatingForm.from_upper_entries(L, {(0, 3): 1, (1, 2): -1, (1, 3): 1})
    with pytest.raises(PreconditionError):
        moment_map(L, bad)


def test_bch_rejects_high_class():
    L = filiform_algebra(5)  # class 5
    from nillat.multipoly import poly_vector

    x = poly_vector(12, 0, 6)
    y = poly_vector(12, 6, 6)
    with pytest.raises(PreconditionError):
        bch(L, x, y)


def test_flat_symplectic_structure_filiform():
    L = filiform_algebra(3)
    table = flat_symplectic_structure(
        L, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [1, 0, 0, 0], filiform_cocycle(2)
    )
    assert curvature_vanishes(L, table)
    # products of ideal elements vanish
    assert all(all(c == 0 for c in table[i][j]) for i in (1, 2, 3) for j in range(4))


def test_flat_symplectic_structure_two_dim():
    L = LieAlgebra(2, {(0, 1): {1: 1}})
    w = AlternatingForm.from_upper_entries(L, {(0, 1): 1})
    table = flat_symplectic_structure(L, [[0, 1]], [1, 0], w)
    assert curvature_vanishes(L, table)
    # e e = -e is forced by parallelism here
    assert table[0][0] == [F(-1), F(0)]


def test_flat_symplectic_structure_dim6():
    L = filiform_algebra(5)
    ideal = [[0 if j != i + 1 else 1 for j in range(6)] for i in range(5)]
    table = flat_symplectic_structure(L, ideal, [1, 0, 0, 0, 0, 0], filiform_cocycle(3))
    assert curvature_vanishes(L, table)


def test_flat_symplectic_structure_abelian_zero():
    L = abelian_algebra(2)
    w = AlternatingForm.from_upper_entries(L, {(0, 1): 1})
    table = flat_symplectic_structure(L, [[0, 1]], [1, 0], w)
    assert all(all(c == 0 for c in v) for row in table for v in row)


def test_flat_symplectic_structure_rejects_nonabelian_ideal():
    L = filiform_algebra(3)
    with pytest.raises(PreconditionError):
        flat_symplectic_structure(
            L, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [0, 0, 0, 1], filiform_cocycle(2)
        )


def _symplectic_cocycles_on_filiform(n_half, count):
    """Distinct symplectic cocycles on the dim-2*n_half filiform algebra."""
    L = filiform_algebra(2 * n_half - 1)
    z2, _ = cocycle_space(L)
    base = filiform_cocycle(n_half)
    out = [base]
    rng = random.Random(42)
    while len(out) < count:
        m = base.matrix
        for f in z2:
            m = m + f.matrix.scale(rng.randint(-2, 2))
        form = AlternatingForm(L, m)
        if form.is_nondegenerate() and not any(form.matrix == o.matrix for o in out):
            out.append(form)
    return L, out


@pytest.mark.parametrize("n_half", [2, 3])
def test_orthogonal_of_center_independent_of_form(n_half):
    L, forms = _symplectic_cocycles_on_filiform(n_half, 3)
    dim = L.dim
    center = [[0] * (dim - 1) + [1]]
    expected = rref_basis([_unit(dim, j) for j in range(1, dim)])
    for form in forms:
        assert orthogonal_subalgebra(L, form, center) == expected


def test_orthogonal_full_space_is_zero():
    L = filiform_algebra(3)
    w = filiform_cocycle(2)
    full = [_unit(4, j) for j in range(4)]
    assert orthogonal_subalgebra(L, w, full) == []


def test_gamma_prime_cases():
    rep1 = example5_gamma_prime([[1], [1], [1]])
    assert (rep1.w_dim, rep1.gamma_prime_rank, rep1.is_lattice) == (1, 5, True)
    assert rep1.integer_form == [1, 1, 1]
    rep2 = example5_gamma_prime([[1, 0], [0, 1], [0, 0]])
    assert (rep2.w_dim, rep2.gamma_prime_rank, rep2.is_lattice) == (2, 4, False)
    rep3 = example5_gamma_prime([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (rep3.w_dim, rep3.gamma_prime_rank, rep3.is_lattice) == (3, 3, False)
    # rational multiples collapse to w_dim 1 with a primitive integer form
    rep4 = example5_gamma_prime([[F(1, 2)], [F(1, 3)], [F(5, 6)]])
    assert rep4.is_lattice and rep4.integer_form == [3, 2, 5]
    with pytest.raises(InputError):
        example5_gamma_prime([[0], [0], [0]])


def test_cybe_abelian_always():
    L = abelian_algebra(4)
    r = Matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]])
    assert cybe_check(L, r)


def test_cybe_inverse_of_cocycle():
    L = filiform_algebra(3)
    assert cybe_check(L, inverse_bivector(filiform_cocycle(2)))
    L6 = filiform_algebra(5)
    assert cybe_check(L6, inverse_bivector(filiform_cocycle(3)))


def test_cybe_fails_for_non_cocycle():
    L = filiform_algebra(3)
    bad = AlternatingForm.from_upper_entries(L, {(0, 3): 1, (1, 2): -1, (1, 3): 1})
    assert bad.is_nondegenerate() and not bad.is_cocycle()
    assert not cybe_check(L, inverse_bivector(bad))


def test_double_theta_abelian():
    L = abelian_algebra(2)
    w = AlternatingForm.from_upper_entries(L, {(0, 1): 1})
    ds = double_theta_check(L, inverse_bivector(w))
    assert all(not comp for comp in ds.double.brackets.values())


def test_double_theta_filiform():
    L = filiform_algebra(3)
    ds = double_theta_check(L, inverse_bivector(filiform_cocycle(2)))
    assert ds.double.dim == 8
    # theta is invertible
    assert ds.theta_matrix.det() in (1, -1)


def test_double_rejects_non_solution():
    L = filiform_algebra(3)
    bad = AlternatingForm.from_upper_entries(L, {(0, 3): 1, (1, 2): -1, (1, 3): 1})
    with pytest.raises(PreconditionError):
        double_theta_check(L, inverse_bivector(bad))


def test_tstar_h1_matches_wedge_model():
    """t*H1 is the free 2-step algebra on three generators, by explicit witness."""
    ts = semidirect_coadjoint(heisenberg_algebra(1))
    ft = free_two_step_algebra()
    # f1 -> e1, f2 -> e2, f3 -> eps3, u23 -> eps1, u31 -> eps2, u12 -> e3
    cols = [
        [0, 0, 0, 1, 0, 0],  # e1
        [0, 0, 0, 0, 1, 0],  # e2
        [0, 0, 1, 0, 0, 0],  # eps3
        [1, 0, 0, 0, 0, 0],  # eps1
        [0, 1, 0, 0, 0, 0],  # eps2
        [0, 0, 0, 0, 0, 1],  # e3
    ]
    P = Matrix.from_columns(cols)
    Pinv = P.inverse()
    for i in range(6):
        for j in range(i + 1, 6):
            got = Pinv.apply(ts.bracket(P.column(i), P.column(j)))
            assert got == ft.basis_bracket(i, j)


def test_rational_structure_for_double():
    L = filiform_algebra(3)
    r = inverse_bivector(filiform_cocycle(2))
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    P, alg = rational_structure_for_double(L, r, basis)
    assert alg.dim == 8
    # abelian input: all constants zero
    A = abelian_algebra(2)
    wa = AlternatingForm.from_upper_entries(A, {(0, 1): 1})
    _, alg2 = rational_structure_for_double(A, inverse_bivector(wa), [[1, 0], [0, 1]])
    assert not alg2.brackets


def test_rational_structure_h1_standard_basis():
    """H_1 with its standard integral basis yields the cotangent-model structure."""
    h1 = heisenberg_algebra(1)
    # the zero bivector solves the Yang-Baxter equation on any algebra
    r0 = Matrix.zero(3, 3)
    P, alg = rational_structure_for_double(h1, r0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ts = semidirect_coadjoint(h1)
    assert alg.brackets == ts.brackets
    assert P == Matrix.identity(6)


def test_rational_structure_h1_scaled_basis():
    """A rescaled integral basis still produces rational constants (re-validated)."""
    ts = semidirect_coadjoint(heisenberg_algebra(1))
    lam = [1, 1, 2]
    form = AlternatingForm.from_upper_entries(ts, {(i, 3 + i): -lam[i] for i in range(3)})
    r = inverse_bivector(form)
    basis = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    P, alg = rational_structure_for_double(ts, r, basis)
    assert alg.dim == 12
