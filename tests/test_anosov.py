import random
from fractions import Fraction

import pytest

from nillat.anosov import (
    char_poly_pair,
    eigenvalue_moduli_report,
    filiform_aut_constraints,
    gamma111_automorphism,
    has_unit_circle_root,
    is_anosov,
    phi_automorphism,
    second_exterior_power,
)
from nillat.errors import InputError, PreconditionError
from nillat.intlattice import det_int, mat_identity, mat_mul
from nillat.matrix import Matrix
from nillat.quadratic import element, fundamental_unit, one, ring_of_integers

EXAMPLE_MATRIX = [[1, 5, 2], [2, -1, -1], [3, 2, 0]]


def test_example_matrix_charpoly():
    p_b, q_a = char_poly_pair(EXAMPLE_MATRIX)
    assert p_b == [-1, -15, 0, 1]  # X^3 - 15X - 1
    assert q_a == [-1, 0, 15, 1]


def test_example_matrix_is_anosov():
    assert is_anosov(EXAMPLE_MATRIX)


def test_identity_not_anosov():
    eye = mat_identity(3)
    p_b, q_a = char_poly_pair(eye)
    assert p_b == [-1, 3, -3, 1]
    assert q_a == [-1, 3, -3, 1]
    assert not is_anosov(eye)


def test_companion_with_circle_roots():
    comp = [[0, 0, 1], [1, 0, -1], [0, 1, 1]]  # charpoly X^3 - X^2 + X - 1
    assert char_poly_pair(comp)[0] == [-1, 1, -1, 1]
    assert not is_anosov(comp)


def test_non_unimodular_rejected():
    assert not is_anosov([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(PreconditionError):
        char_poly_pair([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_unit_circle_decision_examples():
    assert not has_unit_circle_root([-1, -15, 0, 1])   # X^3 - 15X - 1
    assert has_unit_circle_root([-1, 1])               # X - 1
    assert not has_unit_circle_root([1, -3, 1])        # reciprocal pair off circle
    assert has_unit_circle_root([1, 1, 1])             # primitive cube roots
    assert has_unit_circle_root([1, 0, 0, 0, 1])       # 8th roots of unity
    assert not has_unit_circle_root([2, -5, 2])        # roots 2 and 1/2
    assert has_unit_circle_root([1, 2, 1])             # double root -1
    assert not has_unit_circle_root([7])               # constants have no roots
    with pytest.raises(InputError):
        has_unit_circle_root([0])


def test_unit_circle_against_float_oracle_sample():
    import numpy as np

    rng = random.Random(77)
    for _ in range(120):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        exact = has_unit_circle_root(coeffs)
        roots = np.roots(list(reversed(coeffs)))
        floaty = bool(np.any(np.abs(np.abs(roots) - 1.0) < 1e-9))
        assert exact == floaty, coeffs


def test_charpoly_cross_relations():
    rng = random.Random(13)
    for _ in range(40):
        # random unimodular: product of elementary matrices
        m = mat_identity(3)
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            e = mat_identity(3)
            e[i][j] = rng.randint(-3, 3)
            m = mat_mul(m, e)
        if rng.random() < 0.5:
            m[0] = [-x for x in m[0]]
        det = det_int(m)
        assert det in (1, -1)
        p_b, q_a = char_poly_pair(m)
        # constant term of p_B is -det B; p_B is the charpoly of B, q_A that of det(B) B^-1
        assert p_b[0] == -det
        assert [int(c) for c in Matrix(m).charpoly()] == p_b
        a = Matrix(m).inverse().scale(det)
        assert [int(c) for c in a.charpoly()] == q_a
        # the eigenvalue product of A is always 1
        assert q_a[0] == -1
        # conjugation invariance of the anosov decision under a random
        # unimodular change of basis
        u = mat_identity(3)
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            e = mat_identity(3)
            e[i][j] = rng.randint(-2, 2)
            u = mat_mul(u, e)
        conj = mat_mul(mat_mul(u, m), Matrix(u).inverse().to_int_rows())
        assert is_anosov(conj) == is_anosov(m)


def test_second_exterior_power_action():
    w2 = second_exterior_power(EXAMPLE_MATRIX)
    assert sum(w2[i][i] for i in range(3)) == -15  # tr wedge^2 B


def test_phi_identity():
    r2 = ring_of_integers(2)
    phi = phi_automorphism(r2, one(r2), one(r2))
    assert phi.matrix == Matrix.identity(6)
    assert phi.exponents == (0, 0)
    assert not phi.anosov


def test_phi_eps_eps_is_anosov():
    r2 = ring_of_integers(2)
    eps = fundamental_unit(r2.m)
    phi = phi_automorphism(r2, eps, eps)
    assert phi.exponents == (1, 1)
    assert phi.anosov
    # three eigenvalues of modulus > 1 and three < 1
    rep = eigenvalue_moduli_report(phi)
    assert sorted(rep) == [-1, -1, -1, 1, 1, 1]
    assert phi.matrix.is_integral


def test_phi_inverse_pair_not_anosov():
    r2 = ring_of_integers(2)
    eps = fundamental_unit(2)
    phi = phi_automorphism(r2, eps, eps.inverse())  # n + m = 0
    assert phi.exponents == (1, -1)
    assert not phi.anosov


def test_phi_imaginary_units_modulus_one():
    rg = ring_of_integers(-1)
    phi = phi_automorphism(rg, element(rg, 0, 1), one(rg))
    assert not phi.anosov
    assert eigenvalue_moduli_report(phi) == [0] * 6


def test_phi_requires_units():
    r2 = ring_of_integers(2)
    with pytest.raises(PreconditionError):
        phi_automorphism(r2, element(r2, 2, 0), one(r2))


def test_phi_composition_homomorphism():
    r3 = ring_of_integers(3)
    eps = fundamental_unit(3)
    a1, b1 = eps, eps * eps
    a2, b2 = eps.inverse(), eps
    m1 = phi_automorphism(r3, a1, b1).matrix
    m2 = phi_automorphism(r3, a2, b2).matrix
    assert m1 * m2 == phi_automorphism(r3, a1 * a2, b1 * b2).matrix


def test_phi_half_basis_integral():
    r5 = ring_of_integers(5)
    eps = fundamental_unit(5)
    phi = phi_automorphism(r5, eps, eps)
    assert phi.matrix.is_integral
    assert phi.anosov


def test_gamma111_example_matrix():
    aut = gamma111_automorphism(EXAMPLE_MATRIX)
    assert Matrix(aut.a_matrix) == Matrix(EXAMPLE_MATRIX).inverse()  # det = 1


def test_gamma111_sign_matrix():
    aut = gamma111_automorphism([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert aut.a_matrix == [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]


def test_gamma111_with_central_shift():
    aut = gamma111_automorphism(mat_identity(3), central=[[1, 2, 3], [0, 1, 0], [-1, 0, 0]])
    assert aut.a_matrix == mat_identity(3)


def test_gamma111_rejects_non_unimodular():
    with pytest.raises(PreconditionError):
        gamma111_automorphism([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_non_integer_matrix_entry_rejected_not_truncated():
    # int() would read 1/2 as 0, the Anosov example matrix
    with pytest.raises(InputError, match="not an integer"):
        is_anosov([[1, 5, 2], [2, -1, -1], [3, 2, Fraction(1, 2)]])
    with pytest.raises(InputError, match="not an integer"):
        char_poly_pair([[1, 5, 2.7], [2, -1, -1], [3, 2, 0]])
    assert char_poly_pair([[1, 5, Fraction(2)], [2, -1, -1], [3, 2, 0.0]]) == char_poly_pair(EXAMPLE_MATRIX)


def test_gamma111_non_integer_central_entry_rejected():
    with pytest.raises(InputError, match="not an integer"):
        gamma111_automorphism(mat_identity(3), central=[[1, 2, Fraction(7, 2)], [0, 1, 0], [-1, 0, 0]])


def test_filiform_aut_identity():
    idmap = [[("y1", 1)], [("y2", 1)], [("y3", 1)]]
    assert filiform_aut_constraints(3, idmap, [("z", 1)]).ok


def test_filiform_aut_central_twist_accepted():
    idmap = [[("y1", 1)], [("y2", 1)], [("y3", 1)]]
    rep = filiform_aut_constraints(3, idmap, [("z", 1), ("y2", 1)])
    assert rep.ok


def test_filiform_aut_epsilon_propagation_rejects():
    images = [[("y1", 1)], [("y2", -1)], [("y3", 1)]]
    rep = filiform_aut_constraints(3, images, [("z", 1)])
    assert not rep.ok
    assert "propagation" in rep.diagnosis


def test_filiform_aut_all_negative_accepted():
    images = [[("y1", -1)], [("y2", -1)], [("y3", -1)]]
    assert filiform_aut_constraints(3, images, [("z", 1)]).ok


def test_filiform_aut_lower_triangular_with_shear():
    images = [[("y1", 1), ("y2", 2)], [("y2", 1)], [("y3", 1)]]
    rep = filiform_aut_constraints(3, images, [("z", 1)])
    # y1 -> y1 y2^2 keeps the flag; relations decide the rest
    assert rep.ok == (rep.diagnosis is None)


def test_filiform_aut_unknown_generator():
    with pytest.raises(InputError):
        filiform_aut_constraints(3, [[("w", 1)], [("y2", 1)], [("y3", 1)]], [("z", 1)])
