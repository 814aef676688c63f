from fractions import Fraction as F

import pytest

from nillat.errors import InputError, PreconditionError
from nillat.liealg import (
    LieAlgebra,
    abelian_algebra,
    central_series,
    filiform_algebra,
    free_two_step_algebra,
    heisenberg_algebra,
    h1_dual_structure,
    semidirect_coadjoint,
    six_dim_quadratic_structure,
    validate_lie,
)
from nillat.matrix import Matrix, rref_basis, span_dim, span_equal


def test_validate_heisenberg():
    assert validate_lie(heisenberg_algebra(1))["ok"]


def test_validate_quadratic_structure_d2():
    assert validate_lie(six_dim_quadratic_structure(2))["ok"]
    assert validate_lie(six_dim_quadratic_structure(-1, variant=2))["ok"]


def test_validate_reports_violation():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1: the Jacobi sum on (e1,e2,e3) is e3
    bad = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: -1}})
    rep = validate_lie(bad)
    assert not rep["ok"]
    (triple, defect), = rep["violations"]
    assert triple == (0, 1, 2)
    assert defect == [F(0), F(0), F(1)]


def test_bracket_index_errors():
    with pytest.raises(InputError):
        LieAlgebra(3, {(0, 5): {2: 1}})
    with pytest.raises(InputError):
        LieAlgebra(3, {(1, 0): {2: 1}})


def test_central_series_abelian():
    rep = central_series(abelian_algebra(4))
    assert rep["ascending_dims"] == [4]
    assert rep["descending_dims"] == [0]


def test_central_series_filiform():
    # dim-5 filiform: ascending 1,2,3 then everything; descending n-r
    rep = central_series(filiform_algebra(4))
    assert rep["ascending_dims"] == [1, 2, 3, 5]
    assert rep["descending_dims"] == [3, 2, 1, 0]
    # C^r = C_{n-r} for r = 1..3
    for r in (1, 2, 3):
        assert span_equal(rep["descending"][r - 1], rep["ascending"][4 - r - 1])


def test_tstar_h1_center_equals_derived():
    ts = semidirect_coadjoint(heisenberg_algebra(1))
    assert validate_lie(ts)["ok"]
    center = rref_basis(ts.center_basis())
    assert span_equal(center, ts.derived_basis())
    assert span_dim(center) == 3


def test_free_two_step_isomorphic_shape():
    ft = free_two_step_algebra()
    assert validate_lie(ft)["ok"]
    assert span_dim(ft.derived_basis()) == 3
    assert ft.nilpotency_class() == 2


def test_nilpotency_class():
    assert filiform_algebra(3).nilpotency_class() == 3
    assert heisenberg_algebra(2).nilpotency_class() == 2
    assert not LieAlgebra(2, {(0, 1): {1: 1}}).is_nilpotent()


def test_ideal_and_centralizer_helpers():
    L = filiform_algebra(3)
    derived = L.derived_basis()
    assert span_dim(derived) == 2
    assert L.is_ideal(derived)
    assert L.is_abelian_subspace(derived)
    cent = L.centralizer_basis(derived)
    assert span_dim(cent) == 3


def test_h1_dual_structure_table():
    L = h1_dual_structure()
    assert validate_lie(L)["ok"]
    assert span_dim(L.derived_basis()) == 2


def test_in_basis_scaled_and_swapped_heisenberg():
    # columns 2 e_1, f_1, g: [2 e_1, f_1] = 2 g; swapping e_1 and f_1 flips the sign
    L = heisenberg_algebra(1)
    assert L.in_basis(Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])) == {(0, 1): {2: 2}}
    assert L.in_basis(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])) == {(0, 1): {2: -1}}
    with pytest.raises(InputError):
        L.in_basis(Matrix([[1, 0], [0, 1]]))
    with pytest.raises(PreconditionError):
        L.in_basis(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
