from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nillat.errors import PreconditionError
from nillat.matrix import (
    Matrix,
    complement_basis,
    in_span,
    nilpotent_exp,
    nilpotent_log,
    nilpotency_index,
    rref_basis,
    span_dim,
)

small_entries = st.integers(min_value=-6, max_value=6)


def square_matrix(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)


def test_basic_ops():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([["1/2", 0], [0, 2]])
    assert (a * b).data == [[F(1, 2), 4], [F(3, 2), 8]]
    assert (a + a).data == [[2, 4], [6, 8]]
    assert a.transpose().data == [[1, 3], [2, 4]]
    assert a.det() == -2
    assert a.inverse() * a == Matrix.identity(2)


def test_rref_and_kernel():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = m.rref()
    assert pivots == [0, 1]
    ker = m.kernel_basis()
    assert len(ker) == 1
    assert all(c == 0 for c in m.apply(ker[0]))


def test_solve_inconsistent():
    m = Matrix([[1, 1], [1, 1]])
    with pytest.raises(PreconditionError):
        m.solve([1, 2])


def test_charpoly_matches_det_and_trace():
    m = Matrix([[1, 5, 2], [2, -1, -1], [3, 2, 0]])
    cp = m.charpoly()
    assert cp[3] == 1
    assert cp[2] == -(1 - 1 + 0)
    assert cp[0] == -m.det()


@settings(max_examples=60, deadline=None)
@given(square_matrix(3))
def test_inverse_property(rows):
    m = Matrix(rows)
    if m.det() == 0:
        return
    assert m * m.inverse() == Matrix.identity(3)


@settings(max_examples=60, deadline=None)
@given(square_matrix(3), square_matrix(3))
def test_det_multiplicative(a_rows, b_rows):
    a, b = Matrix(a_rows), Matrix(b_rows)
    assert (a * b).det() == a.det() * b.det()


def test_span_helpers():
    basis = rref_basis([[1, 1, 0], [2, 2, 0], [0, 0, 1]])
    assert len(basis) == 2
    assert in_span([3, 3, 5], basis)
    assert not in_span([1, 0, 0], basis)
    comp = complement_basis(basis, 3)
    assert span_dim(basis + comp) == 3


def test_nilpotent_exp_examples():
    n = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert nilpotency_index(n) == 3
    exp_half = nilpotent_exp(n, F(1, 2))
    assert exp_half.data[2] == [F(1, 8), F(1, 2), F(1)]
    assert nilpotent_exp(Matrix.zero(3, 3)) == Matrix.identity(3)
    with pytest.raises(PreconditionError):
        nilpotent_exp(Matrix.identity(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(-5, 5), st.integers(1, 4), st.integers(-5, 5), st.integers(1, 4))
def test_nilpotent_exp_one_parameter(p1, q1, p2, q2):
    n = Matrix([[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0], [0, -1, 1, 0]])
    s, t = F(p1, q1), F(p2, q2)
    assert nilpotent_exp(n, s) * nilpotent_exp(n, t) == nilpotent_exp(n, s + t)


def test_log_inverts_exp():
    n = Matrix([[0, 0, 0], [3, 0, 0], [-2, 5, 0]])
    g = nilpotent_exp(n)
    assert nilpotent_log(g) == n
