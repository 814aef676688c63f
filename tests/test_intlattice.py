from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from nillat import anosov, groups, intlattice
from nillat.errors import InputError
from nillat.intlattice import (
    det_int,
    hermite_row_basis,
    integer_kernel_basis,
    lattice_contains,
    mat_identity,
    mat_mul,
    quotient_invariants,
    smith_normal_form,
    solve_diophantine,
    xgcd,
)

entries = st.integers(min_value=-9, max_value=9)


def int_matrix(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def test_snf_identity():
    assert smith_normal_form(mat_identity(3)).divisors == [1, 1, 1]


def test_snf_order_54_factor():
    # Z^2 / <(6,1),(0,9)> is cyclic of order 54
    assert smith_normal_form([[6, 1], [0, 9]]).divisors == [1, 54]


def test_snf_divisor_chain_preserved():
    assert smith_normal_form([[2, 0], [0, 4]]).divisors == [2, 4]


@settings(max_examples=80, deadline=None)
@given(int_matrix(3, 4))
def test_snf_invariants(rows):
    res = smith_normal_form(rows)
    d = res.divisors
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0 if a else b == 0
    prod = mat_mul(mat_mul(res.left, rows), res.right)
    for i in range(3):
        for j in range(4):
            want = d[i] if i == j and i < len(d) else 0
            assert prod[i][j] == want
    assert abs(det_int(res.left)) == 1
    assert abs(det_int(res.right)) == 1


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0)]:
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_hermite_membership():
    basis = hermite_row_basis([[2, 1, 0], [0, 3, 1], [2, 4, 1]])
    assert lattice_contains(basis, [2, 1, 0])
    assert lattice_contains(basis, [2, 4, 1])
    assert not lattice_contains(basis, [1, 0, 0])


@settings(max_examples=60, deadline=None)
@given(int_matrix(3, 3))
def test_hermite_canonical(rows):
    b1 = hermite_row_basis(rows)
    # re-running on the basis plus random combinations is stable
    extra = [[a + b for a, b in zip(rows[0], rows[1])]] if len(rows) > 1 else []
    b2 = hermite_row_basis(list(rows) + extra + b1)
    assert b1 == b2


def test_integer_kernel_is_saturated():
    ker = integer_kernel_basis([[2, 4, 6]])
    assert ker == hermite_row_basis(ker)
    # (1,1,-1) solves 2x+4y+6z = 0
    assert lattice_contains(ker, [1, 1, -1])
    assert lattice_contains(ker, [3, 0, -1])


def test_solve_diophantine():
    sol = solve_diophantine([[2, 0], [0, 3]], [4, 9])
    assert sol is not None
    x, ker = sol
    assert x == [2, 3] and ker == []
    assert solve_diophantine([[2]], [3]) is None
    part, ker = solve_diophantine([[1, 1]], [5])
    assert part[0] + part[1] == 5
    assert len(ker) == 1


def test_solve_diophantine_makes_one_smith_decomposition(monkeypatch):
    calls = []
    snf = intlattice.smith_normal_form
    monkeypatch.setattr(intlattice, "smith_normal_form", lambda m: calls.append(m) or snf(m))
    x, ker = solve_diophantine([[1, 2, 3], [0, 2, 4]], [6, 6])
    assert x == [0, 3, 0] and ker == [[1, -2, 1]]
    assert len(calls) == 1


@pytest.mark.parametrize("call", [
    lambda: solve_diophantine([[2]], [Fraction(9, 2)]),
    lambda: smith_normal_form([[Fraction(5, 2), 1], [0, 3]]),
    lambda: det_int([[True, 2], [3, 4.9]]),
    lambda: det_int([[1, 2], [3, 4.9]]),
    lambda: det_int([["1", 2], [3, 4]]),
    lambda: integer_kernel_basis([[1, "2"]]),
    lambda: hermite_row_basis([[1, 0.5]]),
    lambda: lattice_contains([[2, 0]], [Fraction(1, 2), 0]),
    lambda: lattice_contains([], [Fraction(1, 2)]),
], ids=["solve-rhs", "snf", "det-bool", "det-float", "det-str", "kernel-str", "hermite", "contains",
        "contains-zero-lattice"])
def test_non_integer_entries_are_rejected(call):
    # int() would truncate these to the entries of a different matrix
    with pytest.raises(InputError, match="is not an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: anosov.char_poly_pair([1, 2, 3]),
    lambda: anosov.is_anosov([[1, 0, 0], 5, [0, 0, 1]]),
    lambda: anosov.second_exterior_power([None, None, None]),
    lambda: anosov.gamma111_automorphism(mat_identity(3), central=[7, 8, 9]),
    lambda: det_int([1.5]),
    lambda: smith_normal_form([[1, 0], 2]),
    lambda: solve_diophantine([[2]], 4),
    lambda: hermite_row_basis([3]),
    lambda: lattice_contains([[1]], 1),
    lambda: groups.Filiform(3, [1, 2, 3]),
    lambda: groups.filiform_action_power([1, 2], 2),
], ids=["charpoly", "anosov", "wedge2", "gamma111-central", "det", "snf", "solve-rhs", "hermite", "contains",
        "filiform", "filiform-power"])
def test_non_sequence_rows_are_rejected(call):
    with pytest.raises(InputError, match="is not a sequence"):
        call()


def test_integral_entries_of_other_types_are_read_as_ints():
    assert smith_normal_form([[Fraction(6), 1.0], [0, 9]]).divisors == [1, 54]
    assert solve_diophantine([[2]], [Fraction(4)]) == ([2], [])
    assert hermite_row_basis([[2.0, Fraction(0)]]) == [[2, 0]]


def test_quotient_invariants():
    assert quotient_invariants(mat_identity(2), [[6, 1], [0, 9]]) == [1, 54]
    assert quotient_invariants(mat_identity(3), [[2, 0, 0], [0, 2, 0], [0, 0, 6]]) == [2, 2, 6]
    with pytest.raises(InputError):
        quotient_invariants([[2, 0], [0, 2]], [[1, 0], [0, 1]])
    assert quotient_invariants([[0, 0]], []) == []
    assert quotient_invariants([[2, 4, 0]], [[0, 0, 0]]) == [0]
    with pytest.raises(InputError):
        quotient_invariants([[0, 0]], [[1, 0]])
