import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from helpers import brute_force_cocycle_dim, coboundary_value, dense_left_symmetric_solve
from nillat.cocycles import (
    AlternatingForm,
    cocycle_space,
    left_symmetric_product,
    product_from_table,
)
from nillat.errors import PreconditionError
from nillat.liealg import LieAlgebra, abelian_algebra, filiform_algebra, heisenberg_algebra
from nillat.matrix import _unit
from nillat.symplectic import filiform_cocycle


def _all_triples_cocycle(form):
    n = form.algebra.dim
    return all(
        coboundary_value(form, _unit(n, i), _unit(n, j), _unit(n, k)) == 0
        for i, j, k in combinations(range(n), 3)
    )


def test_cocycle_space_abelian():
    z2, b2 = cocycle_space(abelian_algebra(4))
    assert len(z2) == 6 and len(b2) == 0


def test_cocycle_space_heisenberg_all_forms():
    z2, b2 = cocycle_space(heisenberg_algebra(1))
    assert len(z2) == 3
    assert len(b2) == 1


@pytest.mark.parametrize("algebra", [filiform_algebra(3), filiform_algebra(4), heisenberg_algebra(2)])
def test_cocycle_space_cross_checked(algebra):
    z2, b2 = cocycle_space(algebra)
    assert len(z2) == brute_force_cocycle_dim(algebra)
    for form in z2:
        assert _all_triples_cocycle(form)
    # every coboundary lies in Z^2
    for cb in b2:
        assert _all_triples_cocycle(cb)


def test_nondegeneracy_examples():
    L = filiform_algebra(3)
    zero = AlternatingForm.from_upper_entries(L, {})
    assert not zero.is_nondegenerate()
    assert filiform_cocycle(2).is_nondegenerate()
    odd = AlternatingForm.from_upper_entries(heisenberg_algebra(1), {(0, 1): 1})
    assert not odd.is_nondegenerate()


def test_left_symmetric_abelian_zero():
    L = abelian_algebra(4)
    w = AlternatingForm.from_upper_entries(L, {(0, 2): 1, (1, 3): 1})
    table = left_symmetric_product(L, w)
    assert all(all(c == 0 for c in vec) for row in table for vec in row)


def test_left_symmetric_filiform_vs_dense_oracle():
    for n in (2, 3, 4):
        L = filiform_algebra(2 * n - 1)
        for c in (1, -2, F(1, 3)):
            w = filiform_cocycle(n).scale(c)
            table = left_symmetric_product(L, w)
            oracle = dense_left_symmetric_solve(L, w.matrix.data)
            assert table == oracle


def test_left_symmetric_two_dim_postconditions():
    # [e1, e2] = e2 with w = e1* ^ e2*: product exists and satisfies both laws
    L = LieAlgebra(2, {(0, 1): {1: 1}})
    w = AlternatingForm.from_upper_entries(L, {(0, 1): 1})
    table = left_symmetric_product(L, w)
    oracle = dense_left_symmetric_solve(L, w.matrix.data)
    assert table == oracle
    # the solved values: e1 e1 = -e1, e2 e1 = -e2, others zero
    assert table[0][0] == [F(-1), F(0)]
    assert table[1][0] == [F(0), F(-1)]
    assert table[0][1] == [F(0), F(0)]


def test_left_symmetric_requires_cocycle():
    L = filiform_algebra(3)
    non_cocycle = AlternatingForm.from_upper_entries(L, {(0, 3): 1, (1, 2): -1, (1, 3): 1})
    assert non_cocycle.is_nondegenerate()
    with pytest.raises(PreconditionError):
        left_symmetric_product(L, non_cocycle)


def test_left_symmetric_random_cocycle_postconditions():
    rng = random.Random(5)
    L = filiform_algebra(3)
    z2, _ = cocycle_space(L)
    for _ in range(10):
        coeffs = [F(rng.randint(-3, 3)) for _ in z2]
        m = z2[0].matrix.scale(coeffs[0])
        for c, f in zip(coeffs[1:], z2[1:]):
            m = m + f.matrix.scale(c)
        form = AlternatingForm(L, m)
        if not form.is_nondegenerate():
            continue
        table = left_symmetric_product(L, form)  # internal postcondition checks run
        x = [F(rng.randint(-2, 2)) for _ in range(4)]
        y = [F(rng.randint(-2, 2)) for _ in range(4)]
        left = [a - b for a, b in zip(product_from_table(table, x, y), product_from_table(table, y, x))]
        assert left == L.bracket(x, y)
