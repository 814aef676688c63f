"""The sparse kernels against their dense definitional oracles.

Jacobi, the cocycle test and the CYBE test read `LieAlgebra.cyclic_terms`;
the oracles in `helpers` evaluate the same identities on unit vectors for
every basis triple.  Bracket tables are drawn at random, most of them not
Lie; 2-step tables satisfy Jacobi by construction.  The sparse elimination,
the cocycle-space solve built on it and the form read `flat` are compared
with plain-list elimination and with dense copies of the earlier code.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_force_cocycle_dim,
    dense_cocycle_space,
    dense_cybe_check,
    dense_flat,
    dense_is_cocycle,
    dense_jacobi_violations,
    dense_kernel_basis,
    rref_inplace,
)
from nillat.cocycles import AlternatingForm, cocycle_space
from nillat.commalg import monomial_quotient
from nillat.errors import InputError
from nillat.heisenberg import heisenberg_over
from nillat.liealg import LieAlgebra
from nillat.matrix import Matrix, sparse_kernel_basis
from nillat.symplectic import cybe_check

small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def bracket_tables(draw, max_dim=7):
    n = draw(st.integers(1, max_dim))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                table[(i, j)] = draw(st.dictionaries(st.integers(0, n - 1), small, max_size=3))
    return LieAlgebra(n, table)


@st.composite
def two_step_algebras(draw, max_dim=7):
    """Brackets of the first g basis vectors land in the last c: Jacobi holds."""
    g = draw(st.integers(1, max_dim - 2))
    c = draw(st.integers(1, max_dim - g))
    table = {}
    for i in range(g):
        for j in range(i + 1, g):
            table[(i, j)] = draw(st.dictionaries(st.integers(g, g + c - 1), small, max_size=2))
    return LieAlgebra(g + c, table)


def skew_matrices(n):
    entries = st.lists(st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(3)]),
                       min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)

    def build(upper):
        m = [[F(0)] * n for _ in range(n)]
        it = iter(upper)
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = next(it)
                m[j][i] = -m[i][j]
        return Matrix(m)

    return entries.map(build)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_checks_match_dense_oracles(data):
    L = data.draw(bracket_tables())
    assert L.jacobi_violations() == dense_jacobi_violations(L)
    w = data.draw(skew_matrices(L.dim))
    assert AlternatingForm(L, w).is_cocycle() == dense_is_cocycle(AlternatingForm(L, w))
    r = data.draw(skew_matrices(L.dim))
    assert cybe_check(L, r) == dense_cybe_check(L, r)


# brute_force_cocycle_dim takes about 0.5 s at dim 7
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_two_step_cocycle_space_matches_brute_force(data):
    L = data.draw(two_step_algebras())
    assert L.jacobi_violations() == dense_jacobi_violations(L) == []
    z2, _ = cocycle_space(L)
    assert len(z2) == brute_force_cocycle_dim(L)
    coeffs = data.draw(st.lists(small, min_size=len(z2), max_size=len(z2)))
    combo = AlternatingForm(L, Matrix.zero(L.dim, L.dim))
    for c, form in zip(coeffs, z2):
        combo = combo.add(form.scale(c))
    assert combo.is_cocycle() and dense_is_cocycle(combo)
    w = data.draw(skew_matrices(L.dim))
    assert AlternatingForm(L, w).is_cocycle() == dense_is_cocycle(AlternatingForm(L, w))


@st.composite
def sparse_systems(draw):
    """(ncols, rows as {col: value}): zero entries and rows, repeated rows, unused columns."""
    ncols = draw(st.integers(1, 9))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), small, max_size=4), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return ncols, rows


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_kernel_matches_dense_elimination(system):
    ncols, rows = system
    dense = [[row.get(c, F(0)) for c in range(ncols)] for row in rows]
    before = [dict(row) for row in rows]
    assert sparse_kernel_basis(rows, ncols) == dense_kernel_basis(dense, ncols)
    assert rows == before
    if rows:
        m = Matrix(dense)
        assert m.kernel_basis() == dense_kernel_basis(dense, ncols)
        work = [row[:] for row in dense]
        pivots = rref_inplace(work)
        assert m.rref() == (Matrix(work), pivots)


def test_sparse_kernel_edge_cases():
    identity = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert sparse_kernel_basis([], 3) == identity
    assert sparse_kernel_basis([{}, {1: F(0)}], 3) == identity
    assert sparse_kernel_basis([{0: F(2), 2: F(1)}, {0: F(4), 2: F(2)}], 3) == [
        [F(0), F(1), F(0)], [F(-1, 2), F(0), F(1)],
    ]


@st.composite
def monomial_heisenbergs(draw, max_dim=15):
    """H_k(A) for a random monomial quotient A = Q[x_1..x_v] / (monomials outside an order ideal)."""
    k = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    size = draw(st.integers(1, max_dim // (2 * k + 1)))
    ideal = [(0,) * nvars]
    while len(ideal) < size:
        corners = sorted({
            m for m in (e[:v] + (e[v] + 1,) + e[v + 1:] for e in ideal for v in range(nvars))
            if m not in ideal
            and all(m[:v] + (m[v] - 1,) + m[v + 1:] in ideal for v in range(nvars) if m[v])
        })
        ideal.append(draw(st.sampled_from(corners)))
    return heisenberg_over(monomial_quotient(ideal), k).algebra


@settings(max_examples=40, deadline=None)
@given(st.one_of(two_step_algebras(max_dim=10), monomial_heisenbergs()))
def test_cocycle_space_matches_dense_solve(L):
    z2, b2 = cocycle_space(L)
    dense_z2, dense_b2 = dense_cocycle_space(L)
    assert [f.matrix.data for f in z2] == [f.matrix.data for f in dense_z2]
    assert [f.matrix.data for f in b2] == [f.matrix.data for f in dense_b2]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flat_matches_dense_read(data):
    n = data.draw(st.integers(1, 8))
    form = AlternatingForm(LieAlgebra(n, {}), data.draw(skew_matrices(n)))
    x = data.draw(st.lists(st.one_of(small, st.integers(-3, 3)), min_size=n, max_size=n))
    got = form.flat(x)
    assert got == dense_flat(form, x)
    assert all(type(c) is F for c in got)
    for wrong in ([F(1)] * (n + 1), [F(1)] * (n - 1)):
        with pytest.raises(InputError, match="vector length"):
            form.flat(wrong)
        with pytest.raises(InputError, match="vector length"):
            dense_flat(form, wrong)
