"""The sparse cyclic-sum checks against their dense definitional oracles.

Jacobi, the cocycle test and the CYBE test read `LieAlgebra.cyclic_terms`;
the oracles in `helpers` evaluate the same identities on unit vectors for
every basis triple.  Bracket tables are drawn at random, most of them not
Lie; 2-step tables satisfy Jacobi by construction.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from helpers import brute_force_cocycle_dim, dense_cybe_check, dense_is_cocycle, dense_jacobi_violations
from nillat.cocycles import AlternatingForm, cocycle_space
from nillat.liealg import LieAlgebra
from nillat.matrix import Matrix
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
def two_step_algebras(draw):
    """Brackets of the first g basis vectors land in the last c: Jacobi holds."""
    g = draw(st.integers(1, 5))
    c = draw(st.integers(1, 7 - g))
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
