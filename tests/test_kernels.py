"""The sparse kernels against their dense definitional oracles.

Jacobi, the cocycle test and the CYBE test read `LieAlgebra.cyclic_terms`;
the oracles in `helpers` evaluate the same identities on unit vectors for
every basis triple.  Bracket tables are drawn at random, most of them not
Lie; 2-step tables satisfy Jacobi by construction.  `ad` and `center_basis`,
which read the stored brackets, are compared with the dense bracket on unit
vectors.  The ascending central series, one sparse centre modulo each
term, is compared with the dense reduction-matrix step it replaced, and
the change of basis `in_basis` with a dense bracket and inverse per pair
on seeded invertible integer bases.  The sparse elimination, the
cocycle-space solve built on it, the reads of a form's sparse upper
entries (`flat`, evaluation, nondegeneracy, sums and multiples) and the
commutative-algebra products, validation, trace form and socle are
compared with plain-list elimination, with dense matrix arithmetic and
with dense copies of the earlier code.  So are the Smith
normal form with its sparse row and column updates, and the Sylvester rows
of the filiform isomorphism test.  The sparse bracket of `LieAlgebra` and
everything read through it (bracket spans, ideal and abelian tests,
centralizers, the descending central series, t*G), the flat symplectic
table with its parallelism and left-symmetry checks, the curvature test and the double
D(G, r) are compared with dense copies of the earlier unit-vector code, on
filiform algebras, on integer changes of basis of them and of the
six-dimensional structures, on 2-step algebras and on flat and CYBE inputs.
"""

import random
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_force_cocycle_dim,
    dense_ad,
    dense_bracket,
    dense_bracket_span,
    dense_centralizer_basis,
    dense_curvature_vanishes,
    dense_descending_central_series,
    dense_double,
    dense_flat_table,
    dense_is_abelian_subspace,
    dense_is_ideal,
    dense_left_symmetry_defect,
    dense_semidirect_coadjoint,
    dense_verify_flat_symplectic,
    dense_ascending_central_series,
    dense_center_basis,
    dense_cocycle_space,
    dense_cybe_check,
    dense_flat,
    dense_in_basis,
    dense_is_cocycle,
    dense_jacobi_violations,
    dense_kernel_basis,
    dense_mult_operator,
    dense_multiply,
    dense_radical_and_socle,
    dense_smith_normal_form,
    dense_sylvester_system,
    dense_validate,
    rref_inplace,
)
from nillat import classify
from nillat.classify import FiliformLatticeSpec, filiform_normalize
from nillat.cocycles import AlternatingForm, cocycle_space, left_symmetric_product, left_symmetry_defect
from nillat.commalg import CommAlgebra, frobenius_quadratic_algebra, monomial_quotient, radical_and_socle
from nillat.errors import InputError, StructuralError
from nillat.heisenberg import heisenberg_over
from nillat.intlattice import integer_kernel_basis, mat_identity, mat_mul, smith_normal_form, solve_diophantine
from nillat.liealg import LieAlgebra, filiform_algebra, semidirect_coadjoint, six_dim_quadratic_structure
from nillat.matrix import Matrix, sparse_kernel_basis
from nillat import symplectic
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
    assert L.center_basis() == dense_center_basis(L)
    x = data.draw(st.lists(st.one_of(small, st.integers(-3, 3)), min_size=L.dim, max_size=L.dim))
    assert L.ad(x).data == dense_ad(L, x)
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
    kernel = sparse_kernel_basis(rows, ncols)
    assert all(x != 0 for v in kernel for x in v.values())
    assert _coordinates(kernel, ncols) == dense_kernel_basis(dense, ncols)
    assert rows == before
    if rows:
        m = Matrix(dense)
        assert m.kernel_basis() == dense_kernel_basis(dense, ncols)
        work = [row[:] for row in dense]
        pivots = rref_inplace(work)
        assert m.rref() == (Matrix(work), pivots)


def test_sparse_kernel_edge_cases():
    identity = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert _coordinates(sparse_kernel_basis([], 3), 3) == identity
    assert _coordinates(sparse_kernel_basis([{}, {1: F(0)}], 3), 3) == identity
    assert _coordinates(sparse_kernel_basis([{0: F(2), 2: F(1)}, {0: F(4), 2: F(2)}], 3), 3) == [
        [F(0), F(1), F(0)], [F(-1, 2), F(0), F(1)],
    ]


def _coordinates(vectors, ncols):
    """Sparse {col: value} vectors as dense coordinate lists."""
    return [[v.get(c, F(0)) for c in range(ncols)] for v in vectors]


@st.composite
def monomial_ideals(draw, max_size):
    """An order ideal of monomials in 1-3 variables, 1 first: the basis of a monomial quotient."""
    nvars = draw(st.integers(1, 3))
    size = draw(st.integers(1, max_size))
    ideal = [(0,) * nvars]
    while len(ideal) < size:
        corners = sorted({
            m for m in (e[:v] + (e[v] + 1,) + e[v + 1:] for e in ideal for v in range(nvars))
            if m not in ideal
            and all(m[:v] + (m[v] - 1,) + m[v + 1:] in ideal for v in range(nvars) if m[v])
        })
        ideal.append(draw(st.sampled_from(corners)))
    return ideal


@st.composite
def monomial_heisenbergs(draw, max_dim=15):
    """H_k(A) for a random monomial quotient A = Q[x_1..x_v] / (monomials outside an order ideal)."""
    k = draw(st.integers(1, 3))
    return heisenberg_over(monomial_quotient(draw(monomial_ideals(max_dim // (2 * k + 1)))), k).algebra


@settings(max_examples=40, deadline=None)
@given(st.one_of(two_step_algebras(max_dim=10), monomial_heisenbergs()))
def test_cocycle_space_matches_dense_solve(L):
    z2, b2 = cocycle_space(L)
    dense_z2, dense_b2 = dense_cocycle_space(L)
    assert [f.matrix.data for f in z2] == [f.matrix.data for f in dense_z2]
    assert [f.matrix.data for f in b2] == [f.matrix.data for f in dense_b2]


def _invertible_int_matrix(n, seed):
    rng = random.Random(seed)
    while True:
        m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


@settings(max_examples=30, deadline=None)
@given(st.one_of(two_step_algebras(max_dim=9), monomial_heisenbergs(max_dim=11), st.builds(filiform_algebra, st.integers(2, 7))),
       st.integers(0, 2 ** 32))
def test_central_series_and_basis_change_match_dense_oracles(L, seed):
    assert L.in_basis(Matrix.identity(L.dim)) == L.brackets
    cols = _invertible_int_matrix(L.dim, seed)
    table = dense_in_basis(L, cols)
    assert L.in_basis(cols) == table
    # in the drawn basis the terms of the series are not spanned by unit vectors
    for M in (L, LieAlgebra(L.dim, table)):
        assert M.ascending_central_series() == dense_ascending_central_series(M)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flat_matches_dense_read(data):
    n = data.draw(st.integers(1, 8))
    L = LieAlgebra(n, {})
    W, W2 = data.draw(skew_matrices(n)), data.draw(skew_matrices(n))
    form = AlternatingForm(L, W)
    assert form.matrix.data == W.data
    x, y = (data.draw(st.lists(st.one_of(small, st.integers(-3, 3)), min_size=n, max_size=n)) for _ in "xy")
    got = form.flat(x)
    assert got == dense_flat(form, x)
    assert all(type(c) is F for c in got)
    assert form(x, y) == sum(F(x[i]) * W[i, j] * y[j] for i in range(n) for j in range(n))
    assert form.is_nondegenerate() == (W.det() != 0)
    c = data.draw(st.one_of(small, st.integers(-2, 2)))
    assert form.add(AlternatingForm(L, W2)).matrix == W + W2
    assert form.scale(c).matrix == W.scale(c)
    # each upper entry given as (i, j): w or as (j, i): -w, some split in two keys that cancel to it
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            w, d = W[i, j], data.draw(st.sampled_from([None, F(0), F(2)]))
            if d is None:
                entries.update({(i, j): w} if data.draw(st.booleans()) else {(j, i): -w})
            else:
                entries[(i, j)], entries[(j, i)] = w + d, d
    upper = AlternatingForm.from_upper_entries(L, entries)
    assert upper.matrix == W
    assert upper.entries == form.entries == {(i, j): W[i, j] for i in range(n) for j in range(i + 1, n) if W[i, j]}
    for wrong in ([F(1)] * (n + 1), [F(1)] * (n - 1)):
        with pytest.raises(InputError, match="vector length"):
            form.flat(wrong)
        with pytest.raises(InputError, match="vector length"):
            dense_flat(form, wrong)
        with pytest.raises(InputError, match="vector length"):
            form(wrong, y)
        with pytest.raises(InputError, match="vector length"):
            form(x, wrong)


def _direct_product(a, b):
    n = a.dim
    products = dict(a.products)
    products.update({(n + i, n + j): {n + k: c for k, c in comp.items()} for (i, j), comp in b.products.items()})
    return CommAlgebra(n + b.dim, products, a.unit + b.unit)


local_algebras = st.one_of(
    monomial_ideals(8).map(monomial_quotient),
    st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=6).map(frobenius_quadratic_algebra),
)
comm_algebras = st.one_of(
    local_algebras,
    st.tuples(monomial_ideals(4).map(monomial_quotient), local_algebras)
    .filter(lambda ab: ab[0].dim + ab[1].dim <= 8).map(lambda ab: _direct_product(*ab)),
)


@settings(max_examples=150, deadline=None)
@given(comm_algebras, st.data())
def test_commalg_matches_dense_oracle(algebra, data):
    rep = radical_and_socle(algebra)
    assert (rep.radical, rep.socle, rep.is_local) == dense_radical_and_socle(algebra)
    n = algebra.dim
    x, y = (data.draw(st.lists(st.one_of(small, st.integers(-3, 3)), min_size=n, max_size=n)) for _ in "xy")
    assert algebra.multiply(x, y) == dense_multiply(algebra, x, y)
    assert algebra.mult_operator(x).data == dense_mult_operator(algebra, x)


@st.composite
def product_tables(draw, max_dim=4):
    """(dim, products, unit), unital in e_0 half of the time, mostly not associative."""
    n = draw(st.integers(1, max_dim))
    unital = draw(st.booleans())
    table = {(0, j): {j: F(1)} for j in range(n)} if unital else {}
    for i in range(1 if unital else 0, n):
        for j in range(i, n):
            comp = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([F(1), F(-1), F(2)]), max_size=2))
            if comp:
                table[(i, j)] = comp
    unit = [F(1)] + [F(0)] * (n - 1) if unital else draw(st.lists(st.sampled_from([F(0), F(1)]), min_size=n, max_size=n))
    return n, table, unit


def _structural_message(build):
    try:
        build()
    except StructuralError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(product_tables())
def test_commalg_validation_matches_dense_oracle(table):
    n, products, unit = table
    want = _structural_message(lambda: dense_validate(SimpleNamespace(dim=n, products=products, unit=unit)))
    assert _structural_message(lambda: CommAlgebra(n, products, unit)) == want


@st.composite
def int_matrices(draw):
    """1-9 rows and columns; dense, or nonzero on a drawn set of cells; entries up to 1, 3, 9 or 40."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    span = draw(st.sampled_from([1, 3, 9, 40]))
    cells = range(rows * cols) if draw(st.booleans()) else draw(st.sets(st.integers(0, rows * cols - 1)))
    m = [[0] * cols for _ in range(rows)]
    for c in cells:
        m[c // cols][c % cols] = draw(st.integers(-span, span))
    return m


def seeded_filiform_pair(n, seed):
    """(g, h): g with subdiagonal +-1..9 and deeper entries in [-20, 20]; h conjugate to g, or g
    with one deep entry moved (then usually not conjugate).  Both reach the Sylvester solve."""
    rng = random.Random(seed)
    g = mat_identity(n)
    for i in range(1, n):
        g[i][i - 1] = rng.choice((1, -1)) * rng.randint(1, 9)
        for j in range(i - 1):
            g[i][j] = rng.randint(-20, 20)
    h = [row[:] for row in g]
    if rng.random() < 0.5:
        h[rng.randint(2, n - 1)][0] += rng.choice((1, -1)) * rng.randint(1, 3)
        return g, h
    for _ in range(4):
        # h <- (I - q E_ij) h (I + q E_ij), i > j
        i = rng.randint(1, n - 1)
        j, q = rng.randint(0, i - 1), rng.randint(-3, 3)
        for row in h:
            row[j] += q * row[i]
        h[i] = [x - q * y for x, y in zip(h[i], h[j])]
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return g, [[signs[i] * signs[j] * h[i][j] for j in range(n)] for i in range(n)]


@settings(max_examples=400, deadline=None)
@given(int_matrices())
def test_smith_normal_form_matches_dense_oracle(m):
    assert smith_normal_form(m) == dense_smith_normal_form(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2 ** 32))
def test_sylvester_systems_match_dense_oracles(n, seed):
    s1, s2 = (FiliformLatticeSpec(n, g) for g in seeded_filiform_pair(n, seed))
    with mock.patch.object(classify, "solve_diophantine", wraps=solve_diophantine) as solve:
        ok, witness = classify.filiform_isomorphic(s1, s2)
    (n1, _), (n2, _) = filiform_normalize(s1), filiform_normalize(s2)
    rows, rhs = dense_sylvester_system(n1.g, n2.g)
    solve.assert_called_once_with(rows, rhs)
    assert smith_normal_form(rows) == dense_smith_normal_form(rows)
    sol = solve_diophantine(rows, rhs)
    assert ok == (sol is not None)
    if ok:
        x, kernel = sol
        assert mat_mul(rows, [[v] for v in x]) == [[b] for b in rhs]
        assert kernel == integer_kernel_basis(rows)
        assert mat_mul(s2.g, witness) == mat_mul(witness, s1.g)


def _conjugated(L, seed):
    """L in the basis of the columns of a seeded invertible integer matrix."""
    return LieAlgebra(L.dim, dense_in_basis(L, _invertible_int_matrix(L.dim, seed)))


seeds = st.integers(0, 2 ** 32)
lie_algebras = st.one_of(
    st.builds(filiform_algebra, st.integers(2, 8)),
    st.builds(lambda n, seed: _conjugated(filiform_algebra(n), seed), st.integers(2, 6), seeds),
    st.builds(lambda d, v, seed: _conjugated(six_dim_quadratic_structure(d, v), seed),
              st.sampled_from([-5, -2, -1, 2, 3, 5, 7]), st.sampled_from([1, 2]), seeds),
    two_step_algebras(),
    st.sampled_from([LieAlgebra(2, {(0, 1): {1: 1}}), LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})]),
)


def _vectors(data, n, max_size):
    vec = st.lists(st.one_of(small, st.integers(-3, 3)), min_size=n, max_size=n)
    return data.draw(st.lists(vec, max_size=max_size))


@settings(max_examples=100, deadline=None)
@given(bracket_tables(), st.data())
def test_bracket_matches_dense_oracle(L, data):
    for x, y in zip(_vectors(data, L.dim, 3), _vectors(data, L.dim, 3)):
        assert L.bracket(x, y) == dense_bracket(L, x, y)
    assert semidirect_coadjoint(L).brackets == dense_semidirect_coadjoint(L).brackets


@settings(max_examples=20, deadline=None)
@given(lie_algebras, st.data())
def test_bracket_paths_match_dense_oracles(L, data):
    series = L.descending_central_series()
    assert series == dense_descending_central_series(L)
    assert L.is_nilpotent() == (not series[-1])
    if not series[-1]:
        assert L.nilpotency_class() == len(series)
    units = [[F(int(i == j)) for j in range(L.dim)] for i in range(L.dim)]
    derived = L.derived_basis()
    assert derived == dense_bracket_span(L, units, units) == series[0]
    drawn = _vectors(data, L.dim, 3)
    for sub in (derived, L.centralizer_basis(derived), drawn, units[:2]):
        assert L.centralizer_basis(sub) == dense_centralizer_basis(L, sub)
        assert L.is_ideal(sub) == dense_is_ideal(L, sub)
        assert L.is_abelian_subspace(sub) == dense_is_abelian_subspace(L, sub)
        assert L.bracket_span(sub, drawn) == dense_bracket_span(L, sub, drawn)
    assert semidirect_coadjoint(L).brackets == dense_semidirect_coadjoint(L).brackets


def _parallel_message(verify, L, form, table):
    try:
        verify(L, form, table)
    except StructuralError as exc:
        return str(exc)
    return None


# a filiform case of dim 8 takes about 1 s; tools/outputs.py covers dim 8
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([F(1), F(-2), F(1, 3)]), seeds)
def test_flat_structure_matches_dense_oracles(half_dim, scale, seed):
    """The affine algebra (half_dim 1) or filiform of dim 2 half_dim, with a seeded basis of the
    abelian ideal and a seeded complement e_0 + (ideal vector)."""
    rng = random.Random(seed)
    n = 2 * half_dim
    if half_dim == 1:
        L = LieAlgebra(2, {(0, 1): {1: 1}})
        form = AlternatingForm.from_upper_entries(L, {(0, 1): scale})
    else:
        L, form = filiform_algebra(n - 1), symplectic.filiform_cocycle(half_dim).scale(scale)
    mix = _invertible_int_matrix(n - 1, seed)
    ideal = [[F(0)] + row for row in mix.data]
    e = [F(1)] + [F(rng.randint(-2, 2)) for _ in range(n - 1)]
    table = symplectic.flat_symplectic_structure(L, ideal, e, form)
    assert table == dense_flat_table(L, ideal, e, form)
    # the product w(ab, c) = -w(b, [a, c]) is flat too, and its L_a do not commute
    for flat in (table, left_symmetric_product(L, form)):
        assert symplectic.curvature_vanishes(L, flat) and dense_curvature_vanishes(L, flat)
        bent = [[list(v) for v in row] for row in flat]
        bent[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
        assert symplectic.curvature_vanishes(L, bent) == dense_curvature_vanishes(L, bent)
    for other in cocycle_space(L)[0]:
        assert (_parallel_message(symplectic._verify_flat_symplectic, L, other, table)
                == _parallel_message(dense_verify_flat_symplectic, L, other, table))



@pytest.mark.parametrize("half_dim, scale", [(1, F(1)), (2, F(1)), (2, F(-2)), (3, F(1, 3)), (4, F(3))])
def test_left_symmetry_defect_matches_dense_oracle(half_dim, scale):
    """The flat table and the product w(ab, c) = -w(b, [a, c]) of the affine algebra or a filiform
    algebra, and seeded bends of them: one entry moved (mostly torsion), or e_i e_j and e_j e_i
    moved alike (torsion kept, so the associator decides)."""
    rng = random.Random(40 + 7 * half_dim)
    n = 2 * half_dim
    if half_dim == 1:
        L = LieAlgebra(2, {(0, 1): {1: 1}})
        form = AlternatingForm.from_upper_entries(L, {(0, 1): scale})
    else:
        L, form = filiform_algebra(n - 1), symplectic.filiform_cocycle(half_dim).scale(scale)
    ideal = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    verdicts = []
    for table in (symplectic.flat_symplectic_structure(L, ideal, [1] + [0] * (n - 1), form),
                  left_symmetric_product(L, form)):
        assert left_symmetry_defect(L, table) is dense_left_symmetry_defect(L, table) is None
        for t in range(24):
            bent = [[list(v) for v in row] for row in table]
            i, j, k, c = rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.choice((1, -1, F(1, 2)))
            bent[i][j][k] += c
            if t % 2 and i != j:
                bent[j][i][k] += c
            verdicts.append(left_symmetry_defect(L, bent))
            assert verdicts[-1] == dense_left_symmetry_defect(L, bent)
    assert {"torsion", "associator"} <= set(verdicts)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_double_matches_dense_oracle(data):
    """Filiform of dim 4 or 6 with a multiple of the inverse canonical bivector, abelian algebras with a
    drawn skew r, and H_1 with r in e_0 ^ e_2 and e_1 ^ e_2 (all solve the CYBE)."""
    kind = data.draw(st.sampled_from(["filiform", "abelian", "heisenberg"]))
    if kind == "filiform":
        half = data.draw(st.sampled_from([2, 3]))
        L = filiform_algebra(2 * half - 1)
        r = symplectic.inverse_bivector(symplectic.filiform_cocycle(half).scale(data.draw(small.filter(bool))))
    elif kind == "abelian":
        n = data.draw(st.integers(1, 4))
        L, r = LieAlgebra(n, {}), data.draw(skew_matrices(n))
    else:
        L = LieAlgebra(3, {(0, 1): {2: 1}})
        a, b = data.draw(small), data.draw(small)
        r = Matrix([[0, 0, a], [0, 0, b], [-a, -b, 0]])
    ds = symplectic.double_theta_check(L, r)
    table, theta = dense_double(L, r)
    assert ds.double.brackets == table
    assert ds.theta_matrix == theta
    assert ds.semidirect.brackets == dense_semidirect_coadjoint(L).brackets
