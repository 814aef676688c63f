import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import dense_complement_basis, dense_in_span, dense_inverse, dense_rref_basis, dense_solve, rand_fraction
from nillat.errors import InputError, NillatError, PreconditionError
from nillat.matrix import (
    Matrix,
    complement_basis,
    in_span,
    nilpotent_exp,
    nilpotent_log,
    nilpotency_index,
    rref_basis,
    span_dim,
    span_equal,
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


def _outcome(fn, *args):
    """fn(*args) as ("ok", value), or the class and message of the library error it raised."""
    try:
        return "ok", fn(*args)
    except NillatError as exc:
        return type(exc), str(exc)


def _rational_rows(rng, rows, cols, rank=None):
    """Seeded rational rows; with `rank`, rows beyond it are combinations of the first `rank`."""
    out = [[rand_fraction(rng) if rng.random() < 0.7 else F(0) for _ in range(cols)] for _ in range(rows)]
    if rank is not None:
        for i in range(rank, rows):
            ks = [rng.randint(-2, 2) for _ in range(rank)]
            out[i] = [sum((k * out[t][c] for t, k in enumerate(ks)), F(0)) for c in range(cols)]
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_and_solve_match_augmented_oracle(n):
    """Invertible, singular, under- and over-determined, consistent and inconsistent systems:
    the same answer, or the same error class and message, as the augmented-matrix rref."""
    rng = random.Random(100 + n)
    cases = []
    for _ in range(6):
        cases.append(_rational_rows(rng, n, n))                                # mostly invertible
        cases.append(_rational_rows(rng, n, n, rank=rng.randint(0, n - 1)))   # singular
        cases.append(_rational_rows(rng, n, n + rng.randint(1, 3)))           # under-determined
        cases.append(_rational_rows(rng, n + rng.randint(1, 3), n))           # over-determined
        cases.append(_rational_rows(rng, n + 1, n + 1, rank=n))               # rank-deficient, wider
    inverted, solved = 0, set()
    for rows in cases:
        m = Matrix(rows)
        got, want = _outcome(m.inverse), _outcome(dense_inverse, m)
        assert got == want
        inverted += got[0] == "ok"
        if got[0] == "ok":
            assert all(type(x) is F for row in got[1].data for x in row)
            assert m * got[1] == Matrix.identity(n)
        x0 = [rand_fraction(rng) for _ in range(m.cols)]
        consistent = m.apply(x0)
        drawn = [rand_fraction(rng) for _ in range(m.rows)]
        for rhs in (consistent, drawn, [0] * m.rows):
            got, want = _outcome(m.solve, rhs), _outcome(dense_solve, m, rhs)
            assert got == want
            solved.add(got[0])
            if got[0] == "ok":
                assert m.apply(got[1]) == [F(x) for x in rhs]
        assert _outcome(m.solve, consistent)[0] == "ok"
        for wrong in ([1] * (m.rows + 1), [1] * (m.rows - 1)):
            assert _outcome(m.solve, wrong) == _outcome(dense_solve, m, wrong) == (InputError, "right-hand side has wrong length")
    assert inverted >= 3 and solved == {"ok", PreconditionError}
    singular = Matrix(_rational_rows(rng, n, n, rank=n - 1))
    assert _outcome(singular.inverse) == (PreconditionError, "matrix is singular")
    if n > 1:
        assert _outcome(Matrix(_rational_rows(rng, n, n - 1)).inverse) == (PreconditionError, "inverse of a non-square matrix")
        incons = Matrix([[1] * n, [2] * n])
        assert _outcome(incons.solve, [1, 3]) == (PreconditionError, "linear system is inconsistent")


def test_internal_results_own_their_rows():
    a = Matrix([[1, 2, 0], [3, 4, 1], [0, 1, 1]])
    b = Matrix([["1/2", 0, 1], [0, 2, -1], [1, 1, 1]])
    before = (a.copy_data(), b.copy_data())
    results = [a.transpose(), a + b, a - b, -a, a.scale(3), a * b, a.rref()[0], a.inverse(),
               Matrix.identity(3), Matrix.zero(3, 3), Matrix.from_columns(b.data), a.inverse().inverse()]
    inputs = {id(row) for m in (a, b) for row in m.data}
    for r in results:
        assert (r.rows, r.cols) == (len(r.data), len(r.data[0]))
        assert all(type(x) is F for row in r.data for x in row)
        assert not inputs & {id(row) for row in r.data}
        assert len({id(row) for row in r.data}) == r.rows
        for row in r.data:
            row[0] += 7
    assert (a.copy_data(), b.copy_data()) == before
    for bad in (lambda: Matrix.identity(0), lambda: Matrix.zero(0, 2), lambda: Matrix.zero(2, 0)):
        with pytest.raises(InputError, match="at least one row"):
            bad()


def _subspace_cases(rng):
    """(dim, vectors): empty, zero, dependent, full-rank, ragged and non-rational vector lists."""
    cases = [(3, []), (3, [[0, 0, 0]]), (4, [[F(0)] * 4, [F(0)] * 4]), (3, [[0, 0], [1, 2, 3]])]
    for dim in range(1, 8):
        for _ in range(4):
            k = rng.randint(1, dim + 2)
            cases.append((dim, _rational_rows(rng, k, dim)))
            cases.append((dim, _rational_rows(rng, k + 1, dim, rank=rng.randint(0, min(k, dim)))))
        cases.append((dim, [[F(0)] * dim] + _rational_rows(rng, 2, dim)))
        ragged = _rational_rows(rng, 3, dim)
        ragged[rng.randrange(3)].append(F(1))
        cases.append((dim, ragged))
        inexact = _rational_rows(rng, 2, dim)
        inexact[1][rng.randrange(dim)] = rng.choice((0.5, "x", None))
        cases.append((dim, inexact))
    return cases


def test_subspace_layer_matches_dense_oracles():
    """rref_basis, span_dim, in_span, span_equal and complement_basis against the dense Matrix-validated
    versions: the same answer, or the same error class and message."""
    rng = random.Random(41)
    cases = _subspace_cases(rng)
    errors = set()
    for t, (dim, vecs) in enumerate(cases):
        got = _outcome(rref_basis, vecs)
        assert got == _outcome(dense_rref_basis, vecs)
        errors.add(got[1] if got[0] != "ok" else "ok")
        assert _outcome(span_dim, vecs) == _outcome(lambda v: len(dense_rref_basis(v)), vecs)
        other = cases[(t + 1) % len(cases)][1]
        for b in (other, vecs[::-1] + [[2 * x for x in v] for v in vecs[:1]]):
            want = _outcome(lambda a, b: dense_rref_basis(a) == dense_rref_basis(b), vecs, b)
            assert _outcome(span_equal, vecs, b) == want
        ks = [rng.randint(-2, 2) for _ in vecs]
        combination = [sum((k * v[c] for k, v in zip(ks, vecs) if c < len(v) and isinstance(v[c], (int, F))), F(0))
                       for c in range(dim)]
        for v in (combination, [rand_fraction(rng) for _ in range(dim)], [0] * dim, [1] * (dim + 1), [0] * (dim + 1)):
            assert _outcome(in_span, v, vecs) == _outcome(dense_in_span, v, vecs)
        for d in (dim, dim - 1, dim + 1, 0):
            got = _outcome(complement_basis, vecs, d)
            assert got == _outcome(dense_complement_basis, vecs, d)
            if got[0] == "ok" and d == dim:
                assert span_dim(list(vecs) + got[1]) == dim
    assert {"ok", "ragged matrix rows"} < errors and any(e.startswith("cannot interpret") for e in errors)
