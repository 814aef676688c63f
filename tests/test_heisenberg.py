import random
from itertools import combinations

import pytest

from helpers import coboundary_value
from nillat import heisenberg
from nillat.cocycles import cocycle_space
from nillat.commalg import (
    CommAlgebra,
    dual_numbers,
    example6_algebra,
    frobenius_quadratic_algebra,
    monomial_quotient,
    radical_and_socle,
    rationals,
    socle3_algebra,
    truncated_polynomials,
)
from nillat.errors import InputError, PreconditionError, StructuralError
from nillat.heisenberg import (
    generic_degeneracy_search,
    h1_blocks_for_search,
    h1_cocycle_construct,
    h1_symplectic_decision,
    heisenberg_over,
    hk_degeneracy_check,
)
from nillat.liealg import LieAlgebra
from nillat.matrix import _unit, rref_basis, span_dim


def test_algebra_validation():
    with pytest.raises(StructuralError):
        # non-associative: (x x) y = y y = 0 but x (x y) = x
        CommAlgebra(
            3,
            {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
             (1, 1): {2: 1}, (1, 2): {0: 1}},
            [1, 0, 0],
        )
    with pytest.raises(StructuralError):
        # unit axiom fails
        CommAlgebra(2, {(0, 0): {0: 1}}, [0, 1])


def test_comm_algebra_rejects_vectors_of_the_wrong_length():
    A = dual_numbers()
    calls = [
        lambda: A.multiply([1, 0, 5], [1, 1]),
        lambda: A.mult_operator([1, 0, 3]),
        lambda: A.is_nilpotent_element([0, 1, 4]),
        lambda: A.multiply([0, 1], [0, 1, 7, 9]),
        lambda: A.multiply([1], [1, 0]),
        lambda: A.is_nilpotent_element([0]),
    ]
    for call in calls:
        with pytest.raises(InputError, match="vector length does not match algebra dimension"):
            call()
    assert A.multiply([1, 2], [3, 4]) == [3, 10]
    assert A.is_nilpotent_element([0, 1]) and not A.is_nilpotent_element([1, 1])


def test_radical_socle_rationals():
    rep = radical_and_socle(rationals())
    assert rep.radical == [] and span_dim(rep.socle) == 1 and rep.is_local


def test_radical_socle_dual_numbers():
    rep = radical_and_socle(dual_numbers())
    assert span_dim(rep.radical) == 1
    assert rep.radical == rep.socle
    assert rep.is_local


def test_radical_socle_example6():
    # basis 1, x, x^2, y: socle spanned by x^2 and y
    rep = radical_and_socle(example6_algebra())
    assert span_dim(rep.radical) == 3
    assert rref_basis(rep.socle) == rref_basis([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert rep.is_local


def test_radical_socle_nonlocal():
    # Q x Q: semisimple, radical zero, not local
    qq = CommAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1])
    rep = radical_and_socle(qq)
    assert rep.radical == [] and not rep.is_local


def test_heisenberg_over_brackets():
    H = heisenberg_over(dual_numbers(), 1)
    L = H.algebra
    assert L.dim == 6
    e1 = _unit(6, H.e_index(0, 0))
    feps = _unit(6, H.f_index(0, 1))
    out = L.bracket(e1, feps)
    assert out[H.g_index(1)] == 1 and sum(1 for c in out if c != 0) == 1
    # e (x) eps against f (x) eps lands on g (x) eps^2 = 0
    eeps = _unit(6, H.e_index(0, 1))
    assert all(c == 0 for c in L.bracket(eeps, feps))


CORPUS_TRUE = [
    ("dual numbers", dual_numbers()),
    ("Q[x]/(x^4)", truncated_polynomials(4)),
    ("Q[x]/(x^6)", truncated_polynomials(6)),
    ("example 6", example6_algebra()),
    ("Q[x,y]/(x^2,y^2)", monomial_quotient([(0, 0), (1, 0), (0, 1), (1, 1)])),
    ("Q[x,y]/(x^3,y^2)", monomial_quotient([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])),
    ("quadratic Frobenius diag(1,1)", frobenius_quadratic_algebra([1, 1])),
    ("quadratic Frobenius diag(1,-1)", frobenius_quadratic_algebra([1, -1])),
]

CORPUS_FALSE = [
    ("Q", rationals(), "parity"),
    ("Q[x]/(x^3)", truncated_polynomials(3), "parity"),
    ("Q[x]/(x^5)", truncated_polynomials(5), "parity"),
    ("Q[x,y]/(x^3,y^3,xy)", monomial_quotient([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]), "parity"),
    ("socle 3", socle3_algebra(), "socle-dim"),
    ("socle 5", monomial_quotient(
        [(0, 0, 0, 0, 0)] + [tuple(1 if t == i else 0 for t in range(5)) for i in range(5)]
    ), "socle-dim"),
]


@pytest.mark.parametrize("name,algebra", CORPUS_TRUE, ids=[n for n, _ in CORPUS_TRUE])
def test_decision_true_and_construction(name, algebra):
    d = h1_symplectic_decision(algebra)
    assert d.symplectic and d.reason == "local-criterion"
    form = h1_cocycle_construct(algebra)
    n = form.algebra.dim
    # independent re-verification of both certificates
    assert form.matrix.det() != 0
    for i, j, k in combinations(range(n), 3):
        assert coboundary_value(form, _unit(n, i), _unit(n, j), _unit(n, k)) == 0


@pytest.mark.parametrize(
    "name,algebra,reason", CORPUS_FALSE, ids=[n for n, _, _ in CORPUS_FALSE]
)
def test_decision_false_with_reason(name, algebra, reason):
    d = h1_symplectic_decision(algebra)
    assert not d.symplectic
    assert d.reason == reason
    with pytest.raises(PreconditionError):
        h1_cocycle_construct(algebra)


@pytest.mark.parametrize(
    "name,algebra,reason", CORPUS_FALSE, ids=[n for n, _, _ in CORPUS_FALSE]
)
def test_false_cases_pass_degeneracy_search(name, algebra, reason):
    H = heisenberg_over(algebra, 1)
    cert = generic_degeneracy_search(H.algebra, blocks=h1_blocks_for_search(algebra))
    assert cert.degenerate
    assert cert.kind in ("parity", "common-kernel", "orthogonality")


def test_orthogonality_tier_fires_exactly_when_the_blocks_pair_to_zero():
    """The tier against `form(u, v)` on every basis cocycle.  It fires on the blocks of socle3; on seeded
    blocks of a symplectic H_1(A) it must not, and the search goes on to a witness."""
    rng = random.Random(17)
    cases = [(socle3_algebra(), 0), (truncated_polynomials(2), 4), (truncated_polynomials(4), 4),
             (CommAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1]), 4)]
    fired = 0
    for base, seeded in cases:
        H = heisenberg_over(base, 1).algebra
        n = H.dim
        z2, _ = cocycle_space(H)
        trials = [h1_blocks_for_search(base)]
        for _ in range(seeded):
            k = rng.randint(1, 2)  # zero vectors first: the tier must look past them
            u_basis = [[0] * n] + [[rng.choice((0, 0, 1, -2)) for _ in range(n)] for _ in range(k)]
            w_basis = [[0] * n] + [_unit(n, j) for j in rng.sample(range(n), n - k + 1)]
            trials.append((u_basis, w_basis))
        for u_basis, w_basis in trials:
            fires = span_dim(u_basis) > n - span_dim(w_basis) and all(
                form(u, v) == 0 for form in z2 for u in u_basis for v in w_basis)
            cert = generic_degeneracy_search(H, blocks=(u_basis, w_basis))
            assert cert.kind == ("orthogonality" if fires else "witness")
            fired += fires
    assert fired == 1


def test_nonlocal_falls_back_to_generic_search():
    qq = CommAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1])
    d = h1_symplectic_decision(qq)
    assert d.reason == "generic-search"
    # H_1(Q x Q) = H_1 x H_1 which is symplectic
    assert d.symplectic


def test_nonlocal_quadratic_field_is_symplectic():
    # Q[X]/(X^2 - 2): a field, hence Frobenius but not local over Q
    field = CommAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 2}}, [1, 0])
    rep = radical_and_socle(field)
    assert rep.radical == [] and not rep.is_local
    d = h1_symplectic_decision(field)
    assert d.reason == "generic-search" and d.symplectic
    # constructibility extends to the non-local true case via the search witness
    form = h1_cocycle_construct(field)
    assert form.is_cocycle() and form.is_nondegenerate()


@pytest.mark.parametrize("algebra,searches", [
    (example6_algebra(), 0),
    (CommAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1]), 1),
], ids=["local", "non-local"])
def test_construct_computes_report_and_search_once(monkeypatch, algebra, searches):
    calls = {"report": 0, "search": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(heisenberg, "radical_and_socle", counted("report", heisenberg.radical_and_socle))
    monkeypatch.setattr(heisenberg, "generic_degeneracy_search",
                        counted("search", heisenberg.generic_degeneracy_search))
    form = h1_cocycle_construct(algebra)
    assert form.is_cocycle() and form.is_nondegenerate()
    # the local path decides from the socle report alone and never searches
    assert calls == {"report": 1, "search": searches}


def test_generic_search_grid_tier():
    # Z^2 = span(e0^e1, e0^e2, e0^e3, e1^e2, e1^e3): no basis form and not their sum is
    # nondegenerate, so the witness comes from the grid, at its 31st point (0, 0, 1, 1, 0)
    L = LieAlgebra(4, {(0, 1): {2: 2}})
    cert = generic_degeneracy_search(L)
    assert (cert.degenerate, cert.kind) == (False, "witness")
    assert cert.witness.matrix.data == [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    assert cert.witness.is_cocycle()
    with pytest.raises(PreconditionError, match="^evaluation budget exhausted; no certificate found$"):
        generic_degeneracy_search(L, budget=30)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("base", [rationals(), dual_numbers()], ids=["Q", "dual"])
def test_hk_degeneracy(k, base):
    cert = hk_degeneracy_check(base, k)
    assert cert.degenerate and cert.kind == "common-kernel"
    H = heisenberg_over(base, k)
    # the certified kernel contains the whole g-copy of the algebra
    gvecs = [_unit(H.algebra.dim, H.g_index(t)) for t in range(base.dim)]
    from nillat.matrix import in_span

    for v in gvecs:
        assert in_span(v, cert.kernel_basis)
    # and it genuinely kills every basis cocycle
    z2, _ = cocycle_space(H.algebra)
    for form in z2:
        for v in gvecs:
            assert all(c == 0 for c in form.flat(v))


def test_hk_requires_k_at_least_two():
    with pytest.raises(PreconditionError):
        hk_degeneracy_check(dual_numbers(), 1)


def test_generic_search_finds_witness_on_true_case():
    H = heisenberg_over(dual_numbers(), 1)
    cert = generic_degeneracy_search(H.algebra)
    assert not cert.degenerate
    assert cert.kind == "witness"
    assert cert.witness is not None and cert.witness.is_nondegenerate()
