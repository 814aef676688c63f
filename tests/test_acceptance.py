"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from itertools import combinations
from math import gcd

import pytest

from helpers import coboundary_value, filiform_isomorphic_bounded_oracle, fundamental_unit_box_search
from nillat.anosov import char_poly_pair, has_unit_circle_root, is_anosov
from nillat.classify import (
    FiliformLatticeSpec,
    central_quotients,
    classify_six_dim,
    filiform_isomorphic,
    nontrivial_invariants,
)
from nillat.cocycles import AlternatingForm, cocycle_space
from nillat.commalg import (
    dual_numbers,
    example6_algebra,
    frobenius_quadratic_algebra,
    monomial_quotient,
    rationals,
    socle3_algebra,
    truncated_polynomials,
)
from nillat.errors import InputError, PreconditionError
from nillat.groups import (
    Example5G,
    Filiform,
    HeisQuad,
    HeisenbergDual,
    TStarH1,
    TriD,
    check_relations,
    element,
    filiform_presentation,
    filiform_standard_assignment,
    identity,
    inverse,
    multiply,
    symbolic_associativity_holds,
    symbolic_product_is_integral,
    trid_presentation,
    trid_standard_assignment,
)
from nillat.heisenberg import (
    generic_degeneracy_search,
    h1_blocks_for_search,
    h1_cocycle_construct,
    h1_symplectic_decision,
    heisenberg_over,
    hk_degeneracy_check,
)
from nillat.liealg import heisenberg_algebra, filiform_algebra, semidirect_coadjoint, six_dim_quadratic_structure
from nillat.matrix import _unit
from nillat.quadratic import fundamental_unit
from nillat.classify import squarefree_part
from nillat.symplectic import (
    curvature_vanishes,
    filiform_cocycle,
    flat_symplectic_structure,
    moment_cocycle_identity_holds,
)


def _report(number: int, label: str, started: float, budget: float, clock=time.perf_counter) -> None:
    elapsed = clock() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number:2d} PASS  ({elapsed:7.3f}s < {budget:g}s)  {label}")


EXAMPLE_MATRIX = [[1, 5, 2], [2, -1, -1], [3, 2, 0]]


def test_criterion_01_printed_matrix_reproduction():
    # The 10 ms budget is on this thread's CPU time (about 4.5 ms of work).  Wall
    # time also counts the scheduler slices, 4 ms each, in which another process
    # or the hypervisor holds the CPU, and so doubled or tripled under load.
    t0 = time.thread_time()
    p_b, _ = char_poly_pair(EXAMPLE_MATRIX)
    assert p_b == [-1, -15, 0, 1]  # X^3 - 15X - 1, exactly
    assert is_anosov(EXAMPLE_MATRIX)
    _report(1, "charpoly X^3-15X-1 and the Anosov decision", t0, 0.010, clock=time.thread_time)


def test_criterion_02_order_54_lattice_pair():
    t0 = time.perf_counter()
    s1 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]])
    s2 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [2, 9, 1]])
    for s in (s1, s2):
        q = central_quotients(s)
        assert nontrivial_invariants(q[1]) == [54]  # C_2 / C^1 cyclic of order 54
        assert nontrivial_invariants(q[0]) == [54]  # C_1 / C^2 of order 54
    assert filiform_isomorphic(s1, s2) == (False, None)
    _report(2, "non-isomorphic (6,9,1)/(6,9,2) with equal order-54 quotients", t0, 0.100)


def test_criterion_03_class_counting():
    t0 = time.perf_counter()

    def spec(a, b, c):
        return FiliformLatticeSpec(3, [[1, 0, 0], [a, 1, 0], [c, b, 1]])

    # coprime subdiagonals up to 10: a single class over c
    for a in range(1, 11):
        for b in range(1, 11):
            if gcd(a, b) != 1:
                continue
            base = spec(a, b, 0)
            for c in range(1, 5):
                ok, _ = filiform_isomorphic(base, spec(a, b, c))
                assert ok, (a, b, c)
            # oracle spot confirmation
            assert filiform_isomorphic_bounded_oracle(base, spec(a, b, 3), bound=30)

    # (4, 8): exactly 4 classes over c in [0, 16)
    specs = [spec(4, 8, c) for c in range(16)]
    reps: list[int] = []
    for c, s in enumerate(specs):
        if not any(filiform_isomorphic(specs[r], s)[0] for r in reps):
            reps.append(c)
    assert len(reps) == 4
    for c, s in enumerate(specs):
        matches = [r for r in reps if filiform_isomorphic(specs[r], s)[0]]
        assert matches == [c % 4]
    # oracle verification with bound 30: inside a class true, across classes false
    assert filiform_isomorphic_bounded_oracle(specs[0], specs[12], bound=30)
    assert filiform_isomorphic_bounded_oracle(specs[1], specs[13], bound=30)
    assert not filiform_isomorphic_bounded_oracle(specs[0], specs[1], bound=30)
    assert not filiform_isomorphic_bounded_oracle(specs[2], specs[5], bound=30)
    _report(3, "isomorphism class counts: coprime -> 1, (4,8) -> 4 classes", t0, 30.0)


def test_criterion_04_fundamental_units():
    t0 = time.perf_counter()
    assert str(fundamental_unit(2)) == "1+sqrt2"
    assert str(fundamental_unit(3)) == "2+sqrt3"
    assert str(fundamental_unit(5)) == "(1+sqrt5)/2"
    for m in range(2, 51):
        if squarefree_part(m) != m:
            continue
        cf = fundamental_unit(m)
        box = fundamental_unit_box_search(m)
        assert (cf.a, cf.b) == (box.a, box.b), m
    _report(4, "fundamental units for m = 2, 3, 5 and minimality up to 50", t0, 5.0)


def test_criterion_05_symplectic_decision_suite():
    t0 = time.perf_counter()
    corpus = [
        rationals(),
        dual_numbers(),
        truncated_polynomials(3),
        truncated_polynomials(4),
        truncated_polynomials(5),
        truncated_polynomials(6),
        example6_algebra(),
        socle3_algebra(),
        monomial_quotient([(0, 0), (1, 0), (0, 1), (1, 1)]),                    # Q[x,y]/(x2,y2)
        monomial_quotient([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]),    # Q[x,y]/(x3,y2)
        monomial_quotient([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]),            # Q[x,y]/(x3,y3,xy)
        frobenius_quadratic_algebra([1, 1]),
        frobenius_quadratic_algebra([1, -1]),
        frobenius_quadratic_algebra([2, 3]),
    ]
    assert len(corpus) >= 12
    n_true = n_false = 0
    for algebra in corpus:
        assert algebra.dim <= 6
        decision = h1_symplectic_decision(algebra)
        assert decision.report.is_local
        if decision.symplectic:
            n_true += 1
            form = h1_cocycle_construct(algebra)
            n = form.algebra.dim
            assert form.matrix.det() != 0
            for i, j, k in combinations(range(n), 3):
                assert coboundary_value(form, _unit(n, i), _unit(n, j), _unit(n, k)) == 0
        else:
            n_false += 1
            with pytest.raises(PreconditionError):
                h1_cocycle_construct(algebra)
            H = heisenberg_over(algebra, 1)
            cert = generic_degeneracy_search(H.algebra, blocks=h1_blocks_for_search(algebra))
            assert cert.degenerate
    assert n_true >= 5 and n_false >= 4
    _report(5, f"decision = constructibility on {len(corpus)} local algebras", t0, 60.0)


def test_criterion_06_higher_heisenberg_degeneracy():
    t0 = time.perf_counter()
    for k in (2, 3):
        for base in (rationals(), dual_numbers()):
            cert = hk_degeneracy_check(base, k)
            assert cert.degenerate
            H = heisenberg_over(base, k)
            gvecs = [_unit(H.algebra.dim, H.g_index(t)) for t in range(base.dim)]
            z2, _ = cocycle_space(H.algebra)
            for form in z2:
                for v in gvecs:
                    assert all(c == 0 for c in form.flat(v))
    _report(6, "H_k degeneracy for k = 2, 3 over Q and the dual numbers", t0, 30.0)


def test_criterion_07_classification_fixed_points():
    t0 = time.perf_counter()
    rng = random.Random(1009)
    for d in (-1, 2, 3, 5, -2):
        L = six_dim_quadratic_structure(d)
        c = classify_six_dim(L)
        assert c.d == d
        assert c.family == ("H1_COMPLEX" if d > 0 else "H1_RxR")
        found = 0
        while found < 3:
            comp = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
            try:
                c2 = classify_six_dim(L, complement=comp)
            except InputError:
                continue
            assert c2.key() == c.key()
            found += 1
    _report(7, "Pfaffian classification fixed points with 3 random complements", t0, 5.0)


def test_criterion_08_moment_map_identity():
    t0 = time.perf_counter()
    L3 = filiform_algebra(3)
    assert moment_cocycle_identity_holds(L3, filiform_cocycle(2))
    ts = semidirect_coadjoint(heisenberg_algebra(1))
    lam = [1, 1, 2]
    form = AlternatingForm.from_upper_entries(ts, {(i, 3 + i): -lam[i] for i in range(3)})
    assert form.is_cocycle() and form.is_nondegenerate()
    assert moment_cocycle_identity_holds(ts, form)
    _report(8, "moment cocycle identity as exact polynomial identity", t0, 10.0)


def test_criterion_09_group_model_soundness():
    t0 = time.perf_counter()
    models = [
        HeisenbergDual(),
        HeisQuad(2),
        HeisQuad(5),
        TStarH1(),
        TriD(2, 2, 6),
        Example5G(),
        Filiform(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]]),
    ]
    for model in models:
        # associativity as a polynomial identity in all coordinates: this
        # covers the whole {-1, 0, 1} grid (and any other rational grid)
        assert symbolic_associativity_holds(model)
        # spot grid: all triples of single-support {-1, 0, 1} elements
        units = [identity(model)]
        for j in range(model.dim):
            for s in (1, -1):
                coords = [0] * model.dim
                coords[j] = s
                units.append(element(model, coords))
        for a in units:
            for b in units:
                ab = multiply(model, a, b)
                assert ab.is_integral
                for c in units[:7]:
                    assert multiply(model, ab, c) == multiply(model, a, multiply(model, b, c))
        # lattice closure
        if model.kind == "Filiform":
            rng = random.Random(8)
            for _ in range(60):
                a = element(model, [rng.randint(-1, 1) for _ in range(model.dim)])
                b = element(model, [rng.randint(-1, 1) for _ in range(model.dim)])
                assert multiply(model, a, b).is_integral
                assert inverse(model, a).is_integral
        else:
            assert symbolic_product_is_integral(model)
    # presentations
    td = TriD(2, 2, 6)
    ok, failing = check_relations(td, trid_standard_assignment(td), trid_presentation(2, 2, 6))
    assert ok, failing
    fm = Filiform(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]])
    ok, failing = check_relations(
        fm, filiform_standard_assignment(fm), filiform_presentation(3, fm.g)
    )
    assert ok, failing
    _report(9, "model soundness: associativity, closure, presentation relations", t0, 30.0)


def test_criterion_10_flat_symplectic_structures():
    t0 = time.perf_counter()
    from nillat.liealg import LieAlgebra

    cases = []
    L3 = filiform_algebra(3)
    cases.append((L3, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [1, 0, 0, 0], filiform_cocycle(2)))
    L5 = filiform_algebra(5)
    cases.append((
        L5,
        [[0 if j != i + 1 else 1 for j in range(6)] for i in range(5)],
        [1, 0, 0, 0, 0, 0],
        filiform_cocycle(3),
    ))
    aff = LieAlgebra(2, {(0, 1): {1: 1}})
    cases.append((aff, [[0, 1]], [1, 0], AlternatingForm.from_upper_entries(aff, {(0, 1): 1})))
    for L, ideal, evec, form in cases:
        table = flat_symplectic_structure(L, ideal, evec, form)  # verifies all 3 identities
        assert curvature_vanishes(L, table)
    _report(10, "torsion-free, flat, parallel structures on 3 algebras", t0, 5.0)


def test_criterion_11_unit_circle_vs_float_oracle():
    import numpy as np

    t0 = time.perf_counter()
    rng = random.Random(20240)
    checked = 0
    while checked < 500:
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(-9, 9)]
        if coeffs[-1] == 0:
            continue
        exact = has_unit_circle_root(coeffs)
        roots = np.roots(list(reversed(coeffs)))
        floaty = bool(np.any(np.abs(np.abs(roots) - 1.0) < 1e-9))
        assert exact == floaty, coeffs
        checked += 1
    _report(11, "unit-circle decision agrees with the float oracle on 500 polynomials", t0, 20.0)
