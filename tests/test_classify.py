import random
from fractions import Fraction as F
from math import gcd

import pytest

from helpers import dense_in_basis, filiform_isomorphic_bounded_oracle
from nillat import classify, intlattice
from nillat.classify import (
    FiliformLatticeSpec,
    central_quotients,
    classify_six_dim,
    commensurable,
    filiform_isomorphic,
    filiform_normalize,
    nontrivial_invariants,
    squarefree_part,
    theta_invariant,
    trid_invariants,
    trid_invariants_from_model,
    unique_abelian_codim1,
)
from nillat.errors import InputError, InternalError, PreconditionError, StructuralError
from nillat.groups import Filiform, TriD, commutator, element, identity, multiply
from nillat.intlattice import lattice_contains, mat_identity, mat_mul, column_lattice_basis
from nillat.liealg import (
    LieAlgebra,
    filiform_algebra,
    h1_dual_structure,
    heisenberg_algebra,
    six_dim_quadratic_structure,
)
from nillat.matrix import Matrix, rref_basis, span_equal


def test_squarefree_part_examples():
    assert squarefree_part(12) == 3
    assert squarefree_part(-8) == -2
    assert squarefree_part(1) == 1
    assert squarefree_part(360) == 10
    with pytest.raises(InputError):
        squarefree_part(0)


def test_squarefree_part_properties():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(-2000, 2000)
        if n == 0:
            continue
        s = squarefree_part(n)
        assert (n > 0) == (s > 0)
        q = n // s
        assert s * q == n
        r = int(round(q ** 0.5))
        assert r * r == q
        assert squarefree_part(s) == s


@pytest.mark.parametrize("d", [-1, 2, 3, 5, -2])
@pytest.mark.parametrize("variant", [1, 2])
def test_classification_fixed_points(d, variant):
    c = classify_six_dim(six_dim_quadratic_structure(d, variant))
    assert c.d == d
    assert c.family == ("H1_COMPLEX" if d > 0 else "H1_RxR")


def test_classification_recovers_squarefree_reduction():
    # scale the d = 3 table so the raw pfaffian discriminant is 12-ish
    L = six_dim_quadratic_structure(3)
    table = {k: {kk: 2 * v for kk, v in comp.items()} for k, comp in L.brackets.items()}
    c = classify_six_dim(LieAlgebra(6, table))
    assert (c.family, c.d) == ("H1_COMPLEX", 3)


def test_rank_one_table_classifies_dual():
    c = classify_six_dim(h1_dual_structure())
    assert c.family == "H1_DUAL"
    assert c.d is None


def test_classification_choice_independent():
    rng = random.Random(7)
    L = six_dim_quadratic_structure(2)
    base = classify_six_dim(L).key()
    found = 0
    while found < 3:
        comp = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        try:
            c = classify_six_dim(L, complement=comp)
        except InputError:
            continue
        assert c.key() == base
        found += 1


def test_classification_witness_transforms_to_normal_form():
    from nillat.classify import normal_form_table

    for d, variant in ((2, 1), (-1, 2), (5, 2), (-2, 1)):
        L = six_dim_quadratic_structure(d, variant)
        c = classify_six_dim(L)
        P = c.witness_basis
        Pinv = P.inverse()
        got = {}
        for i in range(6):
            for j in range(i + 1, 6):
                br = L.bracket(P.column(i), P.column(j))
                comp = {k: v for k, v in enumerate(Pinv.apply(br)) if v != 0}
                if comp:
                    got[(i, j)] = comp
        want = {
            k: {kk: F(vv) for kk, vv in comp.items()}
            for k, comp in normal_form_table(c.family, c.d).items()
        }
        assert got == want


def test_classifier_rejects_wrong_shape():
    with pytest.raises(StructuralError):
        classify_six_dim(filiform_algebra(5))


def test_classifier_rejects_inexact_complement_entries():
    L = six_dim_quadratic_structure(2)
    comp = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    assert classify_six_dim(L, [[str(x) for x in row] for row in comp]).key() == ("H1_COMPLEX", 2)
    for bad in (0.1, "x", None):
        broken = [row[:] for row in comp]
        broken[2][4] = bad
        with pytest.raises(InputError, match="exact rational"):
            classify_six_dim(L, broken)


NORMAL_FORMS = [(six_dim_quadratic_structure(d), "H1_COMPLEX" if d > 0 else "H1_RxR", d)
                for d in (-5, -2, -1, 2, 3, 5, 7)] + [(h1_dual_structure(), "H1_DUAL", None)]


@pytest.mark.parametrize("L, family, d", NORMAL_FORMS)
def test_witness_check_rejects_mutations(L, family, d):
    from nillat.classify import _verify_witness, normal_form_table

    rng = random.Random(31 if d is None else d)
    comp = []
    while len(comp) != 4 or len(rref_basis(comp + [[0] * 4 + [1, 0], [0] * 5 + [1]])) != 6:
        comp = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    c = classify_six_dim(L, comp)
    assert (c.family, c.d) == (family, d)
    table = normal_form_table(family, d)
    _verify_witness(L, c.witness_basis, table)
    # one entry changed, four times in each column: rejected exactly when the change of basis
    # by the inverse says it is no witness (adding a central vector to w_0..w_3, for one, gives
    # another witness)
    rejected = 0
    for j in range(24):
        data = c.witness_basis.copy_data()
        data[rng.randrange(6)][j % 6] += rng.choice((1, -1, F(1, 2)))
        mutated = Matrix(data)
        if mutated.rank() == 6 and dense_in_basis(L, mutated) == table:
            _verify_witness(L, mutated, table)
            continue
        rejected += 1
        with pytest.raises(InternalError, match="witness verification failed"):
            _verify_witness(L, mutated, table)
    assert rejected >= 12
    # two equal columns; the last one, (w_4, w_4, w_5, w_5, 0, 0), has only zero brackets and
    # matches the table, so only the rank rejects it
    for pattern in ([0, 0, 2, 3, 4, 5], [0, 1, 2, 3, 4, 4], [0, 1, 5, 3, 4, 5], [4, 4, 5, 5, None, None]):
        data = [[row[k] if k is not None else F(0) for k in pattern] for row in c.witness_basis.data]
        with pytest.raises(InternalError, match="witness verification failed"):
            _verify_witness(L, Matrix(data), table)
    # the normal-form table of another class
    for other_family, other_d in (("H1_DUAL", None), ("H1_COMPLEX", 3), ("H1_RxR", -1)):
        if (other_family, other_d) != (family, d):
            with pytest.raises(InternalError, match="witness verification failed"):
                _verify_witness(L, c.witness_basis, normal_form_table(other_family, other_d))


def test_commensurability():
    c2a = classify_six_dim(six_dim_quadratic_structure(2, 1))
    c2b = classify_six_dim(six_dim_quadratic_structure(2, 2))
    c1 = classify_six_dim(six_dim_quadratic_structure(1))
    cdual = classify_six_dim(h1_dual_structure())
    assert commensurable(c2a, c2b)
    assert not commensurable(c2a, c1)
    assert not commensurable(cdual, c2a)
    assert not commensurable(cdual, c1)


def test_trid_invariants():
    assert trid_invariants_from_model(TriD(1, 1, 1)) == [1, 1, 1]
    assert trid_invariants_from_model(TriD(2, 2, 6)) == [2, 2, 6]
    derived = [[2, 0, 0], [0, 2, 0], [0, 0, 6]]
    u = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    assert trid_invariants(mat_identity(3), mat_mul(u, derived)) == [2, 2, 6]
    with pytest.raises(InputError):
        trid_invariants(mat_identity(3), [[2, 0, 0], [0, 2, 0], [0, 0, 0]])


# -- filiform specs -------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(PreconditionError):
        FiliformLatticeSpec(3, [[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    with pytest.raises(InputError):
        FiliformLatticeSpec(3, [[1, 1, 0], [1, 1, 0], [1, 1, 1]])


def test_normalize_euclidean_example():
    spec = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [14, 9, 1]])
    norm, witness = filiform_normalize(spec)
    assert [list(r) for r in norm.g] == [[1, 0, 0], [6, 1, 0], [2, 9, 1]]
    # witness conjugacy re-verified
    w = Matrix(witness)
    assert w.inverse() * Matrix(spec.g_rows()) * w == Matrix(norm.g_rows())
    # exhaustive conjugator search confirms (6,9,14) ~ (6,9,2)
    assert filiform_isomorphic_bounded_oracle(
        spec, FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [2, 9, 1]]), bound=20
    )


def test_normalize_subdiagonal_ones_clears_deep_entries():
    spec = FiliformLatticeSpec(4, [[1, 0, 0, 0], [1, 1, 0, 0], [7, 1, 1, 0], [-3, 5, 1, 1]])
    norm, _ = filiform_normalize(spec)
    g = norm.g
    for j in range(4):
        for i in range(j + 2, 4):
            assert g[i][j] == 0


def test_normalize_identity_on_normal_input():
    spec = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [2, 9, 1]])
    norm, witness = filiform_normalize(spec)
    assert norm.g == spec.g
    assert witness == mat_identity(3)


def test_normalize_negative_subdiagonal():
    spec = FiliformLatticeSpec(3, [[1, 0, 0], [-6, 1, 0], [1, -9, 1]])
    norm, witness = filiform_normalize(spec)
    assert norm.g[1][0] == 6 and norm.g[2][1] == 9
    w = Matrix(witness)
    assert w.inverse() * Matrix(spec.g_rows()) * w == Matrix(norm.g_rows())


def test_normalize_idempotent_random():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.choice([3, 4, 5])
        g = mat_identity(n)
        for i in range(1, n):
            g[i][i - 1] = rng.choice([x for x in range(-9, 10) if x != 0])
            for j in range(i - 1):
                g[i][j] = rng.randint(-15, 15)
        spec = FiliformLatticeSpec(n, g)
        norm, _ = filiform_normalize(spec)
        again, witness = filiform_normalize(norm)
        assert again.g == norm.g
        assert witness == mat_identity(n)


def test_theta_invariant():
    g0 = FiliformLatticeSpec(4, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert theta_invariant(g0) == (1, 1, 1)
    ex2 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [4, 9, 1]])
    assert theta_invariant(ex2) == (6, 9)
    flipped = FiliformLatticeSpec(3, [[1, 0, 0], [-6, 1, 0], [-4, 9, 1]])
    assert theta_invariant(flipped) == (6, 9)


def test_isomorphism_spec_triple():
    s1 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]])
    s2 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [2, 9, 1]])
    s3 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [14, 9, 1]])
    assert filiform_isomorphic(s1, s2) == (False, None)
    ok, wit = filiform_isomorphic(s3, s2)
    assert ok
    w = Matrix(wit)
    assert w.inverse() * Matrix(s2.g_rows()) * w == Matrix(s3.g_rows())
    ok_self, wit_self = filiform_isomorphic(s1, s1)
    assert ok_self and wit_self == mat_identity(3)


def test_isomorphism_matches_bounded_oracle_n3():
    rng = random.Random(20)
    specs = []
    for _ in range(6):
        a = rng.randint(1, 6)
        b = rng.randint(1, 6)
        c = rng.randint(-8, 8)
        specs.append(FiliformLatticeSpec(3, [[1, 0, 0], [a, 1, 0], [c, b, 1]]))
    for s in specs:
        for t in specs:
            got = filiform_isomorphic(s, t)[0]
            assert got == filiform_isomorphic_bounded_oracle(s, t, bound=15)


def test_isomorphism_equivalence_relation_and_invariants():
    family = [
        FiliformLatticeSpec(3, [[1, 0, 0], [4, 1, 0], [c, 8, 1]]) for c in range(0, 8)
    ]
    for s in family:
        assert filiform_isomorphic(s, s)[0]
    for s in family:
        for t in family:
            ab = filiform_isomorphic(s, t)[0]
            ba = filiform_isomorphic(t, s)[0]
            assert ab == ba
            if ab:
                assert theta_invariant(s) == theta_invariant(t)
                assert central_quotients(s) == central_quotients(t)
    # transitivity over the family
    for s in family:
        for t in family:
            for u in family:
                if filiform_isomorphic(s, t)[0] and filiform_isomorphic(t, u)[0]:
                    assert filiform_isomorphic(s, u)[0]


def test_equal_quotients_do_not_imply_isomorphic():
    s1 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]])
    s2 = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [2, 9, 1]])
    assert central_quotients(s1) == central_quotients(s2)
    assert theta_invariant(s1) == theta_invariant(s2)
    assert not filiform_isomorphic(s1, s2)[0]


def test_class_count_equals_gcd():
    # number of classes with subdiagonal (a, b) over c in [0, gcd) equals gcd(a, b)
    for a, b in ((4, 8), (6, 9), (5, 7), (6, 4)):
        g = gcd(a, b)
        reps = [FiliformLatticeSpec(3, [[1, 0, 0], [a, 1, 0], [c, b, 1]]) for c in range(g)]
        for i, s in enumerate(reps):
            for j, t in enumerate(reps):
                assert filiform_isomorphic(s, t)[0] == (i == j)


def test_isomorphism_n2_classes_by_absolute_value():
    # dim-3 group: lattices are classified by |a|
    def spec2(a):
        return FiliformLatticeSpec(2, [[1, 0], [a, 1]])

    assert filiform_isomorphic(spec2(3), spec2(-3))[0]
    assert not filiform_isomorphic(spec2(3), spec2(4))[0]
    ok, wit = filiform_isomorphic(spec2(-5), spec2(5))
    assert ok
    w = Matrix(wit)
    assert w.inverse() * Matrix(spec2(5).g_rows()) * w == Matrix(spec2(-5).g_rows())


def test_isomorphism_n4_conjugates():
    base = FiliformLatticeSpec(4, [[1, 0, 0, 0], [2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1]])
    t = [[1, 0, 0, 0], [3, 1, 0, 0], [-2, 5, 1, 0], [7, 0, -4, 1]]
    d = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    phi = mat_mul(t, d)
    conj = Matrix(phi).inverse() * Matrix(base.g_rows()) * Matrix(phi)
    other = FiliformLatticeSpec(4, conj.to_int_rows())
    ok, wit = filiform_isomorphic(base, other)
    assert ok
    w = Matrix(wit)
    assert w.inverse() * Matrix(other.g_rows()) * w == Matrix(base.g_rows())


def test_isomorphism_n4_distinct_normal_forms():
    a = FiliformLatticeSpec(4, [[1, 0, 0, 0], [2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1]])
    b = FiliformLatticeSpec(4, [[1, 0, 0, 0], [2, 1, 0, 0], [0, 3, 1, 0], [0, 1, 2, 1]])
    assert not filiform_isomorphic(a, b)[0]


def _brute_force_n4_oracle(s1, s2, bound=2):
    """Exhaustive conjugator search over small T- x Diag elements (n = 4)."""
    from itertools import product as iproduct

    def mul4(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(4)) for j in range(4)] for i in range(4)]

    g2 = s2.g_rows()
    rng_vals = range(-bound, bound + 1)
    for eps in iproduct((1, -1), repeat=3):
        d = [[1, 0, 0, 0], [0, eps[0], 0, 0], [0, 0, eps[1], 0], [0, 0, 0, eps[2]]]
        dgd = mul4(d, mul4(s1.g_rows(), d))
        for u21 in rng_vals:
            for u31 in rng_vals:
                for u32 in rng_vals:
                    for u41 in rng_vals:
                        for u42 in rng_vals:
                            for u43 in rng_vals:
                                t = [[1, 0, 0, 0], [u21, 1, 0, 0],
                                     [u31, u32, 1, 0], [u41, u42, u43, 1]]
                                # (I + N)^-1 = I - N + N^2 - N^3 for strictly lower N
                                t_inv = [
                                    [1, 0, 0, 0],
                                    [-u21, 1, 0, 0],
                                    [-u31 + u32 * u21, -u32, 1, 0],
                                    [-u41 + u42 * u21 + u43 * u31 - u43 * u32 * u21,
                                     -u42 + u43 * u32, -u43, 1],
                                ]
                                if mul4(t_inv, mul4(dgd, t)) == g2:
                                    return True
    return False


def test_isomorphism_n4_matches_brute_force():
    rng = random.Random(55)
    base_specs = []
    for _ in range(3):
        g = mat_identity(4)
        for i in range(1, 4):
            g[i][i - 1] = rng.randint(1, 3)
            for j in range(i - 1):
                g[i][j] = rng.randint(-2, 2)
        base_specs.append(FiliformLatticeSpec(4, g))
    pairs = []
    for s in base_specs:
        # a conjugate partner within the brute-force box
        t = [[1, 0, 0, 0], [1, 1, 0, 0], [0, -1, 1, 0], [1, 0, 1, 1]]
        conj = Matrix(t).inverse() * Matrix(s.g_rows()) * Matrix(t)
        pairs.append((s, FiliformLatticeSpec(4, conj.to_int_rows()), True))
    pairs.append((base_specs[0], base_specs[1], None))  # unknown a priori
    for s1, s2, expected in pairs:
        got = filiform_isomorphic(s1, s2)[0]
        if expected is not None:
            assert got == expected
        if got:
            assert _brute_force_n4_oracle(s1, s2, bound=2)
        else:
            assert not _brute_force_n4_oracle(s1, s2, bound=2)


def test_isomorphism_makes_one_smith_decomposition(monkeypatch):
    calls = {"smith": 0, "kernel": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(intlattice, "smith_normal_form", counted("smith", intlattice.smith_normal_form))
    for module in (intlattice, classify):
        monkeypatch.setattr(module, "integer_kernel_basis", counted("kernel", module.integer_kernel_basis))
    base = FiliformLatticeSpec(5, [[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [1, 3, 1, 0, 0], [0, 1, 2, 1, 0],
                                   [4, -1, 0, 5, 1]])
    u = [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, -2, 1, 0, 0], [3, 0, 1, 1, 0], [0, 2, 0, -1, 1]]
    other = FiliformLatticeSpec(5, (Matrix(u).inverse() * Matrix(base.g_rows()) * Matrix(u)).to_int_rows())
    ok, _ = filiform_isomorphic(base, other)
    # the one Sylvester solve reads its kernel off the decomposition it made
    assert ok and calls == {"smith": 1, "kernel": 0}


def test_isomorphism_dimension_mismatch():
    s3 = FiliformLatticeSpec(3, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    s4 = FiliformLatticeSpec(4, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    with pytest.raises(InputError):
        filiform_isomorphic(s3, s4)


# -- central quotients --------------------------------------------------------------


def test_central_quotients_order54_pair():
    for c in (1, 2):
        spec = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [c, 9, 1]])
        q = central_quotients(spec)
        # C_1 / C^2 is cyclic of order ab = 54, C_2 / C^1 cyclic of order 54
        assert nontrivial_invariants(q[0]) == [54]
        assert nontrivial_invariants(q[1]) == [54]


def test_central_quotients_gcd3():
    spec = FiliformLatticeSpec(3, [[1, 0, 0], [6, 1, 0], [3, 9, 1]])
    q = central_quotients(spec)
    assert q[1] == [3, 18]


def test_central_quotients_standard_lattice_trivial():
    g0 = FiliformLatticeSpec(4, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    for q in central_quotients(g0):
        assert nontrivial_invariants(q) == []


def _commutator_lattice_oracle(spec):
    """Derived subgroup of the coordinate group: commutators of generators,
    closed under the action of g until stable."""
    n = spec.n
    model = Filiform(n, spec.g_rows())
    gens = []
    for i in range(n):
        coords = [0] * (n + 1)
        coords[i] = 1
        gens.append(element(model, coords))
    zgen = element(model, [0] * n + [1])
    gens.append(zgen)
    vecs = []
    for a in gens:
        for b in gens:
            c = commutator(model, a, b)
            assert c.coords[n] == 0
            vecs.append([int(x) for x in c.coords[:n]])
    from nillat.intlattice import hermite_row_basis

    basis = hermite_row_basis(vecs)
    while True:
        extra = []
        for v in basis:
            fwd = multiply(model, multiply(model, zgen, element(model, list(v) + [0])),
                           __import__("nillat.groups", fromlist=["inverse"]).inverse(model, zgen))
            extra.append([int(x) for x in fwd.coords[:n]])
        new_basis = hermite_row_basis(list(basis) + extra)
        if new_basis == basis:
            return basis
        basis = new_basis


def test_descending_series_matches_group_oracle():
    # deterministic grid with entries up to 12
    for a in (1, 2, 3, 4, 6, 9, 12):
        for b in (1, 2, 5, 8, 12):
            for c in (0, 1, 5, 11):
                spec = FiliformLatticeSpec(3, [[1, 0, 0], [a, 1, 0], [c, b, 1]])
                nil = [[spec.g[i][j] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
                assert _commutator_lattice_oracle(spec) == column_lattice_basis(nil)


def test_descending_series_matches_group_oracle_n4():
    rng = random.Random(33)
    for _ in range(4):
        g = mat_identity(4)
        for i in range(1, 4):
            g[i][i - 1] = rng.randint(1, 5)
            for j in range(i - 1):
                g[i][j] = rng.randint(-4, 4)
        spec = FiliformLatticeSpec(4, g)
        nil = [[spec.g[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)]
        assert _commutator_lattice_oracle(spec) == column_lattice_basis(nil)


def test_ascending_series_matches_group_predicate():
    rng = random.Random(32)
    from nillat.intlattice import integer_kernel_basis, mat_mul as mm

    for _ in range(6):
        a = rng.randint(1, 9)
        b = rng.randint(1, 9)
        c = rng.randint(0, 9)
        spec = FiliformLatticeSpec(3, [[1, 0, 0], [a, 1, 0], [c, b, 1]])
        model = Filiform(3, spec.g_rows())
        zgen = element(model, [0, 0, 0, 1])
        nil = [[spec.g[i][j] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
        c1 = integer_kernel_basis(nil)            # center of Gamma inside L
        c2 = integer_kernel_basis(mm(nil, nil))   # second ascending term

        def is_central(v):
            el = element(model, list(v) + [0])
            return commutator(model, el, zgen) == identity(model)

        def is_c2(v):
            el = element(model, list(v) + [0])
            com = commutator(model, el, zgen)
            return is_central([int(x) for x in com.coords[:3]])

        for x in range(-2, 3):
            for y in range(-2, 3):
                for z in range(-2, 3):
                    v = [x, y, z]
                    assert lattice_contains(c1, v) == is_central(v)
                    assert lattice_contains(c2, v) == is_c2(v)


# -- the unique abelian codimension-one ideal ---------------------------------------


def test_unique_ideal_standard_basis():
    basis = unique_abelian_codim1(filiform_algebra(3))
    assert span_equal(basis, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_unique_ideal_shuffled_basis():
    # transport the dim-4 filiform structure through an invertible map
    L = filiform_algebra(3)
    P = Matrix([[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    assert P.det() != 0
    Pinv = P.inverse()
    table = {}
    for i in range(4):
        for j in range(i + 1, 4):
            br = L.bracket(P.column(i), P.column(j))
            comp = {k: c for k, c in enumerate(Pinv.apply(br)) if c != 0}
            if comp:
                table[(i, j)] = comp
    shuffled = LieAlgebra(4, table)
    basis = unique_abelian_codim1(shuffled)
    expected = rref_basis([Pinv.apply(v) for v in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])])
    assert span_equal(basis, expected)


def test_unique_ideal_rejects_heisenberg():
    with pytest.raises(StructuralError):
        unique_abelian_codim1(heisenberg_algebra(1))
