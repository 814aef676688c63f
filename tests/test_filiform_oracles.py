"""The integer-only filiform path against the Fraction/sign-loop oracles.

`helpers` keeps the filiform normalization that conjugated through a
`Fraction` inverse and the isomorphism decision that tried every sign
pattern.  On random lattice specs with n <= 7 the library must give the same
normal forms, answers and witnesses, and its isomorphism relation must be an
equivalence whose witnesses check by integer products.
"""

from hypothesis import given, settings, strategies as st

from helpers import fraction_filiform_normalize, int_det, sign_loop_filiform_isomorphic
from nillat.classify import FiliformLatticeSpec, filiform_isomorphic, filiform_normalize
from nillat.intlattice import mat_identity, mat_mul


@st.composite
def filiform_specs(draw, min_n=2, max_n=7):
    """Subdiagonal +-1..9, deeper entries in [-20, 20]."""
    n = draw(st.integers(min_n, max_n))
    g = mat_identity(n)
    for i in range(1, n):
        g[i][i - 1] = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
        for j in range(i - 1):
            g[i][j] = draw(st.integers(-20, 20))
    return FiliformLatticeSpec(n, g)


def conjugate(draw, spec):
    """The spec with action matrix phi^-1 g phi for a drawn phi = D U.

    D is a +-1 diagonal and U lower-unitriangular with entries in [-3, 3].
    """
    n = spec.n
    phi = [
        [draw(st.sampled_from((1, -1))) if i == j else (draw(st.integers(-3, 3)) if j < i else 0)
         for j in range(n)]
        for i in range(n)
    ]
    # phi h = g phi, solved for h row by row (phi[i][i] = +-1)
    rhs = mat_mul(spec.g, phi)
    h = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            h[i][j] = phi[i][i] * (rhs[i][j] - sum(phi[i][k] * h[k][j] for k in range(i)))
    assert mat_mul(phi, h) == rhs
    return FiliformLatticeSpec(n, h)


def perturb(draw, spec):
    """spec (n >= 3) with one entry below the subdiagonal moved by +-1..3."""
    i = draw(st.integers(2, spec.n - 1))
    j = draw(st.integers(0, i - 2))
    g = spec.g_rows()
    g[i][j] += draw(st.sampled_from((1, -1))) * draw(st.integers(1, 3))
    return FiliformLatticeSpec(spec.n, g)


@st.composite
def spec_pairs(draw):
    """A conjugated yes-pair, or (n >= 3) its one-entry perturbation."""
    s = draw(filiform_specs())
    t = conjugate(draw, s)
    if s.n >= 3 and draw(st.booleans()):
        t = perturb(draw, t)
    return s, t


def assert_witness(s1, s2, phi):
    """phi^-1 s2.g phi == s1.g by integer products, phi integral and unimodular."""
    assert all(type(x) is int for row in phi for x in row)
    assert abs(int_det(phi)) == 1
    assert mat_mul(s2.g, phi) == mat_mul(phi, s1.g)


@settings(max_examples=40, deadline=None)
@given(filiform_specs())
def test_normalize_matches_fraction_oracle(spec):
    got, witness = filiform_normalize(spec)
    assert (got, witness) == fraction_filiform_normalize(spec)
    assert_witness(got, spec, witness)


@settings(max_examples=25, deadline=None)
@given(spec_pairs())
def test_isomorphic_matches_sign_loop_oracle(pair):
    s1, s2 = pair
    got = filiform_isomorphic(s1, s2)
    assert got == sign_loop_filiform_isomorphic(s1, s2)
    if got[0]:
        assert_witness(s1, s2, got[1])
    else:
        assert got[1] is None


@settings(max_examples=40, deadline=None)
@given(filiform_specs(), st.data())
def test_isomorphism_is_an_equivalence(s, data):
    assert filiform_isomorphic(s, s) == (True, mat_identity(s.n))
    t = conjugate(data.draw, s)
    r = conjugate(data.draw, t)
    for a, b in ((s, t), (t, s), (t, r), (s, r)):
        ans, phi = filiform_isomorphic(a, b)
        assert ans
        assert_witness(a, b, phi)
    if s.n >= 3:
        v = perturb(data.draw, t)
        forward, backward = filiform_isomorphic(s, v), filiform_isomorphic(v, s)
        assert forward[0] == backward[0]
        if forward[0]:
            assert_witness(s, v, forward[1])
            assert_witness(v, s, backward[1])
