import random
from fractions import Fraction as F

import pytest

from nillat.errors import InputError, PreconditionError
from nillat.groups import (
    Example5G,
    Filiform,
    HeisQuad,
    HeisenbergDual,
    Presentation,
    TStarH1,
    TriD,
    check_relations,
    commutator,
    element,
    example5_exp,
    example5_log,
    example5_model,
    filiform_action_power,
    filiform_presentation,
    filiform_standard_assignment,
    identity,
    inverse,
    multiply,
    power,
    standard_filiform_action,
    symbolic_associativity_holds,
    symbolic_product_is_integral,
    trid_presentation,
    trid_standard_assignment,
)
from nillat.intlattice import mat_identity, mat_mul

ALL_MODELS = [
    HeisenbergDual(),
    HeisQuad(2),
    HeisQuad(-2),
    HeisQuad(5),
    TStarH1(),
    TriD(2, 2, 6),
    Example5G(),
    Filiform(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]]),
]


def test_heisquad_spec_product():
    hq = HeisQuad(2)
    prod = multiply(hq, element(hq, [1, 0, 0, 0, 0, 0]), element(hq, [0, 0, 1, 0, 0, 0]))
    assert [int(c) for c in prod.coords] == [1, 0, 1, 0, 1, 0]


def test_tstar_spec_product():
    ts = TStarH1()
    prod = multiply(ts, element(ts, [0, 0, 0, 0, 1, 0]), element(ts, [0, 0, 0, 0, 0, 1]))
    assert [int(c) for c in prod.coords] == [1, 0, 0, 0, 1, 1]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}{m.params()}")
def test_identity_and_inverse(model):
    e = identity(model)
    x = element(model, [1] * model.dim)
    assert multiply(model, x, e) == x
    assert multiply(model, e, x) == x
    assert multiply(model, x, inverse(model, x)) == e
    assert inverse(model, e) == e


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}{m.params()}")
def test_associativity_polynomial_identity(model):
    # identity in all 3*dim coordinates: covers every rational grid at once
    assert symbolic_associativity_holds(model)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}{m.params()}")
def test_associativity_sampled(model):
    rng = random.Random(17)
    for _ in range(200):
        a, b, c = (
            element(model, [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(model.dim)])
            for _ in range(3)
        )
        assert multiply(model, multiply(model, a, b), c) == multiply(model, a, multiply(model, b, c))


@pytest.mark.parametrize(
    "model", [m for m in ALL_MODELS if m.kind != "Filiform"], ids=lambda m: f"{m.kind}{m.params()}"
)
def test_lattice_closure_central_models(model):
    # product polynomial has integer coefficients, so integral points are closed
    assert symbolic_product_is_integral(model)
    rng = random.Random(3)
    for _ in range(50):
        a = element(model, [rng.randint(-4, 4) for _ in range(model.dim)])
        b = element(model, [rng.randint(-4, 4) for _ in range(model.dim)])
        assert multiply(model, a, b).is_integral
        assert inverse(model, a).is_integral


def test_lattice_closure_filiform():
    model = Filiform(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]])
    rng = random.Random(4)
    for _ in range(80):
        a = element(model, [rng.randint(-4, 4) for _ in range(4)])
        b = element(model, [rng.randint(-4, 4) for _ in range(4)])
        assert multiply(model, a, b).is_integral
        assert inverse(model, a).is_integral


def test_trid_presentation_holds():
    model = TriD(2, 2, 6)
    ok, failing = check_relations(model, trid_standard_assignment(model), trid_presentation(2, 2, 6))
    assert ok, failing


def test_trid_wrong_exponent_fails():
    model = TriD(2, 2, 6)
    bad = trid_presentation(1, 2, 6)  # y2 y3 = y3 y2 z1^1 instead of z1^2
    ok, failing = check_relations(model, trid_standard_assignment(model), bad)
    assert not ok
    assert failing == ([("y2", 1), ("y3", 1)], [("y3", 1), ("y2", 1), ("z1", 1)])


def test_filiform_presentation_holds():
    g = [[1, 0, 0, 0], [2, 1, 0, 0], [1, 3, 1, 0], [5, 0, 4, 1]]
    model = Filiform(4, g)
    ok, failing = check_relations(
        model, filiform_standard_assignment(model), filiform_presentation(4, g)
    )
    assert ok, failing


def test_check_relations_requires_full_assignment():
    model = TriD(1, 1, 1)
    assignment = trid_standard_assignment(model)
    del assignment["y3"]
    with pytest.raises(InputError):
        check_relations(model, assignment, trid_presentation(1, 1, 1))


def test_trid_center_and_derived_by_commutators():
    model = TriD(2, 2, 6)
    gens = trid_standard_assignment(model)
    # commutators of the y generators generate exactly (d1 Z, d2 Z, d3 Z, 0, 0, 0)
    comms = []
    for i, j in ((2, 3), (3, 1), (1, 2)):
        c = commutator(model, gens[f"y{i}"], gens[f"y{j}"])
        assert all(x == 0 for x in c.coords[3:])
        comms.append([int(x) for x in c.coords[:3]])
    assert sorted(comms) == sorted([[2, 0, 0], [0, 2, 0], [0, 0, 6]])
    # the z generators are central
    for i in range(1, 4):
        for g in gens.values():
            assert commutator(model, gens[f"z{i}"], g) == identity(model)


def _binom(n, r):
    if r < 0:
        return 0
    out = 1
    for t in range(r):
        out = out * (n - t) // (t + 1)
    return out


def test_filiform_binomial_action():
    g0 = standard_filiform_action(4)
    model = Filiform(4, g0)

    for k in range(-10, 11):
        pw = filiform_action_power(g0, k)
        for i in range(4):
            for j in range(4):
                assert pw[i][j] == (_binom(k, i - j) if i >= j else 0)
        # the model's rational action agrees at integer times
        z = element(model, [0, 0, 0, 0, 1])
        v = element(model, [1, 2, 3, 4, 0])
        moved = multiply(model, power(model, z, k), v)
        expect = [sum(pw[i][j] * [1, 2, 3, 4][j] for j in range(4)) for i in range(4)]
        assert [int(c) for c in moved.coords[:4]] == expect


def test_filiform_action_power_inverse():
    g = [[1, 0, 0], [6, 1, 0], [1, 9, 1]]
    assert mat_mul(filiform_action_power(g, -1), g) == mat_identity(3)


def test_filiform_action_power_rejects_non_integer_entry():
    with pytest.raises(InputError, match="not an integer"):
        filiform_action_power([[1, 0, 0], [F(13, 2), 1, 0], [1, 9, 1]], 2)


def test_filiform_model_rejects_non_integer_entry():
    # int() would read 13/2 as 6
    with pytest.raises(InputError, match="not an integer"):
        Filiform(3, [[1, 0, 0], [F(13, 2), 1, 0], [1, 9, 1]])
    assert Filiform(3, [[1, 0, 0], [F(6), 1, 0], [1, 9.0, 1]]).g[1][0] == 6


def test_filiform_model_rejects_degenerate():
    with pytest.raises(PreconditionError):
        Filiform(3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    with pytest.raises(InputError):
        Filiform(3, [[1, 0, 0], [1, 1, 0], [0, 1, 2]])


def test_example5_exp_log():
    assert example5_exp([0] * 6) == identity(example5_model())
    e = example5_exp([1, 1, 1, 0, 0, 0])
    assert list(e.coords) == [1, 1, 1, F(1, 2), F(1, 2), F(1, 2)]
    # central directions: x = 0 is fixed by log
    z = element(example5_model(), [0, 0, 0, 3, -2, 7])
    assert example5_log(z) == [F(0), F(0), F(0), F(3), F(-2), F(7)]
    rng = random.Random(9)
    for _ in range(50):
        v = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
        assert example5_log(example5_exp(v)) == v
    # one-parameter subgroup property
    for _ in range(30):
        v = [F(rng.randint(-3, 3)) for _ in range(6)]
        s, t = F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 3)
        lhs = multiply(
            example5_model(),
            example5_exp([s * c for c in v]),
            example5_exp([t * c for c in v]),
        )
        assert lhs == example5_exp([(s + t) * c for c in v])


def test_model_mismatch_rejected():
    a = element(TriD(1, 1, 1), [0] * 6)
    with pytest.raises(InputError):
        multiply(TriD(2, 2, 6), a, a)


def test_explicit_inverse_examples():
    ts = TStarH1()
    x = element(ts, [0, 0, 0, 1, 1, 0])
    assert multiply(ts, x, inverse(ts, x)) == identity(ts)
    td = TriD(1, 1, 1)
    y = element(td, [0, 0, 0, 1, 0, 0])
    yi = inverse(td, y)
    # base part negates; central part picks up the bilinear correction
    assert [int(c) for c in yi.coords[3:]] == [-1, 0, 0]
    assert multiply(td, y, yi) == identity(td)


def test_presentation_rejects_undeclared_generator():
    with pytest.raises(InputError):
        Presentation(["y1"], [([("y1", 1)], [("y2", 1)])])


def test_heisquad_rejects_bad_parameters():
    with pytest.raises(InputError):
        HeisQuad(0)
    with pytest.raises(InputError):
        HeisQuad(12)
    assert HeisQuad(-2).congruence_case == 2
    assert HeisQuad(-7).congruence_case == 1  # -7 = 1 (mod 4)
