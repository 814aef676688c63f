import random
from fractions import Fraction as F
from math import isqrt

import pytest

from helpers import cf_period, fundamental_unit_box_search, fundamental_unit_full_period
from nillat.quadratic import squarefree_part
from nillat import quadratic
from nillat.errors import InputError, PreconditionError
from nillat.quadratic import (
    HALF,
    SQRT,
    abs_embedding_vs_one,
    element,
    embedding_greater_than,
    embedding_sign,
    format_element,
    fundamental_unit,
    one,
    ring_of_integers,
    unit_exponent,
    unit_group,
    unit_torsion,
)


def test_ring_kinds():
    assert ring_of_integers(5).basis_kind == HALF
    assert ring_of_integers(2).basis_kind == SQRT
    assert ring_of_integers(-1).basis_kind == SQRT
    assert ring_of_integers(-3).basis_kind == HALF
    with pytest.raises(InputError):
        ring_of_integers(12)
    with pytest.raises(InputError):
        ring_of_integers(1)


def test_ring_arithmetic_half():
    r5 = ring_of_integers(5)
    w = element(r5, 0, 1)  # (1+sqrt5)/2
    assert (w * w).a == 1 and (w * w).b == 1  # w^2 = w + 1
    assert w.norm() == -1
    assert w.conjugate().a == 1 and w.conjugate().b == -1
    assert (w * w.inverse()) == one(r5)


def test_fundamental_units_small():
    assert str(fundamental_unit(2)) == "1+sqrt2"
    assert str(fundamental_unit(3)) == "2+sqrt3"
    assert str(fundamental_unit(5)) == "(1+sqrt5)/2"


def test_fundamental_unit_norm_and_size():
    for m in (2, 3, 5, 7, 11, 13, 94):
        eps = fundamental_unit(m)
        assert abs(eps.norm()) == 1
        assert embedding_greater_than(eps, F(1))


def test_fundamental_unit_minimality_box():
    for m in range(2, 51):
        if squarefree_part(m) != m:
            continue
        cf = fundamental_unit(m)
        box = fundamental_unit_box_search(m)
        assert (cf.a, cf.b) == (box.a, box.b), m


def _is_squarefree(m):
    return all(m % (d * d) for d in range(2, isqrt(m) + 1))


def test_fundamental_unit_matches_full_period():
    # half a period and one balanced product against the continuant recurrence over the whole period
    rng = random.Random(23)
    seeded = []
    while len(seeded) < 100:
        m = rng.randrange(2000, 10 ** 7)
        if _is_squarefree(m):
            seeded.append(m)
    ms = [m for m in range(2, 2000) if _is_squarefree(m)] + seeded
    shapes = set()
    for m in ms:
        cf, full = fundamental_unit(m), fundamental_unit_full_period(m)
        assert (cf.a, cf.b) == (full.a, full.b), m
        half = len(cf_period(m)) - 1  # length of the palindrome after a_0
        shapes.add((m % 4 == 1, half if half < 2 else "even" if half % 2 == 0 else "odd"))
    assert shapes == {(r, s) for r in (False, True) for s in (0, 1, "odd", "even")}


def _squarefree_by_squares(n):
    """n divided by d^2 for every d >= 2 whose square still divides it."""
    s, d = abs(n), 2
    while d * d <= s:
        while s % (d * d) == 0:
            s //= d * d
        d += 1
    return s if n > 0 else -s


def test_squarefree_part_matches_division_by_squares():
    # k q^2 and k q1 q2 with each prime above |n|^(1/3): the trial division stops at p^3 > what is left
    # and finds a cofactor of two large primes
    rng = random.Random(29)
    primes = [q for q in range(500, 1000) if all(q % d for d in range(2, isqrt(q) + 1))]
    ns = [1, -1, 2, -4, 8, 27 * 8, 2 ** 20, -(3 ** 7)] + [rng.randint(-10 ** 8, 10 ** 8) or 1 for _ in range(60)]
    for _ in range(40):
        k, q1, q2 = rng.choice((1, -1)) * rng.randint(1, 30), rng.choice(primes), rng.choice(primes)
        assert min(q1, q2) ** 3 > abs(k * q1 * q2)
        ns += [k * q1 * q1, k * q1 * q2, k * q1 * q2 * q2]
    for n in ns:
        assert squarefree_part(n) == _squarefree_by_squares(n), n


def test_torsion_groups():
    assert unit_torsion(-1).torsion == "C4"
    assert unit_torsion(-3).torsion == "C6"
    assert unit_torsion(-2).torsion == "C2"
    assert unit_torsion(-7).torsion == "C2"
    with pytest.raises(InputError):
        unit_torsion(3)


def test_unit_group_description():
    real = unit_group(5)
    assert real.torsion == "C2" and real.fundamental is not None
    imag = unit_group(-1)
    assert imag.torsion == "C4" and imag.fundamental is None


def test_unit_exponent_roundtrip():
    r = ring_of_integers(3)
    eps = fundamental_unit(3)
    x = one(r)
    for n in range(6):
        assert unit_exponent(r, x) == n
        assert unit_exponent(r, -x) == n
        x = x * eps
    inv = eps.inverse()
    assert unit_exponent(r, inv * inv) == -2
    assert unit_exponent(r, element(r, 5, 0)) is None  # not a unit


def test_unit_exponent_runaway_bound(monkeypatch):
    # one multiplication per step: lowered from 10**6 so that units past the bound stay cheap
    monkeypatch.setattr(quadratic, "_MAX_EXPONENT", 3)
    r = ring_of_integers(3)
    eps = fundamental_unit(3)
    assert unit_exponent(r, eps * eps * eps) == 3
    inv = eps.inverse()
    for x in (eps * eps * eps * eps, -(inv * inv * inv * inv * inv)):
        with pytest.raises(PreconditionError, match="^unit exponent runaway$"):
            unit_exponent(r, x)


def test_embedding_comparisons():
    r2 = ring_of_integers(2)
    eps = element(r2, 1, 1)
    assert embedding_sign(eps) == 1
    assert embedding_sign(eps, positive_root=False) < 0  # 1 - sqrt2 < 0
    assert abs_embedding_vs_one(eps) == 1
    assert abs_embedding_vs_one(eps, positive_root=False) == -1
    assert abs_embedding_vs_one(one(r2)) == 0
    rg = ring_of_integers(-1)
    assert abs_embedding_vs_one(element(rg, 0, 1)) == 0  # |i| = 1


def test_format_element():
    r2 = ring_of_integers(2)
    assert format_element(element(r2, 0, 1)) == "sqrt2"
    assert format_element(element(r2, 3, -2)) == "3-2sqrt2"
    assert format_element(element(r2, -4, 0)) == "-4"
    r5 = ring_of_integers(5)
    assert format_element(element(r5, 0, 1)) == "(1+sqrt5)/2"
    assert format_element(element(r5, 1, 2)) == "2+sqrt5"
    rm = ring_of_integers(-1)
    assert format_element(element(rm, 2, 3)) == "2+3sqrt(-1)"
