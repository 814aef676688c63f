"""Coordinate models of the nilpotent groups, with exact polynomial products.

Every model multiplies through ring-agnostic formulas (only + and * of the
coordinate entries), so the same code path runs on Fractions for group
arithmetic and on polynomials for identity checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InternalError, PreconditionError
from .intlattice import _ints, mat_identity, mat_mul
from .matrix import Matrix, Q, nilpotent_log, nilpotency_index, _frac


class GroupModel:
    """Base: a coordinate group of dimension `dim` with a closed-form product."""

    kind: str = "?"
    dim: int = 0
    # coordinates that receive bilinear correction terms (the "central" block);
    # all remaining coordinates add up componentwise.
    central_slots: tuple[int, ...] = ()

    def product(self, a: Sequence, b: Sequence) -> list:
        raise NotImplementedError

    def identity_coords(self) -> list[Fraction]:
        return [Q(0)] * self.dim

    def inverse_coords(self, coords: Sequence) -> list[Fraction]:
        cand = [-_frac(x) for x in coords]
        defect = self.product(list(coords), cand)
        for s in self.central_slots:
            cand[s] -= defect[s]
        check = self.product(list(coords), cand)
        if any(x != 0 for x in check):
            raise InternalError("inverse construction failed")  # pragma: no cover
        return cand

    def params(self) -> dict:
        return {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupModel)
            and self.kind == other.kind
            and self.params() == other.params()
        )

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.params().items(), key=str))))


class HeisenbergDual(GroupModel):
    """Unitriangular 3x3 matrices over the dual numbers Z[eps], eps^2 = 0.

    Coordinates (x1..x6): top-middle entry x1 + eps x2, middle-right
    x3 + eps x4, top-right x5 + eps x6.
    """

    kind = "HeisenbergDual"
    dim = 6
    central_slots = (4, 5)

    def product(self, a, b):
        return [
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4] + a[0] * b[2],
            a[5] + b[5] + a[0] * b[3] + a[1] * b[2],
        ]


class HeisQuad(GroupModel):
    """Quadratic-ring Heisenberg lattice model with parameter d (squarefree, nonzero).

    d = 2,3 (mod 4):  x5'' = x5+y5+x1 y3 + d x2 y4,   x6'' = x6+y6+x1 y4+x2 y3
    d = 1   (mod 4):  x5'' = x5+y5+x1 y3 + (d-1)/4 x2 y4,
                      x6'' = x6+y6+x1 y4+x2 y3+x2 y4
    """

    kind = "HeisQuad"
    dim = 6
    central_slots = (4, 5)

    def __init__(self, d: int):
        from .quadratic import squarefree_part

        if d == 0:
            raise InputError("parameter d must be nonzero")
        if squarefree_part(d) != d:
            raise InputError("parameter d must be squarefree")
        self.d = d
        self.congruence_case = 1 if d % 4 == 1 else 2

    def params(self):
        return {"d": self.d}

    def product(self, a, b):
        d = self.d
        out = [a[i] + b[i] for i in range(6)]
        if self.congruence_case == 2:
            out[4] = out[4] + a[0] * b[2] + d * (a[1] * b[3])
            out[5] = out[5] + a[0] * b[3] + a[1] * b[2]
        else:
            out[4] = out[4] + a[0] * b[2] + Q(d - 1, 4) * (a[1] * b[3])
            out[5] = out[5] + a[0] * b[3] + a[1] * b[2] + a[1] * b[3]
        return out


class TStarH1(GroupModel):
    """Cotangent model: (x1,x2,x3,y1,y2,y3) with x_j'' = x_j + x_j' + y_k y_l'."""

    kind = "TStarH1"
    dim = 6
    central_slots = (0, 1, 2)

    def product(self, a, b):
        return [
            a[0] + b[0] + a[4] * b[5],
            a[1] + b[1] + a[5] * b[3],
            a[2] + b[2] + a[3] * b[4],
            a[3] + b[3],
            a[4] + b[4],
            a[5] + b[5],
        ]


class TriD(GroupModel):
    """Lattice family with invariants 1 <= d1 | d2 | d3 on coordinates (a, b)."""

    kind = "TriD"
    dim = 6
    central_slots = (0, 1, 2)

    def __init__(self, d1: int, d2: int, d3: int):
        if not (1 <= d1 and d1 <= d2 and d2 <= d3 and d2 % d1 == 0 and d3 % d2 == 0):
            raise InputError("need 1 <= d1 | d2 | d3")
        self.d = (d1, d2, d3)

    def params(self):
        return {"d": list(self.d)}

    def product(self, a, b):
        d1, d2, d3 = self.d
        return [
            a[0] + b[0] + d1 * (a[4] * b[5]),
            a[1] + b[1] + d2 * (a[5] * b[3]),
            a[2] + b[2] + d3 * (a[3] * b[4]),
            a[3] + b[3],
            a[4] + b[4],
            a[5] + b[5],
        ]


class Example5G(GroupModel):
    """(x, y)(x', y') = (x + x', y_j + y_j' + x_k x_l'), {j,k,l} cyclic."""

    kind = "Example5G"
    dim = 6
    central_slots = (3, 4, 5)

    def product(self, a, b):
        return [
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3] + a[1] * b[2],
            a[4] + b[4] + a[2] * b[0],
            a[5] + b[5] + a[0] * b[1],
        ]


class Filiform(GroupModel):
    """Semidirect model (v, t)(v', t') = (v + g^t v', t + t').

    g is lower-unitriangular integer with (g - I)^{n-1} != 0; for rational t
    the action is exp(t log g), which matches the matrix powers at integers.
    """

    kind = "Filiform"

    def __init__(self, n: int, g: Sequence[Sequence[int]]):
        if n < 2:
            raise InputError("need n >= 2")
        rows = [_ints(row) for row in g]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("action matrix must be n x n")
        for i in range(n):
            if rows[i][i] != 1 or any(rows[i][j] != 0 for j in range(i + 1, n)):
                raise InputError("action matrix must be lower-unitriangular")
        gm = Matrix(rows)
        nil = gm - Matrix.identity(n)
        if nilpotency_index(nil) != n:
            raise PreconditionError("(g - I)^(n-1) must be nonzero")
        self.n = n
        self.g = rows
        self.dim = n + 1
        log = nilpotent_log(gm)
        # powers of log g, divided by k!: g^t = sum t^k * log_pows[k]
        self._log_pows = [Matrix.identity(n)]
        term = Matrix.identity(n)
        fact = 1
        for k in range(1, n):
            term = term * log
            fact *= k
            self._log_pows.append(term.scale(Q(1, fact)))

    def params(self):
        return {"n": self.n, "g": [row[:] for row in self.g]}

    def action(self, t, vec: Sequence) -> list:
        """g^t applied to vec, ring-agnostic in t and the entries."""
        n = self.n
        out = list(vec)
        t_pow = None
        for k in range(1, len(self._log_pows)):
            t_pow = t if t_pow is None else t_pow * t
            mk = self._log_pows[k]
            for i in range(n):
                acc = None
                for j in range(n):
                    c = mk.data[i][j]
                    if c == 0:
                        continue
                    term = c * vec[j]
                    acc = term if acc is None else acc + term
                if acc is not None:
                    out[i] = out[i] + t_pow * acc
        return out

    def product(self, a, b):
        n = self.n
        moved = self.action(a[n], b[:n])
        return [a[i] + moved[i] for i in range(n)] + [a[n] + b[n]]

    def inverse_coords(self, coords):
        n = self.n
        t = _frac(coords[n])
        moved = self.action(-t, [-_frac(x) for x in coords[:n]])
        return [_frac(x) for x in moved] + [-t]


@dataclass(frozen=True)
class GroupElement:
    model: GroupModel
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_frac(x) for x in self.coords))
        if len(self.coords) != self.model.dim:
            raise InputError("coordinate length does not match model dimension")

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)


def element(model: GroupModel, coords: Sequence) -> GroupElement:
    return GroupElement(model, tuple(coords))


def identity(model: GroupModel) -> GroupElement:
    return element(model, model.identity_coords())


def multiply(model: GroupModel, a: GroupElement, b: GroupElement) -> GroupElement:
    if a.model != model or b.model != model:
        raise InputError("elements belong to a different model")
    return element(model, model.product(list(a.coords), list(b.coords)))


def inverse(model: GroupModel, a: GroupElement) -> GroupElement:
    if a.model != model:
        raise InputError("element belongs to a different model")
    return element(model, model.inverse_coords(list(a.coords)))


def power(model: GroupModel, a: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return power(model, inverse(model, a), -k)
    out = identity(model)
    base = a
    while k:
        if k & 1:
            out = multiply(model, out, base)
        base = multiply(model, base, base)
        k >>= 1
    return out


def commutator(model: GroupModel, a: GroupElement, b: GroupElement) -> GroupElement:
    """<a, b> = a^-1 b^-1 a b."""
    ai, bi = inverse(model, a), inverse(model, b)
    return multiply(model, multiply(model, multiply(model, ai, bi), a), b)


# -- presentations ---------------------------------------------------------------

Word = list[tuple[str, int]]


@dataclass
class Presentation:
    generators: list[str]
    relations: list[tuple[Word, Word]]

    def __post_init__(self):
        gens = set(self.generators)
        for lhs, rhs in self.relations:
            for g, _ in list(lhs) + list(rhs):
                if g not in gens:
                    raise InputError(f"relation uses undeclared generator {g!r}")


def evaluate_word(model: GroupModel, assignment: dict[str, GroupElement], word: Word) -> GroupElement:
    out = identity(model)
    for gen, exp in word:
        out = multiply(model, out, power(model, assignment[gen], exp))
    return out


def check_relations(
    model: GroupModel, assignment: dict[str, GroupElement], pres: Presentation
) -> tuple[bool, tuple[Word, Word] | None]:
    """Exact check of every relation; returns (ok, first failing relation)."""
    for gen in pres.generators:
        if gen not in assignment:
            raise InputError(f"assignment misses generator {gen!r}")
    for lhs, rhs in pres.relations:
        if evaluate_word(model, assignment, lhs) != evaluate_word(model, assignment, rhs):
            return False, (lhs, rhs)
    return True, None


def trid_presentation(d1: int, d2: int, d3: int) -> Presentation:
    """Generators z1..z3, y1..y3; centrality plus the three commutation relations."""
    gens = ["z1", "z2", "z3", "y1", "y2", "y3"]
    rels: list[tuple[Word, Word]] = []
    for i in range(1, 4):
        for j in range(1, 4):
            if i < j:
                rels.append(([(f"z{i}", 1), (f"z{j}", 1)], [(f"z{j}", 1), (f"z{i}", 1)]))
            rels.append(([(f"y{j}", 1), (f"z{i}", 1)], [(f"z{i}", 1), (f"y{j}", 1)]))
    rels.append(([("y2", 1), ("y3", 1)], [("y3", 1), ("y2", 1), ("z1", d1)]))
    rels.append(([("y3", 1), ("y1", 1)], [("y1", 1), ("y3", 1), ("z2", d2)]))
    rels.append(([("y1", 1), ("y2", 1)], [("y2", 1), ("y1", 1), ("z3", d3)]))
    return Presentation(gens, rels)


def trid_standard_assignment(model: TriD) -> dict[str, GroupElement]:
    out = {}
    for i in range(3):
        c = [0] * 6
        c[i] = 1
        out[f"z{i + 1}"] = element(model, c)
        c2 = [0] * 6
        c2[3 + i] = 1
        out[f"y{i + 1}"] = element(model, c2)
    return out


def filiform_presentation(n: int, g: Sequence[Sequence[int]]) -> Presentation:
    """Generators y1..yn, z with z y_i = y_i z_i z, z_i = prod_j y_j^(g[j][i])."""
    gens = [f"y{i + 1}" for i in range(n)] + ["z"]
    rels: list[tuple[Word, Word]] = []
    for i in range(n):
        for j in range(i + 1, n):
            rels.append(([(f"y{i + 1}", 1), (f"y{j + 1}", 1)], [(f"y{j + 1}", 1), (f"y{i + 1}", 1)]))
    for i in range(n):
        zi: Word = [(f"y{k + 1}", int(g[k][i])) for k in range(i + 1, n) if g[k][i]]
        rels.append(([("z", 1), (f"y{i + 1}", 1)], [(f"y{i + 1}", 1)] + zi + [("z", 1)]))
    return Presentation(gens, rels)


def filiform_standard_assignment(model: Filiform) -> dict[str, GroupElement]:
    out = {}
    for i in range(model.n):
        c = [0] * model.dim
        c[i] = 1
        out[f"y{i + 1}"] = element(model, c)
    z = [0] * model.dim
    z[model.n] = 1
    out["z"] = element(model, z)
    return out


def standard_filiform_action(n: int) -> list[list[int]]:
    """g0 = I + E_{2,1} + E_{3,2} + ... + E_{n,n-1}."""
    g = mat_identity(n)
    for i in range(1, n):
        g[i][i - 1] = 1
    return g


def filiform_action_power(g: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Exact integer power g^p of a unitriangular matrix (negative p via inverse)."""
    rows = [_ints(row) for row in g]
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != n or rows[i][i] != 1 or any(rows[i][j] != 0 for j in range(i + 1, n)):
            raise InputError("matrix must be lower-unitriangular")
    if p < 0:
        inv = Matrix(rows).inverse()
        rows = inv.to_int_rows()
        p = -p
    out = mat_identity(n)
    base = rows
    while p:
        if p & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        p >>= 1
    return out


# -- the explicit exp/log of the Example5G model -----------------------------------

_EX5 = Example5G()


def example5_exp(x: Sequence) -> GroupElement:
    """exp(a, b) = (a, b_j + a_k a_l / 2), derived from the one-parameter subgroups."""
    a = [_frac(v) for v in x]
    if len(a) != 6:
        raise InputError("need 6 coordinates")
    return element(
        _EX5,
        [
            a[0],
            a[1],
            a[2],
            a[3] + a[1] * a[2] / 2,
            a[4] + a[2] * a[0] / 2,
            a[5] + a[0] * a[1] / 2,
        ],
    )


def example5_log(sigma: GroupElement) -> list[Fraction]:
    """Inverse of example5_exp: (x, y_j - x_k x_l / 2)."""
    if sigma.model != _EX5:
        raise InputError("element is not in the Example5G model")
    s = list(sigma.coords)
    return [
        s[0],
        s[1],
        s[2],
        s[3] - s[1] * s[2] / 2,
        s[4] - s[2] * s[0] / 2,
        s[5] - s[0] * s[1] / 2,
    ]


def example5_model() -> Example5G:
    return _EX5


# -- symbolic verification helpers -------------------------------------------------


def symbolic_associativity_holds(model: GroupModel) -> bool:
    """(st)u == s(tu) as an identity of polynomials in all 3*dim coordinates."""
    from .multipoly import Poly, poly_vector

    d = model.dim
    arity = 3 * d
    a = poly_vector(arity, 0, d)
    b = poly_vector(arity, d, d)
    c = poly_vector(arity, 2 * d, d)
    lhs = model.product(model.product(a, b), c)
    rhs = model.product(a, model.product(b, c))
    zero = Poly(arity, {})
    return all((x - y) == zero for x, y in zip(lhs, rhs))


def symbolic_product_is_integral(model: GroupModel) -> bool:
    """True when the product polynomial has integer coefficients."""
    from .multipoly import poly_vector

    d = model.dim
    a = poly_vector(2 * d, 0, d)
    b = poly_vector(2 * d, d, d)
    prod = model.product(a, b)
    return all(c.denominator == 1 for comp in prod for c in comp.terms.values())
