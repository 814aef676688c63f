"""JSON encoding/decoding of the domain objects.

Schemas (1-based indices on the wire, 0-based in memory):

  LieAlgebra   {"dim": n, "brackets": [[i, j, [[k, "p/q"], ...]], ...]}
  CommAlgebra  {"dim": n, "unit": [...], "products": [[i, j, [[k, "p/q"], ...]], ...]}
  Matrix       rows of "p/q" strings or integers
  GroupModel   {"kind": "...", "params": {...}}
  GroupElement {"coords": ["p/q", ...]}
  Presentation {"gens": [...], "relations": [{"lhs": [["y2", 1], ...], "rhs": [...]}]}
  FiliformLatticeSpec {"n": 3, "g": [[1,0,0],[6,1,0],[1,9,1]]}

Rationals serialize as integers when integral, else as "p/q" strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .errors import InputError
from .matrix import Matrix, parse_int


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise InputError("booleans are not numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {x!r}") from exc
    raise InputError(f"bad rational {x!r}")


def dump_rational(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_lie_algebra(doc: Any) -> LieAlgebra:
    from .liealg import LieAlgebra

    try:
        dim = parse_int(doc["dim"], "dim")
        brackets = {}
        for i, j, comps in doc.get("brackets", []):
            brackets[(parse_int(i, "index") - 1, parse_int(j, "index") - 1)] = {
                parse_int(k, "index") - 1: parse_rational(c) for k, c in comps
            }
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed Lie algebra document: {exc}") from exc
    return LieAlgebra(dim, brackets)


def dump_lie_algebra(L: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(L.brackets):
        comps = [[k + 1, dump_rational(c)] for k, c in sorted(L.brackets[(i, j)].items())]
        brackets.append([i + 1, j + 1, comps])
    return {"dim": L.dim, "brackets": brackets}


def parse_comm_algebra(doc: Any) -> CommAlgebra:
    from .commalg import CommAlgebra

    try:
        dim = parse_int(doc["dim"], "dim")
        unit = [parse_rational(c) for c in doc["unit"]]
        products = {}
        for i, j, comps in doc.get("products", []):
            products[(parse_int(i, "index") - 1, parse_int(j, "index") - 1)] = {
                parse_int(k, "index") - 1: parse_rational(c) for k, c in comps
            }
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed commutative algebra document: {exc}") from exc
    return CommAlgebra(dim, products, unit)


def parse_matrix(doc: Any) -> Matrix:
    if not isinstance(doc, list):
        raise InputError("matrix must be an array of rows")
    return Matrix([[parse_rational(x) for x in row] for row in doc])


def dump_matrix(m: Matrix) -> list:
    return [[dump_rational(x) for x in row] for row in m.data]


def dump_vector(v) -> list:
    return [dump_rational(Fraction(x)) for x in v]


def parse_group_model(doc: Any) -> GroupModel:
    from .groups import Example5G, Filiform, HeisenbergDual, HeisQuad, TriD, TStarH1

    try:
        kind = doc["kind"]
        params = doc.get("params", {})
    except (KeyError, TypeError) as exc:
        raise InputError("malformed group model document") from exc
    if kind == "HeisenbergDual":
        return HeisenbergDual()
    if kind == "TStarH1":
        return TStarH1()
    if kind == "Example5G":
        return Example5G()
    if kind == "HeisQuad":
        return HeisQuad(parse_int(params["d"], "d"))
    if kind == "TriD":
        d = params["d"]
        return TriD(*(parse_int(d[t], "d") for t in range(3)))
    if kind == "Filiform":
        g = [[parse_int(x, "action matrix entry") for x in row] for row in params["g"]]
        return Filiform(parse_int(params["n"], "n"), g)
    raise InputError(f"unknown group model kind {kind!r}")


def dump_group_model(model: GroupModel) -> dict:
    return {"kind": model.kind, "params": model.params()}


def parse_group_element(model: GroupModel, doc: Any) -> GroupElement:
    from .groups import element

    try:
        coords = [parse_rational(c) for c in doc["coords"]]
    except (KeyError, TypeError) as exc:
        raise InputError("malformed group element document") from exc
    return element(model, coords)


def dump_group_element(el: GroupElement) -> dict:
    return {"coords": dump_vector(el.coords)}


def parse_presentation(doc: Any) -> Presentation:
    from .groups import Presentation

    try:
        gens = [str(g) for g in doc["gens"]]
        rels = []
        for rel in doc["relations"]:
            lhs = [(str(g), parse_int(e, "exponent")) for g, e in rel["lhs"]]
            rhs = [(str(g), parse_int(e, "exponent")) for g, e in rel["rhs"]]
            rels.append((lhs, rhs))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed presentation document") from exc
    return Presentation(gens, rels)


def parse_filiform_spec(doc: Any) -> FiliformLatticeSpec:
    from .classify import FiliformLatticeSpec

    try:
        return FiliformLatticeSpec(parse_int(doc["n"], "n"), doc["g"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed filiform lattice document") from exc


def dump_filiform_spec(spec: FiliformLatticeSpec) -> dict:
    return {"n": spec.n, "g": [list(r) for r in spec.g]}


def parse_int_matrix(doc: Any) -> list[list[int]]:
    m = parse_matrix(doc)
    if not m.is_integral:
        raise InputError("matrix must have integer entries")
    return m.to_int_rows()


def parse_alternating_form(L: LieAlgebra, doc: Any):
    from .cocycles import AlternatingForm

    return AlternatingForm(L, parse_matrix(doc))
