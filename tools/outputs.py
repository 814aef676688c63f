"""Exact outputs of the commutative-algebra, Heisenberg, centre, integer-lattice, matrix, Anosov and quadratic paths, on one checkout or a pair.

    python3 tools/outputs.py [CHECKOUT]
    python3 tools/outputs.py PARENT CHANGE

With one checkout (default: the checkout this script sits in), imports
`nillat` from CHECKOUT/src and prints one JSON document of what the
library answers on a fixed, seeded corpus:

- `radical_and_socle`, `h1_symplectic_decision`, `h1_cocycle_construct`
  (the form, or the error), the `generic_degeneracy_search` certificate
  with `h1_blocks_for_search` for every "no", and
  `hk_degeneracy_check(A, 2)` up to dim 4, on every stock commutative
  algebra, three non-local ones and 60 seeded monomial quotients of
  dim 1-12;
- `center_basis`, the ascending and descending central series, the
  nilpotency class, the centralizer of the derived algebra, whether the
  derived algebra, that centralizer and the span of the first two basis
  vectors are abelian and ideals, the bracket span of those two vectors
  with themselves and the centralizer, and the
  table of t*G (`semidirect_coadjoint`) of the stock Lie algebras, of two
  non-nilpotent ones and of H_1(A) for the stock A, and
  `classify_six_dim` on the six-dimensional normal forms (with the default
  and with a seeded complement of the centre) and on 12 seeded integer
  changes of basis of them;
- the flat symplectic tables of `flat_symplectic_structure` and
  `curvature_vanishes` on the 2-dim affine algebra and the filiform
  algebras of dim 4, 6 and 8 (each form at three scales), the
  parallelism verdict of each table against every basis form of Z^2, and
  `curvature_vanishes` on each table with one entry moved; `cybe_check`,
  `double_theta_check` and `rational_structure_for_double` (on a seeded
  integer lattice basis) on the filiform algebras of dim 2n = 4, 6, 8
  with the inverse canonical bivector, and `cybe_check` on seeded skew
  matrices; the `moment_map` components, the `moment_cocycle_identity_holds`
  verdict (or its error) and the `left_symmetric_product` table of the
  canonical filiform forms of dim 4, 6 and 8, each at the scales 1, -2
  and 3;
- the stdout document and exit code of every CLI entry point (15 simple
  commands, 5 `filiform` and 3 `symplectic` actions, `moment-map`,
  `units`, `anosov`, `charpoly`) on answered inputs and on malformed
  inputs that exit 2 and 3, run in-process through `cli.main`;
- the `StructuralError` messages for broken unit and associativity inputs;
- the integer layer on 150 seeded integer matrices of 1-7 rows and columns
  of varied density: the Smith divisors with both transforms,
  `solve_diophantine` on a solvable and on a drawn right-hand side,
  `integer_kernel_basis`, `hermite_row_basis` and `quotient_invariants` of
  a seeded sublattice; and `filiform_isomorphic` (answer and witness) with
  `central_quotients` of both specs on 6 seeded conjugated yes-pairs and 6
  one-entry no-candidates for each n = 3..8;
- `Matrix.inverse`, `Matrix.solve` (on a consistent right-hand side, on a
  drawn one and on one of the wrong length), `rank`, `det` and `charpoly`
  on 120 seeded rational matrices of 1-8 rows and columns, square, wide
  and tall, some rows combinations of the rows above; an error answers
  with its class and message ("matrix is singular", "linear system is
  inconsistent", the shape errors); and `rref_basis`, `span_dim`,
  `in_span` (of a combination, a drawn vector, the zero vector and one of
  the wrong length), `span_equal` (with the reversed list and with the
  next list), `complement_basis` (to dim - 1, dim and dim + 1) and
  `Matrix.kernel_basis` on 120 seeded lists of 0-8 vectors of dim 1-7:
  empty, zero, dependent, full-rank, ragged and with non-rational entries;
- `char_poly_pair`, `is_anosov` and `second_exterior_power` on 40 seeded
  unimodular and 20 seeded (mostly non-unimodular) 3x3 integer matrices
  and on malformed ones (wrong shape, non-integer entries), and
  `has_unit_circle_root` on 80 seeded integer polynomials, some times a
  cyclotomic factor and some times a reciprocal pair off the circle, and
  on zero, constant and monomial ones; an error answers with its class
  and message;
- `fundamental_unit` and `unit_group` on every m in [-12, 60) and on 12
  seeded squarefree m in each of the exact-decisions workload's ranges
  [2, 10^3), [10^3, 10^6) and [10^6, 2*10^9), with `unit_exponent` of
  eps^2, -eps^-1, 1 and 2 for each real m (unit coordinates in hex); and
  `squarefree_part` on 0, +-1, seeded signed integers up to 10^12, and
  seeded k*q^2, k*q1*q2 and k*q1*q2^2 (|k| <= 60, primes q, q1, q2 in
  [1000, 3000)), whose first two leave a cofactor of two primes above the
  cube root once the small divisors are gone; an error answers with its
  class and message.

With two checkouts, runs each in its own process and exits 0 if the two
documents are equal, otherwise prints every differing entry of every
section and exits 1.  Standard library only; nothing is written to disk.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def _canon(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if hasattr(x, "data") and hasattr(x, "rows"):  # Matrix
        return _canon(x.data)
    return x


def monomial_quotients(count: int, seed: int = 11) -> list[list[tuple[int, ...]]]:
    """Distinct order ideals of monomials (1 first), dims 1..12, in 1-3 variables."""
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        nv = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 4) for _ in range(nv)) for _ in range(rng.randint(1, 3))]
        ideal = {e for g in gens for e in _box(g)}
        basis = sorted(ideal, key=lambda e: (sum(e), e))
        if len(basis) <= 12 and tuple(basis) not in seen:
            seen.add(tuple(basis))
            out.append(basis)
    return out


def _box(g):
    if not g:
        return [()]
    return [(a,) + rest for a in range(g[0] + 1) for rest in _box(g[1:])]


def _commalg_section() -> list[dict]:
    from nillat import commalg, heisenberg
    from nillat.errors import NillatError

    algebras = [
        ("Q", commalg.rationals()),
        ("dual", commalg.dual_numbers()),
        ("example6", commalg.example6_algebra()),
        ("socle3", commalg.socle3_algebra()),
        ("QxQ", commalg.CommAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1])),
        ("Q(sqrt2)", commalg.CommAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 2}}, [1, 0])),
        ("QxQ[x]/x^2", commalg.CommAlgebra(3, {(0, 0): {0: 1}, (1, 1): {1: 1}, (1, 2): {2: 1}}, [1, 1, 0])),
    ]
    algebras += [(f"Q[x]/x^{k}", commalg.truncated_polynomials(k)) for k in range(1, 13)]
    algebras += [(f"frobenius{d}", commalg.frobenius_quadratic_algebra(d))
                 for d in ([1], [1, -1], [2, 3], [1, 1, 1], [1, -2, 3, -5])]
    algebras += [(f"monomial{b}", commalg.monomial_quotient(b)) for b in monomial_quotients(60)]
    out = []
    for name, A in algebras:
        rep = commalg.radical_and_socle(A)
        d = heisenberg.h1_symplectic_decision(A)
        row = {"algebra": name, "dim": A.dim, "report": _canon(vars(rep)),
               "decision": [d.symplectic, d.reason, _canon(vars(d.report))]}
        try:
            row["construct"] = _canon(heisenberg.h1_cocycle_construct(A).matrix)
        except NillatError as exc:
            row["construct"] = f"{type(exc).__name__}: {exc}"
        if not d.symplectic:
            H = heisenberg.heisenberg_over(A, 1)
            cert = heisenberg.generic_degeneracy_search(H.algebra, blocks=heisenberg.h1_blocks_for_search(A))
            row["search"] = [cert.degenerate, cert.kind, _canon(cert.kernel_basis)]
        if A.dim <= 4:
            cert = heisenberg.hk_degeneracy_check(A, 2)
            row["hk2"] = [cert.degenerate, cert.kind, _canon(cert.kernel_basis)]
        out.append(row)
    return out


def _lie_section() -> list[dict]:
    from nillat import classify, commalg, heisenberg, jsonio, liealg
    from nillat.matrix import Matrix

    algebras = [(f"heisenberg{k}", liealg.heisenberg_algebra(k)) for k in (1, 2, 3)]
    algebras += [(f"filiform{n}", liealg.filiform_algebra(n)) for n in range(2, 7)]
    algebras += [("h1_dual", liealg.h1_dual_structure()), ("free2step", liealg.free_two_step_algebra()),
                 ("tstar_h1", liealg.semidirect_coadjoint(liealg.heisenberg_algebra(1)))]
    sixes = [(f"six{d},{v}", liealg.six_dim_quadratic_structure(d, v)) for d in (-2, -1, 2, 3, 5) for v in (1, 2)]
    algebras += sixes
    algebras += [(f"H1({name})", heisenberg.heisenberg_over(A, 1).algebra)
                 for name, A in (("dual", commalg.dual_numbers()), ("example6", commalg.example6_algebra()),
                                 ("Q[x]/x^4", commalg.truncated_polynomials(4)))]
    algebras += [("affine2", liealg.LieAlgebra(2, {(0, 1): {1: 1}})),
                 ("so3", liealg.LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}))]
    rng = random.Random(5)
    for t in range(12):
        name, L = sixes[t % len(sixes)]
        while True:
            P = Matrix([[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)])
            if P.det() != 0:
                break
        Pinv = P.inverse()
        table = {}
        for i in range(6):
            for j in range(i + 1, 6):
                comp = {k: c for k, c in enumerate(Pinv.apply(L.bracket(P.column(i), P.column(j)))) if c}
                if comp:
                    table[(i, j)] = comp
        algebras.append((f"{name} conjugated {t}", liealg.LieAlgebra(6, table)))
    out = []
    for name, L in algebras:
        derived = L.derived_basis()
        cent = L.centralizer_basis(derived)
        first = [[int(j == i) for j in range(L.dim)] for i in range(min(2, L.dim))]
        row = {"algebra": name, "center": _canon(L.center_basis()),
               "ascending": _canon(L.ascending_central_series()),
               "descending": _canon(L.descending_central_series()),
               "nilpotency_class": L.nilpotency_class() if L.is_nilpotent() else None,
               "centralizer_of_derived": _canon(cent),
               "abelian_ideal": [L.is_abelian_subspace(derived), L.is_ideal(derived),
                                 L.is_abelian_subspace(cent), L.is_ideal(cent)],
               "first_two": [L.is_ideal(first), L.is_abelian_subspace(first),
                             _canon(L.bracket_span(first, first + cent))],
               "semidirect_coadjoint": jsonio.dump_lie_algebra(liealg.semidirect_coadjoint(L))}
        if L.dim == 6 and name.startswith(("six", "h1_dual")):
            c = classify.classify_six_dim(L)
            row["classify"] = [c.family, c.d, _canon(c.witness_basis)]
            if name.startswith("six") and "conjugated" not in name:
                c = classify.classify_six_dim(L, six_dim_complement(rng))
                row["classify_seeded_complement"] = [c.family, c.d, _canon(c.witness_basis)]
        out.append(row)
    return out


def flat_cases() -> list[tuple]:
    """(name, algebra, ideal, e, form): the affine algebra and the filiform algebras of dim 4, 6, 8 with
    their abelian codimension-one ideal, each form at the scales 1, -2 and 3."""
    from nillat import liealg, symplectic
    from nillat.cocycles import AlternatingForm

    aff = liealg.LieAlgebra(2, {(0, 1): {1: 1}})
    bases = [("affine2", aff, [[0, 1]], [1, 0], AlternatingForm.from_upper_entries(aff, {(0, 1): 1}))]
    for n in (2, 3, 4):
        L = liealg.filiform_algebra(2 * n - 1)
        ideal = [[int(j == i + 1) for j in range(2 * n)] for i in range(2 * n - 1)]
        bases.append((f"filiform{2 * n}", L, ideal, [1] + [0] * (2 * n - 1), symplectic.filiform_cocycle(n)))
    return [(f"{name} x{c}", L, ideal, e, form.scale(c)) for name, L, ideal, e, form in bases for c in (1, -2, 3)]


def _symplectic_section() -> list[dict]:
    from nillat import jsonio, liealg, symplectic
    from nillat.cocycles import cocycle_space, left_symmetric_product
    from nillat.errors import NillatError
    from nillat.matrix import Matrix

    out = []
    for name, L, ideal, e, form in flat_cases():
        table = symplectic.flat_symplectic_structure(L, ideal, e, form)
        parallel = []
        for other in cocycle_space(L)[0]:
            try:
                symplectic._verify_flat_symplectic(L, other, table)
                parallel.append("parallel")
            except NillatError as exc:
                parallel.append(str(exc))
        moved = []
        for i, j, k in ((0, 0, 1), (1, 0, 0), (L.dim - 1, 1, L.dim - 1)):
            bent = [[list(v) for v in row] for row in table]
            bent[i][j][k] += 1
            moved.append(symplectic.curvature_vanishes(L, bent))
        out.append({"flat": name, "table": _canon(table), "curvature_zero": symplectic.curvature_vanishes(L, table),
                    "parallel_for_z2_basis": parallel, "curvature_with_entry_moved": moved})
    rng = random.Random(23)
    for n in (2, 3, 4):
        L = liealg.filiform_algebra(2 * n - 1)
        r = symplectic.inverse_bivector(symplectic.filiform_cocycle(n))
        ds = symplectic.double_theta_check(L, r)
        while True:
            B = [[rng.randint(-2, 2) for _ in range(2 * n)] for _ in range(2 * n)]
            if Matrix(B).det() != 0:
                break
        P, alg = symplectic.rational_structure_for_double(L, r, B)
        skew = []
        for _ in range(6):
            m = [[0] * (2 * n) for _ in range(2 * n)]
            for a in range(2 * n):
                for b in range(a + 1, 2 * n):
                    m[a][b] = rng.choice((0, 0, 1, -1, 2))
                    m[b][a] = -m[a][b]
            skew.append([m, symplectic.cybe_check(L, Matrix(m))])
        out.append({"double": 2 * n, "cybe": symplectic.cybe_check(L, r), "table": jsonio.dump_lie_algebra(ds.double),
                    "semidirect": jsonio.dump_lie_algebra(ds.semidirect), "theta": _canon(ds.theta_matrix),
                    "lattice_log": B, "rational_basis": _canon(P), "rational_structure": jsonio.dump_lie_algebra(alg),
                    "cybe_on_skew": skew})
    for n in (2, 3, 4):
        L = liealg.filiform_algebra(2 * n - 1)
        for c in (1, -2, 3):
            form = symplectic.filiform_cocycle(n).scale(c)
            try:
                identity = symplectic.moment_cocycle_identity_holds(L, form)
            except NillatError as exc:
                identity = f"{type(exc).__name__}: {exc}"
            components = [[[str(x), list(e)] for e, x in sorted(p.terms.items())]
                          for p in symplectic.moment_map(L, form).components]
            out.append({"moment": f"filiform{2 * n} x{c}", "components": components, "identity": identity,
                        "left_symmetric_product": _canon(left_symmetric_product(L, form))})
    return out


H3 = {"dim": 3, "brackets": [[1, 2, [[3, 1]]]]}
NOT_LIE = {"dim": 3, "brackets": [[1, 2, [[3, 1]]], [2, 3, [[1, 1]]], [1, 3, [[1, -1]]]]}
F4 = {"dim": 4, "brackets": [[1, 2, [[3, 1]]], [1, 3, [[4, 1]]]]}
W4 = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
TRID111 = {"kind": "TriD", "params": {"d": [1, 1, 1]}}
DEAD_FILIFORM = {"kind": "Filiform", "params": {"n": 3, "g": [[1, 0, 0], [0, 1, 0], [1, 9, 1]]}}
LOCAL3 = {"dim": 3, "unit": [1, 0, 0],
          "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [2, 2, [[3, 1]]]]}
NOT_ASSOCIATIVE = {"dim": 3, "unit": [1, 0, 0],
                   "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [2, 3, [[2, 1]]]]}
SPEC = {"n": 3, "g": [[1, 0, 0], [6, 1, 0], [14, 9, 1]]}
DEAD_SPEC = {"n": 3, "g": [[1, 0, 0], [0, 1, 0], [1, 9, 1]]}
NOT_UNITRIANGULAR = {"n": 3, "g": [[2, 0, 0], [6, 1, 0], [1, 9, 1]]}
AUT_OK = {"n": 3, "y_images": [[["y1", 1]], [["y2", 1]], [["y3", 1]]], "z_image": [["z", 1]]}
AUT_SIGNS = {"n": 3, "y_images": [[["y1", 1]], [["y2", -1]], [["y3", 1]]], "z_image": [["z", 1]]}
SYMPLECTIC_DOCS = [
    {"dim": 1, "unit": [1], "products": [[1, 1, [[1, 1]]]]},
    {"dim": 2, "unit": [1, 0], "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]]]},
    {"dim": 2, "unit": [1, 1], "products": [[1, 1, [[1, 1]]], [2, 2, [[2, 1]]]]},
    {"dim": 4, "unit": [1, 0, 0, 0],
     "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [1, 4, [[4, 1]]], [2, 2, [[3, 1]]]]},
    {"dim": 4, "unit": [1, 0, 0, 0],
     "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [1, 4, [[4, 1]]]]},
    {"dim": 2, "unit": [1, 0], "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 2]]]]},
    {"dim": 2, "unit": [1, 0], "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [2, 2, [[1, 1]]]]},
    NOT_ASSOCIATIVE,
]


def _j(command, doc) -> list[str]:
    return [*command.split(), "--json", json.dumps(doc)]


def _cli_requests() -> list[list[str]]:
    """argv lists for all 27 entry points: answers, and malformed input for exit 2 and exit 3.

    validate-lie, example5, cybe, units and filiform aut have no
    precondition (exit 3) path, so they get answers and exit 2 only.
    """
    from nillat.liealg import six_dim_quadratic_structure
    from nillat import jsonio

    six = {d: jsonio.dump_lie_algebra(six_dim_quadratic_structure(d)) for d in (-1, 2, 3)}
    reqs = [
        _j("validate-lie", H3), _j("validate-lie", NOT_LIE),
        _j("validate-lie", {"dim": 2, "brackets": [[1, 1, [[2, 1]]]]}),
        ["validate-lie", "--json", "{nope"],
        _j("central-series", H3), _j("central-series", F4), _j("central-series", {"dim": 0, "brackets": []}),
        _j("central-series", NOT_LIE),
        _j("cocycles", H3), _j("cocycles", F4), _j("cocycles", {"dim": 3.5, "brackets": []}), _j("cocycles", NOT_LIE),
        _j("classify6", six[2]), _j("classify6", {"algebra": six[-1], "complement": [[1, 0, 0, 0, 0, 0]] * 4}),
        _j("classify6", {"dim": 6, "brackets": [[1, 7, [[2, 1]]]]}), _j("classify6", H3),
        _j("commensurable", {"a": six[2], "b": six[3]}), _j("commensurable", {"a": six[2], "b": six[2]}),
        _j("commensurable", {"a": six[2]}), _j("commensurable", {"a": six[2], "b": H3}),
        _j("trid-invariants", {"model": {"kind": "TriD", "params": {"d": [2, 2, 6]}}}),
        _j("trid-invariants", {"center": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "derived": [[6, 1, 0], [0, 9, 0], [0, 0, 1]]}),
        _j("trid-invariants", {"model": {"kind": "HeisenbergDual"}}), _j("trid-invariants", {"model": DEAD_FILIFORM}),
        _j("multiply", {"model": {"kind": "TriD", "params": {"d": [2, 2, 6]}},
                        "a": {"coords": [0, 0, 0, 0, 1, 0]}, "b": {"coords": [0, 0, 0, 0, 0, 1]}}),
        _j("multiply", {"model": {"kind": "HeisQuad", "params": {"d": 5}}, "a": {"coords": [1, 2, 3, 4, 5, 6]},
                        "b": {"coords": [-1, 0, "1/2", 2, 0, 1]}, "inverse": True}),
        _j("multiply", {"model": {"kind": "Filiform", "params": SPEC}, "a": {"coords": [1, 2, 3, 4]},
                        "b": {"coords": [0, -1, 2, 1]}}),
        _j("multiply", {"model": {"kind": "HeisQuad", "params": {"d": 4}}, "a": {"coords": [0] * 6},
                        "b": {"coords": [0] * 6}}),
        _j("multiply", {"model": DEAD_FILIFORM, "a": {"coords": [0] * 4}, "b": {"coords": [0] * 4}}),
        _j("relations", {"model": TRID111,
                         "assignment": {"y1": {"coords": [0, 0, 0, 1, 0, 0]}, "y2": {"coords": [0, 0, 0, 0, 1, 0]},
                                        "y3": {"coords": [0, 0, 0, 0, 0, 1]}, "z1": {"coords": [1, 0, 0, 0, 0, 0]}},
                         "presentation": {"gens": ["y1", "y2", "y3", "z1"], "relations": [
                             {"lhs": [["y2", 1], ["y3", 1]], "rhs": [["y3", 1], ["y2", 1], ["z1", 1]]},
                             {"lhs": [["y1", 1], ["y2", 1]], "rhs": [["y2", 1], ["y1", 1]]}]}}),
        _j("relations", {"model": TRID111, "assignment": {},
                         "presentation": {"gens": ["y1"], "relations": [{"lhs": [["y1", 1]], "rhs": []}]}}),
        _j("relations", {"model": DEAD_FILIFORM, "assignment": {}, "presentation": {"gens": [], "relations": []}}),
        _j("theorem6", {"algebra": F4, "form": W4, "ideal": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                        "e": [1, 0, 0, 0]}),
        _j("theorem6", {"algebra": F4, "form": [[0, 1], [-1, 0]], "ideal": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                        "e": [1, 0, 0, 0]}),
        _j("theorem6", {"algebra": F4, "form": W4, "ideal": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                        "e": [0, 1, 0, 0]}),
        _j("orthogonal", {"algebra": F4, "form": W4, "subspace": [[0, 0, 0, 1]]}),
        _j("orthogonal", {"algebra": F4, "form": W4, "subspace": [[0, 1, 0, 0], [0, 0, 1, 0]]}),
        _j("orthogonal", {"algebra": F4, "form": W4, "subspace": [[0, 0, 0, 1, 0]]}),
        _j("orthogonal", {"algebra": F4, "form": [[0] * 4] * 4, "subspace": [[0, 0, 0, 1]]}),
        _j("example5", {"rows": [[1], [1], [1]]}), _j("example5", {"rows": [[1, 0], [0, 1], [1, 1]]}),
        _j("example5", {"exp": [1, 1, 1, 0, 0, 0]}), _j("example5", {"log": [1, 1, 1, "1/2", "1/2", "1/2"]}),
        _j("example5", {"rows": [[1], [1]]}), _j("example5", {"log": [1, 1]}),
        _j("cybe", {"algebra": F4, "r": W4}), _j("cybe", {"algebra": NOT_LIE, "r": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}),
        _j("cybe", {"algebra": F4, "r": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}),
        _j("double-theta", {"algebra": F4, "r": W4}),
        _j("double-theta", {"algebra": F4, "r": W4, "lattice_log": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                                                      [0, 0, 0, 1]]}),
        _j("double-theta", {"algebra": F4, "r": W4, "lattice_log": [[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1],
                                                                      [1, 0, 0, 1]]}),
        _j("double-theta", {"algebra": F4, "r": W4, "lattice_log": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                                                                      [0, 0, 0, 1, 0]]}),
        _j("double-theta", {"algebra": F4, "r": [[0, 1], [-1, 0]]}),
        _j("double-theta", {"algebra": F4, "r": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}),
        _j("gamma111-aut", {"matrix": [[1, 5, 2], [2, -1, -1], [3, 2, 0]]}),
        _j("gamma111-aut", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "central": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]}),
        _j("gamma111-aut", {"matrix": [[1, 0], [0, 1]]}), _j("gamma111-aut", {"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        _j("phi-aut", {"m": 2, "alpha": [1, 1], "beta": [1, 1]}), _j("phi-aut", {"m": 5, "alpha": [0, 1], "beta": [1, -1]}),
        _j("phi-aut", {"m": -1, "alpha": [0, 1], "beta": [1, 0]}),
        _j("phi-aut", {"m": 4, "alpha": [1, 1], "beta": [1, 1]}), _j("phi-aut", {"m": 2, "alpha": [2, 0], "beta": [1, 1]}),
        _j("filiform normalize", SPEC), _j("filiform normalize", {"n": 4, "g": [[1, 0, 0, 0], [-4, 1, 0, 0],
                                                                              [3, 8, 1, 0], [5, -7, 2, 1]]}),
        _j("filiform normalize", NOT_UNITRIANGULAR), _j("filiform normalize", DEAD_SPEC),
        _j("filiform theta", SPEC), _j("filiform theta", {"n": "3", "g": SPEC["g"]}), _j("filiform theta", DEAD_SPEC),
        _j("filiform quotients", SPEC), _j("filiform quotients", {"n": 2, "g": [[1, 0], [6, 1]]}),
        _j("filiform quotients", {"g": SPEC["g"]}), _j("filiform quotients", DEAD_SPEC),
        ["filiform", "isom", "--a", json.dumps({"n": 3, "g": [[1, 0, 0], [6, 1, 0], [1, 9, 1]]}),
         "--b", json.dumps({"n": 3, "g": [[1, 0, 0], [6, 1, 0], [2, 9, 1]]})],
        ["filiform", "isom", "--a", json.dumps(SPEC), "--b", json.dumps({"n": 3, "g": [[1, 0, 0], [6, 1, 0], [2, 9, 1]]})],
        ["filiform", "isom", "--a", json.dumps(SPEC)],
        ["filiform", "isom", "--a", json.dumps(DEAD_SPEC), "--b", json.dumps(SPEC)],
        _j("filiform aut", AUT_OK), _j("filiform aut", AUT_SIGNS),
        _j("filiform aut", {"n": 3, "y_images": [[["y1", 1]]], "z_image": [["z", 1]]}),
        _j("filiform aut", {"n": 3, "y_images": [[["y1", 1]], [["y2", 1]], [["w", 1]]], "z_image": [["z", 1]]}),
        _j("moment-map", {"algebra": F4, "form": W4}), _j("moment-map", {"algebra": F4, "form": W4, "verify_identity": True}),
        ["moment-map", "--verify", "--json", json.dumps({"algebra": F4, "form": W4})],
        _j("moment-map", {"algebra": F4, "form": [[0, 1], [-1, 0]]}),
        _j("moment-map", {"algebra": F4, "form": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}),
        ["units", "-m", "2"], ["units", "-m", "5"], ["units", "-m", "-3"], ["units", "-m", "-1"], ["units", "-m", "94"],
        ["units", "-m", "12"], ["units", "-m", "1"],
        ["anosov", "--matrix", "1,5,2;2,-1,-1;3,2,0"], ["anosov", "--matrix", "1,0,0;0,1,0;0,0,1"],
        _j("anosov", {"matrix": [[2, 1, 0], [1, 1, 0], [0, 0, 1]]}),
        ["anosov", "--matrix", "1,0;0,1"], _j("anosov", {"matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}),
        ["charpoly", "--matrix", "1,5,2;2,-1,-1;3,2,0"], _j("charpoly", [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        ["charpoly", "--matrix", "1,x,0;0,1,0;0,0,1"], _j("charpoly", [[1, 2, 3], [4, 5, 6], [7, 8, 10]]),
    ]
    for doc in SYMPLECTIC_DOCS:
        for action in ("decide", "construct", "hk-check"):
            reqs.append(_j("symplectic " + action, {"algebra": doc, "k": 2} if action == "hk-check" else doc))
    reqs += [_j("symplectic decide", {"dim": 1.5, "unit": [1], "products": []}),
             _j("symplectic construct", {"dim": 1, "products": []}),
             _j("symplectic construct", LOCAL3),
             _j("symplectic hk-check", {"algebra": LOCAL3, "k": "2"}),
             _j("symplectic hk-check", {"algebra": LOCAL3, "k": 1})]
    return reqs


def _cli_section() -> list[dict]:
    from nillat import cli

    out = []
    for argv in _cli_requests():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    return out


def _error_section() -> list[str]:
    from nillat.commalg import CommAlgebra
    from nillat.errors import StructuralError

    broken = [
        (2, {(0, 0): {0: 1}, (0, 1): {1: 1}}, [0, 1]),                     # unit is not a unit
        (2, {(0, 0): {0: 1}, (0, 1): {1: 2}}, [1, 0]),                     # e_0 e_1 = 2 e_1
        (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: 1}, (1, 2): {1: 1}}, [1, 0, 0]),
        (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {1: 1}, (2, 2): {1: 1}}, [1, 0, 0]),
        (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {2: 1}}, [1, 0, 0]),
    ]
    out = []
    for dim, products, unit in broken:
        try:
            CommAlgebra(dim, products, unit)
            out.append("accepted")
        except StructuralError as exc:
            out.append(str(exc))
    return out


def _anosov_section() -> list[dict]:
    from nillat import anosov
    from nillat.errors import NillatError

    def answer(fn, *args):
        try:
            return _canon(fn(*args))
        except (NillatError, TypeError) as exc:  # a row that is no sequence raises TypeError
            return f"{type(exc).__name__}: {exc}"

    def times(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    rng = random.Random(41)
    mats = []
    for _ in range(40):  # unimodular: products of elementary matrices, about half with a row negated
        b = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(rng.randint(1, 8)):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            for row in b:
                row[j] += q * row[i]
        if rng.random() < 0.5:
            b[0] = [-x for x in b[0]]
        mats.append(b)
    mats += [[[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)] for _ in range(20)]
    mats += [
        [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 5, 2], [2, -1, -1], [3, 2, Fraction(1, 2)]], [[1, 5, 2.7], [2, -1, -1], [3, 2, 0]],
        [[1, 5, 2.0], [2, -1, -1], [3, 2, 0]], [[1, 5, "2"], [2, -1, -1], [3, 2, 0]],
        [[1, 5, None], [2, -1, -1], [3, 2, 0]], [[True, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3], [],
    ]
    out = []
    for b in mats:
        out.append({"matrix": _canon(b), "char_poly_pair": answer(anosov.char_poly_pair, b),
                    "is_anosov": answer(anosov.is_anosov, b),
                    "second_exterior_power": answer(anosov.second_exterior_power, b)})
    cyclotomic = ([1, 1], [-1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1], [1, 0, 0, 0, 1], [1, 1, 1, 1, 1])
    polys = [[], [0], [0, 0], [7], [-1, 0, 0], [0, 1], [0, 0, 1, 0, 0]]
    for _ in range(80):
        p = [rng.randint(-5, 5) for _ in range(rng.randint(1, 7))]
        kind = rng.random()
        if kind < 0.4:
            p = times(p, rng.choice(cyclotomic))
        elif kind < 0.6:
            p = times(p, [1, -rng.randint(3, 6), 1])  # a reciprocal pair off the circle
        polys.append(p)
    out += [{"poly": p, "has_unit_circle_root": answer(anosov.has_unit_circle_root, p)} for p in polys]
    return out


def seeded_squarefree(rng: random.Random, lo: int, hi: int, count: int, residue: int | None = None) -> list[int]:
    """count seeded squarefree m in [lo, hi), hi <= 2*10^9, with m = residue (mod 4) if one is given."""
    sieve = bytearray([1]) * 44722  # p^2 > 2*10^9 past the last prime below this
    for p in range(2, 212):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, len(sieve), p)))
    squares = [p * p for p in range(2, len(sieve)) if sieve[p]]
    out = []
    while len(out) < count:
        m = rng.randrange(lo, hi)
        if (residue is None or m % 4 == residue) and all(m % sq for sq in squares if sq <= m):
            out.append(m)
    return out


def _quadratic_section() -> list[dict]:
    from nillat import quadratic
    from nillat.errors import NillatError

    def answer(fn, *args):
        try:
            x = fn(*args)
        except NillatError as exc:
            return f"{type(exc).__name__}: {exc}"
        if isinstance(x, quadratic.RingElement):  # hex: units of large m pass json's 4300-digit limit
            return [f"{x.a:x}", f"{x.b:x}", x.ring.basis_kind]
        if isinstance(x, quadratic.UnitGroupDesc):
            return [x.torsion, None if x.fundamental is None else answer(lambda: x.fundamental)]
        return x

    rng = random.Random(43)
    ms = list(range(-12, 60))
    for lo, hi in ((2, 10 ** 3), (10 ** 3, 10 ** 6), (10 ** 6, 2 * 10 ** 9)):
        ms += seeded_squarefree(rng, lo, hi, 12)
    out = []
    for m in ms:
        entry = {"m": m, "fundamental_unit": answer(quadratic.fundamental_unit, m),
                 "unit_group": answer(quadratic.unit_group, m)}
        if isinstance(entry["fundamental_unit"], list):
            ring, eps = quadratic.ring_of_integers(m), quadratic.fundamental_unit(m)
            xs = (eps * eps, -eps.inverse(), quadratic.one(ring), quadratic.element(ring, 2, 0))
            entry["unit_exponent"] = [answer(quadratic.unit_exponent, ring, x) for x in xs]
        out.append(entry)
    big = [p for p in range(1001, 3000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    ns = [0, 1, -1] + [rng.choice((1, -1)) * rng.randrange(2, 10 ** rng.randint(2, 12)) for _ in range(60)]
    for _ in range(30):
        k = rng.choice((1, -1)) * rng.randint(1, 60)
        q1, q2 = rng.choice(big), rng.choice(big)
        ns += [k * q1 * q1, k * q1 * q2, k * q1 * q2 * q2]
    out += [{"n": n, "squarefree_part": answer(quadratic.squarefree_part, n)} for n in ns]
    return out


def six_dim_complement(rng: random.Random) -> list[list[int]]:
    """Four integer vectors of Q^6 independent of span(e5, e6), the centre of `six_dim_quadratic_structure`."""
    from nillat.matrix import Matrix

    while True:
        comp = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        if Matrix([row[:4] for row in comp]).det() != 0:
            return comp


def filiform_pairs(rng: random.Random, n: int, count: int) -> list[tuple[str, list, list]]:
    """`count` conjugated yes-pairs and `count` no-candidates (one deep entry moved) of size n."""
    pairs = []
    for kind in ("yes", "no-candidate"):
        for _ in range(count):
            g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(1, n):
                g[i][i - 1] = rng.choice((1, -1)) * rng.randint(1, 9)
                for j in range(i - 1):
                    g[i][j] = rng.randint(-20, 20)
            h = [row[:] for row in g]
            if kind == "no-candidate":
                i = rng.randint(2, n - 1)
                h[i][rng.randint(0, i - 2)] += rng.choice((1, -1)) * rng.randint(1, 3)
            else:
                for _ in range(2 * n):  # h <- (I - q E_ij) h (I + q E_ij), i > j
                    i = rng.randint(1, n - 1)
                    j, q = rng.randint(0, i - 1), rng.randint(-3, 3)
                    for row in h:
                        row[j] += q * row[i]
                    h[i] = [x - q * y for x, y in zip(h[i], h[j])]
                signs = [rng.choice((1, -1)) for _ in range(n)]
                h = [[signs[i] * signs[j] * h[i][j] for j in range(n)] for i in range(n)]
            pairs.append((kind, g, h))
    return pairs


def _intlattice_section() -> list[dict]:
    from nillat import classify, intlattice

    rng = random.Random(17)
    out = []
    for _ in range(150):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        density, span = rng.choice((0.2, 0.5, 1.0)), rng.choice((1, 3, 9, 40))
        m = [[rng.randint(-span, span) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
        x0 = [rng.randint(-3, 3) for _ in range(cols)]
        solvable = [sum(a * x for a, x in zip(row, x0)) for row in m]
        drawn = [rng.randint(-span, span) for _ in range(rows)]
        coeffs = [[rng.randint(-2, 2) for _ in range(rows)] for _ in range(rng.randint(1, 4))]
        sub = [[sum(k * row[c] for k, row in zip(ks, m)) for c in range(cols)] for ks in coeffs]
        snf = intlattice.smith_normal_form(m)
        out.append({"matrix": m, "snf": [snf.divisors, snf.left, snf.right],
                    "solve": [intlattice.solve_diophantine(m, solvable), intlattice.solve_diophantine(m, drawn)],
                    "kernel": intlattice.integer_kernel_basis(m), "hermite": intlattice.hermite_row_basis(m),
                    "quotient": intlattice.quotient_invariants(m, sub)})
    for n in range(3, 9):
        for kind, g, h in filiform_pairs(rng, n, 6):
            s1, s2 = classify.FiliformLatticeSpec(n, g), classify.FiliformLatticeSpec(n, h)
            out.append({"filiform": kind, "g": g, "h": h, "isomorphic": list(classify.filiform_isomorphic(s1, s2)),
                        "central_quotients": [classify.central_quotients(s1), classify.central_quotients(s2)]})
    return out


def _matrix_section() -> list[dict]:
    from nillat.errors import NillatError
    from nillat.matrix import Matrix, complement_basis, in_span, rref_basis, span_dim, span_equal

    def answer(fn, *args):
        try:
            return _canon(fn(*args))
        except NillatError as exc:
            return f"{type(exc).__name__}: {exc}"

    rng = random.Random(29)
    out = []
    for _ in range(120):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        if rng.random() < 0.5:
            cols = rows
        m = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) if rng.random() < 0.7 else Fraction(0)
              for _ in range(cols)] for _ in range(rows)]
        for i in range(1, rows):  # some rows a combination of the rows above
            if rng.random() < 0.2:
                ks = [rng.randint(-2, 2) for _ in range(i)]
                m[i] = [sum((k * m[t][c] for t, k in enumerate(ks)), Fraction(0)) for c in range(cols)]
        M = Matrix(m)
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
        drawn = [rng.randint(-5, 5) for _ in range(rows)]
        out.append({"matrix": _canon(m), "inverse": answer(M.inverse),
                    "solve": [answer(M.solve, M.apply(x0)), answer(M.solve, drawn), answer(M.solve, drawn + [1])],
                    "rank": M.rank(), "det": answer(M.det), "charpoly": answer(M.charpoly)})
    rng = random.Random(37)
    for t in range(120):
        dim, count = rng.randint(1, 7), rng.randint(0, 8)
        vecs = [[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 5))) if rng.random() < 0.6 else Fraction(0)
                 for _ in range(dim)] for _ in range(count)]
        for i in range(1, count):  # some vectors a combination of the ones before, some zero
            if rng.random() < 0.3:
                ks = [rng.randint(-2, 2) for _ in range(i)]
                vecs[i] = [sum((k * vecs[s][c] for s, k in enumerate(ks)), Fraction(0)) for c in range(dim)]
        if count and t % 10 == 7:
            vecs[rng.randrange(count)].append(Fraction(1))  # ragged
        if count and t % 10 == 8:
            vecs[rng.randrange(count)][rng.randrange(dim)] = rng.choice((0.5, "x", None))  # not a rational
        ks = [rng.randint(-2, 2) for _ in vecs]
        combination = [sum((k * v[c] for k, v in zip(ks, vecs) if isinstance(v[c], Fraction)), Fraction(0))
                       for c in range(dim)]
        drawn = [rng.randint(-3, 3) for _ in range(dim)]
        out.append({"vectors": _canon(vecs), "rref_basis": answer(rref_basis, vecs), "span_dim": answer(span_dim, vecs),
                    "in_span": [answer(in_span, v, vecs) for v in (combination, drawn, [0] * dim, drawn + [1])],
                    "span_equal": [answer(span_equal, vecs, vecs[::-1]), answer(span_equal, vecs, vecs[1:])],
                    "complement_basis": [answer(complement_basis, vecs, d) for d in (dim - 1, dim, dim + 1)],
                    "kernel_basis": answer(lambda: Matrix(vecs).kernel_basis())})
    return out


def _one(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "src"))
    import nillat

    return {"commalg": _commalg_section(), "lie": _lie_section(), "symplectic": _symplectic_section(),
            "cli": _cli_section(), "errors": _error_section(), "intlattice": _intlattice_section(),
            "matrix": _matrix_section(), "anosov": _anosov_section(), "quadratic": _quadratic_section()}


def _compare(parent: Path, change: Path) -> int:
    docs = []
    for checkout in (parent, change):
        proc = subprocess.run([sys.executable, __file__, str(checkout)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"outputs failed on {checkout}:\n{proc.stderr}")
        docs.append(json.loads(proc.stdout))
    p, c = docs
    status = 0
    for section in p:
        if p[section] == c[section]:
            print(f"{section}: {len(p[section])} entries identical")
            continue
        status = 1
        if len(p[section]) != len(c[section]):
            print(f"{section}: different lengths {len(p[section])} vs {len(c[section])}")
        for i, (a, b) in enumerate(zip(p[section], c[section])):
            if a != b:
                print(f"{section} entry {i} differs:\n  parent {a}\n  change {b}")
    return status


def main() -> int:
    args = [Path(a).resolve() for a in sys.argv[1:]] or [Path(__file__).resolve().parents[1]]
    if len(args) > 2 or not all((a / "src" / "nillat").is_dir() for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    if len(args) == 2:
        return _compare(*args)
    print(json.dumps(_one(args[0]), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
